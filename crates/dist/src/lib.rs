//! The distributed event-centric scheduler of Singh (ICDE 1996) — the
//! paper's headline system.
//!
//! A workflow's dependencies are compiled into localized temporal guards
//! (crate `guard`); one [`SymbolActor`] per event evaluates its own guard,
//! exchanging `□e` announcements, `◇e` promises (Example 11) and not-yet
//! agreements over a simulated distributed network (crate `sim`). Task
//! agents (crate `agent`) request permission for controllable events,
//! report immediate ones, and service triggers. No centralized scheduler
//! exists anywhere in the running system.

#![warn(missing_docs)]

mod actor;
mod agent_node;
mod exec;
mod fleet;
mod memo;
mod msg;
pub mod parallel;
pub mod param;
mod reliable;
mod slot;
pub mod tenant;
mod wal;

pub use actor::{ActorStats, LitState, Routing, SymbolActor};
pub use agent_node::{AgentNode, Script, ScriptStep};
pub use event_algebra::DepTracker;
pub use exec::{
    build_workflow, guard_gated, run_workflow, run_workflow_with_faults, AgentSpec, BuiltWorkflow,
    ExecConfig, FreeEventSpec, Node, RunReport, WorkflowSpec,
};
pub use fleet::{Arrival, InstanceOutcome};
pub use memo::GuardInfo;
pub use msg::{InstanceId, Msg};
pub use parallel::{run_parallel_fleet, ParallelFleetReport};
pub use reliable::{Reliable, ReliableConfig};
pub use slot::{InstanceSlot, InstanceTotals, NetNode};
pub use tenant::{run_tenant, TenantConfig, TenantReport};
pub use wal::{NodeStore, WalEntry};
