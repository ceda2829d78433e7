//! A deterministic discrete-event distributed-system simulator.
//!
//! This crate is the execution substrate substituting for the paper's
//! distributed actor prototype (see DESIGN.md §5, "Substitutions"): it
//! provides sites, nodes, latency models, per-link FIFO delivery (which
//! only a fault plan's jitter reorders), a virtual clock, and traffic
//! statistics — everything the event-centric scheduler of the `dist`
//! crate needs to run *distributed* executions reproducibly on one
//! machine.

#![warn(missing_docs)]

mod faults;
mod net;
mod parallel;
mod stats;

pub use faults::{Crash, FaultPlan, FaultStats, LinkFaults, Partition};
pub use net::{
    Ctx, LatencyModel, Network, NodeId, Process, RunOutcome, SimConfig, SiteId, Termination, Time,
};
pub use parallel::{ParallelConfig, ParallelStats, WorkerLoad};
pub use stats::NetStats;
