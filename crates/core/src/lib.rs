//! **constrained-events** — a faithful implementation of
//! *Synthesizing Distributed Constrained Events from Transactional
//! Workflow Specifications* (Munindar P. Singh, ICDE 1996).
//!
//! Declaratively specify intertask dependencies in an event algebra,
//! compile them into localized temporal guards (Definition 2), and
//! execute workflows **without a centralized scheduler**: one actor per
//! event evaluates its own guard, exchanging `□e` announcements, `◇e`
//! promises and not-yet agreements over a (simulated) distributed
//! network.
//!
//! # Quickstart
//!
//! ```
//! use constrained_events::WorkflowBuilder;
//! use constrained_events::agents::library::rda_transaction;
//! use constrained_events::Script;
//!
//! // Example 4: buy a ticket, book a car; book is compensatable, buy is
//! // not, so buy commits only after book.
//! let mut b = WorkflowBuilder::new("travel");
//! let buy = rda_transaction("buy", b.table());
//! let book = rda_transaction("book", b.table());
//! b.add_agent(0, buy, Script::of(&["start", "commit"]));
//! b.add_agent(1, book, Script::of(&["start", "commit"]));
//! b.dependency_str("~buy::start + book::start").unwrap();
//! b.dependency_str("~buy::commit + book::commit . buy::commit").unwrap();
//! let workflow = b.build();
//!
//! let report = workflow.run(42);
//! assert!(report.all_satisfied());
//! ```
//!
//! The re-exported crates provide the full stack: [`algebra`] (event
//! expressions, residuation, dependency machines and the
//! [`algebra::DepTracker`] every scheduler follows them through),
//! [`logic`] (the guard language `T`), [`guards`] (guard synthesis),
//! [`network`] (the deterministic simulator), [`agents`] (task
//! skeletons), [`distributed`] (the event-centric scheduler),
//! [`centralized`] (baselines), [`monitors`] (online runtime
//! verification) and [`spec`] (the declarative language).

#![warn(missing_docs)]

pub use agent as agents;
pub use baseline as centralized;
pub use dist as distributed;
pub use event_algebra as algebra;
pub use guard as guards;
pub use monitor as monitors;
pub use sim as network;
pub use speclang as spec;
pub use temporal as logic;

pub use agent::{EventAttrs, TaskAgent};
pub use baseline::{run_centralized, CentralConfig, Engine};
pub use dist::{
    run_workflow, run_workflow_with_faults, AgentSpec, ExecConfig, FreeEventSpec, ReliableConfig,
    RunReport, Script, WorkflowSpec,
};
pub use event_algebra::{Expr, Literal, SymbolId, SymbolTable, Trace};
pub use guard::{CompiledWorkflow, GuardScope};
pub use monitor::{Alert, AlertKind, DepVerdict, MonitorConfig, MonitorReport, WorkflowMonitor};
pub use sim::{FaultPlan, Termination};
pub use speclang::LoweredWorkflow;
pub use temporal::{Guard, TExpr};

pub mod models;
mod template;

pub use template::{travel_template, TemplateEvent, WorkflowTemplate};

use event_algebra::{parse_expr, PExpr};
use sim::SiteId;

/// Builder assembling a workflow: agents, free events and dependencies
/// over one shared symbol table.
pub struct WorkflowBuilder {
    name: String,
    table: SymbolTable,
    deps: Vec<Expr>,
    templates: Vec<PExpr>,
    agents: Vec<AgentSpec>,
    free: Vec<FreeEventSpec>,
}

impl WorkflowBuilder {
    /// Start a workflow named `name`.
    pub fn new(name: &str) -> WorkflowBuilder {
        WorkflowBuilder {
            name: name.to_owned(),
            table: SymbolTable::new(),
            deps: Vec::new(),
            templates: Vec::new(),
            agents: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Build from a specification file (see the `speclang` crate for the
    /// syntax): declared events become free events, declared agents are
    /// instantiated from the agent library (`rda`, `app`, `compensatable`,
    /// `two_phase`, `looper`) with their scripts, dependencies are
    /// lowered, parametrized templates retained.
    pub fn from_spec(src: &str) -> Result<WorkflowBuilder, speclang::SpecError> {
        let lowered = LoweredWorkflow::parse(src)?;
        let mut b = WorkflowBuilder {
            name: lowered.name,
            table: lowered.table,
            deps: lowered.ground_deps,
            templates: lowered.templates,
            agents: Vec::with_capacity(lowered.agents.len()),
            free: Vec::with_capacity(lowered.events.len()),
        };
        for ev in &lowered.events {
            let attrs = EventAttrs {
                controllable: ev.controllable || ev.triggerable,
                triggerable: ev.triggerable,
                rejectable: !ev.immediate,
            };
            b.free.push(FreeEventSpec {
                site: SiteId(ev.site.unwrap_or(0)),
                lit: ev.literal,
                attrs,
                attempt_after: None,
            });
        }
        for a in &lowered.agents {
            let at = |message: String| speclang::SpecError {
                line: a.span.line,
                col: a.span.col,
                message,
            };
            let task = match a.kind.as_str() {
                "rda" => agent::library::rda_transaction(&a.name, &mut b.table),
                "app" => agent::library::typical_application(&a.name, &mut b.table),
                "compensatable" => agent::library::compensatable_task(&a.name, &mut b.table),
                "two_phase" => agent::library::two_phase_participant(&a.name, &mut b.table),
                "looper" => agent::library::looping_task(&a.name, &mut b.table),
                other => return Err(at(format!("unknown agent kind {other}"))),
            };
            let mut script = Script::default();
            for step in &a.script {
                script = match step {
                    speclang::ScriptItem::Event(name) if task.event_named(name).is_none() => {
                        return Err(at(format!("agent {} has no event {name}", a.name)));
                    }
                    speclang::ScriptItem::Event(name) => script.then(name),
                    speclang::ScriptItem::Wait(t) => script.wait(*t),
                };
            }
            b.agents.push(AgentSpec { site: SiteId(a.site), agent: task, script });
        }
        Ok(b)
    }

    /// The shared symbol table (pass to `agent::library` constructors).
    pub fn table(&mut self) -> &mut SymbolTable {
        &mut self.table
    }

    /// Place a task agent on a site with a script.
    pub fn add_agent(&mut self, site: u32, agent: TaskAgent, script: Script) -> &mut Self {
        self.agents.push(AgentSpec { site: SiteId(site), agent, script });
        self
    }

    /// Add an agent-less event.
    pub fn add_free_event(
        &mut self,
        site: u32,
        name: &str,
        attrs: EventAttrs,
        attempt_after: Option<u64>,
    ) -> Literal {
        let lit = self.table.event(name);
        self.free.push(FreeEventSpec { site: SiteId(site), lit, attrs, attempt_after });
        lit
    }

    /// Add a dependency given as an expression.
    pub fn dependency(&mut self, d: Expr) -> &mut Self {
        self.deps.push(d);
        self
    }

    /// Add a dependency in the plain algebra syntax (`~e + f`).
    pub fn dependency_str(&mut self, src: &str) -> Result<&mut Self, String> {
        let d = parse_expr(src, &mut self.table).map_err(|e| e.to_string())?;
        self.deps.push(d);
        Ok(self)
    }

    /// Add a dependency in the full spec syntax (Klein sugar, macros,
    /// parameters). Parametrized dependencies become templates.
    pub fn dependency_spec(&mut self, src: &str) -> Result<&mut Self, String> {
        let d = speclang::parse_dependency(src).map_err(|e| e.to_string())?;
        if d.vars().is_empty() {
            let ground = d.instantiate(&event_algebra::Binding::new(), &mut self.table);
            self.deps.push(ground);
        } else {
            self.templates.push(d);
        }
        Ok(self)
    }

    /// Append every agent's *structure dependencies* (derived from its
    /// skeleton by dominator analysis — e.g. `~commit + start.commit`) to
    /// the workflow, so the scheduler can reason over task structure:
    /// once a task's start is ruled out, its commit is provably never
    /// coming, which cascades into compensations. Opt-in because it
    /// enlarges guards and traffic.
    pub fn add_structure_deps(&mut self) -> &mut Self {
        let mut extra = Vec::new();
        for a in &self.agents {
            extra.extend(a.agent.structure_dependencies());
        }
        self.deps.extend(extra);
        self
    }

    /// Finish building.
    pub fn build(self) -> Workflow {
        Workflow {
            name: self.name,
            templates: self.templates,
            spec: WorkflowSpec {
                table: self.table,
                dependencies: self.deps,
                agents: self.agents,
                free_events: self.free,
            },
        }
    }
}

/// A ready-to-run workflow.
pub struct Workflow {
    /// Workflow name.
    pub name: String,
    /// The executable specification.
    pub spec: WorkflowSpec,
    /// Parametrized templates for the dynamic scheduler (Section 5).
    pub templates: Vec<PExpr>,
}

impl Workflow {
    /// Run on the deterministic simulated network with the distributed
    /// event-centric scheduler.
    pub fn run(&self, seed: u64) -> RunReport {
        run_workflow(&self.spec, ExecConfig::seeded(seed))
    }

    /// Run with a custom executor configuration.
    pub fn run_with(&self, config: ExecConfig) -> RunReport {
        run_workflow(&self.spec, config)
    }

    /// Run with fault injection: messages are dropped, duplicated,
    /// delayed or cut by partitions, and nodes crash and restart, as the
    /// plan dictates. Pair with [`ExecConfig::reliable`] to keep the
    /// protocol's guarantees on the lossy network.
    pub fn run_faulty(&self, config: ExecConfig, plan: FaultPlan) -> RunReport {
        run_workflow_with_faults(&self.spec, config, plan)
    }

    /// Run under the centralized baseline scheduler.
    pub fn run_centralized(&self, seed: u64, engine: Engine) -> RunReport {
        run_centralized(&self.spec, CentralConfig::new(seed, engine))
    }

    /// Compile the per-event guard table (Definition 2).
    pub fn compile_guards(&self) -> CompiledWorkflow {
        CompiledWorkflow::compile(&self.spec.dependencies, GuardScope::Mentioning)
    }

    /// Render the guard on a named event, using the workflow's names.
    pub fn guard_text(&self, event: &str) -> Option<String> {
        let sym = self.spec.table.lookup(event)?;
        let compiled = self.compile_guards();
        let g = compiled.guard(Literal::pos(sym));
        Some(format!("{}", g.to_texpr().display(&self.spec.table)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agent::library::rda_transaction;

    #[test]
    fn builder_assembles_and_runs() {
        let mut b = WorkflowBuilder::new("t");
        let e = b.add_free_event(0, "e", EventAttrs::controllable(), Some(1));
        let f = b.add_free_event(1, "f", EventAttrs::controllable(), Some(1));
        b.dependency_str("~e + ~f + e.f").unwrap();
        let w = b.build();
        let r = w.run(11);
        assert!(r.all_satisfied(), "{r:?}");
        let _ = (e, f);
    }

    #[test]
    fn guard_text_matches_paper() {
        let mut b = WorkflowBuilder::new("t");
        b.add_free_event(0, "e", EventAttrs::controllable(), None);
        b.add_free_event(0, "f", EventAttrs::controllable(), None);
        b.dependency_str("~e + ~f + e.f").unwrap();
        let w = b.build();
        // G(D<, e) = ¬f (Example 9.6).
        assert_eq!(w.guard_text("e").unwrap(), "!f");
        // G(D<, f) = ◇ē + □e (Example 9.8; printed in canonical order).
        assert_eq!(w.guard_text("f").unwrap(), "[]e + <>~e");
        assert!(w.guard_text("zzz").is_none());
    }

    #[test]
    fn from_spec_roundtrip() {
        let src = r#"
            workflow demo {
                event e;
                event f { immediate } @ site 2;
                dep d: e < f;
            }
        "#;
        let b = WorkflowBuilder::from_spec(src).unwrap();
        let w = b.build();
        assert_eq!(w.name, "demo");
        assert_eq!(w.spec.dependencies.len(), 1);
        assert_eq!(w.spec.free_events.len(), 2);
        assert_eq!(w.spec.free_events[1].site, SiteId(2));
    }

    #[test]
    fn agents_share_the_builder_table() {
        let mut b = WorkflowBuilder::new("t");
        let agent = rda_transaction("buy", b.table());
        b.add_agent(0, agent, Script::of(&["start", "commit"]));
        b.dependency_str("~buy::commit + done").unwrap();
        let w = b.build();
        let r = w.run(3);
        // buy.commit's guard requires ◇done; done is never attempted, so
        // the promise is denied and commit stays parked; the maximal
        // extension appends complements and d is judged on it.
        assert!(w.spec.table.lookup("buy.commit").is_some());
        let _ = r;
    }

    #[test]
    fn parametrized_specs_become_templates() {
        let mut b = WorkflowBuilder::new("t");
        b.dependency_spec("~f[y] + g[y]").unwrap();
        b.dependency_spec("a -> c").unwrap();
        let w = b.build();
        assert_eq!(w.templates.len(), 1);
        assert_eq!(w.spec.dependencies.len(), 1);
    }
}
