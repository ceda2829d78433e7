//! Centralized baseline schedulers.
//!
//! The paper's Section 4 motivates distributed guards by contrast with "a
//! centralized dependency-centric scheduler, in which dependencies are
//! explicitly represented in one place in the system", which "would
//! suffer from all the problems attendant to centralization". This module
//! implements that scheduler — in two engine variants — over the *same*
//! [`WorkflowSpec`]s, network simulator, agents and message protocol as
//! the distributed engine, so the architectural comparison (experiments
//! C1/C4) is apples-to-apples:
//!
//! - [`Engine::Symbolic`] — Section 3.3/3.4: the scheduler holds each
//!   dependency's residual expression and residuates at runtime;
//! - [`Engine::Automata`] — the approach of Attie et al. [2]: each
//!   dependency is precompiled into its finite residual machine and the
//!   scheduler just follows transitions (trading compile-time state
//!   enumeration for cheap runtime steps; it "avoids generating product
//!   automata, but the individual automata themselves can be quite
//!   large").
//!
//! The two engines are the two constructors of one
//! [`event_algebra::DepTracker`]: the scheduler follows every dependency
//! through its tracker and decides by [`event_algebra::acceptance`], the
//! test the distributed actors' trackers and the Section 5 scheduler
//! answer too.

use agent::EventAttrs;
use dist::{AgentNode, Msg, Routing, RunReport, WorkflowSpec};
use event_algebra::{
    acceptance, verdict, Acceptance, DepTracker, DependencyMachine, Expr, Literal, SymbolId,
    SymbolMap, Trace,
};
use sim::{Ctx, Network, NodeId, Process, SimConfig, SiteId, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which enforcement engine the central scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Runtime symbolic residuation (Section 3.3).
    Symbolic,
    /// Precompiled per-dependency automata (\[2\]).
    Automata,
}

impl Engine {
    /// One tracker per dependency, the way this engine follows them.
    fn trackers(self, deps: &[Expr]) -> Vec<DepTracker> {
        match self {
            Engine::Symbolic => deps.iter().map(DepTracker::symbolic).collect(),
            Engine::Automata => {
                DependencyMachine::compile_all(deps).into_iter().map(DepTracker::compiled).collect()
            }
        }
    }
}

/// The single scheduler node holding every dependency.
pub struct CentralNode {
    /// Every dependency's residual, followed the engine's way.
    trackers: Vec<DepTracker>,
    attrs: BTreeMap<Literal, EventAttrs>,
    occurred: BTreeMap<SymbolId, (Literal, Time, u64)>,
    parked: BTreeSet<Literal>,
    /// Parked complements forced by a rejection (no agent is waiting).
    forced: BTreeSet<Literal>,
    triggered: BTreeSet<Literal>,
    /// Scheduling decisions taken (accept/reject), for stats.
    pub decisions: u64,
    /// Monotone occurrence counter: several events can occur within one
    /// message delivery (a cascade of parked wake-ups), so the delivery
    /// sequence alone cannot order them.
    occurrence_seq: u64,
    routing: Arc<Routing>,
}

impl CentralNode {
    fn new(
        engine: Engine,
        deps: &[Expr],
        attrs: BTreeMap<Literal, EventAttrs>,
        routing: Arc<Routing>,
    ) -> CentralNode {
        CentralNode {
            trackers: engine.trackers(deps),
            attrs,
            occurred: BTreeMap::new(),
            parked: BTreeSet::new(),
            forced: BTreeSet::new(),
            triggered: BTreeSet::new(),
            decisions: 0,
            occurrence_seq: 0,
            routing,
        }
    }

    fn resolved(&self, sym: SymbolId) -> bool {
        self.occurred.contains_key(&sym)
    }

    /// Section 3.4's test over every dependency. `Dead` — no satisfying
    /// completion of some residual ever contains `lit` — forces the
    /// complement; `Unsafe` merely means *not yet*: the attempt parks.
    fn acceptance(&self, lit: Literal) -> Acceptance {
        acceptance(&self.trackers, lit, &BTreeSet::new())
    }

    fn advance(&mut self, lit: Literal) {
        for t in &mut self.trackers {
            t.step(lit);
        }
    }

    fn occur(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        self.occurrence_seq += 1;
        self.occurred.insert(lit.symbol(), (lit, ctx.now(), self.occurrence_seq));
        self.advance(lit);
        self.decisions += 1;
        if let Some(&agent) = self.routing.agent_of.get(&lit.symbol()) {
            ctx.send(agent, Msg::Granted { lit });
        }
        self.check_triggers(ctx);
        self.wake_parked(ctx);
    }

    fn check_triggers(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // A triggerable, unoccurred literal required by some dependency's
        // remaining obligation is proactively triggered.
        let to_trigger: Vec<Literal> = self
            .attrs
            .iter()
            .filter(|(l, a)| {
                a.triggerable && !self.resolved(l.symbol()) && !self.triggered.contains(l)
            })
            .map(|(&l, _)| l)
            .filter(|&l| self.trackers.iter().any(|t| t.requires(l)))
            .collect();
        for l in to_trigger {
            if let Some(&agent) = self.routing.agent_of.get(&l.symbol()) {
                self.triggered.insert(l);
                ctx.send(agent, Msg::Trigger { lit: l });
            }
        }
    }

    fn wake_parked(&mut self, ctx: &mut Ctx<'_, Msg>) {
        loop {
            let parked: Vec<Literal> = self.parked.iter().copied().collect();
            let mut progressed = false;
            for p in parked {
                if self.resolved(p.symbol()) {
                    self.parked.remove(&p);
                    self.forced.remove(&p);
                    continue;
                }
                let forced = self.forced.contains(&p);
                match self.acceptance(p) {
                    Acceptance::Safe => {
                        self.parked.remove(&p);
                        self.forced.remove(&p);
                        if forced {
                            self.occur_silent(ctx, p);
                        } else {
                            self.occur(ctx, p);
                        }
                        progressed = true;
                    }
                    Acceptance::Dead => {
                        self.parked.remove(&p);
                        self.forced.remove(&p);
                        self.decisions += 1;
                        if !forced {
                            if let Some(&agent) = self.routing.agent_of.get(&p.symbol()) {
                                ctx.send(agent, Msg::Rejected { lit: p });
                            }
                        }
                        self.occur_complement(ctx, p);
                        progressed = true;
                    }
                    Acceptance::Unsafe => {}
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// After rejecting `rejected`, its complement is inevitable — but its
    /// *timing* still respects acceptability: park it like any attempt.
    fn occur_complement(&mut self, ctx: &mut Ctx<'_, Msg>, rejected: Literal) {
        if !self.resolved(rejected.symbol()) {
            let c = rejected.complement();
            match self.acceptance(c) {
                Acceptance::Safe => self.occur_silent(ctx, c),
                Acceptance::Unsafe => {
                    self.parked.insert(c);
                    self.forced.insert(c);
                }
                // Both polarities dead: jointly contradictory; the symbol
                // stays unresolved and is reported by the harness.
                Acceptance::Dead => {}
            }
        }
    }

    /// Occur without notifying any agent (forced complements have no
    /// requesting agent).
    fn occur_silent(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        self.occurrence_seq += 1;
        self.occurred.insert(lit.symbol(), (lit, ctx.now(), self.occurrence_seq));
        self.advance(lit);
        self.check_triggers(ctx);
        self.wake_parked(ctx);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Attempt { lit } => {
                if let Some(&(occ, _, _)) = self.occurred.get(&lit.symbol()) {
                    let reply =
                        if occ == lit { Msg::Granted { lit } } else { Msg::Rejected { lit } };
                    if let Some(&agent) = self.routing.agent_of.get(&lit.symbol()) {
                        ctx.send(agent, reply);
                    }
                    return;
                }
                match self.acceptance(lit) {
                    Acceptance::Safe => self.occur(ctx, lit),
                    Acceptance::Dead => {
                        self.decisions += 1;
                        if let Some(&agent) = self.routing.agent_of.get(&lit.symbol()) {
                            ctx.send(agent, Msg::Rejected { lit });
                        }
                        self.occur_complement(ctx, lit);
                    }
                    Acceptance::Unsafe => {
                        self.parked.insert(lit);
                    }
                }
            }
            Msg::Inform { lit } => {
                if !self.resolved(lit.symbol()) {
                    self.occur_silent(ctx, lit);
                }
            }
            Msg::Kick => {}
            other => panic!("central scheduler received {other:?}"),
        }
    }
}

/// A node in the centralized deployment: the scheduler, an agent, or a
/// client standing in for an agent-less free event at its own site (so
/// attempts genuinely cross the network to the scheduler, as they would
/// in a real deployment).
pub enum CNode {
    /// The single central scheduler.
    Central(CentralNode),
    /// A task-agent driver (identical to the distributed one).
    Agent(AgentNode),
    /// Free-event client: sends its attempt on kick, absorbs the reply.
    Client {
        /// The event this client attempts.
        lit: Literal,
        /// Whether the event is controllable (attempt) or immediate
        /// (inform).
        controllable: bool,
        /// The scheduler's node.
        central: NodeId,
        /// Set once the decision arrived.
        decided: Option<bool>,
    },
}

impl Process<Msg> for CNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        match self {
            CNode::Central(c) => c.handle(ctx, msg),
            CNode::Agent(a) => a.handle(ctx, msg),
            CNode::Client { lit, controllable, central, decided } => match msg {
                Msg::Kick => {
                    let m = if *controllable {
                        Msg::Attempt { lit: *lit }
                    } else {
                        Msg::Inform { lit: *lit }
                    };
                    ctx.send(*central, m);
                }
                Msg::Granted { .. } => *decided = Some(true),
                Msg::Rejected { .. } => *decided = Some(false),
                Msg::Trigger { .. } => { /* clients have nothing to run */ }
                other => panic!("client received {other:?}"),
            },
        }
    }
}

/// Configuration for a centralized run.
#[derive(Debug, Clone, Copy)]
pub struct CentralConfig {
    /// Network parameters.
    pub sim: SimConfig,
    /// Enforcement engine.
    pub engine: Engine,
    /// Delivery budget.
    pub max_steps: u64,
}

impl CentralConfig {
    /// Defaults with a seed and engine.
    pub fn new(seed: u64, engine: Engine) -> CentralConfig {
        CentralConfig {
            sim: SimConfig { seed, ..SimConfig::default() },
            engine,
            max_steps: 1_000_000,
        }
    }
}

/// Run `spec` under the centralized scheduler. Agents live on their
/// declared sites; every scheduling decision crosses the network to the
/// scheduler's site, site 0.
pub fn run_centralized(spec: &WorkflowSpec, config: CentralConfig) -> RunReport {
    // Routing: every symbol's "actor" is the central node (node 0 after
    // agents); agents keep their ids. AgentNode sends attempts through
    // routing.actor_of, so it works unchanged.
    let mut attrs_of: BTreeMap<Literal, EventAttrs> = BTreeMap::new();
    let mut symbols: BTreeSet<SymbolId> = BTreeSet::new();
    for d in &spec.dependencies {
        symbols.extend(d.symbols());
    }
    let mut routing = Routing::default();
    let agent_count = spec.agents.len();
    let central_id = NodeId(agent_count as u32);
    for (aix, a) in spec.agents.iter().enumerate() {
        for ev in &a.agent.events {
            symbols.insert(ev.literal.symbol());
            attrs_of.insert(ev.literal, ev.attrs);
            attrs_of.insert(ev.literal.complement(), EventAttrs::immediate());
            routing.agent_of.insert(ev.literal.symbol(), NodeId(aix as u32));
        }
    }
    for f in &spec.free_events {
        symbols.insert(f.lit.symbol());
        attrs_of.insert(f.lit, f.attrs);
        attrs_of.entry(f.lit.complement()).or_insert_with(EventAttrs::immediate);
    }
    for &s in &symbols {
        routing.actor_of.insert(s, central_id);
    }
    let routing = Arc::new(routing);

    // Clients for attempted free events are placed at the event's own
    // site; their node ids follow agents and the scheduler.
    let mut routing = routing.as_ref().clone();
    let client_base = agent_count + 1;
    let mut clients: Vec<(SiteId, Literal, bool, Time)> = Vec::new();
    for f in &spec.free_events {
        if let Some(after) = f.attempt_after {
            let id = NodeId((client_base + clients.len()) as u32);
            routing.agent_of.insert(f.lit.symbol(), id);
            clients.push((f.site, f.lit, f.attrs.controllable, after));
        }
    }
    let routing = Arc::new(routing);

    let mut nodes: Vec<(SiteId, CNode)> = Vec::new();
    for a in &spec.agents {
        nodes.push((
            a.site,
            CNode::Agent(AgentNode::new(&a.agent, &a.script, Arc::clone(&routing))),
        ));
    }
    nodes.push((
        SiteId(0),
        CNode::Central(CentralNode::new(
            config.engine,
            &spec.dependencies,
            attrs_of.clone(),
            Arc::clone(&routing),
        )),
    ));
    for &(site, lit, controllable, _) in &clients {
        nodes.push((site, CNode::Client { lit, controllable, central: central_id, decided: None }));
    }

    let mut net: Network<Msg, CNode> = Network::new(config.sim, nodes);
    for aix in 0..agent_count {
        let id = NodeId(aix as u32);
        net.inject(id, id, Msg::Kick);
    }
    // A client's kick arrives when the distributed engine's attempt does
    // (`dist` injects it `attempt_after - 1` ticks late too).
    for (ix, &(.., after)) in clients.iter().enumerate() {
        let id = NodeId((client_base + ix) as u32);
        net.inject_after(id, id, Msg::Kick, after.saturating_sub(1));
    }
    let outcome = net.run_to_quiescence(config.max_steps);
    let duration = net.now();
    let stats = net.stats().clone();
    let all = net.into_nodes();
    let CNode::Central(central) = &all[central_id.0 as usize] else { unreachable!() };

    // ----- report (same shape as the distributed engine's) -----
    let mut occurrences: Vec<(Literal, Time, u64)> = central.occurred.values().copied().collect();
    occurrences.sort_by_key(|&(_, t, q)| (t, q));
    let unresolved: Vec<SymbolId> =
        symbols.iter().copied().filter(|s| !central.occurred.contains_key(s)).collect();
    let trace = Trace::new(occurrences.iter().map(|&(l, _, _)| l)).expect("unique symbols");
    let (maximal_trace, satisfied) = verdict(&trace, &unresolved, &spec.dependencies);
    RunReport {
        trace,
        occurrences,
        unresolved,
        maximal_trace,
        satisfied,
        duration,
        steps: outcome.steps,
        net: stats,
        actor_stats: SymbolMap::new(),
        parked: central.parked.iter().copied().collect(),
        broken_promises: Vec::new(),
        termination: outcome.termination,
        fault_stats: None,
        divergence: Vec::new(),
        metrics: dist::RunMetrics::default(),
        recording: None,
        alerts: Vec::new(),
        monitor: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist::FreeEventSpec;
    use event_algebra::{parse_expr, SymbolTable};

    fn d_precedes_spec() -> (WorkflowSpec, Literal, Literal) {
        let mut table = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        let spec = WorkflowSpec {
            table,
            dependencies: vec![d],
            agents: vec![],
            free_events: vec![
                FreeEventSpec {
                    site: SiteId(1),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(2),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        };
        (spec, e, f)
    }

    #[test]
    fn symbolic_engine_enforces_d_precedes() {
        for seed in 0..10 {
            let (spec, e, f) = d_precedes_spec();
            let report = run_centralized(&spec, CentralConfig::new(seed, Engine::Symbolic));
            assert!(report.all_satisfied(), "seed {seed}: {report:?}");
            let _ = (e, f);
        }
    }

    #[test]
    fn automata_engine_matches_symbolic() {
        for seed in 0..10 {
            let (spec, _, _) = d_precedes_spec();
            let r1 = run_centralized(&spec, CentralConfig::new(seed, Engine::Symbolic));
            let (spec2, _, _) = d_precedes_spec();
            let r2 = run_centralized(&spec2, CentralConfig::new(seed, Engine::Automata));
            assert_eq!(r1.trace, r2.trace, "seed {seed}");
            assert_eq!(r1.satisfied, r2.satisfied);
        }
    }

    #[test]
    fn precedence_is_enforced_in_every_outcome() {
        // Under D<, whatever choices the central scheduler makes (it may
        // accept f first and then reject e, forcing ē — a legitimate
        // resolution), the realized maximal trace satisfies the
        // dependency: e never follows f.
        for seed in 0..10 {
            let (spec, e, f) = d_precedes_spec();
            let report = run_centralized(&spec, CentralConfig::new(seed, Engine::Symbolic));
            assert!(report.all_satisfied(), "seed {seed}: {report:?}");
            let evs = report.maximal_trace.events();
            if let (Some(pe), Some(pf)) =
                (evs.iter().position(|&l| l == e), evs.iter().position(|&l| l == f))
            {
                assert!(pe < pf, "seed {seed}: {report:?}");
            }
        }
    }

    #[test]
    fn parked_event_wakes_after_enabling_occurrence() {
        // D→ = ē + f with f triggerable: e occurs, f is required, the
        // trigger logic fires it... here with free events we emulate:
        // attempt f only (guardless under D→ it is accepted right away);
        // then attempt e late: residual already ⊤, accepted.
        let mut table = SymbolTable::new();
        let d = parse_expr("~e + f", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        let spec = WorkflowSpec {
            table,
            dependencies: vec![d],
            agents: vec![],
            free_events: vec![
                FreeEventSpec {
                    site: SiteId(1),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(2),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(30),
                },
            ],
        };
        let report = run_centralized(&spec, CentralConfig::new(5, Engine::Symbolic));
        assert!(report.all_satisfied(), "{report:?}");
        assert_eq!(report.trace.len(), 2, "{report:?}");
    }

    #[test]
    fn late_attempt_arrives_late() {
        // D< with f attempted at start and e at tick 40, by which time f's
        // attempt (at most 21 ticks away) has been granted: e after f
        // violates D<, so e is rejected on every seed — as under `dist`,
        // which injects the attempt at the same tick.
        for seed in 0..10 {
            let (mut spec, e, f) = d_precedes_spec();
            spec.free_events[0].attempt_after = Some(40);
            let report = run_centralized(&spec, CentralConfig::new(seed, Engine::Symbolic));
            assert_eq!(report.trace.events(), [f, e.complement()], "seed {seed}: {report:?}");
            assert!(report.occurrences[1].1 >= 40, "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn all_decisions_route_through_one_site() {
        let (spec, _, _) = d_precedes_spec();
        let report = run_centralized(&spec, CentralConfig::new(1, Engine::Symbolic));
        // Free events were injected at the scheduler itself here, so the
        // traffic is minimal — but the routing table maps every symbol to
        // the central node.
        assert!(report.steps > 0);
    }
}
