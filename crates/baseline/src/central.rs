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

use agent::EventAttrs;
use dist::{AgentNode, Msg, Routing, RunReport, WorkflowSpec};
use event_algebra::{
    normalize, requires, residuate, satisfiable, satisfiable_avoiding, satisfies,
    DependencyMachine, Expr, Literal, StateId, SymbolId, Trace,
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

/// Precomputed per-dependency automaton tables: next-state, liveness,
/// required-event and can-ever-occur bitmaps, so the runtime is pure
/// lookups.
#[derive(Debug)]
struct CompiledMachine {
    machine: DependencyMachine,
    live: Vec<bool>,
    /// `required[state][k]` — alphabet literal `k` must occur from here.
    required: Vec<Vec<bool>>,
    /// `can_ever[state][k]` — some satisfying completion from here
    /// contains alphabet literal `k` (not necessarily immediately).
    can_ever: Vec<Vec<bool>>,
}

impl CompiledMachine {
    fn compile(d: &Expr) -> CompiledMachine {
        let machine = DependencyMachine::compile(d);
        // All three tables are now O(1) reads of the machine's own
        // compile-time reachability analysis (can-ever is the avoidance
        // table at the literal's complement, which is in Γ_D by closure).
        let live = machine.live_mask();
        let required = (0..machine.state_count())
            .map(|s| {
                machine
                    .alphabet
                    .iter()
                    .map(|&l| machine.requires_event(StateId(s as u32), l))
                    .collect()
            })
            .collect();
        let can_ever = (0..machine.state_count())
            .map(|s| {
                machine
                    .alphabet
                    .iter()
                    .map(|&l| machine.may_reach_avoiding(StateId(s as u32), l.complement()))
                    .collect()
            })
            .collect();
        CompiledMachine { machine, live, required, can_ever }
    }
}

/// The single scheduler node holding every dependency.
pub struct CentralNode {
    engine: Engine,
    /// Symbolic engine state: current residuals.
    residuals: Vec<Expr>,
    /// Automata engine state: compiled machines + current states.
    machines: Vec<CompiledMachine>,
    states: Vec<StateId>,
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
            engine,
            residuals: deps.iter().map(normalize).collect(),
            machines: deps.iter().map(CompiledMachine::compile).collect(),
            states: deps.iter().map(|_| StateId(0)).collect(),
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

    /// Acceptance per Section 3.4: every dependency stays satisfiable.
    fn acceptable(&self, lit: Literal) -> bool {
        match self.engine {
            Engine::Symbolic => self.residuals.iter().all(|r| satisfiable(&residuate(r, lit))),
            Engine::Automata => self.machines.iter().zip(&self.states).all(|(m, &s)| {
                let next = m.machine.step(s, lit);
                m.live[next.index()]
            }),
        }
    }

    /// `lit` is dead iff no satisfying completion of some residual ever
    /// contains it — only then is the complement forced. (An immediately
    /// unsatisfiable residual after `lit` merely means *not yet*: the
    /// attempt parks.)
    fn dead(&self, lit: Literal) -> bool {
        match self.engine {
            Engine::Symbolic => {
                self.residuals.iter().any(|r| !satisfiable_avoiding(r, lit.complement()))
            }
            Engine::Automata => self.machines.iter().zip(&self.states).any(|(m, &s)| {
                m.machine
                    .alphabet
                    .iter()
                    .position(|&a| a == lit)
                    .is_some_and(|k| !m.can_ever[s.index()][k])
            }),
        }
    }

    fn advance(&mut self, lit: Literal) {
        match self.engine {
            Engine::Symbolic => {
                for r in &mut self.residuals {
                    *r = residuate(r, lit);
                }
            }
            Engine::Automata => {
                for (m, s) in self.machines.iter().zip(self.states.iter_mut()) {
                    *s = m.machine.step(*s, lit);
                }
            }
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
        let mut to_trigger: Vec<Literal> = Vec::new();
        let candidates: Vec<Literal> = self
            .attrs
            .iter()
            .filter(|(l, a)| {
                a.triggerable && !self.resolved(l.symbol()) && !self.triggered.contains(l)
            })
            .map(|(&l, _)| l)
            .collect();
        for l in candidates {
            let needed = match self.engine {
                Engine::Symbolic => {
                    self.residuals.iter().any(|r| !r.is_top() && !r.is_zero() && requires(r, l))
                }
                Engine::Automata => self.machines.iter().zip(&self.states).any(|(m, &s)| {
                    m.machine
                        .alphabet
                        .iter()
                        .position(|&a| a == l)
                        .is_some_and(|k| m.required[s.index()][k])
                }),
            };
            if needed {
                to_trigger.push(l);
            }
        }
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
                if self.acceptable(p) {
                    self.parked.remove(&p);
                    self.forced.remove(&p);
                    if forced {
                        self.occur_silent(ctx, p);
                    } else {
                        self.occur(ctx, p);
                    }
                    progressed = true;
                } else if self.dead(p) {
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
            if self.acceptable(c) {
                self.occur_silent(ctx, c);
            } else if !self.dead(c) {
                self.parked.insert(c);
                self.forced.insert(c);
            }
            // Both polarities dead: jointly contradictory; the symbol
            // stays unresolved and is reported by the harness.
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
                if self.acceptable(lit) {
                    self.occur(ctx, lit);
                } else if self.dead(lit) {
                    self.decisions += 1;
                    if let Some(&agent) = self.routing.agent_of.get(&lit.symbol()) {
                        ctx.send(agent, Msg::Rejected { lit });
                    }
                    self.occur_complement(ctx, lit);
                } else {
                    self.parked.insert(lit);
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
    /// Site hosting the scheduler.
    pub scheduler_site: SiteId,
    /// Delivery budget.
    pub max_steps: u64,
}

impl CentralConfig {
    /// Defaults with a seed and engine.
    pub fn new(seed: u64, engine: Engine) -> CentralConfig {
        CentralConfig {
            sim: SimConfig { seed, ..SimConfig::default() },
            engine,
            scheduler_site: SiteId(0),
            max_steps: 1_000_000,
        }
    }
}

/// Run `spec` under the centralized scheduler. Agents live on their
/// declared sites; every scheduling decision crosses the network to the
/// scheduler's site.
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
    let mut clients: Vec<(SiteId, Literal, bool)> = Vec::new();
    for f in &spec.free_events {
        if f.attempt_after.is_some() {
            let id = NodeId((client_base + clients.len()) as u32);
            routing.agent_of.insert(f.lit.symbol(), id);
            clients.push((f.site, f.lit, f.attrs.controllable));
        }
    }
    let routing = Arc::new(routing);

    let mut nodes: Vec<(SiteId, CNode)> = Vec::new();
    for a in &spec.agents {
        nodes.push((
            a.site,
            CNode::Agent(AgentNode::new(a.agent.clone(), &a.script, Arc::clone(&routing))),
        ));
    }
    nodes.push((
        config.scheduler_site,
        CNode::Central(CentralNode::new(
            config.engine,
            &spec.dependencies,
            attrs_of.clone(),
            Arc::clone(&routing),
        )),
    ));
    for &(site, lit, controllable) in &clients {
        nodes.push((site, CNode::Client { lit, controllable, central: central_id, decided: None }));
    }

    let mut net: Network<Msg, CNode> = Network::new(config.sim, nodes);
    for aix in 0..agent_count {
        let id = NodeId(aix as u32);
        net.inject(id, id, Msg::Kick);
    }
    for ix in 0..clients.len() {
        let id = NodeId((client_base + ix) as u32);
        net.inject(id, id, Msg::Kick);
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
    let mut maximal: Vec<Literal> = occurrences.iter().map(|&(l, _, _)| l).collect();
    maximal.extend(unresolved.iter().map(|&s| Literal::neg(s)));
    let maximal_trace = Trace::new(maximal).expect("distinct");
    let satisfied = spec.dependencies.iter().map(|d| satisfies(&maximal_trace, d)).collect();
    RunReport {
        trace,
        occurrences,
        unresolved,
        maximal_trace,
        satisfied,
        duration,
        steps: outcome.steps,
        net: stats,
        actor_stats: BTreeMap::new(),
        parked: central.parked.iter().copied().collect(),
        broken_promises: Vec::new(),
        termination: outcome.termination,
        fault_stats: None,
        divergence: Vec::new(),
        metrics: obs::MetricsSnapshot::default(),
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
    fn all_decisions_route_through_one_site() {
        let (spec, _, _) = d_precedes_spec();
        let report = run_centralized(&spec, CentralConfig::new(1, Engine::Symbolic));
        // Free events were injected at the scheduler itself here, so the
        // traffic is minimal — but the routing table maps every symbol to
        // the central node.
        assert!(report.steps > 0);
    }
}
