//! The distributed executor: compiles a workflow into per-event guards,
//! instantiates one actor per symbol and one node per task agent on a
//! simulated network, runs to quiescence, and reports the realized trace
//! together with satisfaction verdicts for every dependency.
//!
//! This is the end-to-end pipeline the paper describes: declarative
//! specification → guard synthesis (Section 4.2) → localized, distributed
//! evaluation (Section 4.3) — with **no centralized scheduler** in the
//! running system.

use crate::actor::{ActorStats, DepTracker, Routing, SymbolActor};
use crate::agent_node::{AgentNode, Script};
use crate::msg::{InstanceId, Msg};
use crate::reliable::{Reliable, ReliableConfig};
use crate::wal::{NodeStore, WalEntry};
use agent::{EventAttrs, TaskAgent};
use event_algebra::{
    normalize, satisfies, DependencyMachine, Expr, Literal, ShardPlan, SymbolId, SymbolTable, Trace,
};
use guard::{CompiledWorkflow, GuardScope};
use monitor::{MonitorConfig, WorkflowMonitor};
use obs::{MetricsRegistry, MetricsSnapshot, NodeObs, Obs, RecordConfig, Recording, SpanKind};
use sim::{
    Ctx, FaultPlan, FaultStats, Network, NodeId, Process, SimConfig, SiteId, Termination, Time,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use temporal::Guard;

/// How sequence atoms in guards are handled at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// Keep `◇(sequence)` atoms and reduce them by residuation — fully
    /// faithful to Definition 2.
    Faithful,
    /// Apply the paper's "small insight": replace sequences by
    /// conjunctions of eventualities; the other events' guards enforce the
    /// order. Enables promise-based consensus through sequences.
    #[default]
    Weakened,
}

/// How each actor tracks its dependencies' residuals at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepRuntime {
    /// Step precompiled [`DependencyMachine`]s: per-fact work is one
    /// transition-table lookup and the triggering/acceptance queries are
    /// compile-time reachability tables.
    #[default]
    Compiled,
    /// Residuate the dependency expression tree on every fact — the
    /// symbolic reference oracle, selectable so the conformance harness
    /// can audit the compiled path against it.
    Symbolic,
}

/// A task agent placed on a site with a script.
#[derive(Debug, Clone)]
pub struct AgentSpec {
    /// The site the agent (and its events' actors) live on.
    pub site: SiteId,
    /// The task skeleton.
    pub agent: TaskAgent,
    /// The driver script.
    pub script: Script,
}

/// An event without an agent (used by benches and algebra-level tests):
/// the executor injects an `Attempt`/`Inform` for it directly.
#[derive(Debug, Clone, Copy)]
pub struct FreeEventSpec {
    /// Site of the event's actor.
    pub site: SiteId,
    /// The event literal.
    pub lit: Literal,
    /// Its attributes.
    pub attrs: EventAttrs,
    /// Attempt the event this long after start (`None`: never attempted).
    pub attempt_after: Option<Time>,
}

/// Everything needed to run one workflow.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    /// Names of events.
    pub table: SymbolTable,
    /// The intertask dependencies.
    pub dependencies: Vec<Expr>,
    /// Task agents.
    pub agents: Vec<AgentSpec>,
    /// Agent-less events.
    pub free_events: Vec<FreeEventSpec>,
}

/// Executor configuration. Every entry point — [`run_workflow`],
/// [`run_workflow_with_faults`], [`crate::run_tenant`],
/// [`crate::run_parallel_fleet`] — reads every field the same way, with
/// two exceptions: a fleet takes each instance's `sim.seed` from its
/// [`crate::Arrival`], and only `run_parallel_fleet` reads `parallel`.
/// `Clone`, not `Copy`: the optional shard plan is shared by reference.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Network parameters.
    pub sim: SimConfig,
    /// Sequence-atom handling.
    pub guard_mode: GuardMode,
    /// Upper bound on message deliveries (safety valve).
    pub max_steps: u64,
    /// Lazy re-evaluation ablation (experiment C3): actors defer parked
    /// re-evaluation to periodic ticks of this period, broadcast for the
    /// given number of rounds. `None` = the paper's eager scheduler.
    pub lazy: Option<(Time, u32)>,
    /// Protocol hardening for lossy networks: wrap cross-node messages in
    /// the at-least-once transport ([`Reliable`]) and arm promise-round
    /// timeouts on the actors. `None` (the default) sends raw messages —
    /// correct on the fault-free simulator and bit-identical to the
    /// behavior before the fault layer existed.
    pub reliable: Option<ReliableConfig>,
    /// Dependency-residual tracking: precompiled machines (the default)
    /// or symbolic tree residuation (the reference oracle).
    pub dep_runtime: DepRuntime,
    /// Attach a flight recorder — the one decision log: every attempt,
    /// guard evaluation, park, rejection, residual step, message,
    /// promise-round phase, WAL append/replay and fault injection becomes
    /// a causal trace span, returned on [`RunReport::recording`]. Each
    /// instance of a fleet gets a recorder of its own and records exactly
    /// the spans its solo run records, on the instance-local clock.
    /// `None` (the default) constructs no recorder and adds no work to
    /// the scheduling hot path.
    pub record: Option<RecordConfig>,
    /// Arm the online runtime monitors: per-dependency verdict machines,
    /// the guard-faithfulness check, the `□`-view divergence watch and the
    /// stall watchdog, reporting on [`RunReport::monitor`] /
    /// [`RunReport::alerts`]. The monitor is *fused* into the scheduler —
    /// actors and the network step it directly at each transition, so
    /// arming it costs no trace-event construction. `None` (the default)
    /// attaches nothing and adds no work to the hot path.
    pub monitor: Option<MonitorConfig>,
    /// Pin actor placement from a certified [`ShardPlan`] (the
    /// interference analyzer's artifact): every member of a colocation
    /// class is placed at the same site — the class's declared site when
    /// one exists, otherwise the spec placement of its smallest member.
    /// The armed monitors also learn the class boundaries, so
    /// view-divergence alerts distinguish intra- from cross-shard
    /// disagreements. `None` (the default) leaves spec placement
    /// untouched. No executor is keyed by the plan: placement and monitor
    /// labels are its only runtime readers.
    pub shard_plan: Option<Arc<ShardPlan>>,
    /// Worker threads of [`crate::run_parallel_fleet`]; nothing else
    /// reads it.
    pub parallel: Option<sim::ParallelConfig>,
}

impl ExecConfig {
    /// Default config with a given seed.
    pub fn seeded(seed: u64) -> ExecConfig {
        ExecConfig {
            sim: SimConfig { seed, ..SimConfig::default() },
            guard_mode: GuardMode::default(),
            max_steps: 1_000_000,
            lazy: None,
            reliable: None,
            dep_runtime: DepRuntime::default(),
            record: None,
            monitor: None,
            shard_plan: None,
            parallel: None,
        }
    }

    /// The delivery budget every instance runs under: `max_steps`, with
    /// `0` (what `ExecConfig::default()` leaves) meaning the seeded
    /// default of one million.
    pub fn step_budget(&self) -> u64 {
        if self.max_steps == 0 {
            1_000_000
        } else {
            self.max_steps
        }
    }
}

/// The literals whose occurrences are guard-gated: controllable events,
/// which wait for their guard before occurring. Immediate events
/// (`abort`-style informs) and forced complements occur without
/// consulting a guard, so the guard-faithfulness monitor and the
/// conformance auditor exempt them (their safety is judged by dependency
/// satisfaction instead).
pub fn guard_gated(spec: &WorkflowSpec) -> BTreeSet<Literal> {
    let mut gated = BTreeSet::new();
    for a in &spec.agents {
        for ev in &a.agent.events {
            if ev.attrs.controllable {
                gated.insert(ev.literal);
            }
        }
    }
    for f in &spec.free_events {
        if f.attrs.controllable {
            gated.insert(f.lit);
        }
    }
    gated
}

/// One network node: an event actor, an agent, or the lazy-mode ticker.
// Actor state dwarfs the other variants, but nodes are built once into a
// Vec and only ever borrowed after that — boxing would tax every message
// dispatch to save memory that is never moved.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Node {
    /// Per-symbol event actor.
    Actor(SymbolActor),
    /// Task-agent driver.
    Agent(AgentNode),
    /// Broadcasts `Tick` to all actors every period, for a bounded number
    /// of rounds (lazy ablation).
    Ticker {
        /// Actor nodes to tick.
        actors: Vec<NodeId>,
        /// Tick period in virtual time: the value `countdown` is reset to
        /// after every broadcast.
        period: Time,
        /// Remaining rounds.
        rounds: u32,
        /// Self-hops left until the next broadcast. A self-send takes one
        /// tick, so the ticker kicks itself once per tick, decrements
        /// this on every kick and broadcasts when it reaches 1.
        countdown: Time,
    },
}

impl Process<Msg> for Node {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match self {
            Node::Actor(a) => a.handle(ctx, from, msg),
            Node::Agent(a) => a.handle(ctx, msg),
            Node::Ticker { actors, period, rounds, countdown } => {
                // Self-messages have latency ≥ 1 tick; chain them to
                // approximate the period, then broadcast.
                if *rounds == 0 {
                    return;
                }
                if *countdown > 1 {
                    *countdown -= 1;
                } else {
                    for &a in actors.iter() {
                        ctx.send(a, Msg::Tick);
                    }
                    *rounds -= 1;
                    *countdown = *period;
                }
                if *rounds > 0 {
                    ctx.send(ctx.self_id, Msg::Kick);
                }
            }
        }
    }
}

/// The outcome of one distributed run.
#[derive(Debug)]
pub struct RunReport {
    /// Events that occurred, in occurrence order.
    pub trace: Trace,
    /// Occurrence details: literal, virtual time, global sequence.
    pub occurrences: Vec<(Literal, Time, u64)>,
    /// Symbols never resolved by quiescence.
    pub unresolved: Vec<SymbolId>,
    /// The trace extended with complements of unresolved symbols — the
    /// maximal trace against which dependencies are judged.
    pub maximal_trace: Trace,
    /// Per-dependency satisfaction on the maximal trace.
    pub satisfied: Vec<bool>,
    /// Virtual time at quiescence.
    pub duration: Time,
    /// Deliveries performed.
    pub steps: u64,
    /// Network statistics.
    pub net: sim::NetStats,
    /// Per-symbol actor statistics.
    pub actor_stats: BTreeMap<SymbolId, ActorStats>,
    /// Events still parked (attempted, undecided) at quiescence.
    pub parked: Vec<Literal>,
    /// Promises granted but unfulfilled at quiescence.
    pub broken_promises: Vec<Literal>,
    /// Whether the run actually converged or merely ran out of budget —
    /// a budget-exhausted report is not evidence of anything.
    pub termination: Termination,
    /// What the fault layer did, when a plan was installed.
    pub fault_stats: Option<FaultStats>,
    /// `□`-divergence detected across actors at quiescence: occurrence
    /// sequence numbers that two actors associate with *different*
    /// literals, as `(seq, first_seen, conflicting)`. Always empty when
    /// the protocol keeps its consistent-temporal-order promise
    /// (Section 6); the conformance harness asserts exactly that.
    pub divergence: Vec<(u64, Literal, Literal)>,
    /// Unified metrics snapshot: network, fault, transport, scheduler and
    /// per-dependency measurements behind one key/label API (subsumes
    /// [`RunReport::net`] and [`RunReport::fault_stats`], which stay for
    /// compatibility).
    pub metrics: MetricsSnapshot,
    /// The flight recording, when [`ExecConfig::record`] was set: the
    /// full causal span DAG plus the metrics snapshot, ready for
    /// `wftrace` or JSON export.
    pub recording: Option<Recording>,
    /// Alerts raised by the online monitors, when
    /// [`ExecConfig::monitor`] was set (empty otherwise).
    pub alerts: Vec<monitor::Alert>,
    /// The full monitor report (final per-dependency verdicts, alert log,
    /// check counters), when [`ExecConfig::monitor`] was set.
    pub monitor: Option<monitor::MonitorReport>,
}

impl RunReport {
    /// `true` if every dependency is satisfied on the maximal trace.
    pub fn all_satisfied(&self) -> bool {
        self.satisfied.iter().all(|&s| s)
    }
}

/// The assembled network, ready to run.
pub struct BuiltWorkflow {
    /// `(site, node)` pairs; agents first, then actors.
    pub nodes: Vec<(SiteId, Node)>,
    /// Shared routing tables.
    pub routing: Arc<Routing>,
    /// Seed messages: `(from, to, msg, extra delay)`. The delay honors
    /// [`FreeEventSpec::attempt_after`] (minus the 1-tick injection
    /// latency every seed message already pays); driver kicks carry 0.
    pub injections: Vec<(NodeId, NodeId, Msg, Time)>,
    /// All symbols, in actor order.
    pub symbols: Vec<SymbolId>,
    /// The compiled faithful guards and dependency machines. Shared with
    /// the online monitors so arming them never recompiles the workflow
    /// — at small-spec scale the compile costs a sizable fraction of a
    /// whole run, and fleets build thousands of monitors.
    pub guards: Arc<CompiledWorkflow>,
}

/// Compile guards and assemble the nodes for `spec`.
pub fn build_workflow(spec: &WorkflowSpec, config: ExecConfig) -> BuiltWorkflow {
    let compiled = Arc::new(CompiledWorkflow::compile(&spec.dependencies, GuardScope::Mentioning));
    // In compiled mode every actor tracking dependency `ix` shares (an Arc
    // of) the same precompiled machine; only the u32 state is per-actor.
    let machines: Vec<Arc<DependencyMachine>> = match config.dep_runtime {
        DepRuntime::Compiled => compiled.machines.iter().cloned().map(Arc::new).collect(),
        DepRuntime::Symbolic => Vec::new(),
    };

    // ----- gather all symbols and their attributes/sites -----
    let mut attrs_of: BTreeMap<Literal, EventAttrs> = BTreeMap::new();
    let mut site_of_sym: BTreeMap<SymbolId, SiteId> = BTreeMap::new();
    let mut symbols: BTreeSet<SymbolId> = compiled.symbols.clone();
    for a in &spec.agents {
        for ev in &a.agent.events {
            symbols.insert(ev.literal.symbol());
            attrs_of.insert(ev.literal, ev.attrs);
            // Complements occur by rejection/unreachability, never by
            // attempt: immediate.
            attrs_of.insert(ev.literal.complement(), EventAttrs::immediate());
            site_of_sym.insert(ev.literal.symbol(), a.site);
        }
    }
    for f in &spec.free_events {
        symbols.insert(f.lit.symbol());
        attrs_of.insert(f.lit, f.attrs);
        attrs_of.entry(f.lit.complement()).or_insert_with(EventAttrs::immediate);
        site_of_sym.insert(f.lit.symbol(), f.site);
    }

    // ----- shard-plan placement pinning -----
    if let Some(plan) = &config.shard_plan {
        // Colocation classes share a site: a declared class site wins,
        // otherwise the smallest spec placement among members anchors the
        // class (so singleton classes keep their spec site).
        for class in &plan.classes {
            let site = class
                .site
                .map(SiteId)
                .or_else(|| class.events.iter().filter_map(|s| site_of_sym.get(s)).min().copied())
                .unwrap_or(SiteId(0));
            for &s in &class.events {
                site_of_sym.insert(s, site);
            }
        }
    }

    // ----- assign node ids: agents first, then actors -----
    let mut routing = Routing::default();
    let agent_count = spec.agents.len();
    let symbol_list: Vec<SymbolId> = symbols.iter().copied().collect();
    for (ix, &s) in symbol_list.iter().enumerate() {
        routing.actor_of.insert(s, NodeId((agent_count + ix) as u32));
    }
    for (aix, a) in spec.agents.iter().enumerate() {
        for ev in &a.agent.events {
            routing.agent_of.insert(ev.literal.symbol(), NodeId(aix as u32));
        }
    }

    // ----- interest/subscription map -----
    // Actor t is interested in symbol s if any of t's guards mention s or
    // a dependency mentioning t also mentions s (residual tracking).
    // Subscribers are listed in actor order.
    for &s in &symbol_list {
        routing.subscribers_of.insert(s, Vec::new());
    }
    for &t in &symbol_list {
        let mut interest: BTreeSet<SymbolId> = BTreeSet::new();
        for lit in [Literal::pos(t), Literal::neg(t)] {
            interest.extend(compiled.guard_ref(lit).map(Guard::symbols).unwrap_or_default());
        }
        for syms in compiled.dependency_symbols.iter().filter(|syms| syms.contains(&t)) {
            interest.extend(syms);
        }
        interest.remove(&t);
        for s in interest {
            let subs = routing.subscribers_of.get_mut(&s).expect("a mentioned symbol has an actor");
            subs.push(routing.actor_of[&t]);
        }
    }
    let routing = Arc::new(routing);
    let lazy = config.lazy.is_some();

    // ----- instantiate nodes -----
    let mut nodes: Vec<(SiteId, Node)> = Vec::new();
    for a in &spec.agents {
        nodes.push((
            a.site,
            Node::Agent(AgentNode::new(a.agent.clone(), &a.script, Arc::clone(&routing))),
        ));
    }
    // The one copy of a literal's guard this build makes: the actor owns
    // it, shared between its base and current guard.
    let actor_guard = |lit: Literal| match (compiled.guard_ref(lit), config.guard_mode) {
        (None, _) => Guard::top(),
        (Some(g), GuardMode::Faithful) => g.clone(),
        (Some(g), GuardMode::Weakened) => g.weaken_sequences(),
    };
    for &s in &symbol_list {
        let pos = Literal::pos(s);
        let neg = Literal::neg(s);
        let deps: Vec<(usize, DepTracker)> = spec
            .dependencies
            .iter()
            .enumerate()
            .filter(|&(ix, _)| compiled.dependency_symbols[ix].contains(&s))
            .map(|(ix, d)| {
                let tracker = match config.dep_runtime {
                    DepRuntime::Compiled => DepTracker::compiled(Arc::clone(&machines[ix])),
                    DepRuntime::Symbolic => DepTracker::symbolic(normalize(d)),
                };
                (ix, tracker)
            })
            .collect();
        let mut actor = SymbolActor::new(
            s,
            actor_guard(pos),
            actor_guard(neg),
            attrs_of.get(&pos).copied().unwrap_or_else(EventAttrs::controllable),
            attrs_of.get(&neg).copied().unwrap_or_else(EventAttrs::immediate),
            deps,
            Arc::clone(&routing),
        );
        actor.lazy = lazy;
        actor.promise_timeout = config.reliable.map(|r| r.promise_timeout);
        let site = site_of_sym.get(&s).copied().unwrap_or(SiteId(0));
        nodes.push((site, Node::Actor(actor)));
    }
    if let Some((period, rounds)) = config.lazy {
        let actors: Vec<NodeId> = routing.actor_of.values().copied().collect();
        nodes.push((SiteId(0), Node::Ticker { actors, period, rounds, countdown: period }));
    }

    // ----- seed messages -----
    let mut injections = Vec::new();
    for aix in 0..agent_count {
        let id = NodeId(aix as u32);
        injections.push((id, id, Msg::Kick, 0));
    }
    if config.lazy.is_some() {
        let ticker = NodeId((nodes.len() - 1) as u32);
        injections.push((ticker, ticker, Msg::Kick, 0));
    }
    for f in &spec.free_events {
        if let Some(after) = f.attempt_after {
            let actor = routing.actor_of[&f.lit.symbol()];
            let msg = if f.attrs.controllable {
                Msg::Attempt { lit: f.lit }
            } else {
                Msg::Inform { lit: f.lit }
            };
            // Injection latency is at least 1 tick, so `attempt_after: 1`
            // (the common "at start" idiom) maps to no extra delay and
            // stays byte-identical to before delays were honored.
            injections.push((actor, actor, msg, after.saturating_sub(1)));
        }
    }
    BuiltWorkflow { nodes, routing, injections, symbols: symbol_list, guards: compiled }
}

/// Assemble a report from finished actors, read in place through
/// `actor_of` (symbol → its actor).
fn collect_report<'a>(
    spec: &WorkflowSpec,
    symbol_list: &[SymbolId],
    actor_of: impl Fn(SymbolId) -> &'a SymbolActor,
    duration: Time,
    outcome: sim::RunOutcome,
    net: sim::NetStats,
) -> RunReport {
    let sim::RunOutcome { steps, termination } = outcome;
    let mut occurrences: Vec<(Literal, Time, u64)> = Vec::new();
    let mut unresolved: Vec<SymbolId> = Vec::new();
    let mut actor_stats = BTreeMap::new();
    let mut parked = Vec::new();
    let mut broken_promises = Vec::new();
    let mut canon: BTreeMap<u64, Literal> = BTreeMap::new();
    let mut divergence: Vec<(u64, Literal, Literal)> = Vec::new();
    for &s in symbol_list {
        let a = actor_of(s);
        actor_stats.insert(s, a.stats.clone());
        // Divergence audit: every actor's view of the global occurrence
        // order must agree wherever the views overlap.
        for (&seq, &lit) in a.facts() {
            match canon.get(&seq) {
                Some(&first) if first != lit => divergence.push((seq, first, lit)),
                Some(_) => {}
                None => {
                    canon.insert(seq, lit);
                }
            }
        }
        match a.occurred {
            Some(occ) => occurrences.push(occ),
            None => {
                unresolved.push(s);
                for (lit, st) in [(Literal::pos(s), &a.pos), (Literal::neg(s), &a.neg)] {
                    if st.attempted {
                        parked.push(lit);
                    }
                    if st.promised_out {
                        broken_promises.push(lit);
                    }
                }
            }
        }
    }
    occurrences.sort_by_key(|&(_, t, q)| (t, q));
    let trace = Trace::new(occurrences.iter().map(|&(l, _, _)| l))
        .expect("actors enforce single resolution per symbol");
    let mut maximal_events: Vec<Literal> = occurrences.iter().map(|&(l, _, _)| l).collect();
    maximal_events.extend(unresolved.iter().map(|&s| Literal::neg(s)));
    let maximal_trace = Trace::new(maximal_events).expect("complement extension cannot clash");
    let satisfied = spec.dependencies.iter().map(|d| satisfies(&maximal_trace, d)).collect();
    RunReport {
        trace,
        occurrences,
        unresolved,
        maximal_trace,
        satisfied,
        duration,
        steps,
        net,
        actor_stats,
        parked,
        broken_promises,
        termination,
        // Populated even on the fault-free path, so consumers can read
        // all-zero counters instead of special-casing `None`.
        fault_stats: Some(FaultStats::default()),
        divergence,
        metrics: MetricsSnapshot::default(),
        recording: None,
        alerts: Vec::new(),
        monitor: None,
    }
}

/// A network node wrapped in the fault-tolerance machinery: an optional
/// at-least-once transport ([`Reliable`]) for every cross-node message the
/// wrapped role sends, and an optional write-ahead log ([`NodeStore`])
/// from which the role is rebuilt after a crash.
///
/// With both disabled it is a transparent passthrough — the role handles
/// messages on the real network context, with zero behavioral difference
/// from running the role directly.
pub struct NetNode {
    /// The wrapped protocol role.
    pub role: Node,
    pub(crate) reliable: Option<Reliable>,
    /// Durable storage shared across the run (possibly across a whole
    /// tenant fleet), plus this node's instance and id keying its slice.
    store: Option<(NodeStore, InstanceId, u32)>,
    /// The node as originally built (recorder and monitor detached):
    /// volatile state is reset to this on restart before the log replays
    /// over it.
    pristine: Option<Box<Node>>,
    /// Flight-recorder handle for this node: WAL appends/replays are
    /// recorded here, and the handle is re-attached to the role after a
    /// crash rebuild (replay itself runs with recording detached, so
    /// rebuilt decisions are not re-recorded).
    obs: NodeObs,
    /// Fused monitor handle: ticked at the start of every delivery and
    /// restart (the stall watchdog's sweep points — exactly where an
    /// offline replay of the recording sweeps on the `MsgDeliver` /
    /// `Restart` span, which the network records *before* invoking the
    /// handler). Like `obs`, re-attached to actor roles after a crash
    /// rebuild.
    mon: Option<Arc<WorkflowMonitor>>,
}

impl NetNode {
    /// Route one outgoing message: cross-node immediate sends go through
    /// the reliability layer (when enabled); self-sends are local timers
    /// and delayed sends are think-time — both stay raw.
    fn forward(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg, extra: Time) {
        match &mut self.reliable {
            Some(r) if to != ctx.self_id && extra == 0 => {
                let seq = r.send(ctx, to, msg);
                if let Some((store, instance, id)) = &self.store {
                    store.record_seq(*instance, *id, to, seq);
                }
            }
            Some(_) => {
                // Only self-addressed timers may stay raw: a *cross-node*
                // delayed send would silently skip the envelope and lose
                // its at-least-once protection. No role emits one today;
                // the assert keeps the invariant explicit.
                debug_assert!(
                    to == ctx.self_id,
                    "delayed cross-node send would bypass the at-least-once transport"
                );
                ctx.send_after(to, msg, extra);
            }
            None => ctx.send_after(to, msg, extra),
        }
    }
}

impl Process<Msg> for NetNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if let Some(m) = &self.mon {
            m.tick(ctx.now());
        }
        let (payload, env_seq) = match &mut self.reliable {
            Some(r) => match r.on_message(ctx, from, msg) {
                Some(p) => p,
                None => return, // ack, retry timer, or suppressed duplicate
            },
            None => (msg, None),
        };
        // Write-ahead: log every message the role actually processes
        // (post-dedup), with the delivery context it is processed under,
        // so a restart can replay exactly this stream — same payloads,
        // same times, same global delivery sequence numbers.
        if let Some((store, instance, id)) = &self.store {
            store.append(
                *instance,
                *id,
                WalEntry {
                    from,
                    msg: payload.clone(),
                    at: ctx.now(),
                    delivery_seq: ctx.delivery_seq(),
                    env_seq,
                },
            );
            self.obs.rec(ctx.now(), SpanKind::WalAppend { seq: ctx.delivery_seq() });
        }
        if self.reliable.is_some() {
            let mut out: Vec<(NodeId, Msg, Time)> = Vec::new();
            {
                let mut inner = Ctx::manual(ctx.self_id, ctx.now(), ctx.delivery_seq(), &mut out);
                self.role.on_message(&mut inner, from, payload);
            }
            for (to, m, extra) in out {
                self.forward(ctx, to, m, extra);
            }
        } else {
            self.role.on_message(ctx, from, payload);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(m) = &self.mon {
            m.tick(ctx.now());
        }
        let Some(pristine) = &self.pristine else { return };
        self.role = (**pristine).clone();
        let log = match &self.store {
            Some((store, instance, id)) => store.log_of(*instance, *id),
            None => Vec::new(),
        };
        // Fresh transport state — but outgoing sequence counters continue
        // past every number ever used (or receivers' dedup sets would
        // silently discard the restarted node's new messages), and the
        // receive-side dedup sets are rebuilt from the logged envelopes
        // (or a peer retransmitting a pre-crash envelope would pass as a
        // first delivery and be processed — and logged — twice).
        if let Some(r) = &mut self.reliable {
            let mut fresh = Reliable::new(r.config());
            fresh.obs = r.obs.clone();
            // The instance stamp is part of the node's identity, not its
            // volatile state: a restarted tenant node must keep speaking
            // for its instance (or it would reject every peer envelope).
            fresh.instance = r.instance;
            if let Some((store, instance, id)) = &self.store {
                fresh.restore_seqs(store.seqs_of(*instance, *id));
            }
            fresh.restore_seen(log.iter().filter_map(|e| e.env_seq.map(|s| (e.from, s))));
            *r = fresh;
        }
        // Replay the write-ahead log to rebuild volatile protocol state.
        // Each entry is replayed under its *original* delivery context
        // (time and global sequence), so an occurrence decided during
        // replay is rebuilt with its pre-crash `(time, seq)` and the
        // resume step's re-announcement deduplicates at subscribers
        // instead of fabricating a fresh sequence number. Sends are
        // suppressed: everything the pre-crash node sent was either
        // delivered, or is covered by peers' retransmissions and the
        // resume step below. The recorder stays detached during replay so
        // rebuilt decisions are not re-recorded.
        let replayed = log.len();
        {
            let mut discard: Vec<(NodeId, Msg, Time)> = Vec::new();
            for e in log {
                let mut inner = Ctx::manual(ctx.self_id, e.at, e.delivery_seq, &mut discard);
                self.role.on_message(&mut inner, e.from, e.msg);
            }
        }
        if let Node::Actor(a) = &mut self.role {
            a.obs = self.obs.clone();
            a.mon = self.mon.clone();
        }
        self.obs.rec(ctx.now(), SpanKind::WalReplay { entries: replayed as u64 });
        // Re-kick in-flight work; outputs go through the transport.
        let mut out: Vec<(NodeId, Msg, Time)> = Vec::new();
        {
            let mut inner = Ctx::manual(ctx.self_id, ctx.now(), ctx.delivery_seq(), &mut out);
            match &mut self.role {
                Node::Actor(a) => a.resume_after_restart(&mut inner),
                Node::Agent(a) => a.resume(&mut inner),
                Node::Ticker { .. } => inner.send(ctx.self_id, Msg::Kick),
            }
        }
        for (to, m, extra) in out {
            self.forward(ctx, to, m, extra);
        }
    }
}

/// Wrap built nodes in the fault-tolerance machinery ([`NetNode`]):
/// per-node at-least-once transport when `reliable` is set, write-ahead
/// logging (and the pristine copies restarts reset to) when `store` is
/// set. `instance` keys the store slice and stamps the transport; a solo
/// run passes [`InstanceId::ROOT`], a fleet each instance's id (actors'
/// own instance fields are the caller's responsibility — they are part
/// of the role's cloned state).
pub(crate) fn wrap_nodes(
    nodes: Vec<(SiteId, Node)>,
    reliable: Option<ReliableConfig>,
    store: Option<NodeStore>,
    obs: &Obs,
    mon: Option<Arc<WorkflowMonitor>>,
    instance: InstanceId,
) -> Vec<(SiteId, NetNode)> {
    nodes
        .into_iter()
        .enumerate()
        .map(|(ix, (site, mut role))| {
            let node_obs = NodeObs::new(obs.clone(), ix as u32, site.0);
            if let Node::Actor(a) = &mut role {
                a.obs = node_obs.clone();
                a.mon = mon.clone();
            }
            // Pristine copies replay with monitor (and recorder)
            // detached: WAL replay re-derives state the monitor already
            // observed before the crash, and must not re-step it.
            let pristine = store.is_some().then(|| {
                let mut p = role.clone();
                if let Node::Actor(a) = &mut p {
                    a.obs = NodeObs::off();
                    a.mon = None;
                }
                Box::new(p)
            });
            let mut r = reliable.map(Reliable::new);
            if let Some(r) = &mut r {
                r.obs = node_obs.clone();
                r.instance = instance;
            }
            let node = NetNode {
                role,
                reliable: r,
                store: store.clone().map(|s| (s, instance, ix as u32)),
                pristine,
                obs: node_obs,
                mon: mon.clone(),
            };
            (site, node)
        })
        .collect()
}

/// Compile and run a workflow on the deterministic simulated network.
pub fn run_workflow(spec: &WorkflowSpec, config: ExecConfig) -> RunReport {
    run_workflow_inner(spec, config, None)
}

/// Compile and run a workflow under a [`FaultPlan`]: link faults, site
/// partitions and crash–restarts from the plan are applied to the
/// network, a shared [`NodeStore`] write-ahead log backs crash recovery,
/// and (when `config.reliable` is set) every cross-node protocol message
/// rides the at-least-once transport.
pub fn run_workflow_with_faults(
    spec: &WorkflowSpec,
    config: ExecConfig,
    plan: FaultPlan,
) -> RunReport {
    run_workflow_inner(spec, config, Some(plan))
}

fn run_workflow_inner(
    spec: &WorkflowSpec,
    config: ExecConfig,
    plan: Option<FaultPlan>,
) -> RunReport {
    let mut built = build_workflow(spec, config.clone());
    let nodes = std::mem::take(&mut built.nodes);
    let injections = std::mem::take(&mut built.injections);
    // Durable storage (and the pristine copies restarts reset to) are
    // only materialized when a fault plan could actually crash a node.
    let faults = plan.map(|p| (p, NodeStore::new()));
    let (mut report, totals) =
        run_instance(spec, &built, nodes, injections, &config, faults, InstanceId::ROOT);

    // ----- unified metrics -----
    let reg = MetricsRegistry::new();
    report.net.record_into(&reg);
    if let Some(fs) = &report.fault_stats {
        fs.record_into(&reg);
    }
    reg.add("transport.retransmissions", &[], totals.retransmissions);
    reg.add("transport.dedup_dropped", &[], totals.dedup_dropped);
    reg.add("transport.gave_up", &[], totals.gave_up);
    reg.add("run.steps", &[], report.steps);
    reg.set_gauge("run.duration", &[], report.duration as i64);
    let mut sched = [0u64; 5];
    for (sym, st) in &report.actor_stats {
        let name = spec.table.name(*sym).unwrap_or("?");
        let labels: &[(&str, &str)] = &[("event", name)];
        reg.add("actor.attempts", labels, st.attempts);
        reg.add("actor.granted", labels, st.granted);
        reg.add("actor.rejected", labels, st.rejected);
        reg.add("actor.triggers", labels, st.triggers);
        sched[0] += st.promises_requested;
        sched[1] += st.promises_granted;
        sched[2] += st.promise_aborts;
        sched[3] += st.reductions;
        sched[4] += st.announces_out;
    }
    reg.add("sched.promises_requested", &[], sched[0]);
    reg.add("sched.promises_granted", &[], sched[1]);
    reg.add("sched.promise_aborts", &[], sched[2]);
    reg.add("sched.reductions", &[], sched[3]);
    reg.add("sched.announces", &[], sched[4]);
    for (i, &ok) in report.satisfied.iter().enumerate() {
        reg.set_gauge("dep.satisfied", &[("dep", &i.to_string())], i64::from(ok));
    }
    if let Some(plan) = &config.shard_plan {
        reg.set_gauge("shard.classes", &[], plan.class_count() as i64);
        reg.set_gauge("shard.pinned_classes", &[], plan.pinned_count() as i64);
        reg.set_gauge("shard.max_class_size", &[], plan.max_class_size() as i64);
        reg.set_gauge("shard.independent_pairs", &[], plan.independent.len() as i64);
    }
    if let Some(rec) = &report.recording {
        reg.add("obs.recorder.dropped_spans", &[], rec.dropped);
        reg.add("obs.recorder.sampled_out", &[], rec.sampled_out);
    }
    if let Some(mrep) = &report.monitor {
        reg.add("monitor.facts", &[], mrep.facts);
        reg.add("monitor.guard_checks", &[], mrep.guard_checks);
        for alert in &mrep.alerts {
            reg.add("monitor.alerts", &[("kind", alert.kind.tag())], 1);
        }
        for (ix, v) in mrep.verdicts.iter().enumerate() {
            reg.add("monitor.verdicts", &[("dep", &ix.to_string()), ("verdict", v.label())], 1);
        }
    }
    report.metrics = reg.snapshot();
    if let Some(rec) = &mut report.recording {
        rec.metrics = report.metrics.clone();
    }
    report
}

/// What a finished instance totals up besides its report: the transport
/// counters summed over its nodes, and the host time its event loop took.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InstanceTotals {
    pub(crate) retransmissions: u64,
    pub(crate) dedup_dropped: u64,
    pub(crate) gave_up: u64,
    pub(crate) cross_instance_dropped: u64,
    /// Nanoseconds inside [`Network::run_to_quiescence`].
    pub(crate) run_ns: u64,
}

/// The one way an instance runs, on every entry point: wrap its
/// `nodes` in the fault-tolerance machinery, arm the fused monitor, seed
/// its own [`Network`] from `config.sim`, install the fault plan with its
/// write-ahead-log store, inject, run to quiescence under
/// [`ExecConfig::step_budget`], and tear everything down into a report.
///
/// `built` is the workflow the nodes were built (or cloned) from: its
/// routing, symbols and compiled guards are borrowed, so a fleet runs
/// every instance of a template against one prototype.
/// `instance` stamps the transport and keys the store slice. The report's
/// metrics snapshot is left empty — solo callers record one on top,
/// fleets roll their own up, so no instance pays for a registry it does
/// not publish.
pub(crate) fn run_instance(
    spec: &WorkflowSpec,
    built: &BuiltWorkflow,
    nodes: Vec<(SiteId, Node)>,
    injections: impl IntoIterator<Item = (NodeId, NodeId, Msg, Time)>,
    config: &ExecConfig,
    faults: Option<(FaultPlan, NodeStore)>,
    instance: InstanceId,
) -> (RunReport, InstanceTotals) {
    // The online monitors run the faithful guards and machines the
    // builder compiled (shared, not recompiled — `GuardScope::Mentioning`
    // is the unweakened set, independent of whatever dep runtime the
    // actors use); the scheduler steps them directly.
    let mon = config.monitor.map(|mc| {
        let m = WorkflowMonitor::from_compiled(
            &spec.table,
            Arc::clone(&built.guards),
            guard_gated(spec),
            mc,
        );
        // The view-divergence checker learns the shard boundaries, so a
        // disagreement across colocation classes is labeled as such.
        if let Some(plan) = &config.shard_plan {
            m.set_shard_plan(Arc::clone(plan));
        }
        Arc::new(m)
    });
    let obs = config.record.map_or_else(Obs::off, Obs::on);
    let (plan, store) = faults.unzip();
    let nodes = wrap_nodes(nodes, config.reliable, store, &obs, mon.clone(), instance);
    let mut net: Network<Msg, NetNode> = Network::new(config.sim, nodes);
    net.set_recorder(obs.clone(), Msg::kind_label);
    if let Some(plan) = plan {
        net.set_faults(plan);
    }
    for (from, to, msg, extra) in injections {
        net.inject_after(from, to, msg, extra);
    }
    let started = Instant::now();
    let outcome = net.run_to_quiescence(config.step_budget());
    let mut totals =
        InstanceTotals { run_ns: started.elapsed().as_nanos() as u64, ..InstanceTotals::default() };
    let duration = net.now();
    let fault_stats = net.fault_stats().copied();
    let (nodes, stats) = net.into_parts();
    for r in nodes.iter().filter_map(|n| n.reliable.as_ref()) {
        totals.retransmissions += r.retransmissions;
        totals.dedup_dropped += r.duplicates_suppressed;
        totals.gave_up += r.gave_up;
        totals.cross_instance_dropped += r.cross_instance_dropped;
    }
    let actor_of = |s: SymbolId| match &nodes[built.routing.actor_of[&s].0 as usize].role {
        Node::Actor(a) => a,
        _ => unreachable!("routing maps every symbol to an actor node"),
    };
    let mut report = collect_report(spec, &built.symbols, actor_of, duration, outcome, stats);
    if let Some(fs) = fault_stats {
        report.fault_stats = Some(fs);
    }
    if let Some(m) = mon {
        let mrep = m.finish(duration);
        report.alerts = mrep.alerts.clone();
        report.monitor = Some(mrep);
    }
    report.recording = obs.recorder().map(|rec| Recording {
        workflow: String::new(),
        symbols: (0..spec.table.len())
            .map(|i| spec.table.name(SymbolId(i as u32)).unwrap_or("?").to_string())
            .collect(),
        dropped: rec.dropped(),
        sampled_out: rec.sampled_out(),
        events: rec.take_events(),
        metrics: MetricsSnapshot::default(),
    });
    (report, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agent::library::rda_transaction;
    use event_algebra::parse_expr;

    /// Example 11: D→ and its transpose — both events' guards are
    /// mutually `◇`; the promise consensus must let both occur.
    #[test]
    fn example11_mutual_promises() {
        let mut table = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut table).unwrap();
        let d2 = parse_expr("~f + e", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        let spec = WorkflowSpec {
            table,
            dependencies: vec![d1, d2],
            agents: vec![],
            free_events: vec![
                FreeEventSpec {
                    site: SiteId(0),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(1),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        };
        let report = run_workflow(&spec, ExecConfig::seeded(7));
        assert!(report.all_satisfied(), "{report:?}");
        assert_eq!(report.trace.len(), 2, "both events occur: {report:?}");
        assert!(report.parked.is_empty());
        assert!(report.broken_promises.is_empty());
    }

    /// Example 10: with D<'s guards, f parks until ē occurs.
    #[test]
    fn example10_parking_until_complement() {
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
                    site: SiteId(0),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(1),
                    lit: e.complement(),
                    attrs: EventAttrs::immediate(),
                    attempt_after: Some(50),
                },
            ],
        };
        let report = run_workflow(&spec, ExecConfig::seeded(3));
        assert!(report.all_satisfied(), "{report:?}");
        // Both resolved: ē then f.
        assert_eq!(report.trace.events(), &[e.complement(), f], "{report:?}");
        // f parked before ē arrived.
        let f_stats = &report.actor_stats[&f.symbol()];
        assert!(f_stats.first_parked_at.is_some());
    }

    /// D< with both events attempted: e must precede f in every run.
    #[test]
    fn d_precedes_orders_events() {
        for seed in 0..20 {
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
                        site: SiteId(0),
                        lit: e,
                        attrs: EventAttrs::controllable(),
                        attempt_after: Some(1),
                    },
                    FreeEventSpec {
                        site: SiteId(1),
                        lit: f,
                        attrs: EventAttrs::controllable(),
                        attempt_after: Some(1),
                    },
                ],
            };
            let report = run_workflow(&spec, ExecConfig::seeded(seed));
            assert!(report.all_satisfied(), "seed {seed}: {report:?}");
        }
    }

    /// An RDA transaction whose agent aborts: the commit becomes
    /// unreachable and its complement is informed, satisfying `~commit`-
    /// style dependencies.
    #[test]
    fn abort_produces_commit_complement() {
        let mut table = SymbolTable::new();
        let t1 = rda_transaction("t1", &mut table);
        let commit = table.lookup("t1.commit").map(Literal::pos).unwrap();
        let spec = WorkflowSpec {
            table,
            dependencies: vec![],
            agents: vec![AgentSpec {
                site: SiteId(0),
                agent: t1,
                script: Script::of(&["start", "abort"]),
            }],
            free_events: vec![],
        };
        let report = run_workflow(&spec, ExecConfig::seeded(1));
        assert!(report.maximal_trace.contains(commit.complement()), "{report:?}");
        assert!(!report.unresolved.contains(&commit.symbol()), "informed, not implicit");
    }

    /// `max_steps = 0` (what `ExecConfig::default()` leaves) means the
    /// seeded default on every entry point: the same steps as asking for
    /// one million outright.
    #[test]
    fn zero_max_steps_means_the_default_budget_on_every_executor() {
        let mut table = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut table).unwrap();
        let d2 = parse_expr("~f + e", &mut table).unwrap();
        let free_events = ["e", "f"]
            .iter()
            .zip(0..)
            .map(|(name, site)| FreeEventSpec {
                site: SiteId(site),
                lit: table.event(name),
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        let specs =
            [WorkflowSpec { table, dependencies: vec![d1, d2], agents: vec![], free_events }];
        let arrivals: Vec<_> = (0..3).map(|i| crate::Arrival::new(i, 0, i * 5, 40 + i)).collect();

        let steps = |max_steps: u64| {
            let exec = ExecConfig { max_steps, ..ExecConfig::seeded(7) };
            assert_eq!(exec.step_budget(), 1_000_000);
            let solo = run_workflow(&specs[0], exec.clone()).steps;
            let tenant: Vec<u64> =
                crate::run_tenant(&specs, &arrivals, &crate::TenantConfig::new(exec.clone()))
                    .instances
                    .iter()
                    .map(|o| o.report.steps)
                    .collect();
            let fleet: Vec<u64> = crate::run_parallel_fleet(&specs, &arrivals, &exec)
                .instances
                .iter()
                .map(|o| o.report.steps)
                .collect();
            (solo, tenant, fleet)
        };
        let (solo, tenant, fleet) = steps(0);
        assert!(solo > 0 && tenant.iter().chain(&fleet).all(|&s| s > 0), "the runs did work");
        assert_eq!(steps(1_000_000), (solo, tenant, fleet));
    }
}
