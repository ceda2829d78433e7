//! The distributed executor: what a workflow is ([`WorkflowSpec`]), how
//! it is run ([`ExecConfig`]), what comes back ([`RunReport`]), and the
//! compile step between them — [`build_workflow`] turns a spec into a
//! [`BuiltWorkflow`], the *template*: per-event guards, dependency
//! machines, routing tables and one prototype node per task agent and per
//! symbol, compiled once and only read afterwards. Running is
//! `slot.rs`'s: an [`InstanceSlot`] assembles a template's nodes on a
//! simulated network once and runs instance after instance over them.
//! [`run_workflow`] is a slot used once, with what the run's metrics
//! snapshot is rendered from, on first read, on top.
//!
//! The build keeps what it gathers in flat tables sized before they are
//! filled: one record per symbol id (whether the workflow uses it, its
//! literals' attributes, its site, a marker for the subscription walk)
//! and the symbol list in actor order; prototype agent nodes copy out of
//! their skeleton only the tables a run reads.
//!
//! This is the end-to-end pipeline the paper describes: declarative
//! specification → guard synthesis (Section 4.2) → localized, distributed
//! evaluation (Section 4.3) — with **no centralized scheduler** in the
//! running system.

use crate::actor::{early_grants, ActorStats, Routing, SymbolActor};
use crate::agent_node::{AgentNode, Script};
use crate::fleet::Arrival;
use crate::msg::{InstanceId, Msg};
use crate::reliable::ReliableConfig;
use crate::slot::{InstanceSlot, InstanceTotals};
use crate::wal::NodeStore;
use agent::{EventAttrs, TaskAgent};
use event_algebra::{DepTracker, Expr, Literal, SymbolId, SymbolMap, SymbolTable, Trace};
use guard::{CompiledWorkflow, GuardScope};
use monitor::{AlertKind, DepVerdict, MonitorConfig};
use obs::metrics::in_label_order;
use obs::{MetricSink, MetricsSnapshot, RecordConfig, Recording};
use sim::{
    Ctx, FaultPlan, FaultStats, NetStats, NodeId, Process, SimConfig, SiteId, Termination, Time,
};
use std::collections::BTreeSet;
use std::fmt::{self, Write};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use temporal::FactoredGuard;

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
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Network parameters.
    pub sim: SimConfig,
    /// Upper bound on message deliveries (safety valve).
    pub max_steps: u64,
    /// Protocol hardening for lossy networks: wrap cross-node messages in
    /// the at-least-once transport ([`crate::Reliable`]), the one layer
    /// that recovers a lost message. `None` (the default) sends raw messages —
    /// correct on the fault-free simulator and bit-identical to the
    /// behavior before the fault layer existed.
    pub reliable: Option<ReliableConfig>,
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
    /// Worker threads of [`crate::run_parallel_fleet`]; nothing else
    /// reads it.
    pub parallel: Option<sim::ParallelConfig>,
}

impl ExecConfig {
    /// Default config with a given seed.
    pub fn seeded(seed: u64) -> ExecConfig {
        ExecConfig {
            sim: SimConfig { seed, ..SimConfig::default() },
            max_steps: 1_000_000,
            reliable: None,
            record: None,
            monitor: None,
            parallel: None,
        }
    }
}

impl Default for ExecConfig {
    /// [`ExecConfig::seeded`] at the default seed.
    fn default() -> ExecConfig {
        ExecConfig::seeded(SimConfig::default().seed)
    }
}

/// The literals whose occurrences are guard-gated: controllable events,
/// which wait for their guard before occurring. Immediate events
/// (`abort`-style informs) and forced complements occur without
/// consulting a guard, so the guard-faithfulness monitor and the
/// conformance auditor exempt them (their safety is judged by dependency
/// satisfaction instead).
pub fn guard_gated(spec: &WorkflowSpec) -> BTreeSet<Literal> {
    gated_literals(spec).collect()
}

/// [`guard_gated`]'s literals in spec order, repeats kept: what arming a
/// monitor writes into its bit set.
pub(crate) fn gated_literals(spec: &WorkflowSpec) -> impl Iterator<Item = Literal> + '_ {
    let agents = spec.agents.iter().flat_map(|a| a.agent.events.iter());
    let agents = agents.map(|ev| (ev.attrs, ev.literal));
    let free = spec.free_events.iter().map(|f| (f.attrs, f.lit));
    agents.chain(free).filter(|(attrs, _)| attrs.controllable).map(|(_, lit)| lit)
}

/// One network node: an event actor or an agent.
// Actor state dwarfs the other variant, but nodes are built once into a
// Vec and only ever borrowed after that — boxing would tax every message
// dispatch to save memory that is never moved.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Node {
    /// Per-symbol event actor.
    Actor(SymbolActor),
    /// Task-agent driver.
    Agent(AgentNode),
}

impl Node {
    /// Forget the instance served so far: the node is again as built
    /// (configuration set on it since stays), every buffer kept. An
    /// instance slot does this between instances, and a crash does it to
    /// the node it hits.
    pub fn reset(&mut self) {
        match self {
            Node::Actor(a) => a.reset(),
            Node::Agent(a) => a.reset(),
        }
    }
}

impl Process<Msg> for Node {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match self {
            Node::Actor(a) => a.handle(ctx, from, msg),
            Node::Agent(a) => a.handle(ctx, msg),
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
    /// Per-symbol actor statistics, dense by symbol id.
    pub actor_stats: SymbolMap<ActorStats>,
    /// Events still parked (attempted, undecided) at quiescence.
    pub parked: Vec<Literal>,
    /// Promises granted but unfulfilled at quiescence.
    pub broken_promises: Vec<Literal>,
    /// Not-yet holds still standing at quiescence, as `(keeper symbol,
    /// requester literal)`. A requester that never decided may leave one;
    /// a hold for one that decided would never end
    /// (`testkit::conformance::audit_holds`).
    pub standing_holds: Vec<(SymbolId, Literal)>,
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
    /// compatibility). A solo run ([`run_workflow`],
    /// [`run_workflow_with_faults`]) renders it the first time it is read
    /// — a recorded one at once, into its [`Recording`]. A fleet
    /// instance ([`crate::run_tenant`], [`crate::run_parallel_fleet`])
    /// carries the empty snapshot: its fleet report rolls the series up.
    pub metrics: RunMetrics,
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

/// A compiled workflow — the template its instances are states over.
/// Nothing here changes once built: an [`InstanceSlot`] clones the
/// prototype nodes when it is assembled and borrows the rest, so one
/// `BuiltWorkflow` serves every slot of every worker of a fleet.
pub struct BuiltWorkflow {
    /// `(site, node)` pairs, each node in its initial state; agents
    /// first, then actors in symbol order. The prototype a slot clones —
    /// or, run standalone, nodes ready to be placed on a network.
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

/// Compile `spec` into its template: guards and machines, routing, one
/// prototype node per agent and per symbol, seed messages. The template
/// does not depend on the configuration: `_config` is unread, and kept
/// only so that existing callers compile.
pub fn build_workflow(spec: &WorkflowSpec, _config: ExecConfig) -> BuiltWorkflow {
    build(spec)
}

/// [`build_workflow`] without the unread configuration: a fleet compiles
/// each of its templates once.
pub(crate) fn build(spec: &WorkflowSpec) -> BuiltWorkflow {
    let compiled = Arc::new(CompiledWorkflow::compile(&spec.dependencies, GuardScope::Mentioning));

    // ----- every symbol's attributes and site, by symbol id -----
    let agent_events =
        spec.agents.iter().flat_map(|a| a.agent.events.iter().map(move |ev| (a, ev)));
    let width = (compiled.symbols.iter().copied())
        .chain(agent_events.clone().map(|(_, ev)| ev.literal.symbol()))
        .chain(spec.free_events.iter().map(|f| f.lit.symbol()))
        .map(|s| s.index() + 1)
        .max()
        .unwrap_or(0);
    let mut info = vec![SymbolInfo::default(); width];
    compiled.symbols.iter().for_each(|s| info[s.index()].used = true);
    for (a, ev) in agent_events {
        let at = &mut info[ev.literal.symbol().index()];
        at.used = true;
        at.attrs[ev.literal.polarity() as usize] = Some(ev.attrs);
        // Complements occur by rejection/unreachability, never by
        // attempt: immediate.
        at.attrs[ev.literal.complement().polarity() as usize] = Some(EventAttrs::immediate());
        at.site = a.site;
    }
    for f in &spec.free_events {
        let at = &mut info[f.lit.symbol().index()];
        at.used = true;
        at.attrs[f.lit.polarity() as usize] = Some(f.attrs);
        at.attrs[f.lit.complement().polarity() as usize].get_or_insert_with(EventAttrs::immediate);
        at.site = f.site;
    }

    // ----- assign node ids: agents first, then actors -----
    let agent_count = spec.agents.len();
    let mut symbol_list: Vec<SymbolId> = Vec::with_capacity(width);
    symbol_list.extend((0..width as u32).map(SymbolId).filter(|s| info[s.index()].used));
    let mut routing = Routing {
        actor_of: SymbolMap::with_capacity(width),
        agent_of: SymbolMap::with_capacity(width),
        subscribers_of: SymbolMap::with_capacity(width),
        early_grant: Vec::new(),
    };
    for (ix, &s) in symbol_list.iter().enumerate() {
        routing.actor_of.insert(s, NodeId((agent_count + ix) as u32));
    }
    for (aix, a) in spec.agents.iter().enumerate() {
        for ev in &a.agent.events {
            routing.agent_of.insert(ev.literal.symbol(), NodeId(aix as u32));
        }
    }

    // ----- interest/subscription map -----
    // Actor t is interested in symbol s if a dependency mentioning t also
    // mentions s: its residual trackers follow s, and its guards mention
    // nothing else (`G(D, e)` mentions only `Γ_D`, and the scope is
    // `Mentioning`). Subscribers are listed in actor order, each with its
    // actor's symbol, which an announcer reads to skip one it has heard
    // decided; a symbol's `seen` stamp names the last actor subscribed to
    // it, so a symbol two of an actor's dependencies share subscribes it
    // once.
    for &s in &symbol_list {
        routing.subscribers_of.insert(s, Vec::new());
    }
    for (ix, &t) in symbol_list.iter().enumerate() {
        let stamp = ix as u32 + 1;
        let mentioning = compiled.dependency_symbols.iter().filter(|syms| mentions(syms, t));
        for &s in mentioning.flatten() {
            if s != t && std::mem::replace(&mut info[s.index()].seen, stamp) != stamp {
                let subs =
                    routing.subscribers_of.get_mut(&s).expect("a mentioned symbol has an actor");
                subs.push((NodeId((agent_count + ix) as u32), t));
            }
        }
    }
    let pairs = routing.subscribers_of.values().map(Vec::len).sum();
    routing.early_grant = early_grants(&compiled, pairs, 2 * width, |lit| {
        let attrs = info[lit.symbol().index()].attrs[lit.polarity() as usize];
        attrs.is_some_and(|a| a.triggerable)
    });
    let routing = Arc::new(routing);

    // ----- instantiate nodes -----
    let mut nodes: Vec<(SiteId, Node)> = Vec::with_capacity(agent_count + symbol_list.len());
    for a in &spec.agents {
        nodes
            .push((a.site, Node::Agent(AgentNode::new(&a.agent, &a.script, Arc::clone(&routing)))));
    }
    // The actor weakens a literal's factors into its table.
    let top = FactoredGuard::top();
    let actor_guard = |lit: Literal| compiled.guard_ref(lit).unwrap_or(&top);
    for &s in &symbol_list {
        let pos = Literal::pos(s);
        let neg = Literal::neg(s);
        let deps: Vec<(usize, DepTracker)> = (compiled.dependency_symbols.iter().enumerate())
            .filter(|(_, syms)| mentions(syms, s))
            .map(|(ix, _)| (ix, DepTracker::compiled(compiled.machines[ix].clone())))
            .collect();
        let SymbolInfo { attrs: [pos_attrs, neg_attrs], site, .. } = info[s.index()];
        let actor = SymbolActor::new(
            s,
            actor_guard(pos),
            actor_guard(neg),
            pos_attrs.unwrap_or_else(EventAttrs::controllable),
            neg_attrs.unwrap_or_else(EventAttrs::immediate),
            deps,
            Arc::clone(&routing),
        );
        nodes.push((site, Node::Actor(actor)));
    }

    // ----- seed messages -----
    let mut injections = Vec::with_capacity(agent_count + spec.free_events.len());
    for aix in 0..agent_count {
        let id = NodeId(aix as u32);
        injections.push((id, id, Msg::Kick, 0));
    }
    for f in &spec.free_events {
        if let Some(after) = f.attempt_after {
            let actor = routing.actor_of[f.lit.symbol()];
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

/// What the builder gathers about one symbol from the spec.
#[derive(Debug, Clone, Copy)]
struct SymbolInfo {
    /// The workflow mentions it, or an event of an agent or a free event
    /// is it.
    used: bool,
    /// The attributes of its positive and negative literal, where given.
    attrs: [Option<EventAttrs>; 2],
    /// Its actor's site.
    site: SiteId,
    /// The last actor found interested in it (position plus one), while
    /// the subscriptions are walked.
    seen: u32,
}

impl Default for SymbolInfo {
    fn default() -> SymbolInfo {
        SymbolInfo { used: false, attrs: [None; 2], site: SiteId(0), seen: 0 }
    }
}

/// `true` if the sorted `symbols` hold `s`.
fn mentions(symbols: &[SymbolId], s: SymbolId) -> bool {
    symbols.binary_search(&s).is_ok()
}

/// Compile and run a workflow on the deterministic simulated network.
pub fn run_workflow(spec: &WorkflowSpec, config: ExecConfig) -> RunReport {
    run_workflow_inner(spec, config, None)
}

/// Compile and run a workflow under a [`FaultPlan`]: link faults, site
/// partitions and crash–restarts from the plan are applied to the
/// network, every node's write-ahead log backs its crash recovery,
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
    let (mut report, totals) = execute_solo(spec, &config, plan);
    report.metrics = RunMetrics::deferred(SoloCounts::of(spec, &report, &totals));
    if let Some(rec) = &mut report.recording {
        rec.metrics = MetricsSnapshot::clone(&report.metrics);
    }
    *report
}

/// One solo run up to its report, metrics not yet attached.
fn execute_solo(
    spec: &WorkflowSpec,
    config: &ExecConfig,
    plan: Option<FaultPlan>,
) -> (Box<RunReport>, InstanceTotals) {
    let mut built = build(spec);
    let nodes = std::mem::take(&mut built.nodes);
    // Durable storage is only materialized when a fault plan could
    // actually crash a node.
    let store = plan.is_some().then(NodeStore::new);
    let mut slot = InstanceSlot::with_nodes(spec, &built, nodes, config, store);
    let root = Arrival::new(InstanceId::ROOT.0, 0, 0, config.sim.seed);
    slot.prepare(&root, plan);
    slot.execute()
}

/// A run's metrics snapshot, rendered the first time it is read and
/// never if nobody reads it. A solo run keeps the typed numbers its
/// snapshot is written from and renders them once, on first read; a
/// fleet instance and the centralized baseline keep none and read the
/// empty snapshot. Reads go through `Deref`, so the field reads as the
/// [`MetricsSnapshot`] it renders, and compares and prints as it.
#[derive(Default)]
pub struct RunMetrics {
    /// What a solo run's snapshot is written from; `None` renders empty.
    counts: Option<Box<SoloCounts>>,
    /// The snapshot, once rendered.
    snapshot: OnceLock<MetricsSnapshot>,
}

impl RunMetrics {
    fn deferred(counts: SoloCounts) -> RunMetrics {
        RunMetrics { counts: Some(Box::new(counts)), snapshot: OnceLock::new() }
    }
}

impl Deref for RunMetrics {
    type Target = MetricsSnapshot;

    fn deref(&self) -> &MetricsSnapshot {
        self.snapshot.get_or_init(|| self.counts.as_deref().map_or_else(Default::default, render))
    }
}

impl fmt::Debug for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq<MetricsSnapshot> for RunMetrics {
    fn eq(&self, other: &MetricsSnapshot) -> bool {
        **self == *other
    }
}

impl PartialEq<RunMetrics> for MetricsSnapshot {
    fn eq(&self, other: &RunMetrics) -> bool {
        *self == **other
    }
}

/// What a solo run's metrics are written from, copied off its report and
/// its slot when it ends: names and numbers, no series.
#[derive(Debug)]
struct SoloCounts {
    /// The actors' event names back to back, in symbol order.
    names: String,
    /// Per actor, in symbol order: where its name ends in `names`, and
    /// its attempts, grants, rejections and triggers.
    actors: Vec<(usize, [u64; 4])>,
    /// Announcements, promises granted, promises requested and
    /// reductions, summed over the actors.
    sched: [u64; 4],
    satisfied: Vec<bool>,
    monitor: Option<MonitorCounts>,
    net: NetStats,
    faults: Option<FaultStats>,
    transport: InstanceTotals,
    /// The recorder's dropped and sampled-out spans, when one ran.
    recorder: Option<(u64, u64)>,
    duration: Time,
    steps: u64,
}

/// The monitor's part of [`SoloCounts`].
#[derive(Debug)]
struct MonitorCounts {
    facts: u64,
    guard_checks: u64,
    /// Alerts per kind, in [`AlertKind::TAGS`] order.
    alerts: [u64; AlertKind::TAGS.len()],
    verdicts: Vec<DepVerdict>,
}

impl SoloCounts {
    fn of(spec: &WorkflowSpec, report: &RunReport, totals: &InstanceTotals) -> SoloCounts {
        let name = |sym| spec.table.name(sym).unwrap_or("?");
        let stats = &report.actor_stats;
        let mut names = String::with_capacity(stats.iter().map(|(sym, _)| name(sym).len()).sum());
        let mut actors = Vec::with_capacity(stats.values().count());
        let mut sched = [0u64; 4];
        for (sym, st) in stats.iter() {
            names.push_str(name(sym));
            actors.push((names.len(), [st.attempts, st.granted, st.rejected, st.triggers]));
            let sums =
                [st.announces_out, st.promises_granted, st.promises_requested, st.reductions];
            sched.iter_mut().zip(sums).for_each(|(acc, n)| *acc += n);
        }
        let monitor = report.monitor.as_ref().map(|mrep| MonitorCounts {
            facts: mrep.facts,
            guard_checks: mrep.guard_checks,
            alerts: AlertKind::TAGS
                .map(|tag| mrep.alerts.iter().filter(|a| a.kind.tag() == tag).count() as u64),
            verdicts: mrep.verdicts.clone(),
        });
        SoloCounts {
            names,
            actors,
            sched,
            satisfied: report.satisfied.clone(),
            monitor,
            net: report.net.clone(),
            faults: report.fault_stats,
            transport: *totals,
            recorder: report.recording.as_ref().map(|rec| (rec.dropped, rec.sampled_out)),
            duration: report.duration,
            steps: report.steps,
        }
    }
}

/// The unified metrics of one solo run: network, fault, transport,
/// scheduler, per-dependency and monitor series. Every series is known
/// from the counts, so they are written straight into a snapshot sized
/// for them, in key order, and [`MetricsSnapshot::sorted`] only folds the
/// repeats.
fn render(counts: &SoloCounts) -> MetricsSnapshot {
    let sites = counts.net.per_site_deliveries.len();
    let deps = counts.satisfied.len();
    let verdicts = counts.monitor.as_ref().map_or(0, |m| m.verdicts.len());
    // Besides the labelled series: six alert kinds, 23 unlabelled counters.
    let series = 4 * counts.actors.len() + sites + verdicts + 29;
    let mut m = MetricsSnapshot::with_capacity(series, deps + 1, 1);
    write_solo_metrics(counts, &mut m);
    m.sorted()
}

/// [`render`]'s writes, in key order: names in byte order, and within a
/// name the label values in theirs (events by name, indices as their
/// decimal renderings sort). The only writer of a solo run's series.
fn write_solo_metrics(counts: &SoloCounts, mut m: impl MetricSink) {
    let mut start = 0;
    let mut by_name: Vec<(&str, &[u64; 4])> = (counts.actors.iter())
        .map(|(end, n)| (&counts.names[std::mem::replace(&mut start, *end)..*end], n))
        .collect();
    by_name.sort_unstable_by_key(|&(name, _)| name);
    let mut per_actor = |series, k: usize| {
        for &(name, n) in &by_name {
            m.add(series, &[("event", name)], n[k]);
        }
    };
    per_actor("actor.attempts", 0);
    per_actor("actor.granted", 1);
    per_actor("actor.rejected", 2);
    per_actor("actor.triggers", 3);
    let mut dep = String::new();
    in_label_order(counts.satisfied.len() as u64, |ix| {
        let ok = counts.satisfied[ix as usize];
        m.set_gauge("dep.satisfied", &[("dep", index_label(&mut dep, ix))], i64::from(ok));
    });
    if let Some(fs) = &counts.faults {
        fs.record_into(&mut m);
    }
    if let Some(mon) = &counts.monitor {
        for (tag, &n) in AlertKind::TAGS.iter().zip(&mon.alerts) {
            if n > 0 {
                m.add("monitor.alerts", &[("kind", tag)], n);
            }
        }
        m.add("monitor.facts", &[], mon.facts);
        m.add("monitor.guard_checks", &[], mon.guard_checks);
        in_label_order(mon.verdicts.len() as u64, |ix| {
            let v = mon.verdicts[ix as usize];
            let labels = [("dep", index_label(&mut dep, ix)), ("verdict", v.label())];
            m.add("monitor.verdicts", &labels, 1);
        });
    }
    counts.net.record_into(&mut m);
    if let Some((dropped, sampled_out)) = counts.recorder {
        m.add("obs.recorder.dropped_spans", &[], dropped);
        m.add("obs.recorder.sampled_out", &[], sampled_out);
    }
    m.set_gauge("run.duration", &[], counts.duration as i64);
    m.add("run.steps", &[], counts.steps);
    let [announces, granted, requested, reductions] = counts.sched;
    m.add("sched.announces", &[], announces);
    m.add("sched.promises_granted", &[], granted);
    m.add("sched.promises_requested", &[], requested);
    m.add("sched.reductions", &[], reductions);
    let t = &counts.transport;
    m.add("transport.dedup_dropped", &[], t.dedup_dropped);
    m.add("transport.gave_up", &[], t.gave_up);
    m.add("transport.retransmissions", &[], t.retransmissions);
    m.add("transport.timer_fires", &[], t.timer_fires);
    m.add("transport.timer_idle", &[], t.timer_idle);
}

/// `ix` as a label value, rendered into the caller's buffer.
fn index_label(buf: &mut String, ix: u64) -> &str {
    buf.clear();
    write!(buf, "{ix}").expect("writing to a String cannot fail");
    buf
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

    /// The solo writer needs no sort: on a chain of twelve arrows over
    /// twelve sites (so dependency and site labels run past `"9"`), with
    /// monitors armed, every series arrives in key order and each key
    /// once.
    #[test]
    fn the_solo_metrics_are_written_in_key_order() {
        let mut table = SymbolTable::new();
        let lits: Vec<Literal> = (0..13).map(|k| table.event(&format!("e{k}"))).collect();
        let dependencies = (lits.windows(2))
            .map(|w| Expr::or([Expr::lit(w[0].complement()), Expr::lit(w[1])]))
            .collect();
        let free_events = (lits.iter().enumerate())
            .map(|(k, &lit)| FreeEventSpec {
                site: SiteId(k as u32),
                lit,
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        let spec = WorkflowSpec { table, dependencies, agents: vec![], free_events };
        let mut config = ExecConfig::seeded(2);
        config.monitor = Some(MonitorConfig::default());
        let (report, totals) = execute_solo(&spec, &config, None);
        assert!(report.all_satisfied(), "{report:?}");
        let counts = SoloCounts::of(&spec, &report, &totals);
        let mut raw = MetricsSnapshot::default();
        write_solo_metrics(&counts, &mut raw);
        assert!(raw.counters.is_sorted_by(|a, b| a.0 < b.0), "{:#?}", raw.counters);
        assert!(raw.gauges.is_sorted_by(|a, b| a.0 < b.0), "{:#?}", raw.gauges);
        assert_eq!(raw.gauges.len(), 13, "twelve dep.satisfied and run.duration");
        let sites = raw.counters.iter().filter(|(k, _)| k.name == "net.deliveries").count();
        assert_eq!(sites, 13);
        assert_eq!(raw.clone().sorted(), raw);
        assert_eq!(render(&counts), raw);
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

    /// `a` and `b1..bn`, each a controllable free event on a site of its
    /// own, attempted at tick 1, under the dependency `dep(i)` for every
    /// `i` in `1..=n`.
    fn one_and_many(n: usize, dep: impl Fn(usize) -> String) -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let dependencies: Vec<Expr> =
            (1..=n).map(|i| parse_expr(&dep(i), &mut table).unwrap()).collect();
        let names = std::iter::once("a".to_owned()).chain((1..=n).map(|i| format!("b{i}")));
        let free_events: Vec<FreeEventSpec> = names
            .zip(0..)
            .map(|(name, site)| FreeEventSpec {
                site: SiteId(site),
                lit: table.event(&name),
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        WorkflowSpec { table, dependencies, agents: vec![], free_events }
    }

    /// A guard over 13 symbols is judged like any other. `a` needs all
    /// of `b1..b13`; its attempt meets the 13-symbol guard once, before
    /// any announcement has narrowed it, and parks. It asks for none of
    /// the 13 promises: no `bi` can grant one before it occurs, so the
    /// answers are the announcements `a` hears anyway. Having heard every
    /// `bi` decided, `a` announces to none of them, and the run ends at
    /// `a`'s occurrence.
    #[test]
    fn a_thirteen_symbol_guard_is_judged() {
        let spec = one_and_many(13, |i| format!("~a + b{i}"));
        let a = spec.free_events[0].lit;
        let report = run_workflow(&spec, ExecConfig::seeded(7));

        assert!(report.all_satisfied() && report.parked.is_empty(), "{report:?}");
        let mut expected: Vec<(Literal, Time, u64)> =
            spec.free_events[1..].iter().zip(2..).map(|(f, seq)| (f.lit, 1, seq)).collect();
        expected.push((a, 20, 27));
        assert_eq!(report.occurrences, expected);
        assert_eq!((report.steps, report.duration), (27, 20));
        let stats = &report.actor_stats[&a.symbol()];
        assert_eq!((stats.first_parked_at, stats.promises_requested), (Some(1), 0));
        assert_eq!(stats.announces_out, 0);
        assert_eq!(stats.reductions, 26, "two per announcement: a late one is not a replay");
    }

    /// The join `a < bi` for every `i`, all on one site: `a`'s guard
    /// constrains every `bi`. At 12, 13 and 14 of them every event
    /// occurs, `a` at tick 3, and the armed monitors raise nothing.
    #[test]
    fn wide_joins_fire_every_event() {
        for n in [12, 13, 14] {
            let mut spec = one_and_many(n, |i| format!("~a + ~b{i} + a.b{i}"));
            for f in &mut spec.free_events {
                f.site = SiteId(0);
            }
            let a = spec.free_events[0].lit;
            for seed in 1..=3 {
                let mut config = ExecConfig::seeded(seed);
                config.monitor = Some(MonitorConfig::default());
                let report = run_workflow(&spec, config);
                let at = format!("n = {n}, seed {seed}");
                assert_eq!(report.termination, Termination::Quiescent, "{at}");
                assert!(report.all_satisfied() && report.parked.is_empty(), "{at}: {report:?}");
                assert!(report.alerts.is_empty(), "{at}: {:?}", report.alerts);
                assert_eq!(report.occurrences.len(), n + 1, "{at}: {report:?}");
                for f in &spec.free_events {
                    assert!(report.trace.contains(f.lit), "{at}: {:?} did not occur", f.lit);
                }
                let fired = report.occurrences.iter().find(|o| o.0 == a).map(|o| o.1);
                assert_eq!(fired, Some(3), "{at}");
            }
        }
    }

    /// `ExecConfig::default()` is `seeded` at the default seed: every
    /// entry point runs it exactly as it runs the seeded config.
    #[test]
    fn the_default_config_runs_like_the_seeded_one_on_every_executor() {
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

        let runs = |exec: ExecConfig| {
            let solo = run_workflow(&specs[0], exec.clone());
            let solo = (solo.steps, solo.occurrences);
            let tenant: Vec<_> =
                crate::run_tenant(&specs, &arrivals, &crate::TenantConfig::new(exec.clone()))
                    .instances
                    .iter()
                    .map(|o| (o.report.steps, o.report.occurrences.clone()))
                    .collect();
            let fleet: Vec<_> = crate::run_parallel_fleet(&specs, &arrivals, &exec)
                .instances
                .iter()
                .map(|o| (o.report.steps, o.report.occurrences.clone()))
                .collect();
            (solo, tenant, fleet)
        };
        let (solo, tenant, fleet) = runs(ExecConfig::default());
        assert!(solo.0 > 0 && tenant.iter().chain(&fleet).all(|r| r.0 > 0), "the runs did work");
        assert_eq!(runs(ExecConfig::seeded(SimConfig::default().seed)), (solo, tenant, fleet));
    }
}
