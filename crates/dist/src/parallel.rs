//! The work-stealing parallel runtime (ROADMAP item 2): workflows and
//! whole fleets execute on [`sim::run_sharded`], with nodes grouped into
//! shards by **certified [`ShardPlan`] colocation classes** — the
//! interference analyzer's artifact — falling back to the Lemma 5
//! site-coupling classes ([`ShardPlan::from_coupling`]) when no plan is
//! supplied.
//!
//! # Why colocation classes are the shard key
//!
//! A certified plan promises that symbols in *different* classes only
//! interact through commuting fact applications, so batching each
//! class's deliveries on its own shard (and letting rounds of different
//! shards execute on different worker threads) reorders exactly the
//! message interleavings the plan certifies as harmless. The
//! single-queue [`sim::Network`] stays the conformance oracle: the tenth
//! audit (`testkit::conformance::audit_parallel_conformance`) replays
//! every parallel run against it and diffs occurrence sets, unresolved
//! symbols, final □-views and dependency verdicts, and
//! `audit_schedule_races` is the transposition-level safety net that
//! catches a forged independence claim.
//!
//! # Scope
//!
//! This is the fault-free fast path: journals, flight recorders and the
//! fault layer all assume the single-queue delivery order and are forced
//! off here ([`crate::run_workflow_with_faults`] ignores
//! [`ExecConfig::parallel`] entirely). Armed monitors *do* run — but not
//! online: a barrier round delivers disjoint per-shard sequence ranges
//! concurrently, so an online monitor could observe a later sequence
//! number before an earlier one without either being a replay trigger,
//! transiently mis-stepping sequence-chain machines into false
//! violations. Instead the monitor **replays the run's occurrence log in
//! global sequence order after the run** — the same canonical order the
//! single-queue simulator feeds it online — so dependency verdicts,
//! guard-faithfulness checks and the final complement sweep are judged
//! identically (stall watchdogs don't apply post-hoc, and the □-view
//! divergence audit is already performed by `collect_report`). Timing-
//! level results differ from the single-queue simulator only in the
//! latency stream (sampled statelessly per send so workers can route in
//! parallel, not from the oracle's serial RNG); logical results — which
//! events occur, the final views, the verdicts — must not differ at
//! all, and the audits exist to prove it.

use crate::actor::Routing;
use crate::exec::{
    build_workflow, collect_report, guard_gated, BuiltWorkflow, ExecConfig, Node, RunReport,
    WorkflowSpec,
};
use crate::msg::{InstanceId, Msg};
use crate::tenant::Arrival;
use event_algebra::{Literal, ShardPlan, SymbolId};
use guard::{CompiledWorkflow, GuardScope};
use monitor::{MonitorConfig, WorkflowMonitor};
use obs::{MetricsRegistry, MetricsSnapshot, ObsLit};
use sim::{NodeId, ParallelStats, RunOutcome, SiteId, Termination, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Result of one parallel single-workflow run: the ordinary report plus
/// the parallel-runtime breakdown and the plan that keyed the shards.
#[derive(Debug)]
pub struct ParallelRun {
    /// The run report, shaped exactly like the single-queue executor's
    /// (metrics carry the `parallel.*` key family on top).
    pub report: RunReport,
    /// Rounds, steals, per-worker loads, modeled makespans.
    pub stats: ParallelStats,
    /// The colocation plan that keyed the shards (the supplied certified
    /// plan, or the Lemma 5 coupling fallback).
    pub plan: Arc<ShardPlan>,
    /// The shard index of every node, in node order — exposed so audits
    /// can check the class→shard mapping.
    pub shard_of: Vec<usize>,
}

/// One finished instance of a parallel fleet run.
#[derive(Debug)]
pub struct ParallelInstanceOutcome {
    /// The instance's id.
    pub instance: InstanceId,
    /// Which template it ran.
    pub spec_ix: usize,
    /// Fleet-clock admission time.
    pub arrived_at: Time,
    /// Fleet-clock time of the instance's last delivery.
    pub finished_at: Time,
    /// The instance's report. Occurrence timestamps and sequence numbers
    /// are *fleet-clock* values (instances share one virtual clock and
    /// one delivery sequence); `net` is empty — traffic is accounted
    /// fleet-wide on [`ParallelFleetReport::net`].
    pub report: RunReport,
}

/// Fleet-level roll-up of a parallel fleet run.
#[derive(Debug)]
pub struct ParallelFleetReport {
    /// Per-instance outcomes, in arrival order.
    pub instances: Vec<ParallelInstanceOutcome>,
    /// Total event occurrences across the fleet.
    pub events: u64,
    /// Instances whose run converged (fleet-wide termination: either
    /// every instance quiesced or the shared budget ran out).
    pub quiesced: usize,
    /// Instances counted under a budget-exhausted fleet.
    pub exhausted: usize,
    /// Fleet-wide traffic statistics.
    pub net: sim::NetStats,
    /// Rounds, steals, per-worker loads, modeled makespans, wall clock.
    pub stats: ParallelStats,
    /// Fleet metrics (`parallel.*`, `net.*`, instance/event counters).
    pub metrics: MetricsSnapshot,
}

impl ParallelFleetReport {
    /// `true` when the fleet converged with every dependency of every
    /// instance satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.exhausted == 0 && self.instances.iter().all(|o| o.report.all_satisfied())
    }

    /// Event occurrences per *measured* wall-clock second.
    pub fn events_per_sec_wall(&self) -> f64 {
        self.events as f64 / (self.stats.wall_ns.max(1) as f64 / 1e9)
    }

    /// Event occurrences per second at a *modeled* worker count: the
    /// scheduled-makespan throughput `events / modeled_ns(workers)` (see
    /// [`sim::ParallelConfig::model_workers`]). `None` when that count
    /// was not modeled.
    pub fn events_per_sec_modeled(&self, workers: usize) -> Option<f64> {
        self.stats
            .modeled_ns
            .iter()
            .find(|&&(k, _)| k == workers)
            .map(|&(_, ns)| self.events as f64 / (ns.max(1) as f64 / 1e9))
    }
}

/// The colocation plan the parallel runtime shards by: the certified
/// plan from `config` when present, otherwise the conservative Lemma 5
/// site-coupling fallback computed from the spec's compiled dependency
/// machines (which colocates every non-commuting pair and certifies no
/// independence).
pub fn effective_plan(spec: &WorkflowSpec, config: &ExecConfig) -> Arc<ShardPlan> {
    if let Some(plan) = &config.shard_plan {
        return Arc::clone(plan);
    }
    let compiled = CompiledWorkflow::compile(&spec.dependencies, GuardScope::Mentioning);
    let symbols: Vec<SymbolId> = compiled.symbols.iter().copied().collect();
    Arc::new(ShardPlan::from_coupling(&symbols, &compiled.machines))
}

/// One shard index per node of `built`, in node order: every actor goes
/// to its symbol's colocation class (symbols the plan does not analyze
/// get fresh singleton classes), and each agent — and the lazy-mode
/// ticker — gets its own shard after the class shards: agents only talk
/// to actors, so no class invariant constrains their placement, and a
/// private shard keeps their script-driving off the actors' batches.
pub fn shard_assignment(built: &BuiltWorkflow, plan: &ShardPlan) -> Vec<usize> {
    let keys = plan.shard_keys(&built.symbols);
    let mut next =
        keys.iter().copied().max().map_or(plan.class_count(), |m| (m + 1).max(plan.class_count()));
    let mut actor_ix = 0usize;
    built
        .nodes
        .iter()
        .map(|(_, node)| match node {
            Node::Actor(_) => {
                let k = keys[actor_ix];
                actor_ix += 1;
                k
            }
            Node::Agent(_) | Node::Ticker { .. } => {
                let k = next;
                next += 1;
                k
            }
        })
        .collect()
}

/// Record the parallel-runtime breakdown into `reg` under the
/// `parallel.*` key family; per-worker delivered / steal / queue-depth
/// counters carry a `worker` label.
pub fn record_parallel(reg: &MetricsRegistry, stats: &ParallelStats) {
    reg.set_gauge("parallel.workers", &[], stats.workers as i64);
    reg.set_gauge("parallel.shards", &[], stats.shards as i64);
    reg.add("parallel.rounds", &[], stats.rounds);
    reg.add("parallel.steals", &[], stats.steals);
    reg.set_gauge("parallel.max_round_width", &[], stats.max_round_width as i64);
    for (w, load) in stats.per_worker.iter().enumerate() {
        let wl = w.to_string();
        let labels: &[(&str, &str)] = &[("worker", &wl)];
        reg.add("parallel.worker.delivered", labels, load.delivered);
        reg.add("parallel.worker.steals", labels, load.steals);
        reg.set_gauge("parallel.worker.queue_depth", labels, load.max_queue_depth as i64);
    }
}

/// Arm the online monitors for one finished parallel run: replay the
/// occurrence log in global sequence order (the canonical order the
/// single-queue simulator feeds monitors online — see the module docs
/// for why online feeding is unsound here), finish on the run's
/// duration, and record the `monitor.*` metric family into `reg`.
fn replay_monitor(
    spec: &WorkflowSpec,
    guards: &Arc<CompiledWorkflow>,
    plan: &Arc<ShardPlan>,
    node_of: impl Fn(SymbolId) -> u32,
    config: MonitorConfig,
    report: &mut RunReport,
    reg: &MetricsRegistry,
) {
    let m =
        WorkflowMonitor::from_compiled(&spec.table, Arc::clone(guards), guard_gated(spec), config);
    m.set_shard_plan(Arc::clone(plan));
    let mut ordered = report.occurrences.clone();
    ordered.sort_by_key(|&(_, _, q)| q);
    for (l, t, q) in ordered {
        m.on_occurrence(t, node_of(l.symbol()), ObsLit(l.index() as u32), q);
    }
    let mrep = m.finish(report.duration);
    reg.add("monitor.facts", &[], mrep.facts);
    reg.add("monitor.guard_checks", &[], mrep.guard_checks);
    for alert in &mrep.alerts {
        reg.add("monitor.alerts", &[("kind", alert.kind.tag())], 1);
    }
    for (ix, v) in mrep.verdicts.iter().enumerate() {
        reg.add("monitor.verdicts", &[("dep", &ix.to_string()), ("verdict", v.label())], 1);
    }
    report.alerts = mrep.alerts.clone();
    report.monitor = Some(mrep);
}

/// Compile and run one workflow on the work-stealing parallel executor.
///
/// Logical results (occurrences, views, verdicts) match
/// [`crate::run_workflow`] on the single-queue simulator — the tenth
/// conformance audit's claim — and *all* results are identical for
/// every worker count. Journals and recorders are forced off; armed
/// monitors run by post-run sequence replay (see the module docs).
pub fn run_workflow_parallel(spec: &WorkflowSpec, config: &ExecConfig) -> ParallelRun {
    let mut exec = config.clone();
    exec.journal = false;
    exec.record = None;
    let monitor_cfg = exec.monitor.take();
    let par = exec.parallel.clone().unwrap_or_default();
    let plan = effective_plan(spec, &exec);
    let built = build_workflow(spec, exec.clone());
    let routing = Arc::clone(&built.routing);
    let shard_of = shard_assignment(&built, &plan);
    let run = sim::run_sharded(
        built.nodes,
        &shard_of,
        built.injections,
        exec.sim,
        &par,
        exec.step_budget(),
    );
    let mut report = collect_report(
        spec,
        &built.symbols,
        |s| routing.actor_of[&s].0 as usize,
        &run.nodes,
        run.stats.duration,
        run.outcome,
        run.net,
    );
    let reg = MetricsRegistry::new();
    report.net.record_into(&reg);
    reg.add("run.steps", &[], report.steps);
    reg.set_gauge("run.duration", &[], report.duration as i64);
    reg.set_gauge("shard.classes", &[], plan.class_count() as i64);
    record_parallel(&reg, &run.stats);
    if let Some(mc) = monitor_cfg {
        replay_monitor(
            spec,
            &built.guards,
            &plan,
            |s| routing.actor_of[&s].0,
            mc,
            &mut report,
            &reg,
        );
    }
    report.metrics = reg.snapshot();
    ParallelRun { report, stats: run.stats, plan, shard_of }
}

/// Rebuild `routing` with every [`NodeId`] offset by `base` — the
/// per-instance tables of a fleet clone.
fn offset_routing(routing: &Routing, base: u32) -> Routing {
    Routing {
        actor_of: routing.actor_of.iter().map(|(&s, &n)| (s, NodeId(n.0 + base))).collect(),
        agent_of: routing.agent_of.iter().map(|(&s, &n)| (s, NodeId(n.0 + base))).collect(),
        subscribers_of: routing
            .subscribers_of
            .iter()
            .map(|(&s, subs)| (s, subs.iter().map(|&n| NodeId(n.0 + base)).collect()))
            .collect(),
    }
}

/// Run a fleet of workflow instances on ONE sharded parallel network.
///
/// Unlike [`crate::tenant::run_tenant`] — which multiplexes one
/// [`sim::Network`] per instance and is byte-identical to isolated runs
/// — the parallel fleet merges every instance's nodes into a single
/// [`sim::run_sharded`] execution: instances share the virtual clock,
/// the delivery sequence and the latency stream, and each instance's
/// colocation classes get their own block of shards, so independent
/// instances (and independent classes within one instance) execute on
/// different workers. Isolation still holds logically — node-id spaces
/// are disjoint and announcements are instance-stamped — so each
/// instance's occurrence *set*, views and verdicts match its isolated
/// baseline; timestamps are fleet-clock values.
///
/// # Panics
///
/// Panics when an arrival's `spec_ix` is out of range or two arrivals
/// share an [`InstanceId`], exactly like the tenant engine.
pub fn run_parallel_fleet(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    config: &ExecConfig,
) -> ParallelFleetReport {
    let mut seen = std::collections::BTreeSet::new();
    for a in arrivals {
        assert!(
            a.spec_ix < specs.len(),
            "arrival {} names spec {} of {}",
            a.instance,
            a.spec_ix,
            specs.len()
        );
        assert!(seen.insert(a.instance), "duplicate instance id {}", a.instance);
    }
    let mut exec = config.clone();
    exec.journal = false;
    exec.record = None;
    let monitor_cfg = exec.monitor.take();
    let par = exec.parallel.clone().unwrap_or_default();
    let protos: Vec<BuiltWorkflow> =
        specs.iter().map(|s| build_workflow(s, exec.clone())).collect();
    let plans: Vec<Arc<ShardPlan>> = specs.iter().map(|s| effective_plan(s, &exec)).collect();
    let proto_shards: Vec<Vec<usize>> =
        protos.iter().zip(&plans).map(|(b, p)| shard_assignment(b, p)).collect();
    let proto_shard_count: Vec<usize> =
        proto_shards.iter().map(|s| s.iter().copied().max().map_or(0, |m| m + 1)).collect();

    let mut nodes: Vec<(SiteId, Node)> = Vec::new();
    let mut shard_of: Vec<usize> = Vec::new();
    let mut injections: Vec<(NodeId, NodeId, Msg, Time)> = Vec::new();
    // Per arrival: (first node id, node count, first shard, shard count).
    let mut spans: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(arrivals.len());
    let (mut node_base, mut shard_base) = (0usize, 0usize);
    for a in arrivals {
        let proto = &protos[a.spec_ix];
        let routing = Arc::new(offset_routing(&proto.routing, node_base as u32));
        for (site, role) in &proto.nodes {
            let mut role = role.clone();
            match &mut role {
                Node::Actor(actor) => {
                    actor.instance = a.instance;
                    actor.announce_instance = a.instance;
                    actor.routing = Arc::clone(&routing);
                }
                Node::Agent(agent) => agent.set_routing(Arc::clone(&routing)),
                Node::Ticker { actors, .. } => {
                    for id in actors.iter_mut() {
                        id.0 += node_base as u32;
                    }
                }
            }
            nodes.push((*site, role));
        }
        shard_of.extend(proto_shards[a.spec_ix].iter().map(|&s| shard_base + s));
        let think: BTreeMap<Literal, Time> = a.think.iter().copied().collect();
        for (from, to, msg, extra) in &proto.injections {
            // Same "at start" convention as the tenant path (the
            // injection pays a 1-tick latency), shifted to the arrival's
            // admission time on the shared fleet clock.
            let extra = match msg.literal().and_then(|l| think.get(&l)) {
                Some(&t) => t.saturating_sub(1),
                None => *extra,
            };
            injections.push((
                NodeId(from.0 + node_base as u32),
                NodeId(to.0 + node_base as u32),
                msg.clone(),
                extra + a.at,
            ));
        }
        spans.push((node_base, proto.nodes.len(), shard_base, proto_shard_count[a.spec_ix]));
        node_base += proto.nodes.len();
        shard_base += proto_shard_count[a.spec_ix];
    }

    let run = sim::run_sharded(nodes, &shard_of, injections, exec.sim, &par, exec.step_budget());

    let reg = MetricsRegistry::new();
    let mut outcomes = Vec::with_capacity(arrivals.len());
    let mut events = 0u64;
    let mut monitor_violations = 0u64;
    for (ix, a) in arrivals.iter().enumerate() {
        let (base, count, sbase, scount) = spans[ix];
        let proto = &protos[a.spec_ix];
        let last =
            run.stats.per_shard_last_time[sbase..sbase + scount].iter().copied().max().unwrap_or(0);
        let steps: u64 = run.stats.per_shard_delivered[sbase..sbase + scount].iter().sum();
        let mut report = collect_report(
            &specs[a.spec_ix],
            &proto.symbols,
            |s| proto.routing.actor_of[&s].0 as usize,
            &run.nodes[base..base + count],
            last.saturating_sub(a.at),
            RunOutcome { steps, termination: run.outcome.termination },
            sim::NetStats::default(),
        );
        if let Some(mc) = monitor_cfg {
            // Per-instance post-run replay; `monitor.*` counters
            // accumulate fleet-wide in the shared registry.
            replay_monitor(
                &specs[a.spec_ix],
                &proto.guards,
                &plans[a.spec_ix],
                |s| proto.routing.actor_of[&s].0,
                mc,
                &mut report,
                &reg,
            );
            monitor_violations +=
                report.alerts.iter().filter(|al| al.kind.is_violation()).count() as u64;
        }
        events += report.occurrences.len() as u64;
        outcomes.push(ParallelInstanceOutcome {
            instance: a.instance,
            spec_ix: a.spec_ix,
            arrived_at: a.at,
            finished_at: last.max(a.at),
            report,
        });
    }

    let (quiesced, exhausted) = match run.outcome.termination {
        Termination::Quiescent => (outcomes.len(), 0),
        Termination::BudgetExhausted => (0, outcomes.len()),
    };
    run.net.record_into(&reg);
    record_parallel(&reg, &run.stats);
    reg.add("parallel.instances", &[], outcomes.len() as u64);
    reg.add("parallel.events", &[], events);
    if monitor_cfg.is_some() {
        reg.add("parallel.monitor.violations", &[], monitor_violations);
    }
    ParallelFleetReport {
        instances: outcomes,
        events,
        quiesced,
        exhausted,
        net: run.net,
        stats: run.stats,
        metrics: reg.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FreeEventSpec;
    use agent::EventAttrs;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::ParallelConfig;
    use std::collections::BTreeSet;

    /// A 4-stage pipeline of arrow dependencies — all fact applications
    /// commute, so the coupling fallback gives every symbol its own
    /// class and the run parallelizes across all four actors.
    fn pipeline_spec() -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let mut deps = Vec::new();
        for i in 0..3 {
            deps.push(parse_expr(&format!("~e{i} + e{}", i + 1), &mut table).unwrap());
        }
        let free_events = (0..4)
            .map(|i| FreeEventSpec {
                site: SiteId(i as u32),
                lit: table.event(&format!("e{i}")),
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        WorkflowSpec { table, dependencies: deps, agents: vec![], free_events }
    }

    fn lits(report: &RunReport) -> BTreeSet<Literal> {
        report.occurrences.iter().map(|&(l, _, _)| l).collect()
    }

    #[test]
    fn parallel_run_matches_single_queue_logically() {
        let spec = pipeline_spec();
        let mut config = ExecConfig::seeded(11);
        let oracle = crate::run_workflow(&spec, config.clone());
        config.parallel = Some(ParallelConfig::new(1));
        let run = run_workflow_parallel(&spec, &config);
        assert_eq!(lits(&run.report), lits(&oracle), "occurrence sets agree");
        assert_eq!(run.report.unresolved, oracle.unresolved);
        assert_eq!(run.report.satisfied, oracle.satisfied);
        assert_eq!(run.report.termination, Termination::Quiescent);
        assert!(run.report.divergence.is_empty());
        assert!(run.report.all_satisfied(), "{:?}", run.report);
        assert_eq!(run.plan.class_count(), 4, "arrow pipeline: all classes singleton");
        assert!(run.stats.max_round_width >= 2, "some round ran shards in parallel");
    }

    #[test]
    fn parallel_run_is_worker_count_invariant() {
        let spec = pipeline_spec();
        let mut c1 = ExecConfig::seeded(3);
        c1.parallel = Some(ParallelConfig::new(1));
        let mut c3 = ExecConfig::seeded(3);
        c3.parallel = Some(ParallelConfig::new(3));
        let r1 = run_workflow_parallel(&spec, &c1);
        let r3 = run_workflow_parallel(&spec, &c3);
        assert_eq!(r1.report.occurrences, r3.report.occurrences, "bitwise: times and seqs too");
        assert_eq!(r1.report.duration, r3.report.duration);
        assert_eq!(r1.report.steps, r3.report.steps);
        assert_eq!(r1.stats.rounds, r3.stats.rounds);
    }

    #[test]
    fn run_workflow_dispatches_on_the_parallel_config() {
        let spec = pipeline_spec();
        let mut config = ExecConfig::seeded(5);
        config.parallel = Some(ParallelConfig::new(2));
        let report = crate::run_workflow(&spec, config);
        assert!(report.all_satisfied(), "{report:?}");
        assert!(
            report.metrics.counter("parallel.rounds", &[]).is_some(),
            "parallel metrics prove the dispatch: {:?}",
            report.metrics
        );
    }

    #[test]
    fn fleet_instances_match_their_isolated_baselines() {
        let spec = pipeline_spec();
        let arrivals: Vec<Arrival> =
            (0..6).map(|i| Arrival::new(i, 0, i * 5, 0xFEED ^ i)).collect();
        let mut config = ExecConfig::seeded(0);
        config.parallel = Some(ParallelConfig::new(2));
        let fleet = run_parallel_fleet(std::slice::from_ref(&spec), &arrivals, &config);
        assert_eq!(fleet.instances.len(), 6);
        assert!(fleet.all_satisfied(), "{:?}", fleet.metrics);
        for (a, o) in arrivals.iter().zip(&fleet.instances) {
            let mut solo_exec = config.clone();
            solo_exec.sim.seed = a.seed;
            solo_exec.parallel = None;
            let solo = crate::run_workflow(&spec, solo_exec);
            assert_eq!(lits(&o.report), lits(&solo), "instance {}", a.instance);
            assert_eq!(o.report.satisfied, solo.satisfied, "instance {}", a.instance);
            assert!(o.finished_at >= o.arrived_at);
        }
        assert_eq!(fleet.events, 24, "four events per instance");
    }

    #[test]
    fn fleet_results_are_worker_count_invariant_and_modeled() {
        let spec = pipeline_spec();
        let arrivals: Vec<Arrival> = (0..5).map(|i| Arrival::new(i, 0, i * 2, 77 + i)).collect();
        let mut c1 = ExecConfig::seeded(9);
        c1.parallel = Some(ParallelConfig { workers: 1, model_workers: vec![1, 2, 4, 8] });
        let mut c4 = ExecConfig::seeded(9);
        c4.parallel = Some(ParallelConfig::new(4));
        let f1 = run_parallel_fleet(std::slice::from_ref(&spec), &arrivals, &c1);
        let f4 = run_parallel_fleet(std::slice::from_ref(&spec), &arrivals, &c4);
        assert_eq!(f1.events, f4.events);
        for (a, b) in f1.instances.iter().zip(&f4.instances) {
            assert_eq!(a.report.occurrences, b.report.occurrences, "bitwise invariance");
        }
        assert_eq!(f1.stats.modeled_ns.len(), 4);
        let m1 = f1.events_per_sec_modeled(1).unwrap();
        let m8 = f1.events_per_sec_modeled(8).unwrap();
        assert!(m8 >= m1, "modeled throughput cannot shrink with more workers");
        assert!(f1.events_per_sec_modeled(3).is_none());
    }

    #[test]
    fn think_overrides_shift_fleet_injections() {
        let spec = pipeline_spec();
        let e0 = spec.free_events[0].lit;
        let mut a = Arrival::new(0, 0, 0, 4);
        a.think = vec![(e0, 40)];
        let mut config = ExecConfig::seeded(1);
        config.parallel = Some(ParallelConfig::new(1));
        let fleet =
            run_parallel_fleet(std::slice::from_ref(&spec), std::slice::from_ref(&a), &config);
        let report = &fleet.instances[0].report;
        assert!(report.all_satisfied(), "{report:?}");
        let t0 = report.occurrences.iter().find(|&&(l, _, _)| l == e0).unwrap().1;
        assert!(t0 >= 40, "e0 waits for the think override: occurred at {t0}");
    }
}
