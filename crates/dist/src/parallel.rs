//! The sharded parallel runtime: a workflow runs on [`sim::run_sharded`]
//! with its nodes grouped into shards by **certified [`ShardPlan`]
//! colocation classes** — the interference analyzer's artifact — falling
//! back to the Lemma 5 site-coupling classes
//! ([`ShardPlan::from_coupling`]) when no plan is supplied; a fleet runs
//! whole instances of that on worker threads.
//!
//! # Why colocation classes are the shard key
//!
//! A certified plan promises that symbols in *different* classes only
//! interact through commuting fact applications, so batching each
//! class's deliveries on its own shard reorders exactly the message
//! interleavings the plan certifies as harmless. The single-queue
//! [`sim::Network`] stays the conformance oracle: the tenth audit
//! (`testkit::conformance::audit_parallel_conformance`) replays every
//! sharded run against it and diffs occurrence sets, unresolved
//! symbols, final □-views and dependency verdicts, and
//! `audit_schedule_races` is the transposition-level safety net that
//! catches a forged independence claim.
//!
//! # Why the instance is the unit of parallel work
//!
//! Events interact only through the guards they share, and two
//! instances of a workflow share none. [`run_parallel_fleet`] therefore
//! never makes instances meet: its worker threads claim arrivals from
//! one atomic counter (the claim loop it shares with
//! [`crate::run_tenant`]), and a claim instantiates that arrival's nodes
//! from the worker's prototype, runs its barrier rounds inline, assembles
//! its report and replays its monitor, all on the claiming thread. What
//! is instance-local as a result: the send and delivery sequences
//! (compared only within an instance — by the actors' fact logs, the
//! divergence audit and the monitor replay) and the `max_steps` budget.
//! What stays fleet-global: node ids, injection nonces and the fleet
//! clock in the stateless latency hash ([`sim::Island`]), so every
//! occurrence timestamp is the one a single merged network would give,
//! at any worker count.
//!
//! # Scope
//!
//! This is the fault-free fast path: journals, flight recorders and the
//! fault layer all assume the single-queue delivery order and are forced
//! off here ([`crate::run_workflow_with_faults`] ignores
//! [`ExecConfig::parallel`] entirely). Armed monitors *do* run — by
//! replaying the run's occurrence log in sequence order after the run,
//! the same canonical order the single-queue simulator feeds them
//! online — so dependency verdicts, guard-faithfulness checks and the
//! final complement sweep are judged identically (stall watchdogs don't
//! apply post-hoc, and the □-view divergence audit is already performed
//! by `collect_report`). Timing-level results differ from the
//! single-queue simulator only in the latency stream (sampled
//! statelessly per send, not from the oracle's serial RNG); logical
//! results — which events occur, the final views, the verdicts — must
//! not differ at all, and the audits exist to prove it.

use crate::exec::{
    build_workflow, collect_report, guard_gated, BuiltWorkflow, ExecConfig, Node, RunReport,
    WorkflowSpec,
};
use crate::fleet::{check_arrivals, run_fleet, Arrival, InstanceOutcome};
use event_algebra::{ShardPlan, SymbolId};
use monitor::{MonitorConfig, MonitorReport, WorkflowMonitor};
use obs::{MetricsRegistry, MetricsSnapshot, ObsLit};
use sim::{Island, NetStats, ParallelStats, Termination};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Result of one sharded single-workflow run: the ordinary report plus
/// the round breakdown and the plan that keyed the shards.
#[derive(Debug)]
pub struct ParallelRun {
    /// The run report, shaped exactly like the single-queue executor's
    /// (metrics carry the `parallel.*` key family on top).
    pub report: RunReport,
    /// Rounds, round width and run time.
    pub stats: ParallelStats,
    /// The colocation plan that keyed the shards (the supplied certified
    /// plan, or the Lemma 5 coupling fallback).
    pub plan: Arc<ShardPlan>,
    /// The shard index of every node, in node order — exposed so audits
    /// can check the class→shard mapping.
    pub shard_of: Vec<usize>,
}

/// Fleet-level roll-up of a parallel fleet run.
#[derive(Debug)]
pub struct ParallelFleetReport {
    /// Per-instance outcomes, in arrival order.
    pub instances: Vec<InstanceOutcome>,
    /// Total event occurrences across the fleet.
    pub events: u64,
    /// Instances that converged within their budget.
    pub quiesced: usize,
    /// Instances that ran out of budget with messages pending.
    pub exhausted: usize,
    /// Fleet-wide traffic statistics.
    pub net: NetStats,
    /// Instance rounds summed, steals, per-worker loads, wall clock.
    pub stats: ParallelStats,
    /// Fleet metrics (`parallel.*`, `net.*`, instance/event counters).
    pub metrics: MetricsSnapshot,
}

impl ParallelFleetReport {
    /// `true` when every instance converged with every dependency
    /// satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.exhausted == 0 && self.instances.iter().all(|o| o.report.all_satisfied())
    }

    /// Event occurrences per *measured* wall-clock second.
    pub fn events_per_sec_wall(&self) -> f64 {
        self.events as f64 / (self.stats.wall_ns.max(1) as f64 / 1e9)
    }
}

/// The colocation plan the parallel runtime shards by: the certified
/// plan from `config` when present, otherwise the conservative Lemma 5
/// site-coupling fallback computed from the dependency machines `built`
/// already compiled (which colocates every non-commuting pair and
/// certifies no independence).
pub fn effective_plan(built: &BuiltWorkflow, config: &ExecConfig) -> Arc<ShardPlan> {
    if let Some(plan) = &config.shard_plan {
        return Arc::clone(plan);
    }
    let symbols: Vec<SymbolId> = built.guards.symbols.iter().copied().collect();
    Arc::new(ShardPlan::from_coupling(&symbols, &built.guards.machines))
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
/// `parallel.*` key family; per-worker delivered / steal counters carry
/// a `worker` label.
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
    }
}

/// Monitor counters of finished runs, folded off the metrics registry
/// (fleet workers tally privately; the registry sees one total).
#[derive(Default)]
struct MonitorTally {
    facts: u64,
    guard_checks: u64,
    violations: u64,
    alerts: BTreeMap<&'static str, u64>,
    verdicts: BTreeMap<(usize, &'static str), u64>,
}

impl MonitorTally {
    fn count(&mut self, report: &MonitorReport) {
        self.facts += report.facts;
        self.guard_checks += report.guard_checks;
        for alert in &report.alerts {
            self.violations += u64::from(alert.kind.is_violation());
            *self.alerts.entry(alert.kind.tag()).or_insert(0) += 1;
        }
        for (ix, v) in report.verdicts.iter().enumerate() {
            *self.verdicts.entry((ix, v.label())).or_insert(0) += 1;
        }
    }

    fn absorb(&mut self, other: MonitorTally) {
        self.facts += other.facts;
        self.guard_checks += other.guard_checks;
        self.violations += other.violations;
        for (kind, n) in other.alerts {
            *self.alerts.entry(kind).or_insert(0) += n;
        }
        for (key, n) in other.verdicts {
            *self.verdicts.entry(key).or_insert(0) += n;
        }
    }

    /// Record the `monitor.*` metric family.
    fn record_into(&self, reg: &MetricsRegistry) {
        reg.add("monitor.facts", &[], self.facts);
        reg.add("monitor.guard_checks", &[], self.guard_checks);
        for (kind, &n) in &self.alerts {
            reg.add("monitor.alerts", &[("kind", kind)], n);
        }
        for (&(ix, verdict), &n) in &self.verdicts {
            reg.add("monitor.verdicts", &[("dep", &ix.to_string()), ("verdict", verdict)], n);
        }
    }
}

/// Arm the online monitors for one finished sharded run: replay the
/// occurrence log in sequence order (the canonical order the
/// single-queue simulator feeds monitors online), finish on the run's
/// duration, attach the verdicts to `report` and count them in `tally`.
fn replay_monitor(
    spec: &WorkflowSpec,
    built: &BuiltWorkflow,
    plan: &Arc<ShardPlan>,
    config: MonitorConfig,
    report: &mut RunReport,
    tally: &mut MonitorTally,
) {
    let m = WorkflowMonitor::from_compiled(
        &spec.table,
        Arc::clone(&built.guards),
        guard_gated(spec),
        config,
    );
    m.set_shard_plan(Arc::clone(plan));
    let mut ordered = report.occurrences.clone();
    ordered.sort_by_key(|&(_, _, q)| q);
    for (l, t, q) in ordered {
        m.on_occurrence(t, built.routing.actor_of[&l.symbol()].0, ObsLit(l.index() as u32), q);
    }
    let mrep = m.finish(report.duration);
    tally.count(&mrep);
    report.alerts = mrep.alerts.clone();
    report.monitor = Some(mrep);
}

/// The fault-free configuration every sharded run executes under, with
/// the monitor configuration split off for post-run replay.
fn fast_path(config: &ExecConfig) -> (ExecConfig, Option<MonitorConfig>) {
    let mut exec = config.clone();
    exec.journal = false;
    exec.record = None;
    let monitor = exec.monitor.take();
    (exec, monitor)
}

/// Compile and run one workflow on the sharded round executor.
///
/// Logical results (occurrences, views, verdicts) match
/// [`crate::run_workflow`] on the single-queue simulator — the tenth
/// conformance audit's claim. A single workflow is one island: it runs
/// on the calling thread whatever [`sim::ParallelConfig::workers`]
/// says. Journals and recorders are forced off; armed monitors run by
/// post-run sequence replay (see the module docs).
pub fn run_workflow_parallel(spec: &WorkflowSpec, config: &ExecConfig) -> ParallelRun {
    let (exec, monitor_cfg) = fast_path(config);
    let mut built = build_workflow(spec, exec.clone());
    let plan = effective_plan(&built, &exec);
    let shard_of = shard_assignment(&built, &plan);
    let run = sim::run_sharded(
        std::mem::take(&mut built.nodes),
        &shard_of,
        std::mem::take(&mut built.injections),
        exec.sim,
        Island::default(),
        exec.step_budget(),
    );
    let mut report = collect_report(
        spec,
        &built.symbols,
        |s| built.routing.actor_of[&s].0 as usize,
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
        let mut tally = MonitorTally::default();
        replay_monitor(spec, &built, &plan, mc, &mut report, &mut tally);
        tally.record_into(&reg);
    }
    report.metrics = reg.snapshot();
    ParallelRun { report, stats: run.stats, plan, shard_of }
}

/// What a fleet instantiates per spec: the prototype network, the
/// colocation plan and the shard index of every prototype node.
struct Template {
    proto: BuiltWorkflow,
    plan: Arc<ShardPlan>,
    shard_of: Vec<usize>,
}

fn build_templates(specs: &[WorkflowSpec], exec: &ExecConfig) -> Vec<Template> {
    specs
        .iter()
        .map(|spec| {
            let proto = build_workflow(spec, exec.clone());
            let plan = effective_plan(&proto, exec);
            let shard_of = shard_assignment(&proto, &plan);
            Template { proto, plan, shard_of }
        })
        .collect()
}

/// One fleet worker's share of every fleet total.
#[derive(Default)]
struct WorkerFold {
    net: NetStats,
    stats: ParallelStats,
    tally: MonitorTally,
}

/// Run a fleet of workflow instances, whole instances in parallel.
///
/// `config.parallel`'s `workers` threads (the calling thread is one of
/// them) claim arrivals from a shared counter; each claim instantiates
/// the arrival's nodes from its template's prototype, runs them to
/// quiescence on [`sim::run_sharded`] under the instance's own
/// `max_steps` budget, and assembles the report and monitor verdicts on
/// the same thread, so only `workers` instances' actors are alive at
/// once. Unlike [`crate::tenant::run_tenant`] — byte-identical to
/// isolated runs — instances here share the fleet clock and one
/// stateless latency stream: injections are shifted to the arrival's
/// admission time and the latency hash sees fleet-global node ids and
/// injection nonces, so timestamps are fleet-clock values and are the
/// same at every worker count. Each instance's occurrence *set*, views
/// and verdicts match its isolated baseline.
///
/// # Panics
///
/// Panics when an arrival's `spec_ix` is out of range or two arrivals
/// share an instance id, exactly like the tenant engine.
pub fn run_parallel_fleet(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    config: &ExecConfig,
) -> ParallelFleetReport {
    let wall_start = Instant::now();
    check_arrivals(specs, arrivals);
    let (exec, monitor_cfg) = fast_path(config);
    let workers = exec.parallel.as_ref().map_or(1, |p| p.workers);
    let templates = build_templates(specs, &exec);
    // Each arrival's block of the fleet-global node-id and
    // injection-nonce spaces, in arrival order.
    let mut islands = Vec::with_capacity(arrivals.len());
    let mut next = Island::default();
    for a in arrivals {
        islands.push(next);
        next.node_base += templates[a.spec_ix].proto.nodes.len() as u32;
        next.nonce_base += templates[a.spec_ix].proto.injections.len() as u64;
    }

    let run = |ix: usize, templates: &Vec<Template>, fold: &mut WorkerFold| {
        let a = &arrivals[ix];
        let (spec, Template { proto, plan, shard_of }) = (&specs[a.spec_ix], &templates[a.spec_ix]);
        // The tenant path's "at start" convention, shifted to the
        // arrival's admission time on the shared fleet clock.
        let injections =
            a.injections(proto).map(|(from, to, msg, extra)| (from, to, msg, extra + a.at));
        let run = sim::run_sharded(
            a.instantiate(proto, a.instance),
            shard_of,
            injections.collect(),
            exec.sim,
            islands[ix],
            exec.step_budget(),
        );
        let last = run.stats.duration;
        let mut report = collect_report(
            spec,
            &proto.symbols,
            |s| proto.routing.actor_of[&s].0 as usize,
            &run.nodes,
            last.saturating_sub(a.at),
            run.outcome,
            NetStats::default(),
        );
        if let Some(mc) = monitor_cfg {
            replay_monitor(spec, proto, plan, mc, &mut report, &mut fold.tally);
        }
        fold.net.absorb(&run.net);
        fold.stats.absorb(&run.stats);
        InstanceOutcome {
            instance: a.instance,
            spec_ix: a.spec_ix,
            arrived_at: a.at,
            finished_at: last.max(a.at),
            cross_instance_dropped: 0,
            report,
        }
    };
    let (instances, folds) =
        run_fleet(arrivals, workers, &templates, || build_templates(specs, &exec), run);

    let merge_start = Instant::now();
    let mut net = NetStats::default();
    let mut stats = ParallelStats { workers: folds.len(), ..ParallelStats::default() };
    let mut tally = MonitorTally::default();
    for (fold, load) in folds {
        net.absorb(&fold.net);
        stats.absorb(&fold.stats);
        stats.steals += load.steals;
        stats.per_worker.push(load);
        tally.absorb(fold.tally);
    }
    let events = instances.iter().map(|o| o.report.occurrences.len() as u64).sum();
    let exhausted =
        instances.iter().filter(|o| o.report.termination == Termination::BudgetExhausted).count();

    stats.merge_ns = merge_start.elapsed().as_nanos() as u64;

    let reg = MetricsRegistry::new();
    net.record_into(&reg);
    reg.add("parallel.instances", &[], instances.len() as u64);
    reg.add("parallel.events", &[], events);
    if monitor_cfg.is_some() {
        tally.record_into(&reg);
        reg.add("parallel.monitor.violations", &[], tally.violations);
    }
    stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
    record_parallel(&reg, &stats);
    ParallelFleetReport {
        quiesced: instances.len() - exhausted,
        instances,
        events,
        exhausted,
        net,
        stats,
        metrics: reg.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FreeEventSpec;
    use agent::EventAttrs;
    use event_algebra::Literal;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::{ParallelConfig, SiteId};
    use std::collections::BTreeSet;

    /// An `n`-stage pipeline of arrow dependencies — all fact
    /// applications commute, so the coupling fallback gives every symbol
    /// its own class and rounds run several shards wide.
    fn chain_spec(n: usize) -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let mut deps = Vec::new();
        for i in 0..n - 1 {
            deps.push(parse_expr(&format!("~e{i} + e{}", i + 1), &mut table).unwrap());
        }
        let free_events = (0..n)
            .map(|i| FreeEventSpec {
                site: SiteId(i as u32),
                lit: table.event(&format!("e{i}")),
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        WorkflowSpec { table, dependencies: deps, agents: vec![], free_events }
    }

    fn pipeline_spec() -> WorkflowSpec {
        chain_spec(4)
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
    fn fleet_results_are_worker_count_invariant() {
        let spec = pipeline_spec();
        let arrivals: Vec<Arrival> = (0..5).map(|i| Arrival::new(i, 0, i * 2, 77 + i)).collect();
        let fleet = |workers: usize| {
            let mut config = ExecConfig::seeded(9);
            config.parallel = Some(ParallelConfig::new(workers));
            run_parallel_fleet(std::slice::from_ref(&spec), &arrivals, &config)
        };
        let (f1, f4) = (fleet(1), fleet(4));
        assert_eq!(f1.events, f4.events);
        for (a, b) in f1.instances.iter().zip(&f4.instances) {
            assert_eq!(a.instance, b.instance, "outcomes are in arrival order");
            assert_eq!(a.report.occurrences, b.report.occurrences, "bitwise invariance");
        }
        assert_eq!(f1.net, f4.net);
        assert_eq!(f1.stats.rounds, f4.stats.rounds);
        assert_eq!((f1.stats.workers, f4.stats.workers), (1, 4));
        assert_eq!(f1.stats.steals, 0, "one worker is every instance's home");
        let delivered: u64 = f4.stats.per_worker.iter().map(|l| l.delivered).sum();
        assert_eq!(delivered, f4.instances.iter().map(|o| o.report.steps).sum::<u64>());
    }

    /// A budget that only the largest instance of a mixed fleet exceeds
    /// exhausts that instance alone, at every worker count.
    #[test]
    fn a_budget_exhausts_only_the_instances_that_exceed_it() {
        let (small, large) = (chain_spec(2), chain_spec(6));
        let specs = [small, large];
        let arrivals: Vec<Arrival> =
            [0, 1, 0, 0].iter().zip(0..).map(|(&s, i)| Arrival::new(i, s, i * 3, 5 + i)).collect();
        let fleet = |workers: usize, max_steps: u64| {
            let mut config = ExecConfig { max_steps, ..ExecConfig::seeded(2) };
            config.parallel = Some(ParallelConfig::new(workers));
            run_parallel_fleet(&specs, &arrivals, &config)
        };
        let steps: Vec<u64> = fleet(1, 0).instances.iter().map(|o| o.report.steps).collect();
        let budget = steps[0].max(steps[2]).max(steps[3]) + 1;
        assert!(steps[1] > budget, "the large instance needs more: {steps:?}");
        let base = fleet(1, budget);
        assert_eq!((base.quiesced, base.exhausted), (3, 1));
        assert!(!base.all_satisfied(), "an exhausted instance is not evidence of anything");
        for workers in [1, 2, 4] {
            let f = fleet(workers, budget);
            assert_eq!((f.quiesced, f.exhausted), (3, 1), "{workers} workers");
            for (o, b) in f.instances.iter().zip(&base.instances) {
                let large = o.spec_ix == 1;
                let want =
                    if large { Termination::BudgetExhausted } else { Termination::Quiescent };
                assert_eq!(o.report.termination, want, "instance {}", o.instance);
                assert_eq!(o.report.steps, b.report.steps, "instance {}", o.instance);
                assert_eq!(o.report.occurrences, b.report.occurrences);
                assert!(large || o.report.all_satisfied(), "instance {}", o.instance);
            }
        }
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
