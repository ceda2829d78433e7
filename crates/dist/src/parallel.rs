//! [`run_parallel_fleet`]: the fleet runner's results on the fleet clock,
//! with per-worker load statistics.
//!
//! There is no parallel *executor* here. Two instances of a workflow
//! share no guard, so the unit of parallel work is the instance: the one
//! fleet runner (`fleet.rs`, shared with [`crate::run_tenant`]) runs each
//! arrival to completion on the worker thread that claimed it, through
//! the function that also runs a solo workflow. This entry point differs
//! from the tenant one only in the shape of its report. (A sharded
//! barrier-round executor used to live here; DESIGN.md §10 records why
//! it was deleted.)

use crate::exec::{ExecConfig, WorkflowSpec};
use crate::fleet::{run_instances, Arrival, InstanceOutcome};
use obs::{MetricsRegistry, MetricsSnapshot};
use sim::{NetStats, ParallelStats, Termination};
use std::time::Instant;

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
    /// Fleet-wide traffic statistics: the sum of the instances'.
    pub net: NetStats,
    /// Steals, per-worker loads, event-loop time, wall clock.
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
}

/// Run a fleet of workflow instances, whole instances in parallel.
///
/// `config.parallel`'s `workers` threads (the calling thread is one of
/// them) claim arrivals from a shared counter; each claim runs exactly
/// as a [`crate::run_tenant`] instance does, so every instance is
/// byte-identical to its isolated run at every worker count. The one
/// difference is the clock the report is written on: every occurrence
/// tick has the arrival's admission time added, so timestamps are
/// fleet-clock values (`tick - arrived_at` is the instance-local one).
/// Sequence numbers, `duration`, `steps`, `termination`, traffic,
/// monitor reports and flight recordings (instance-local timestamps)
/// stay the instance's own.
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
    let workers = config.parallel.as_ref().map_or(1, |p| p.workers);
    let run = run_instances(specs, arrivals, config, workers, None);

    let merge_start = Instant::now();
    let mut instances = run.outcomes;
    let mut net = NetStats::default();
    let mut stats =
        ParallelStats { workers: run.loads.len(), busy_ns: run.run_ns, ..ParallelStats::default() };
    let (mut events, mut exhausted, mut violations) = (0u64, 0usize, 0u64);
    for o in &mut instances {
        for occ in &mut o.report.occurrences {
            occ.1 += o.arrived_at;
        }
        net.absorb(&o.report.net);
        events += o.report.occurrences.len() as u64;
        exhausted += usize::from(o.report.termination == Termination::BudgetExhausted);
        violations += o.report.alerts.iter().filter(|a| a.kind.is_violation()).count() as u64;
        stats.duration = stats.duration.max(o.finished_at);
    }
    stats.steals = run.loads.iter().map(|l| l.steals).sum();
    stats.per_worker = run.loads;
    stats.merge_ns = merge_start.elapsed().as_nanos() as u64;

    let reg = MetricsRegistry::new();
    net.record_into(&reg);
    reg.add("parallel.instances", &[], instances.len() as u64);
    reg.add("parallel.events", &[], events);
    if config.monitor.is_some() {
        reg.add("parallel.monitor.violations", &[], violations);
    }
    reg.set_gauge("parallel.workers", &[], stats.workers as i64);
    reg.add("parallel.steals", &[], stats.steals);
    for (w, load) in stats.per_worker.iter().enumerate() {
        let wl = w.to_string();
        let labels: &[(&str, &str)] = &[("worker", &wl)];
        reg.add("parallel.worker.delivered", labels, load.delivered);
        reg.add("parallel.worker.steals", labels, load.steals);
    }
    stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
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
    use crate::exec::{FreeEventSpec, RunReport};
    use agent::EventAttrs;
    use event_algebra::Literal;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::{ParallelConfig, SiteId};
    use std::collections::BTreeSet;

    /// An `n`-stage pipeline of arrow dependencies, one site per event.
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
        let steps: Vec<u64> = fleet(1, ExecConfig::seeded(2).max_steps)
            .instances
            .iter()
            .map(|o| o.report.steps)
            .collect();
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
