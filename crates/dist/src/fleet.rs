//! The one fleet runner: the [`Arrival`] that names an instance, the
//! [`InstanceOutcome`] it finishes as, and [`run_instances`], which puts
//! whole instances on worker threads.
//!
//! Events interact only through the guards they share, and two instances
//! of a workflow share none — so the instance is the unit of parallel
//! work (the paper's Theorem 4 / Lemma 5 put the independence *between*
//! workflows, not inside an event loop). [`crate::run_tenant`] and
//! [`crate::run_parallel_fleet`] are two report roll-ups over
//! [`run_instances`]: it validates the arrivals, lets the workers claim
//! arrivals from one atomic counter, and runs each claim to completion on
//! the claiming thread in the worker's [`InstanceSlot`] for that template
//! — the way a solo workflow runs too — under the fleet's [`ExecConfig`]
//! with the arrival's seed and no other change (so a recorded fleet
//! records every instance). A template is compiled once per call,
//! whatever the number of workers; a slot is assembled once per worker
//! and template, and reset per arrival. Two instances never meet: a slot
//! serves one at a time on a network of its own, reset (queue included)
//! before the next, and the templates the workers share are only read —
//! so no message names its instance; an [`InstanceId`] names the arrival,
//! its outcome and its write-ahead-log slice.

use crate::exec::{build, BuiltWorkflow, ExecConfig, RunReport, WorkflowSpec};
use crate::msg::InstanceId;
use crate::slot::InstanceSlot;
use crate::wal::NodeStore;
use event_algebra::Literal;
use sim::{FaultPlan, Time, WorkerLoad};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One instance admission: which template to instantiate, when it
/// arrives on the fleet clock, and the seed that makes its execution
/// reproducible in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Unique id of this instance across the whole fleet.
    pub instance: InstanceId,
    /// Index into the spec-template slice passed to the fleet engine.
    pub spec_ix: usize,
    /// Fleet-clock time at which the instance is admitted.
    pub at: Time,
    /// Seed of the instance's own network; together with the template
    /// and fault plan it fully determines the instance's execution.
    pub seed: u64,
    /// Per-instance think-time overrides: each driven free event whose
    /// literal appears here is attempted at the given instance-local
    /// time instead of the template's `attempt_after`. Events the
    /// template never drives (`attempt_after: None`) are not affected.
    pub think: Vec<(Literal, Time)>,
}

impl Arrival {
    /// A plain arrival with no think-time overrides.
    pub fn new(instance: u64, spec_ix: usize, at: Time, seed: u64) -> Arrival {
        Arrival { instance: InstanceId(instance), spec_ix, at, seed, think: Vec::new() }
    }

    /// The template specialized to this arrival: think-time overrides
    /// folded into `attempt_after`. Running this spec through the
    /// single-instance executor with
    /// [`crate::TenantConfig::instance_exec`] reproduces the instance's
    /// tenant execution exactly — the differential baseline the
    /// conformance audit compares against.
    pub fn apply_to_spec(&self, spec: &WorkflowSpec) -> WorkflowSpec {
        let mut out = spec.clone();
        for &(lit, t) in &self.think {
            for f in &mut out.free_events {
                if f.lit == lit && f.attempt_after.is_some() {
                    // `t.max(1)` and the injection path's
                    // `saturating_sub(1)` agree for every `t` (0 and 1
                    // both mean "at start").
                    f.attempt_after = Some(t.max(1));
                }
            }
        }
        out
    }
}

/// One finished instance of a fleet run.
#[derive(Debug)]
pub struct InstanceOutcome {
    /// The instance's id.
    pub instance: InstanceId,
    /// Which template it ran.
    pub spec_ix: usize,
    /// Fleet-clock admission time.
    pub arrived_at: Time,
    /// Fleet-clock completion time: the instance's last delivery.
    pub finished_at: Time,
    /// The instance's run report, identical to what an independent
    /// single-instance run of the same seed produces — traffic
    /// statistics, monitor report, the spans of the flight recording
    /// (when [`ExecConfig::record`] is set) and all — with two
    /// exceptions. The `metrics` snapshot, and the copy of it inside
    /// `recording`, stay empty: fleets roll their own up. And from
    /// [`crate::run_parallel_fleet`] every occurrence tick has
    /// `arrived_at` added, so `occurrences` timestamps are *fleet-clock*
    /// values there and instance-local from [`crate::run_tenant`];
    /// recorded spans keep instance-local timestamps on both. Boxed, so
    /// that moving an outcome moves a pointer, not the report.
    pub report: Box<RunReport>,
}

/// What [`run_instances`] returns.
pub(crate) struct FleetRun {
    /// One outcome per arrival, in arrival order.
    pub(crate) outcomes: Vec<InstanceOutcome>,
    /// What each worker thread did, worker 0 (the caller) first.
    pub(crate) loads: Vec<WorkerLoad>,
    /// Nanoseconds inside the event loop, summed over the instances.
    pub(crate) run_ns: u64,
}

/// Run every arrival exactly once, whole instances in parallel.
///
/// `workers` threads (clamped to `1..=arrivals.len()`; the calling
/// thread is worker 0) claim arrival indices from one counter, and a
/// claim runs that arrival to completion on the claiming thread: prepare
/// the worker's slot for the arrival's template, execute it under `exec`
/// with the arrival's seed (and under `faults`, every instance
/// publishing its nodes' log slices to the one store), wrap the report
/// in an [`InstanceOutcome`]. The first worker to claim an arrival of a
/// template compiles it — once per call, and never if no arrival names
/// it; a worker assembles its slot for a template the first time it
/// claims one and resets it every time after. The workers share the
/// compiled templates by plain reference and touch no reference count of
/// theirs per instance: what a slot shares with its template it takes
/// when it is assembled (DESIGN.md §9 has the measurement behind the
/// rule).
///
/// # Panics
///
/// Panics when an arrival's `spec_ix` is out of range or two arrivals
/// share an [`InstanceId`] (ids key the shared write-ahead log, so a
/// collision would silently entangle two instances' recovery state).
pub(crate) fn run_instances(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    exec: &ExecConfig,
    workers: usize,
    faults: Option<(FaultPlan, NodeStore)>,
) -> FleetRun {
    for a in arrivals {
        let (id, specs) = (a.instance, specs.len());
        assert!(a.spec_ix < specs, "arrival {id} names spec {} of {specs}", a.spec_ix);
    }
    let mut ids: Vec<InstanceId> = arrivals.iter().map(|a| a.instance).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        panic!("duplicate instance id {}", w[0]);
    }
    let workers = workers.clamp(1, arrivals.len().max(1));
    let templates: Vec<OnceLock<BuiltWorkflow>> = specs.iter().map(|_| OnceLock::new()).collect();
    let (plan, store) = faults.unzip();
    // The claim counter publishes nothing but the index itself.
    let claimed = AtomicUsize::new(0);
    let work = |w: usize| {
        let mut slots: Vec<Option<InstanceSlot<'_>>> = specs.iter().map(|_| None).collect();
        let started = Instant::now();
        let (mut load, mut run_ns) = (WorkerLoad::default(), 0u64);
        let mut outcomes = Vec::new();
        loop {
            let ix = claimed.fetch_add(1, Ordering::Relaxed);
            let Some(a) = arrivals.get(ix) else { break };
            load.steals += u64::from(ix % workers != w);
            let slot = slots[a.spec_ix].get_or_insert_with(|| {
                let spec = &specs[a.spec_ix];
                let template = templates[a.spec_ix].get_or_init(|| build(spec));
                InstanceSlot::assemble(spec, template, exec, store.clone())
            });
            slot.prepare(a, plan.clone());
            let (report, totals) = slot.execute();
            load.delivered += report.steps;
            run_ns += totals.run_ns;
            let outcome = InstanceOutcome {
                instance: a.instance,
                spec_ix: a.spec_ix,
                arrived_at: a.at,
                finished_at: a.at + report.duration,
                report,
            };
            outcomes.push((ix, outcome));
        }
        load.busy_ns = started.elapsed().as_nanos() as u64;
        (outcomes, load, run_ns)
    };
    let shares = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mut shares = vec![work(0)];
        shares.extend(spawned.into_iter().map(|h| h.join().expect("fleet worker panicked")));
        shares
    });
    let (mut loads, mut run_ns) = (Vec::with_capacity(workers), 0);
    let mut by_arrival = Vec::with_capacity(arrivals.len());
    for (outcomes, load, ns) in shares {
        by_arrival.extend(outcomes);
        loads.push(load);
        run_ns += ns;
    }
    // Each worker's claims are increasing: one worker's list is already
    // in arrival order, and the sort finds it so.
    by_arrival.sort_unstable_by_key(|&(ix, _)| ix);
    let outcomes = by_arrival.into_iter().map(|(_, outcome)| outcome).collect();
    FleetRun { outcomes, loads, run_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FreeEventSpec;
    use crate::{run_parallel_fleet, run_tenant, TenantConfig};
    use agent::EventAttrs;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::{ParallelConfig, SiteId};

    /// An `n`-event chain of arrows, one site per event, so every
    /// instance's timings follow its own seed.
    fn chain(n: usize) -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let dependencies = (1..n)
            .map(|i| parse_expr(&format!("~e{} + e{i}", i - 1), &mut table).unwrap())
            .collect();
        let free_events = (0..n)
            .map(|i| FreeEventSpec {
                site: SiteId(i as u32),
                lit: table.event(&format!("e{i}")),
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        WorkflowSpec { table, dependencies, agents: vec![], free_events }
    }

    /// Two templates of different lengths, and instance ids that are not
    /// in arrival order.
    fn mixed_fleet() -> (Vec<WorkflowSpec>, Vec<Arrival>) {
        let ids = [5, 2, 9, 0, 7, 3, 8, 1, 6, 4];
        let arrivals =
            ids.iter().zip(0..).map(|(&id, i)| Arrival::new(id, i % 2, 3 * i as u64, 0x51 ^ id));
        (vec![chain(2), chain(5)], arrivals.collect())
    }

    /// `run_parallel_fleet` keeps arrival order and `run_tenant` sorts by
    /// instance id, at every worker count; either way each outcome is its
    /// own arrival's run.
    #[test]
    fn fleets_return_outcomes_in_their_documented_order() {
        let (specs, arrivals) = mixed_fleet();
        let tenant_config = TenantConfig::new(ExecConfig::seeded(3));
        let solo: Vec<(InstanceId, u64, Time)> = arrivals
            .iter()
            .map(|a| {
                let spec = a.apply_to_spec(&specs[a.spec_ix]);
                let r = crate::run_workflow(&spec, tenant_config.instance_exec(a));
                (a.instance, r.steps, r.duration)
            })
            .collect();
        let mut by_id = solo.clone();
        by_id.sort_unstable();
        let runs = |outcomes: &[InstanceOutcome]| -> Vec<(InstanceId, u64, Time)> {
            outcomes.iter().map(|o| (o.instance, o.report.steps, o.report.duration)).collect()
        };
        for workers in [1, 2, 4] {
            let mut exec = ExecConfig::seeded(3);
            exec.parallel = Some(ParallelConfig::new(workers));
            let fleet = run_parallel_fleet(&specs, &arrivals, &exec);
            assert_eq!(runs(&fleet.instances), solo, "{workers} workers: arrival order");
            for (o, a) in fleet.instances.iter().zip(&arrivals) {
                assert_eq!((o.spec_ix, o.arrived_at), (a.spec_ix, a.at), "{workers} workers");
            }

            let config = TenantConfig { shards: workers, ..tenant_config.clone() };
            let tenant = run_tenant(&specs, &arrivals, &config);
            assert_eq!(runs(&tenant.instances), by_id, "{workers} shards: instance order");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate instance id i7")]
    fn a_duplicate_instance_id_panics() {
        let (specs, mut arrivals) = mixed_fleet();
        arrivals[8].instance = InstanceId(7);
        let mut config = TenantConfig::new(ExecConfig::seeded(3));
        config.shards = 2;
        run_tenant(&specs, &arrivals, &config);
    }

    #[test]
    #[should_panic(expected = "arrival i3 names spec 2 of 2")]
    fn an_out_of_range_spec_index_panics() {
        let (specs, mut arrivals) = mixed_fleet();
        arrivals[5].spec_ix = 2;
        let mut exec = ExecConfig::seeded(3);
        exec.parallel = Some(ParallelConfig::new(4));
        run_parallel_fleet(&specs, &arrivals, &exec);
    }

    /// An outcome is moved into a worker's list, through the merge and
    /// through a sort: it stays a few words, its report behind a box.
    #[test]
    fn an_outcome_is_a_few_words() {
        let size = std::mem::size_of::<InstanceOutcome>();
        assert!(size <= 64, "{size}");
    }
}
