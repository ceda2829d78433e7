//! What every fleet engine shares: the [`Arrival`] that names one
//! instance, the [`InstanceOutcome`] it finishes as, the arrival
//! validation, and the one loop that puts whole instances on worker
//! threads.
//!
//! Events interact only through the guards they share, and two instances
//! of a workflow share none — so the instance is the unit of work. Both
//! [`crate::run_tenant`] and [`crate::run_parallel_fleet`] hand
//! [`run_fleet`] a closure that runs *one* arrival to completion; the
//! workers claim arrivals from one atomic counter and never make two
//! instances meet.

use crate::exec::{BuiltWorkflow, Node, RunReport, WorkflowSpec};
use crate::msg::{InstanceId, Msg};
use event_algebra::Literal;
use sim::{NodeId, SiteId, Time, WorkerLoad};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// This arrival's nodes: the prototype's roles cloned, every actor
    /// stamped with the instance id and announcing as `announce_as`
    /// (the instance id again in every healthy configuration).
    pub(crate) fn instantiate(
        &self,
        proto: &BuiltWorkflow,
        announce_as: InstanceId,
    ) -> Vec<(SiteId, Node)> {
        proto
            .nodes
            .iter()
            .map(|(site, role)| {
                let mut role = role.clone();
                if let Node::Actor(a) = &mut role {
                    a.instance = self.instance;
                    a.announce_instance = announce_as;
                }
                (*site, role)
            })
            .collect()
    }

    /// This arrival's seed messages: the prototype's, with think-time
    /// overrides replacing the extra delay of the attempts they name.
    pub(crate) fn injections<'a>(
        &self,
        proto: &'a BuiltWorkflow,
    ) -> impl Iterator<Item = (NodeId, NodeId, Msg, Time)> + 'a {
        let think: BTreeMap<Literal, Time> = self.think.iter().copied().collect();
        proto.injections.iter().map(move |(from, to, msg, extra)| {
            let extra = match msg.literal().and_then(|l| think.get(&l)) {
                // Same "at start" convention as the template path: the
                // injection itself pays a 1-tick latency.
                Some(&t) => t.saturating_sub(1),
                None => *extra,
            };
            (*from, *to, msg.clone(), extra)
        })
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
    /// Foreign envelopes the instance's transport dropped (always 0
    /// unless something is genuinely cross-wired; the parallel fleet
    /// runs no transport).
    pub cross_instance_dropped: u64,
    /// The instance's run report. From [`crate::run_tenant`] it is
    /// identical to what an independent single-instance run of the same
    /// seed produces, timestamps instance-local. From
    /// [`crate::run_parallel_fleet`] occurrence timestamps are
    /// *fleet-clock* values; sequence numbers, `steps` and `termination`
    /// are the instance's own; `net` is empty — traffic is accounted
    /// fleet-wide on [`crate::ParallelFleetReport::net`].
    pub report: RunReport,
}

/// Reject a fleet no engine can run.
///
/// # Panics
///
/// Panics when an arrival's `spec_ix` is out of range or two arrivals
/// share an [`InstanceId`] (ids key the shared write-ahead log, so a
/// collision would silently entangle two instances' recovery state).
pub(crate) fn check_arrivals(specs: &[WorkflowSpec], arrivals: &[Arrival]) {
    let mut seen = BTreeSet::new();
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
}

/// Run every arrival exactly once, whole instances in parallel.
///
/// `workers` threads (clamped to `1..=arrivals.len()`; the calling
/// thread is worker 0) claim arrival indices from one counter, and a
/// claim runs `run(ix, prototypes, fold)` to completion on the claiming
/// thread. The caller lends worker 0 its `own` prototypes; every
/// *spawned* worker `build`s a set for itself, because instantiating an
/// actor bumps the reference counts of its prototype's guards, machines
/// and routing tables, and two threads cloning from one prototype spend
/// their time trading those cache lines (measured on 1 000 pipeline10
/// instances: 1.35x at two workers shared, 1.8x apart).
///
/// Returns the outcomes in arrival order, and per worker its fold and
/// load (deliveries, busy time, and claims whose round-robin home
/// `ix % workers` was another worker).
pub(crate) fn run_fleet<P: Sync, F: Default + Send>(
    arrivals: &[Arrival],
    workers: usize,
    own: &P,
    build: impl Fn() -> P + Sync,
    run: impl Fn(usize, &P, &mut F) -> InstanceOutcome + Sync,
) -> (Vec<InstanceOutcome>, Vec<(F, WorkerLoad)>) {
    let workers = workers.clamp(1, arrivals.len().max(1));
    // The claim counter publishes nothing but the index itself.
    let claimed = AtomicUsize::new(0);
    let work = |w: usize, protos: &P| {
        let started = Instant::now();
        let (mut fold, mut load) = (F::default(), WorkerLoad::default());
        let mut outcomes = Vec::new();
        loop {
            let ix = claimed.fetch_add(1, Ordering::Relaxed);
            if ix >= arrivals.len() {
                break;
            }
            load.steals += u64::from(ix % workers != w);
            let outcome = run(ix, protos, &mut fold);
            load.delivered += outcome.report.steps;
            outcomes.push((ix, outcome));
        }
        load.busy_ns = started.elapsed().as_nanos() as u64;
        (outcomes, fold, load)
    };
    let shares = std::thread::scope(|scope| {
        let (work, build) = (&work, &build);
        let spawned: Vec<_> =
            (1..workers).map(|w| scope.spawn(move || work(w, &build()))).collect();
        let mut shares = vec![work(0, own)];
        shares.extend(spawned.into_iter().map(|h| h.join().expect("fleet worker panicked")));
        shares
    });
    let mut slots: Vec<Option<InstanceOutcome>> = Vec::new();
    slots.resize_with(arrivals.len(), || None);
    let mut folds = Vec::with_capacity(workers);
    for (outcomes, fold, load) in shares {
        for (ix, outcome) in outcomes {
            slots[ix] = Some(outcome);
        }
        folds.push((fold, load));
    }
    let outcomes =
        slots.into_iter().map(|o| o.expect("every arrival is claimed exactly once")).collect();
    (outcomes, folds)
}
