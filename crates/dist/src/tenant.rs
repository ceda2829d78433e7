//! Multi-tenant instance engine: many workflow instances over shared
//! compiled artifacts, each run to completion on the thread that claimed
//! it.
//!
//! The paper's scheduler is specified per workflow *template*; a real
//! deployment runs many live *instances* of a few templates at once.
//! This engine admits a seeded stream of [`Arrival`]s and runs each one
//! as a state of an [`crate::InstanceSlot`] over its template's
//! [`crate::BuiltWorkflow`]: the template is compiled once per call and
//! only read, the slot (one per worker and template) is assembled once
//! and reset per arrival, and what an instance is collapses to one
//! `StateId` per dependency, one table index per guard and a few small
//! sorted vectors inside each actor.
//!
//! **Isolation by construction.** An instance runs the way a solo
//! workflow does (`InstanceSlot::prepare` + `execute`, reached through
//! the one fleet runner in `fleet.rs`): it starts from a reset seeded
//! [`sim::Network`] — queue included, so nothing a previous instance
//! sent is left to arrive — and gets its own flight recorder (when
//! [`ExecConfig::record`] is set), and its nodes log ahead to slices of
//! their own, published under `(instance, node)` in the shared
//! [`NodeStore`] when the instance ends. There is no
//! channel between two instances, so no message names its instance and
//! no receiver filters. A tenant run of instance *i* is therefore
//! byte-identical to an independent [`crate::run_workflow_with_faults`]
//! of the same spec, seed and fault plan, recorded spans included —
//! provided a reset slot is a fresh one, which `tests/slot_props.rs`
//! holds field by field. The ninth conformance audit
//! (`testkit::conformance::audit_tenant_isolation`) checks exactly this
//! equivalence end-to-end; its own tests show it fail on a fleet audited
//! against the wrong arrival.

use crate::exec::{ExecConfig, WorkflowSpec};
use crate::fleet::{run_instances, Arrival, InstanceOutcome};
use crate::wal::NodeStore;
use obs::{Log2Histogram, MetricsRegistry, MetricsSnapshot};
use sim::{FaultPlan, Termination, Time};

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Base executor configuration shared by every instance. Each
    /// instance's network seed comes from its [`Arrival`], not from
    /// here; every other field means what it means on a solo run —
    /// `record` gives every instance a flight recorder of its own.
    pub exec: ExecConfig,
    /// Fault plan applied to every instance's network. It is cloned per
    /// instance *with its seed*, so every instance replays one and the
    /// same fault-decision stream: the `k`-th send that reaches the fault
    /// layer draws the same random numbers in every instance of the
    /// fleet. Runs are deterministic per instance, but a fleet does not
    /// sample independent faults (ROADMAP item 1(i)). Installing one
    /// materializes the shared instance-keyed write-ahead log.
    pub plan: Option<FaultPlan>,
    /// Number of OS threads that claim arrivals (the calling thread is
    /// one of them). `0` and `1` both mean sequential.
    pub shards: usize,
}

impl TenantConfig {
    /// A sequential fleet with no faults.
    pub fn new(exec: ExecConfig) -> TenantConfig {
        TenantConfig { exec, plan: None, shards: 1 }
    }

    /// The [`ExecConfig`] an *independent* run of `arrival` uses: the
    /// base config with the arrival's seed — the one field the fleet's
    /// slots, assembled under the base config, take from an arrival.
    pub fn instance_exec(&self, arrival: &Arrival) -> ExecConfig {
        let mut exec = self.exec.clone();
        exec.sim.seed = arrival.seed;
        exec
    }
}

/// Fleet-level roll-up of a tenant run.
#[derive(Debug)]
pub struct TenantReport {
    /// Per-instance outcomes, sorted by instance id.
    pub instances: Vec<InstanceOutcome>,
    /// Total event occurrences across the fleet.
    pub events: u64,
    /// Instances that converged.
    pub quiesced: usize,
    /// Instances that ran out of delivery budget (reported honestly,
    /// never silently upgraded to success).
    pub exhausted: usize,
    /// Fleet-clock time at which the last instance finished.
    pub makespan: Time,
    /// Monitor alerts raised across the fleet (0 when monitors are not
    /// armed). The per-kind breakdown lives in [`TenantReport::metrics`]
    /// (`tenant.monitor.alerts`).
    pub monitor_alerts: u64,
    /// Violation-class monitor alerts across the fleet (the subset of
    /// [`TenantReport::monitor_alerts`] where
    /// [`monitor::AlertKind::is_violation`] holds).
    pub monitor_violations: u64,
    /// Fleet metrics: instance/event counters, the firing-latency
    /// histogram (`tenant.fire_latency`: instance-local time from
    /// admission to each occurrence), instance-duration histogram, and —
    /// when monitors are armed — fleet monitor telemetry
    /// (`tenant.monitor.facts` / `.guard_checks` / `.alerts` by kind).
    pub metrics: MetricsSnapshot,
    /// The instance-keyed write-ahead log every finished instance
    /// published its nodes' slices to, when a fault plan made one
    /// necessary.
    pub wal: Option<NodeStore>,
    /// Wall-clock nanoseconds the fleet took (the only nondeterministic
    /// field; everything else is a pure function of inputs).
    pub wall_ns: u64,
}

impl TenantReport {
    /// `true` when every instance converged with all dependencies
    /// satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.exhausted == 0 && self.instances.iter().all(|o| o.report.all_satisfied())
    }
}

/// Run a fleet of workflow instances to completion.
///
/// `specs` are the templates; each [`Arrival`] names one by index. An
/// admitted instance runs to completion on the thread that claimed it,
/// through the same function as a solo [`crate::run_workflow`]; the
/// result is deterministic (up to `wall_ns`) for fixed inputs,
/// regardless of `shards`.
///
/// # Panics
///
/// Panics when an arrival's `spec_ix` is out of range or two arrivals
/// share an [`crate::InstanceId`] (ids key the instances' outcomes and the
/// log slices published to [`TenantReport::wal`], so a collision would
/// merge two instances' published logs under one key; recovery is not at
/// stake, since a restarting node replays only its own in-memory slice).
pub fn run_tenant(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    config: &TenantConfig,
) -> TenantReport {
    let started = std::time::Instant::now();
    // The WAL is shared across the whole fleet and keyed by
    // (instance, node) — the point of the instance-keyed store.
    let wal = config.plan.is_some().then(NodeStore::new);
    let faults = config.plan.clone().zip(wal.clone());
    let run = run_instances(specs, arrivals, &config.exec, config.shards, faults);
    let (mut outcomes, shards) = (run.outcomes, run.loads.len());

    // ----- fleet roll-up -----
    // Accumulated locally, published once per series.
    let (mut fire_latency, mut durations) = (Log2Histogram::default(), Log2Histogram::default());
    let reg = MetricsRegistry::new();
    let mut events = 0u64;
    let mut quiesced = 0usize;
    let mut exhausted = 0usize;
    let mut makespan = 0;
    let mut monitor_alerts = 0u64;
    let mut monitor_violations = 0u64;
    let mut monitor_facts = 0u64;
    let mut monitor_guard_checks = 0u64;
    for o in &outcomes {
        for &(_, t, _) in &o.report.occurrences {
            fire_latency.observe(t);
        }
        events += o.report.occurrences.len() as u64;
        durations.observe(o.report.duration);
        match o.report.termination {
            Termination::Quiescent => quiesced += 1,
            Termination::BudgetExhausted => exhausted += 1,
        }
        makespan = makespan.max(o.finished_at);
        if let Some(m) = &o.report.monitor {
            monitor_facts += m.facts;
            monitor_guard_checks += m.guard_checks;
            for alert in &m.alerts {
                monitor_alerts += 1;
                if alert.kind.is_violation() {
                    monitor_violations += 1;
                }
                // Alerts are the exception: each goes straight in.
                reg.add("tenant.monitor.alerts", &[("kind", alert.kind.tag())], 1);
            }
        }
    }
    outcomes.sort_unstable_by_key(|o| o.instance);

    if events > 0 {
        reg.merge_histogram("tenant.fire_latency", &[], &fire_latency);
    }
    if !outcomes.is_empty() {
        reg.merge_histogram("tenant.instance_duration", &[], &durations);
    }
    if outcomes.iter().any(|o| o.report.monitor.is_some()) {
        reg.add("tenant.monitor.facts", &[], monitor_facts);
        reg.add("tenant.monitor.guard_checks", &[], monitor_guard_checks);
        reg.add("tenant.monitor.violations", &[], monitor_violations);
    }
    reg.add("tenant.instances", &[], outcomes.len() as u64);
    reg.add("tenant.events", &[], events);
    reg.add("tenant.quiesced", &[], quiesced as u64);
    reg.add("tenant.exhausted", &[], exhausted as u64);
    reg.set_gauge("tenant.makespan", &[], makespan as i64);
    reg.set_gauge("tenant.shards", &[], shards as i64);
    if let Some(w) = &wal {
        reg.add("tenant.wal_entries", &[], w.total() as u64);
    }
    TenantReport {
        instances: outcomes,
        events,
        quiesced,
        exhausted,
        makespan,
        monitor_alerts,
        monitor_violations,
        metrics: reg.snapshot(),
        wal,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::FreeEventSpec;
    use agent::EventAttrs;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::SiteId;

    fn mutual_spec() -> WorkflowSpec {
        let mut table = SymbolTable::new();
        let d1 = parse_expr("~e + f", &mut table).unwrap();
        let d2 = parse_expr("~f + e", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        WorkflowSpec {
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
        }
    }

    fn fleet(n: u64) -> Vec<Arrival> {
        (0..n).map(|i| Arrival::new(i, 0, i * 3, 0x9E37 ^ i)).collect()
    }

    #[test]
    fn tenant_matches_independent_runs() {
        let spec = mutual_spec();
        let config = TenantConfig::new(ExecConfig::seeded(0));
        let arrivals = fleet(8);
        let rep = run_tenant(std::slice::from_ref(&spec), &arrivals, &config);
        assert_eq!(rep.instances.len(), 8);
        assert!(rep.all_satisfied(), "{rep:?}");
        for (a, o) in arrivals.iter().zip(&rep.instances) {
            let solo = crate::run_workflow(&spec, config.instance_exec(a));
            assert_eq!(o.report.occurrences, solo.occurrences, "instance {}", a.instance);
            assert_eq!(o.report.duration, solo.duration, "instance {}", a.instance);
            assert_eq!(o.report.steps, solo.steps, "instance {}", a.instance);
        }
    }

    #[test]
    fn sharded_fleet_is_deterministic() {
        let spec = mutual_spec();
        let arrivals = fleet(12);
        let mut c1 = TenantConfig::new(ExecConfig::seeded(0));
        c1.shards = 1;
        let mut c4 = TenantConfig::new(ExecConfig::seeded(0));
        c4.shards = 4;
        let r1 = run_tenant(std::slice::from_ref(&spec), &arrivals, &c1);
        let r4 = run_tenant(&[spec], &arrivals, &c4);
        assert_eq!(r1.events, r4.events);
        assert_eq!(r1.makespan, r4.makespan);
        for (a, b) in r1.instances.iter().zip(&r4.instances) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.report.occurrences, b.report.occurrences);
        }
    }

    #[test]
    fn think_overrides_match_specialized_spec() {
        let spec = mutual_spec();
        let f = spec.free_events[1].lit;
        let mut a = Arrival::new(0, 0, 0, 42);
        a.think = vec![(f, 37)];
        let config = TenantConfig::new(ExecConfig::seeded(0));
        let rep = run_tenant(std::slice::from_ref(&spec), std::slice::from_ref(&a), &config);
        let solo = crate::run_workflow(&a.apply_to_spec(&spec), config.instance_exec(&a));
        assert_eq!(rep.instances[0].report.occurrences, solo.occurrences);
        assert_eq!(rep.instances[0].report.duration, solo.duration);
    }
}
