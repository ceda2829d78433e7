//! Conformance harness for the distributed scheduler under faults.
//!
//! A *scenario* is a (workflow, fault plan, seed) triple. The driver runs
//! each scenario to quiescence on the simulated network and audits the
//! outcome against the protocol's promises:
//!
//! 1. **Guard safety** (Theorem 2): no guard-gated event occurred at a
//!    position of the realized trace where its *faithful* guard is false.
//! 2. **View consistency** (Section 6): no two actors associate the same
//!    global occurrence sequence number with different literals — the
//!    `□e`/`□ē` announcement streams never diverge.
//! 3. **Convergence**: the run reached true quiescence rather than
//!    exhausting its step budget.
//! 4. **Liveness** (opt-in, for statically clean workflows under healed
//!    fault plans): every dependency ends satisfied.
//! 5. **Determinism**: re-running the same triple reproduces the flight
//!    recording — the one decision log — span for span.
//!
//! The audits deliberately re-derive everything from first principles —
//! guards are recompiled here and evaluated against the final trace with
//! the algebra's reference semantics, independent of whatever the actors
//! believed at runtime.
//!
//! When the run was made with the flight recorder on
//! (`ExecConfig::record`), a sixth audit runs over the captured trace:
//! **causal consistency** — every fact a guard evaluation or actor
//! consumed must be *established* by an `occurred` span that precedes the
//! consumer in the happens-before DAG (see `obs::causal_audit`).
//!
//! A seventh audit runs *online*: [`check_run`] arms the runtime
//! monitors (`monitor::WorkflowMonitor`) on every scenario. Unfaithful
//! guard and view-divergence alerts always fail, as does any
//! dependency-machine transition into `violated`/`at_risk` caused by a
//! real firing — that would be a guard-safety breach. A dependency the
//! finish sweep finds violated (never-fired events complement-closed,
//! stamped with node `u32::MAX`) is a *liveness* failure: it fails only
//! under `expect_live`, mirroring audit 4 — adversarial random
//! workflows may legitimately deadlock with everything parked. In every
//! case the monitor's final verdicts must agree with audit 4's
//! post-hoc satisfaction oracle. Stall alerts are advisory under fault
//! plans (a partitioned promise round *should* stall) and never fail
//! conformance.
//!
//! The eighth audit is retired (the numbering of the later audits is
//! kept): it held a static shard plan's independence claims to the
//! realized schedule, and that plan is deleted — no executor shards an
//! instance, and order across sites is the `□`/`◇` protocol's job, which
//! audits 1, 2 and 7 already check on every run.
//!
//! A ninth audit covers the multi-tenant engine:
//! [`audit_tenant_isolation`] runs a whole fleet through
//! [`dist::run_tenant`], then re-runs every instance *independently*
//! through the single-instance executor on the same (spec, seed, fault
//! plan) and demands byte-identical outcomes — same occurrences, same
//! timing, same termination honesty, same final `□`-views
//! ([`machine_views`]), same online-monitor verdicts and, when the fleet
//! was recorded, the same flight recording span for span — plus no
//! phantom instance in the shared write-ahead log. Sharing compiled
//! machines, worker threads and a WAL across tenants must be
//! *unobservable* per tenant. That diff is the one statement of
//! isolation: no message names its instance and no receiver filters,
//! because an instance runs alone on a network reset before the next.
//! The comparison alone is [`diff_against_isolated`], which the audit's
//! own tests hand a finished fleet and the wrong arrivals to show it
//! can fail.
//!
//! The tenth audit is retired (the numbering of the eleventh is kept):
//! it held a second, sharded round executor to the single-queue
//! simulator, and that executor is deleted — every instance on every
//! entry point now runs on the one event loop, so there is no second
//! delivery order to audit. What is left of it is [`diff_fleet_reports`]:
//! [`dist::run_parallel_fleet`] and [`dist::run_tenant`] are two report
//! shapes over one fleet runner, and the diff holds them to each other
//! instance by instance.
//!
//! An eleventh audit pins the *fused* monitor feed to an offline replay:
//! [`audit_monitor_equivalence`] runs each (spec, seed, fault plan)
//! *once*, with the scheduler stepping the monitors directly and the
//! flight recorder on, then feeds that run's recording span by span to
//! a fresh monitor (`WorkflowMonitor::observe`, the path `wftrace
//! monitor` uses) — and demands identical verdicts, observation counters
//! and violation-class alerts, byte for byte. Stall alerts are compared
//! as a multiset that ignores the alert's `at` stamp: a replay also
//! sweeps its watchdogs on `CrashDrop` spans (a delivery the network
//! dropped on the floor, so no handler runs and the fused feed has no
//! tick there), which can only shift *when* an already-inevitable stall
//! is stamped, never whether it fires — the flagged set is identical
//! because both feeds perform the same final sweep at quiescence.
//!
//! A twelfth audit, [`audit_holds`], runs beside the first in
//! [`check_run`] and beside the eleventh in
//! [`audit_monitor_equivalence`]: **no hold outlives its holder's
//! decision**. At quiescence every not-yet hold an actor keeps must name
//! a requester whose symbol never occurred; a decided requester's
//! occurrence ends its holds (or its `Release` does, after a rejection),
//! and a hold left behind would keep its keeper from ever occurring.

use dist::{
    guard_gated, run_tenant, run_workflow_with_faults, Arrival, ExecConfig, ParallelFleetReport,
    RunReport, TenantConfig, TenantReport, WorkflowSpec,
};
use event_algebra::{DependencyMachine, Literal, StateId};
use guard::{CompiledWorkflow, GuardScope};
use sim::{FaultPlan, Termination};
use std::collections::BTreeMap;

/// The outcome of one audited run.
#[derive(Debug)]
pub struct Conformance {
    /// Human-readable audit failures; empty iff the run conforms.
    pub failures: Vec<String>,
    /// The underlying run, for further inspection.
    pub report: RunReport,
}

impl Conformance {
    /// `true` when every audited property held.
    pub fn is_conformant(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Audit guard safety on a finished run: every guard-gated occurrence
/// must have its faithful (unweakened) guard true at its position in the
/// maximal trace. Returns the violations as `(literal, position)`.
pub fn audit_guards(spec: &WorkflowSpec, report: &RunReport) -> Vec<(Literal, usize)> {
    let compiled = CompiledWorkflow::compile(&spec.dependencies, GuardScope::Mentioning);
    let gated = guard_gated(spec);
    let mut violations = Vec::new();
    for (i, &lit) in report.maximal_trace.events().iter().enumerate() {
        if i >= report.trace.len() {
            break; // appended complements of unresolved symbols
        }
        if gated.contains(&lit) && !compiled.guard(lit).eval(&report.maximal_trace, i) {
            violations.push((lit, i));
        }
    }
    violations
}

/// Final per-dependency machine states after replaying `events` from the
/// initial state — the □-view a correct actor derives from that delivery
/// order. Public because the tenant-isolation audit compares these views
/// between a fleet instance and its isolated baseline run.
pub fn machine_views(machines: &[DependencyMachine], events: &[Literal]) -> Vec<StateId> {
    machines.iter().map(|m| events.iter().fold(m.initial, |q, &l| m.step(q, l))).collect()
}

/// Run one scenario to quiescence and audit it. `expect_live` additionally
/// demands `all_satisfied()` — set it for statically clean workflows under
/// fault plans whose partitions heal and whose crashed nodes restart.
pub fn check_run(
    spec: &WorkflowSpec,
    mut config: ExecConfig,
    plan: FaultPlan,
    expect_live: bool,
) -> Conformance {
    // Arm the online monitors on every audited scenario (unless the
    // caller configured them explicitly): the post-hoc audits below and
    // the online verdicts must agree.
    if config.monitor.is_none() {
        config.monitor = Some(monitor::MonitorConfig::default());
    }
    let report = run_workflow_with_faults(spec, config, plan);
    let mut failures = Vec::new();
    if report.termination != Termination::Quiescent {
        failures.push(format!("run exhausted its {} step budget without quiescing", report.steps));
    }
    for (lit, i) in audit_guards(spec, &report) {
        failures.push(format!(
            "guard safety violated: {} occurred at position {i} with a false guard",
            spec.table.literal_name(lit)
        ));
    }
    for &(seq, first, other) in &report.divergence {
        failures.push(format!(
            "view divergence at occurrence #{seq}: {} vs {}",
            spec.table.literal_name(first),
            spec.table.literal_name(other)
        ));
    }
    if expect_live && !report.all_satisfied() {
        let unsat: Vec<usize> =
            report.satisfied.iter().enumerate().filter_map(|(ix, &s)| (!s).then_some(ix)).collect();
        failures.push(format!(
            "liveness violated: dependencies {unsat:?} unsatisfied (unresolved: {:?}, parked: {:?})",
            report.unresolved, report.parked
        ));
    }
    failures.extend(audit_holds(spec, &report));
    if let Some(rec) = &report.recording {
        failures.extend(obs::causal_audit(rec));
    }
    if let Some(mrep) = &report.monitor {
        for (ix, v) in mrep.verdicts.iter().enumerate() {
            let violated = *v == monitor::DepVerdict::Violated;
            // The online verdict and the post-hoc oracle must agree on
            // the maximal trace: a disagreement means one of the two
            // observers mis-stepped the algebra.
            if report.satisfied.get(ix).copied().unwrap_or(false) == violated {
                failures.push(format!(
                    "online monitor disagrees with the satisfaction oracle: \
                     dependency {ix} ended {} but the executor reports satisfied={}",
                    v.label(),
                    report.satisfied.get(ix).copied().unwrap_or(false),
                ));
            }
            if violated && expect_live {
                failures.push(format!("online monitor: dependency {ix} ended violated"));
            }
        }
        for a in &report.alerts {
            // Stalls are advisory: a partitioned promise round is
            // *supposed* to stall until the partition heals. A doomed
            // dependency flagged by the finish sweep (node == u32::MAX:
            // never-fired events complement-closed) is a liveness
            // failure, gated on `expect_live` like audit 4; the same
            // alert with a real node id means an actual firing killed
            // the dependency — a safety breach, always fatal.
            let fatal = match &a.kind {
                monitor::AlertKind::DepViolated { .. } | monitor::AlertKind::DepAtRisk { .. } => {
                    a.node != u32::MAX || expect_live
                }
                kind => kind.is_violation(),
            };
            if fatal {
                failures.push(format!(
                    "online monitor alert [{}] at t={}: {}",
                    a.kind.tag(),
                    a.at,
                    a.detail
                ));
            }
        }
    }
    Conformance { failures, report }
}

/// Mutation harness for the guard-faithfulness monitor: run `spec` with
/// its dependencies *stripped from the scheduler* (every guard compiles
/// to `⊤`, so events fire in arbitrary order — the executor analogue of a
/// broken guard synthesis) while the monitors still hold the original
/// dependencies. Returns the monitor's report on that unguarded run; a
/// spec whose dependencies actually constrain order must come back with
/// violated verdicts and unfaithful-guard alerts.
pub fn run_unguarded_monitored(spec: &WorkflowSpec, config: ExecConfig) -> monitor::MonitorReport {
    let mutated = WorkflowSpec {
        table: spec.table.clone(),
        dependencies: Vec::new(),
        agents: spec.agents.clone(),
        free_events: spec.free_events.clone(),
    };
    let mut cfg = config.clone();
    cfg.record = Some(obs::RecordConfig::default());
    cfg.monitor = None; // the run's own monitors would see no dependencies
    let report = dist::run_workflow(&mutated, cfg);
    let rec = report.recording.expect("recording was configured");
    monitor::replay(
        &rec.events,
        &spec.table,
        &spec.dependencies,
        guard_gated(spec),
        config.monitor.unwrap_or_default(),
    )
}

/// Run the same scenario twice with the flight recorder on and check the
/// executions are identical ([`diff_runs`]). Returns failures (empty when
/// deterministic).
pub fn check_determinism(spec: &WorkflowSpec, config: ExecConfig, plan: FaultPlan) -> Vec<String> {
    let mut cfg = config;
    cfg.record.get_or_insert_with(obs::RecordConfig::default);
    let a = run_workflow_with_faults(spec, cfg.clone(), plan.clone());
    let b = run_workflow_with_faults(spec, cfg, plan);
    diff_runs(&a, &b)
}

/// The fifth audit's comparison: two runs are the same execution when
/// their flight recordings agree span for span ([`diff_recordings`]; a
/// run without a recording fails — two absent logs prove nothing) and
/// their traces, durations and delivery counts are equal.
pub fn diff_runs(a: &RunReport, b: &RunReport) -> Vec<String> {
    let mut failures = Vec::from_iter(diff_recordings(a, b));
    if a.trace.events() != b.trace.events() {
        failures.push("traces differ between identical runs".to_owned());
    }
    if a.duration != b.duration || a.steps != b.steps {
        failures.push(format!(
            "timing differs between identical runs: ({}, {}) vs ({}, {})",
            a.duration, a.steps, b.duration, b.steps
        ));
    }
    failures
}

/// Hold two runs' flight recordings to each other: the same spans in
/// the same order (ids, causal parents, timestamps, nodes and payloads)
/// and the same overwritten/sampled-out counts. The embedded metrics
/// snapshot is not compared — a fleet instance carries none. Returns the
/// first difference, or that a side has no recording to compare.
pub fn diff_recordings(a: &RunReport, b: &RunReport) -> Option<String> {
    let (Some(ra), Some(rb)) = (&a.recording, &b.recording) else {
        return Some(format!(
            "no flight recording to compare (first run recorded: {}, second: {})",
            a.recording.is_some(),
            b.recording.is_some()
        ));
    };
    if let Some((ix, (x, y))) =
        ra.events.iter().zip(&rb.events).enumerate().find(|(_, (x, y))| x != y)
    {
        return Some(format!("recordings differ at span {ix}: {x:?} vs {y:?}"));
    }
    let counts = |r: &obs::Recording| (r.events.len(), r.dropped, r.sampled_out);
    (counts(ra) != counts(rb)).then(|| {
        let (ca, cb) = (counts(ra), counts(rb));
        format!("recordings differ in (spans, overwritten, sampled out): {ca:?} vs {cb:?}")
    })
}

/// The ninth audit: tenant isolation. Run the fleet, then hold it to its
/// arrivals' isolated runs ([`diff_against_isolated`]).
///
/// Returns the failures (empty iff isolation held) with the fleet
/// report for further inspection.
pub fn audit_tenant_isolation(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    config: &TenantConfig,
) -> (Vec<String>, TenantReport) {
    let report = run_tenant(specs, arrivals, config);
    let failures = diff_against_isolated(specs, arrivals, config, &report);
    (failures, report)
}

/// Re-run every arrival independently through the single-instance
/// executor (same specialized spec, same seed, same fault plan) and
/// compare `report`, a finished [`run_tenant`] fleet, against them:
///
/// - **Occurrences**: literal, virtual time and global sequence of every
///   event, exactly equal.
/// - **Timing and honesty**: duration, delivery count and
///   [`Termination`] equal — a fleet must not silently upgrade a
///   budget-exhausted instance.
/// - **`□`-views**: replaying both maximal traces through the
///   dependency machines ([`machine_views`]) lands in identical states,
///   and neither side reports internal view divergence.
/// - **Monitor verdicts**: when monitors are armed, per-dependency
///   final verdicts agree.
/// - **Flight recordings**: when `config.exec.record` is set, both sides
///   recorded and the recordings agree span for span
///   ([`diff_recordings`]).
/// - **WAL hygiene**: the shared write-ahead log holds slices only for
///   admitted instances (no phantom tenants).
///
/// Returns the failures, each naming its instance (empty iff every
/// instance ran as if alone).
pub fn diff_against_isolated(
    specs: &[WorkflowSpec],
    arrivals: &[Arrival],
    config: &TenantConfig,
    report: &TenantReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(wal) = &report.wal {
        let known: std::collections::BTreeSet<_> = arrivals.iter().map(|a| a.instance).collect();
        for i in wal.instances() {
            if !known.contains(&i) {
                failures.push(format!("write-ahead log holds a slice for phantom instance {i}"));
            }
        }
    }
    let by_instance: BTreeMap<_, _> = report.instances.iter().map(|o| (o.instance, o)).collect();
    for a in arrivals {
        let Some(o) = by_instance.get(&a.instance) else {
            failures.push(format!("instance {} was admitted but never reported", a.instance));
            continue;
        };
        let spec = a.apply_to_spec(&specs[a.spec_ix]);
        let solo = match &config.plan {
            Some(plan) => run_workflow_with_faults(&spec, config.instance_exec(a), plan.clone()),
            None => dist::run_workflow(&spec, config.instance_exec(a)),
        };
        let tag = format!("instance {}", a.instance);
        if o.report.occurrences != solo.occurrences {
            failures.push(format!(
                "{tag}: occurrences diverge from the isolated baseline: fleet {:?} vs solo {:?}",
                o.report.occurrences, solo.occurrences
            ));
        }
        if o.report.termination != solo.termination
            || o.report.steps != solo.steps
            || o.report.duration != solo.duration
        {
            failures.push(format!(
                "{tag}: timing/termination diverge: fleet ({:?}, {} steps, t={}) vs \
                 solo ({:?}, {} steps, t={})",
                o.report.termination,
                o.report.steps,
                o.report.duration,
                solo.termination,
                solo.steps,
                solo.duration
            ));
        }
        for (side, rep) in [("fleet", &*o.report), ("solo", &solo)] {
            if !rep.divergence.is_empty() {
                failures.push(format!("{tag}: {side} run has internal view divergence"));
            }
        }
        let machines = DependencyMachine::compile_all(&spec.dependencies);
        let fleet_views = machine_views(&machines, o.report.maximal_trace.events());
        let solo_views = machine_views(&machines, solo.maximal_trace.events());
        if fleet_views != solo_views {
            failures.push(format!(
                "{tag}: final □-views diverge: fleet {fleet_views:?} vs solo {solo_views:?}"
            ));
        }
        match (&o.report.monitor, &solo.monitor) {
            (Some(fm), Some(sm)) if fm.verdicts != sm.verdicts => {
                failures.push(format!(
                    "{tag}: monitor verdicts diverge: fleet {:?} vs solo {:?}",
                    fm.verdicts, sm.verdicts
                ));
            }
            (Some(_), None) | (None, Some(_)) => {
                failures.push(format!("{tag}: monitors armed on one side only"));
            }
            _ => {}
        }
        if config.exec.record.is_some() {
            failures.extend(diff_recordings(&o.report, &solo).map(|f| format!("{tag}: {f}")));
        }
    }
    failures
}

/// Hold a [`dist::run_parallel_fleet`] report to the
/// [`dist::run_tenant`] report of the same specs, arrivals and
/// [`ExecConfig`]. Both are roll-ups over one fleet runner, so every
/// instance must be the same run on a different clock: occurrences equal
/// once `arrived_at` is subtracted from each fleet-clock tick (sequence
/// numbers included), and `steps`, `duration`, [`Termination`],
/// `finished_at`, monitor verdicts, alert kinds and — when either fleet
/// was recorded — flight recordings ([`diff_recordings`]; spans carry
/// instance-local timestamps on both) equal outright; the fleet's
/// traffic total must be the sum of its instances'. Returns the
/// differences (empty iff the two reports agree).
pub fn diff_fleet_reports(fleet: &ParallelFleetReport, tenant: &TenantReport) -> Vec<String> {
    let mut failures = Vec::new();
    let by_instance: BTreeMap<_, _> = tenant.instances.iter().map(|o| (o.instance, o)).collect();
    if fleet.instances.len() != tenant.instances.len() {
        failures.push(format!(
            "{} parallel instances vs {} tenant instances",
            fleet.instances.len(),
            tenant.instances.len()
        ));
    }
    let mut net = sim::NetStats::default();
    for p in &fleet.instances {
        net.absorb(&p.report.net);
        let Some(t) = by_instance.get(&p.instance) else {
            failures.push(format!("instance {}: missing from the tenant fleet", p.instance));
            continue;
        };
        let local: Vec<_> = p
            .report
            .occurrences
            .iter()
            .map(|&(l, at, q)| (l, at.wrapping_sub(p.arrived_at), q))
            .collect();
        let (pr, tr) = (&p.report, &t.report);
        let verdicts = |r: &RunReport| r.monitor.as_ref().map(|m| m.verdicts.clone());
        let alert_kinds = |r: &RunReport| r.alerts.iter().map(|a| a.kind.tag()).collect::<Vec<_>>();
        let same = local == tr.occurrences
            && (pr.steps, pr.duration, pr.termination) == (tr.steps, tr.duration, tr.termination)
            && (p.arrived_at, p.finished_at) == (t.arrived_at, t.finished_at)
            && pr.net == tr.net
            && verdicts(pr) == verdicts(tr)
            && alert_kinds(pr) == alert_kinds(tr);
        if !same {
            failures.push(format!(
                "instance {}: the parallel fleet and the tenant fleet disagree: \
                 {local:?} ({} steps, t={}, {:?}) vs {:?} ({} steps, t={}, {:?})",
                p.instance,
                pr.steps,
                pr.duration,
                pr.termination,
                tr.occurrences,
                tr.steps,
                tr.duration,
                tr.termination
            ));
        }
        if pr.recording.is_some() || tr.recording.is_some() {
            failures
                .extend(diff_recordings(pr, tr).map(|f| format!("instance {}: {f}", p.instance)));
        }
    }
    if fleet.net != net {
        failures.push("the fleet's traffic total is not the sum of its instances'".to_owned());
    }
    failures
}

/// The eleventh audit: fused-monitor equivalence. Run the scenario once
/// with the fused monitor and the flight recorder both on, then hold the
/// fused report to a replay of that run's recording
/// ([`audit_monitor_replay`]). The recording must be complete — nothing
/// overwritten by the ring, nothing sampled out — or the replay would
/// be judged on a different stream than the scheduler saw.
pub fn audit_monitor_equivalence(
    spec: &WorkflowSpec,
    base: &ExecConfig,
    plan: &FaultPlan,
) -> Vec<String> {
    let mut config = base.clone();
    config.monitor.get_or_insert_with(monitor::MonitorConfig::default);
    config.record = Some(obs::RecordConfig::default());
    let run = run_workflow_with_faults(spec, config.clone(), plan.clone());
    let rec = run.recording.as_ref().expect("recording was configured");
    if rec.dropped != 0 || rec.sampled_out != 0 {
        return vec![format!(
            "recording is incomplete ({} spans overwritten, {} sampled out): \
             the replay oracle needs every span",
            rec.dropped, rec.sampled_out
        )];
    }
    let mut failures = audit_holds(spec, &run);
    failures.extend(audit_monitor_replay(spec, &config, &run, &rec.events));
    failures
}

/// The twelfth audit: every hold standing at quiescence names a
/// requester that never decided. Returns one failure per hold whose
/// requester's symbol occurred.
pub fn audit_holds(spec: &WorkflowSpec, report: &RunReport) -> Vec<String> {
    let decided = |lit: Literal| report.occurrences.iter().any(|o| o.0.symbol() == lit.symbol());
    (report.standing_holds.iter())
        .filter(|&&(_, requester)| decided(requester))
        .map(|&(keeper, requester)| {
            format!(
                "a hold outlived its holder's decision: {} still holds for {}, which decided",
                spec.table.name(keeper).unwrap_or("?"),
                spec.table.literal_name(requester),
            )
        })
        .collect()
}

/// Feed `events` — the recording of `run`, or a mutation of it — to a
/// fresh monitor armed like `run`'s (same [`monitor::MonitorConfig`],
/// finished at the same sim time) and compare the two monitor reports:
///
/// - **Verdicts**, **observation counters** (`facts`, `guard_checks`)
///   and **violation-class alerts** exactly, including timestamps.
/// - **Stall alerts** as a multiset over (kind, node, detail),
///   ignoring `at`: a replay sweeps on `CrashDrop` spans where no
///   handler (and hence no fused tick) runs, which can stamp an
///   inevitable stall a little earlier but never changes the flagged
///   set (see the module docs).
///
/// Taking the events as a parameter lets the mutation harness delete a
/// span and prove the audit notices.
pub fn audit_monitor_replay(
    spec: &WorkflowSpec,
    config: &ExecConfig,
    run: &RunReport,
    events: &[obs::TraceEvent],
) -> Vec<String> {
    let Some(fm) = &run.monitor else {
        return vec!["the run carries no fused monitor report".to_owned()];
    };
    let oracle = monitor::WorkflowMonitor::new(
        &spec.table,
        &spec.dependencies,
        guard_gated(spec),
        config.monitor.unwrap_or_default(),
    );
    for e in events {
        oracle.observe(e);
    }
    let om = &oracle.finish(run.duration);
    let mut failures = Vec::new();
    if fm.verdicts != om.verdicts {
        failures.push(format!(
            "fused and replayed monitors disagree on verdicts: {:?} vs {:?}",
            fm.verdicts, om.verdicts
        ));
    }
    if (fm.facts, fm.guard_checks) != (om.facts, om.guard_checks) {
        failures.push(format!(
            "observation counters diverge: fused ({} facts, {} guard checks) vs \
             replay ({} facts, {} guard checks)",
            fm.facts, fm.guard_checks, om.facts, om.guard_checks
        ));
    }
    let violations = |m: &monitor::MonitorReport| -> Vec<monitor::Alert> {
        m.alerts.iter().filter(|a| a.kind.is_violation()).cloned().collect()
    };
    let (fv, ov) = (violations(fm), violations(om));
    if fv != ov {
        failures.push(format!("violation-class alerts diverge: fused {fv:?} vs replay {ov:?}"));
    }
    // Stall alerts: multiset keyed by everything except `at`. The
    // detail string embeds the round's *open* time, which both feeds
    // observe identically — only the sweep stamp may shift.
    let stalls = |m: &monitor::MonitorReport| -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for a in m.alerts.iter().filter(|a| !a.kind.is_violation()) {
            *counts
                .entry(format!("[{}] node {}: {}", a.kind.tag(), a.node, a.detail))
                .or_insert(0) += 1;
        }
        counts
    };
    let (fs, os) = (stalls(fm), stalls(om));
    if fs != os {
        failures.push(format!(
            "stall-alert sets diverge (compared modulo timestamp): fused {fs:?} vs replay {os:?}"
        ));
    }
    failures
}

/// The standard fault-plan matrix exercised by `scripts/check.sh
/// --faults`: each entry is a named plan derived from `fault_seed`. The
/// plans stay within what the hardened protocol tolerates (lossy but
/// fair links, healed partitions, crashed nodes that restart), so
/// liveness may be asserted under every one of them.
///
/// The `crash` plan kills node 0 at t=40 — a window that typically opens
/// *after* the first occurrences (attempts land around t=1, promise
/// rounds take a few 10–20-tick hops) — so the matrix exercises the
/// riskiest recovery path: rebuilding an already-occurred event from the
/// write-ahead log with its pre-crash sequence number intact.
pub fn standard_plans(fault_seed: u64) -> Vec<(&'static str, FaultPlan)> {
    use sim::{NodeId, SiteId};
    vec![
        ("clean", FaultPlan::new(fault_seed)),
        ("drop20", FaultPlan::new(fault_seed).drop_rate(0.2)),
        ("dup20", FaultPlan::new(fault_seed).duplicate_rate(0.2)),
        ("jitter", FaultPlan::new(fault_seed).jitter(0, 30)),
        ("partition", FaultPlan::new(fault_seed).partition(SiteId(0), SiteId(1), 20, 400)),
        ("crash", FaultPlan::new(fault_seed).crash(NodeId(0), 40, Some(300))),
        (
            "chaos",
            FaultPlan::new(fault_seed).drop_rate(0.2).duplicate_rate(0.2).jitter(0, 20).partition(
                SiteId(0),
                SiteId(1),
                20,
                400,
            ),
        ),
    ]
}

/// Exploration driver: run `spec` over the full `standard_plans` matrix
/// for every seed in `seeds`, with a determinism check per plan on the
/// first seed. Returns all failures, each prefixed with its scenario
/// coordinates.
pub fn explore(
    name: &str,
    spec: &WorkflowSpec,
    base: ExecConfig,
    seeds: std::ops::Range<u64>,
    expect_live: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    let first_seed = seeds.start;
    for seed in seeds {
        for (plan_name, plan) in standard_plans(seed ^ 0x5EED) {
            let mut config = base.clone();
            config.sim.seed = seed;
            let run = check_run(spec, config.clone(), plan.clone(), expect_live);
            failures.extend(
                run.failures.into_iter().map(|f| format!("[{name}/{plan_name}/seed {seed}] {f}")),
            );
            if seed == first_seed {
                failures.extend(
                    check_determinism(spec, config, plan)
                        .into_iter()
                        .map(|f| format!("[{name}/{plan_name}/seed {seed}] {f}")),
                );
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use agent::EventAttrs;
    use event_algebra::{parse_expr, SymbolTable};
    use sim::SiteId;

    fn mutual_promise_spec() -> WorkflowSpec {
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
                dist::FreeEventSpec {
                    site: SiteId(0),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                dist::FreeEventSpec {
                    site: SiteId(1),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        }
    }

    #[test]
    fn clean_plan_on_clean_workflow_conforms() {
        let spec = mutual_promise_spec();
        let run = check_run(&spec, ExecConfig::seeded(7), FaultPlan::new(7), true);
        assert!(run.is_conformant(), "{:?}", run.failures);
        assert_eq!(run.report.trace.len(), 2);
    }

    /// The hold audit reads the holds standing at quiescence: one for a
    /// requester that occurred fails it, one for an undecided requester
    /// does not.
    #[test]
    fn a_hold_for_a_decided_requester_fails_the_hold_audit() {
        let spec = mutual_promise_spec();
        let mut report = check_run(&spec, ExecConfig::seeded(7), FaultPlan::new(7), true).report;
        assert!(report.standing_holds.is_empty());
        let (e, f) = (report.trace.events()[0], report.trace.events()[1]);
        report.standing_holds.push((e.symbol(), f));
        let failures = audit_holds(&spec, &report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("outlived its holder's decision"), "{failures:?}");
        report.occurrences.retain(|o| o.0 != f);
        assert_eq!(audit_holds(&spec, &report), Vec::<String>::new());
    }

    #[test]
    fn faulty_plans_still_conform_with_reliability() {
        let spec = mutual_promise_spec();
        let mut config = ExecConfig::seeded(11);
        config.reliable = Some(dist::ReliableConfig::default());
        for (name, plan) in standard_plans(3) {
            let run = check_run(&spec, config.clone(), plan, true);
            assert!(run.is_conformant(), "{name}: {:?}", run.failures);
        }
    }

    #[test]
    fn determinism_holds_under_chaos() {
        let spec = mutual_promise_spec();
        let mut config = ExecConfig::seeded(5);
        config.reliable = Some(dist::ReliableConfig::default());
        let plan = standard_plans(9).pop().expect("chaos plan").1;
        assert_eq!(check_determinism(&spec, config, plan), Vec::<String>::new());
    }

    #[test]
    fn determinism_audit_has_teeth() {
        // Audit 5 compares flight recordings, so it must tell two
        // different executions apart and must refuse to pass on absence.
        let spec = mutual_promise_spec();
        let run = |seed: u64, record: bool| {
            let mut config = ExecConfig::seeded(seed);
            config.record = record.then(obs::RecordConfig::default);
            dist::run_workflow(&spec, config)
        };
        assert_eq!(diff_runs(&run(5, true), &run(5, true)), Vec::<String>::new());
        let adjacent = diff_runs(&run(5, true), &run(6, true));
        assert!(adjacent.iter().any(|f| f.contains("recordings differ")), "{adjacent:?}");
        for (a, b) in [(true, false), (false, true), (false, false)] {
            let failures = diff_runs(&run(5, a), &run(5, b));
            assert!(failures.iter().any(|f| f.contains("no flight recording")), "{failures:?}");
        }
    }

    #[test]
    fn causal_audit_green_across_standard_plans() {
        // Pinned seed: every consumed fact in the flight-recorder DAG
        // must be established by an `occurred` span that happens-before
        // its consumer, under the whole fault matrix.
        let spec = mutual_promise_spec();
        let mut config = ExecConfig::seeded(13);
        config.reliable = Some(dist::ReliableConfig::default());
        config.record = Some(obs::RecordConfig::default());
        for (name, plan) in standard_plans(13) {
            let run = check_run(&spec, config.clone(), plan, true);
            assert!(run.is_conformant(), "{name}: {:?}", run.failures);
            let rec = run.report.recording.as_ref().expect("recording present");
            assert!(!rec.events.is_empty(), "{name}: recorder captured nothing");
            assert_eq!(rec.dropped, 0, "{name}: ring overflowed");
        }
    }

    #[test]
    fn clean_runs_raise_no_alerts() {
        // The acceptance bar for the armed monitors: zero alerts and no
        // violated verdict on a fault-free run of a clean workflow.
        let spec = mutual_promise_spec();
        let run = check_run(&spec, ExecConfig::seeded(7), FaultPlan::new(7), true);
        assert!(run.is_conformant(), "{:?}", run.failures);
        assert!(run.report.alerts.is_empty(), "{:?}", run.report.alerts);
        let mrep = run.report.monitor.as_ref().expect("monitors were armed");
        assert!(mrep.verdicts.iter().all(|v| *v == monitor::DepVerdict::Satisfied), "{mrep:?}");
        assert!(mrep.facts > 0, "the monitor actually observed the run");
    }

    #[test]
    fn unguarded_run_is_flagged_by_the_monitors() {
        // Mutation: strip D< from the scheduler so nothing stops f from
        // firing before e (seed 5 realizes exactly that order), then
        // replay the recording through monitors holding the real
        // dependency. The broken order must come back violated, with the
        // dependency-verdict alert raised at e's firing (not at finish)
        // and the guard-faithfulness alert naming the unjustified event.
        let mut table = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        let spec = WorkflowSpec {
            table,
            dependencies: vec![d],
            agents: vec![],
            free_events: vec![
                dist::FreeEventSpec {
                    site: SiteId(0),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                dist::FreeEventSpec {
                    site: SiteId(1),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(40),
                },
            ],
        };
        let mrep = run_unguarded_monitored(&spec, ExecConfig::seeded(5));
        assert!(mrep.has_violation(), "{mrep:?}");
        assert_eq!(mrep.verdicts, vec![monitor::DepVerdict::Violated], "{mrep:?}");
        let dep_alert = mrep
            .alerts
            .iter()
            .find(|a| matches!(a.kind, monitor::AlertKind::DepViolated { .. }))
            .expect("dependency-violated alert");
        // Flagged online at the offending firing, not by the finish-time
        // sweep (which stamps its transitions with node u32::MAX).
        assert_ne!(dep_alert.node, u32::MAX, "flagged post-hoc: {dep_alert:?}");
        assert!(
            mrep.alerts
                .iter()
                .any(|a| matches!(a.kind, monitor::AlertKind::GuardUnfaithful { .. })),
            "{mrep:?}"
        );
    }

    #[test]
    fn fused_monitor_is_equivalent_to_its_replay() {
        // The eleventh audit across the whole fault matrix, including
        // the crash plan whose CrashDrop sweeps are the one known
        // timestamp divergence between the fused feed and a replay.
        let spec = mutual_promise_spec();
        for seed in [0u64, 7, 23] {
            let mut config = ExecConfig::seeded(seed);
            config.reliable = Some(dist::ReliableConfig::default());
            for (name, plan) in standard_plans(seed ^ 0x5EED) {
                let failures = audit_monitor_equivalence(&spec, &config, &plan);
                assert_eq!(failures, Vec::<String>::new(), "{name}/seed {seed}");
            }
        }
    }

    #[test]
    fn monitor_equivalence_audit_catches_a_deleted_occurrence() {
        // Mutation: the recording of a healthy run, minus one `Occurred`
        // span. The replay then sees one fact fewer than the scheduler
        // fed the fused monitor, and the audit must say so — whichever
        // occurrence goes missing.
        let spec = mutual_promise_spec();
        let mut config = ExecConfig::seeded(7);
        config.monitor = Some(monitor::MonitorConfig::default());
        config.record = Some(obs::RecordConfig::default());
        let run = dist::run_workflow(&spec, config.clone());
        let events = &run.recording.as_ref().expect("recording was configured").events;
        assert_eq!(audit_monitor_replay(&spec, &config, &run, events), Vec::<String>::new());
        let occurred: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i].kind, obs::SpanKind::Occurred { .. }))
            .collect();
        assert_eq!(occurred.len(), 2, "both events occur");
        for victim in occurred {
            let mut mutated = events.clone();
            mutated.remove(victim);
            let failures = audit_monitor_replay(&spec, &config, &run, &mutated);
            assert!(
                failures.iter().any(|f| f.contains("counters diverge") || f.contains("verdicts")),
                "deleting span {victim} went unnoticed: {failures:?}"
            );
        }
    }

    #[test]
    fn tenant_isolation_audit_green_across_fault_matrix() {
        // A small mixed fleet of Example 11 instances, audited against
        // independent runs under every standard fault plan.
        let spec = mutual_promise_spec();
        let arrivals: Vec<Arrival> =
            (0..4).map(|i| Arrival::new(i, 0, i * 5, 0xBEEF ^ i)).collect();
        for (name, plan) in standard_plans(3) {
            let mut config = TenantConfig::new(ExecConfig::seeded(0));
            config.exec.reliable = Some(dist::ReliableConfig::default());
            config.exec.monitor = Some(monitor::MonitorConfig::default());
            config.plan = Some(plan);
            let (failures, report) =
                audit_tenant_isolation(std::slice::from_ref(&spec), &arrivals, &config);
            assert_eq!(failures, Vec::<String>::new(), "{name}");
            assert_eq!(report.instances.len(), 4, "{name}");
            if name == "crash" {
                let wal = report.wal.as_ref().expect("fault plan materializes the WAL");
                assert!(wal.total() > 0, "{name}: crash plan should exercise the WAL");
            }
        }
    }

    #[test]
    fn tenant_isolation_audit_catches_an_instance_that_ran_differently() {
        // The can-fail proof, in test data: a healthy fleet audited
        // against arrivals in which instance 1 has another seed, i.e. an
        // instance 1 that did not run the way its isolated run does. The
        // audit must say so about i1, by name, and about nobody else.
        let spec = mutual_promise_spec();
        let arrivals: Vec<Arrival> = (0..3).map(|i| Arrival::new(i, 0, i, 0xACE ^ i)).collect();
        let config = TenantConfig::new(ExecConfig::seeded(0));
        let specs = std::slice::from_ref(&spec);
        let (failures, report) = audit_tenant_isolation(specs, &arrivals, &config);
        assert_eq!(failures, Vec::<String>::new());
        let mut claimed = arrivals.clone();
        claimed[1].seed ^= 0xFFFF;
        let failures = diff_against_isolated(specs, &claimed, &config, &report);
        assert!(
            failures.iter().any(|f| f.contains("instance i1") && f.contains("diverge")),
            "divergence not attributed to the mismatched instance: {failures:?}"
        );
        assert!(
            !failures.iter().any(|f| f.contains("instance i0") || f.contains("instance i2")),
            "healthy instances wrongly implicated: {failures:?}"
        );
    }

    #[test]
    fn guard_audit_flags_a_fabricated_violation() {
        // Build a report by hand whose trace violates e < f, then check
        // the auditor catches it (the real executor never produces this).
        let mut table = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        let spec = WorkflowSpec {
            table,
            dependencies: vec![d],
            agents: vec![],
            free_events: vec![
                dist::FreeEventSpec {
                    site: SiteId(0),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                dist::FreeEventSpec {
                    site: SiteId(0),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        };
        let mut report = dist::run_workflow(&spec, ExecConfig::seeded(2));
        assert!(audit_guards(&spec, &report).is_empty(), "real run is safe");
        // Fabricate a bad trace: f before e violates f's guard `□e`.
        let bad = event_algebra::Trace::new([f, e]).unwrap();
        report.trace = bad.clone();
        report.maximal_trace = bad;
        // f fired before e, violating its `□e` guard; once the order is
        // broken, e's own guard (which demands it precede f) is false too.
        let violations = audit_guards(&spec, &report);
        assert!(violations.contains(&(f, 0)), "{violations:?}");
    }

    #[test]
    fn fleet_report_diff_is_green_and_catches_a_moved_tick() {
        let spec = mutual_promise_spec();
        let arrivals: Vec<Arrival> = (0..5).map(|i| Arrival::new(i, 0, i * 7, 0xACE ^ i)).collect();
        let mut exec = ExecConfig::seeded(0);
        exec.monitor = Some(monitor::MonitorConfig::default());
        exec.parallel = Some(sim::ParallelConfig::new(2));
        let specs = std::slice::from_ref(&spec);
        let tenant = run_tenant(specs, &arrivals, &TenantConfig::new(exec.clone()));
        let mut fleet = dist::run_parallel_fleet(specs, &arrivals, &exec);
        assert_eq!(diff_fleet_reports(&fleet, &tenant), Vec::<String>::new());
        assert!(
            fleet.all_satisfied() && fleet.instances.iter().all(|o| o.report.monitor.is_some())
        );
        // Mutation: one occurrence of the last instance left on the
        // instance-local clock.
        fleet.instances[4].report.occurrences[0].1 -= 28;
        let failures = diff_fleet_reports(&fleet, &tenant);
        assert!(failures.len() == 1 && failures[0].contains("instance i4"), "{failures:?}");
    }
}
