//! Seed-corpus regressions for the fault layer: every test pins one
//! (workflow, fault plan, seed) triple that once exposed a bug or an
//! interesting corner of the fault machinery, named after what it
//! exercises. Exploration finds new cases; this file keeps them found.
//!
//! The corpus deliberately replays *full scheduler* scenarios through
//! `sim`'s fault hooks (dev-dependency cycle on `dist`/`testkit` — the
//! fault layer is meaningless without traffic to perturb).

use agent::EventAttrs;
use dist::{
    run_tenant, Arrival, ExecConfig, FreeEventSpec, ReliableConfig, TenantConfig, WorkflowSpec,
};
use event_algebra::{parse_expr, SymbolId, SymbolTable};
use sim::{FaultPlan, NodeId, SiteId, Termination};
use testkit::conformance::{audit_tenant_isolation, check_determinism, check_run};

/// Example 11: mutually-promising events on two sites.
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

/// A Klein pipeline of `n` events spread over `n` sites.
fn pipeline_spec(n: u32) -> WorkflowSpec {
    let syms: Vec<SymbolId> = (0..n).map(SymbolId).collect();
    testkit::free_event_spec(testkit::klein_pipeline(&syms), &syms)
}

fn hardened(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.reliable = Some(ReliableConfig::default());
    config
}

/// seed 17 / n = 3: the shrunk counterexample from an early
/// `klein_pipeline_completes` failure (kept fault-free as
/// `klein_pipeline_completes_at_seed17` in `dist/tests/exec_props.rs`).
/// Re-pinned here under a 20% lossy link — the schedule that once wedged
/// the pipeline must now ride out drops too.
#[test]
fn pipeline_seed17_survives_lossy_link() {
    let spec = pipeline_spec(3);
    let plan = FaultPlan::new(17).drop_rate(0.2).duplicate_rate(0.2);
    let run = check_run(&spec, hardened(17), plan, true);
    assert!(run.is_conformant(), "{:?}", run.failures);
    assert_eq!(run.report.trace.len(), 3);
}

/// A duplicate storm (90% duplication): receiver-side dedup must make
/// redelivery invisible — exactly-once processing, no double firing, and
/// a trace identical in shape to the clean run.
#[test]
fn duplicate_storm_is_idempotent() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(41).duplicate_rate(0.9);
    let run = check_run(&spec, hardened(8), plan, true);
    assert!(run.is_conformant(), "{:?}", run.failures);
    assert_eq!(run.report.trace.len(), 2, "each event fires exactly once");
}

/// A partition that opens before the first promise round and heals late:
/// retransmission timers must carry the consensus across the heal.
#[test]
fn partition_heals_and_consensus_completes() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(23).partition(SiteId(0), SiteId(1), 0, 600);
    let run = check_run(&spec, hardened(23), plan, true);
    assert!(run.is_conformant(), "{:?}", run.failures);
}

/// The crash schedule from `dist/tests/crash_restart.rs`, kept in the
/// corpus: node 0 dies at t=2 mid-round and restarts at t=100 with its
/// state rebuilt from the write-ahead log.
#[test]
fn crash_restart_seed13_completes() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(13).crash(NodeId(0), 2, Some(100));
    let run = check_run(&spec, hardened(21), plan, true);
    assert!(run.is_conformant(), "{:?}", run.failures);
    assert!(run.report.broken_promises.is_empty());
}

/// The post-occurrence crash that exposed the sequence-replay bug: node 0
/// dies at t=40 — *after* its event has occurred — and restarts. The WAL
/// replay must rebuild the occurrence under its original delivery
/// context; the broken replay re-announced it under a fabricated
/// restart-time sequence number, double-residuating subscribers' guards
/// and (on colliding seqs) diverging their views of the occurrence order.
#[test]
fn crash_after_occurrence_seed13_keeps_views_convergent() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(13).crash(NodeId(0), 40, Some(300));
    let run = check_run(&spec, hardened(21), plan, true);
    assert!(run.is_conformant(), "{:?}", run.failures);
    assert_eq!(run.report.trace.len(), 2, "both events fire exactly once");
}

/// Chaos plan (drops + duplicates + jitter + partition) over the
/// pipeline: the full gauntlet, plus a byte-for-byte replay check —
/// fault injection must not leak nondeterminism into the simulation.
#[test]
fn pipeline_chaos_seed9_is_deterministic() {
    let spec = pipeline_spec(4);
    let plan = FaultPlan::new(9).drop_rate(0.2).duplicate_rate(0.2).jitter(0, 20).partition(
        SiteId(0),
        SiteId(1),
        20,
        400,
    );
    let run = check_run(&spec, hardened(9), plan.clone(), true);
    assert!(run.is_conformant(), "{:?}", run.failures);
    let failures = check_determinism(&spec, hardened(9), plan);
    assert!(failures.is_empty(), "{failures:?}");
}

/// A fault plan with every knob at zero must be byte-identical to no
/// plan at all: the fault layer's mere presence cannot perturb the
/// simulation (its RNG stream is separate from latency sampling).
#[test]
fn empty_plan_is_transparent() {
    let spec = mutual_promise_spec();
    let clean = dist::run_workflow(&spec, ExecConfig::seeded(6));
    let faulted = dist::run_workflow_with_faults(&spec, ExecConfig::seeded(6), FaultPlan::new(99));
    assert_eq!(clean.trace, faulted.trace);
    assert_eq!(clean.duration, faulted.duration);
    assert_eq!(clean.steps, faulted.steps);
    assert_eq!(faulted.termination, Termination::Quiescent);
}

// --- Multi-instance crash-restart corpus -------------------------------
//
// The tenant engine shares one instance-keyed WAL across a fleet; these
// regressions pin the recovery corners that only exist with several
// instances live at once.

/// Crash-restart with three concurrently live instances: node 0 dies and
/// restarts *in every instance*, and each restart must replay only its
/// own instance's WAL slice. The isolation audit proves each instance's
/// outcome still equals its solo crash-run baseline — no phantom
/// promises, no cross-instance replay.
#[test]
fn crash_restart_with_three_live_instances_stays_isolated() {
    let specs = vec![mutual_promise_spec()];
    let arrivals: Vec<Arrival> =
        (0..3u64).map(|i| Arrival::new(i + 1, 0, i * 3, 0xC0DE ^ i)).collect();
    let mut config = TenantConfig::new(hardened(21));
    config.plan = Some(FaultPlan::new(13).crash(NodeId(0), 40, Some(300)));
    let (failures, report) = audit_tenant_isolation(&specs, &arrivals, &config);
    assert!(failures.is_empty(), "{failures:?}");
    assert!(report.all_satisfied());
    for o in &report.instances {
        assert!(o.report.broken_promises.is_empty(), "instance {}", o.instance);
    }
}

/// A restart in an instance other than 0 — invisible to single-instance
/// runs, where `InstanceId::ROOT` happens to be every right answer (a
/// rebuilt node that fell back to it once wedged every other instance).
/// A node crashed in instance 7 replays instance 7's WAL slice and keeps
/// logging to it, and the instance ends satisfied with no broken promise.
#[test]
fn restarted_node_replays_its_own_instances_wal_slice() {
    let specs = vec![mutual_promise_spec()];
    let arrivals = vec![Arrival::new(7, 0, 0, 0x51A6)];
    let mut config = TenantConfig::new(hardened(21));
    config.plan = Some(FaultPlan::new(13).crash(NodeId(0), 2, Some(100)));
    let report = run_tenant(&specs, &arrivals, &config);
    let wal = report.wal.as_ref().expect("a crash plan arms the WAL");
    assert_eq!(wal.instances(), vec![arrivals[0].instance], "a slice under another id");
    assert!(report.all_satisfied());
    assert!(report.instances[0].report.broken_promises.is_empty());
}

/// The shared WAL after a three-instance crash run: slices exist only
/// for admitted instances, every slice's delivery order is monotone, and
/// per-sender envelope sequences never repeat within a slice — a replay
/// that fabricated or reused a sequence number would break all three.
#[test]
fn instance_keyed_wal_slices_stay_disjoint_and_monotonic() {
    let specs = vec![mutual_promise_spec()];
    let arrivals: Vec<Arrival> =
        (0..3u64).map(|i| Arrival::new(i + 1, 0, i * 2, 0xBEEF ^ i)).collect();
    let mut config = TenantConfig::new(hardened(21));
    config.plan = Some(FaultPlan::new(13).crash(NodeId(0), 40, Some(300)));
    let report = run_tenant(&specs, &arrivals, &config);
    let wal = report.wal.as_ref().expect("a crash plan arms the WAL");
    assert!(wal.total() > 0, "the crash window saw no logged traffic");
    let known: std::collections::BTreeSet<_> = arrivals.iter().map(|a| a.instance).collect();
    for i in wal.instances() {
        assert!(known.contains(&i), "phantom WAL slice for {i}");
        for node in 0..2u32 {
            let log = wal.log_of(i, node);
            for pair in log.windows(2) {
                assert!(
                    pair[0].delivery_seq < pair[1].delivery_seq,
                    "{i}/n{node}: delivery order not monotone"
                );
            }
            let mut last_env: std::collections::BTreeMap<_, u64> = Default::default();
            for entry in &log {
                if let Some(seq) = entry.env_seq {
                    if let Some(&prev) = last_env.get(&entry.from) {
                        assert!(seq > prev, "{i}/n{node}: envelope seq {seq} reused");
                    }
                    last_env.insert(entry.from, seq);
                }
            }
        }
    }
}
