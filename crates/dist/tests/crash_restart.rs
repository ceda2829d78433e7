//! Crash–restart recovery: a `SymbolActor` killed mid-promise-round must
//! rebuild its state from the write-ahead log on restart and either
//! complete the round or abort it cleanly — never leave a phantom
//! promise behind.
//!
//! The workload is the Example 11 mutual-promise consensus (`~e + f`,
//! `~f + e`): both events can only fire through a promise exchange
//! between their actors, so a well-timed crash lands inside a round.

use agent::EventAttrs;
use dist::{run_workflow_with_faults, ExecConfig, FreeEventSpec, ReliableConfig, WorkflowSpec};
use event_algebra::{parse_expr, SymbolTable};
use obs::SpanKind;
use sim::{FaultPlan, NodeId, SiteId, Termination};
use testkit::conformance::{audit_guards, check_determinism};

/// Two free events on distinct sites whose dependencies force a mutual
/// promise round (`e` fires iff `f` does).
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

fn reliable_config(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.reliable = Some(ReliableConfig::default());
    config.record = Some(obs::RecordConfig::default());
    config
}

/// Kill actor 0 (symbol `e`) shortly after startup — inside the first
/// promise round — and restart it. The restarted actor replays its
/// write-ahead log, the retransmission layer re-delivers what the crash
/// ate, and the round completes: both events fire, views agree, no
/// broken promises.
#[test]
fn killed_actor_recovers_and_round_completes() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(13).crash(NodeId(0), 2, Some(100));
    let report = run_workflow_with_faults(&spec, reliable_config(21), plan);

    assert_eq!(report.termination, Termination::Quiescent);
    assert!(report.all_satisfied(), "unsatisfied: {:?}", report.satisfied);
    assert_eq!(report.trace.len(), 2, "both events fire: {:?}", report.trace);
    assert!(report.divergence.is_empty(), "views diverged: {:?}", report.divergence);
    assert!(report.broken_promises.is_empty(), "phantom promise: {:?}", report.broken_promises);
    assert!(audit_guards(&spec, &report).is_empty());

    // The recording shows the recovery: node 0 restarts, then replays
    // its log, in that order.
    let rec = report.recording.as_ref().expect("recording on");
    let at =
        |want: fn(&SpanKind) -> bool| rec.events.iter().position(|e| e.node == 0 && want(&e.kind));
    let restart = at(|k| matches!(k, SpanKind::Restart { node: 0 }));
    let replay = at(|k| matches!(k, SpanKind::WalReplay { .. }));
    assert!(restart.is_some() && restart < replay, "{}", obs::stats_text(rec));
}

/// Same crash, but the node never comes back. The surviving actor's
/// promise round must abort cleanly: the run still quiesces (timeouts
/// bounded by the retry cap), no guard fires falsely, and the survivor
/// holds no outstanding promise granted *to* the dead peer that it then
/// acted on — the trace stays empty.
#[test]
fn permanently_crashed_peer_aborts_round_cleanly() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(13).crash(NodeId(0), 2, None);
    let report = run_workflow_with_faults(&spec, reliable_config(21), plan);

    assert_eq!(report.termination, Termination::Quiescent, "retry caps bound the run");
    assert!(report.trace.is_empty(), "no event fires half a consensus: {:?}", report.trace);
    // The abort is *clean*: with neither event occurring, the appended
    // complements satisfy both disjunctive dependencies vacuously.
    assert!(report.all_satisfied(), "complements satisfy the disjunctions");
    assert!(report.divergence.is_empty());
    assert!(audit_guards(&spec, &report).is_empty());
}

/// The crash–restart schedule is part of the deterministic simulation:
/// the same (workflow, plan, seed) triple reproduces the flight
/// recording span for span, including the `restart` span and the
/// `wal_replay` span's entry count.
#[test]
fn crash_restart_runs_are_deterministic() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(13).crash(NodeId(0), 2, Some(100));
    let failures = check_determinism(&spec, reliable_config(21), plan);
    assert!(failures.is_empty(), "{failures:?}");
}

/// A crash window that opens *before* the seed injections land: the
/// actor loses its initial `Attempt` entirely and must be revived by the
/// retransmission layer alone. State is re-derived from an empty log
/// (replaying 0 entries is legal) and the workflow still completes.
#[test]
fn crash_before_first_delivery_still_recovers() {
    let spec = mutual_promise_spec();
    let plan = FaultPlan::new(5).crash(NodeId(0), 0, Some(200));
    let report = run_workflow_with_faults(&spec, reliable_config(33), plan);

    assert_eq!(report.termination, Termination::Quiescent);
    assert!(report.divergence.is_empty());
    assert!(audit_guards(&spec, &report).is_empty());
}

/// A crash window that opens *after* the node's event has occurred: the
/// WAL replay must rebuild the occurrence with its pre-crash time and
/// global sequence number, so the restarted actor's re-announcement
/// deduplicates at every subscriber instead of landing as a second fact
/// at a fabricated sequence (double-residuation / view divergence).
#[test]
fn crash_after_occurrence_preserves_sequence_numbers() {
    let spec = mutual_promise_spec();
    // The crash fires long after the run has quiesced, so the pre-crash
    // execution is identical to one under an empty plan — the rebuilt
    // report must match that baseline occurrence for occurrence.
    let baseline = run_workflow_with_faults(&spec, reliable_config(21), FaultPlan::new(13));
    assert_eq!(baseline.trace.len(), 2, "both events fire: {:?}", baseline.trace);

    let plan = FaultPlan::new(13).crash(NodeId(0), 1_000, Some(1_100));
    let report = run_workflow_with_faults(&spec, reliable_config(21), plan);
    assert_eq!(report.termination, Termination::Quiescent);
    assert!(report.all_satisfied(), "unsatisfied: {:?}", report.satisfied);
    assert!(report.divergence.is_empty(), "views diverged: {:?}", report.divergence);
    assert!(audit_guards(&spec, &report).is_empty());
    assert_eq!(
        report.occurrences, baseline.occurrences,
        "rebuilt occurrence must carry its pre-crash (time, seq)"
    );
}

/// A crash window inside the announcement exchange — after `e` occurred
/// but while its announcement may still be in flight. Whatever the
/// interleaving, recovery must never fabricate a new sequence number for
/// the rebuilt occurrence: views stay convergent across a band of seeds.
#[test]
fn mid_exchange_crash_never_diverges_views() {
    let spec = mutual_promise_spec();
    for seed in 0..16 {
        // t=40 typically lands after the first occurrence (attempts at
        // t=1, one promise round at 10-20 ticks per hop).
        let plan = FaultPlan::new(seed).crash(NodeId(0), 40, Some(300));
        let report = run_workflow_with_faults(&spec, reliable_config(seed), plan);
        assert_eq!(report.termination, Termination::Quiescent, "seed {seed}");
        assert!(report.divergence.is_empty(), "seed {seed}: {:?}", report.divergence);
        assert!(audit_guards(&spec, &report).is_empty(), "seed {seed}");
        assert!(report.all_satisfied(), "seed {seed}: {:?}", report.satisfied);
    }
}
