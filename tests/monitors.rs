//! Acceptance for the online runtime monitors: arming them on a clean
//! travel run yields zero alerts and all-satisfied verdicts, the monitor
//! metrics land in the unified snapshot, and the causal trace query the
//! `wftrace query --from/--to` subcommand exposes — a concrete
//! happens-before path from an event's attempt to its occurrence — is
//! non-empty and verified edge by edge by DAG precedence.

use constrained_events::{DepVerdict, ExecConfig, MonitorConfig, WorkflowBuilder};
use obs::{recording::Dag, RecordConfig, SpanKind};

fn travel() -> constrained_events::Workflow {
    let src = std::fs::read_to_string("examples/specs/travel.wf").expect("travel.wf");
    WorkflowBuilder::from_spec(&src).expect("travel.wf parses").build()
}

#[test]
fn armed_monitors_stay_quiet_on_a_clean_travel_run() {
    let workflow = travel();
    let mut config = ExecConfig::seeded(3);
    config.monitor = Some(MonitorConfig::default());
    let report = workflow.run_with(config);
    assert!(report.all_satisfied(), "{report:?}");
    assert!(report.alerts.is_empty(), "{:?}", report.alerts);
    let mrep = report.monitor.as_ref().expect("monitors were armed");
    assert!(!mrep.has_violation(), "{mrep:?}");
    assert!(
        mrep.verdicts.iter().all(|v| *v == DepVerdict::Satisfied),
        "every dependency ends satisfied: {mrep:?}"
    );
    assert!(mrep.facts > 0, "the monitors observed the occurrence stream");
    assert!(mrep.guard_checks > 0, "gated firings were re-checked");
    // The monitor's counters surface through the unified metrics.
    assert_eq!(report.metrics.counter("monitor.facts", &[]), Some(mrep.facts));
    assert_eq!(report.metrics.counter("monitor.guard_checks", &[]), Some(mrep.guard_checks));
}

#[test]
fn disarmed_monitors_report_nothing() {
    let workflow = travel();
    let report = workflow.run(3);
    assert!(report.monitor.is_none());
    assert!(report.alerts.is_empty());
    assert_eq!(report.metrics.counter("monitor.facts", &[]), None);
}

#[test]
fn monitors_and_recorder_share_one_event_stream() {
    // Recorder and fused monitor both on: the ring keeps the spans and
    // the monitor sees the same occurrences, so its fact count equals the recording's
    // `Occurred` spans net of crash-replay duplicates (none on a clean
    // run).
    let workflow = travel();
    let mut config = ExecConfig::seeded(3);
    config.record = Some(RecordConfig::default());
    config.monitor = Some(MonitorConfig::default());
    let report = workflow.run_with(config);
    let rec = report.recording.as_ref().expect("recording on");
    let occurred =
        rec.events.iter().filter(|e| matches!(e.kind, SpanKind::Occurred { .. })).count() as u64;
    let mrep = report.monitor.as_ref().expect("monitors armed");
    assert_eq!(mrep.facts, occurred, "monitor and recorder saw the same stream");
    assert!(report.alerts.is_empty(), "{:?}", report.alerts);
    // Ring never overflowed, and the overflow counter says so too.
    assert_eq!(rec.dropped, 0);
    assert_eq!(report.metrics.counter("obs.recorder.dropped_spans", &[]), Some(0));
}

#[test]
fn attempt_to_commit_has_a_concrete_verified_causal_path() {
    // The `wftrace query --from attempt:buy::commit --to
    // occurred:buy::commit` acceptance path, at the library level.
    let workflow = travel();
    let mut config = ExecConfig::seeded(3);
    config.record = Some(RecordConfig::default());
    let report = workflow.run_with(config);
    let rec = report.recording.as_ref().expect("recording on");
    let commit = rec.lit_by_name("buy::commit").expect("buy.commit is interned");
    let attempt = rec
        .events
        .iter()
        .find(|e| matches!(e.kind, SpanKind::Attempt { lit } if lit == commit))
        .expect("buy.commit was attempted");
    let fired = rec
        .events
        .iter()
        .find(|e| matches!(e.kind, SpanKind::Occurred { lit, .. } if lit == commit))
        .expect("buy.commit occurred");
    let dag = Dag::new(rec);
    let path = dag.path(attempt.id, fired.id).expect("attempt causally precedes the firing");
    assert!(path.len() >= 2, "a real path, not a degenerate one: {path:?}");
    assert_eq!(*path.first().unwrap(), attempt.id);
    assert_eq!(*path.last().unwrap(), fired.id);
    for w in path.windows(2) {
        assert!(dag.precedes(w[0], w[1]), "edge {} -> {} unverified", w[0], w[1]);
    }
    // And no path runs backwards in causality.
    assert!(dag.path(fired.id, attempt.id).is_none());
}
