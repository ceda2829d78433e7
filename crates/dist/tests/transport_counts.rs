//! Transport cost as counts, not clocks: what the hardened path puts on
//! the queue per run when nothing is lost. Counts repeat exactly on every
//! machine, so — like `guard/tests/compile_counts.rs` — this runs under
//! plain `cargo test` and gates tier-1.
//!
//! An envelope costs the queue itself and its ack. The retransmission
//! timer is per *node*, armed for the earliest deadline: a handler call
//! that sends envelopes arms at most one, so timers stay below the
//! number of such calls — and on travel, where some handler sends two,
//! strictly below the number of envelopes. A timer per envelope coming
//! back would put travel's two counts level and fail this test. On
//! pipeline10 every handler that sends sends one envelope (an occurrence
//! is announced to its one undecided neighbour), so there the counts are
//! level by construction.

use constrained_events::WorkflowBuilder;
use dist::{run_workflow, ExecConfig, ReliableConfig, RunReport, WorkflowSpec};
use obs::SpanKind;
use std::collections::BTreeSet;
use testkit::workload::drive;

fn example(name: &str) -> WorkflowSpec {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    drive(&WorkflowBuilder::from_spec(&src).expect("spec parses").build().spec)
}

/// Hardened transport, no fault plan, default per-hop latency, recorded
/// (the recording moves no delivery; `tenant_props` holds it to that).
fn hardened_fault_free(spec: &WorkflowSpec) -> RunReport {
    let mut config = ExecConfig::seeded(5);
    config.reliable = Some(ReliableConfig::default());
    config.record = Some(obs::RecordConfig::default());
    let report = run_workflow(spec, config);
    assert!(report.all_satisfied());
    report
}

#[test]
fn a_fault_free_hardened_run_arms_a_timer_per_sending_handler_at_most() {
    // (spec, net.sent_total, envelopes, transport.timer_fires, handler
    // calls that sent envelopes). With a timer per envelope travel would
    // arm one per envelope, 17.
    for (name, sent, envelopes, timer_fires, handlers) in
        [("pipeline10", 37, 9, 9, 9), ("travel", 44, 17, 7, 15)]
    {
        let report = hardened_fault_free(&example(name));
        let counter = |series: &str| report.metrics.counter(series, &[]).expect(series);
        let recording = report.recording.as_ref().expect("recorded");
        assert_eq!(recording.dropped, 0, "{name}: the recording is whole");
        let sends =
            || recording.events.iter().filter(|e| matches!(e.kind, SpanKind::EnvSend { .. }));
        // Every envelope send is recorded under the delivery (or restart)
        // being handled: distinct parents are handler calls that sent.
        let sending_handlers: BTreeSet<_> =
            sends().map(|e| e.parent.expect("in a handler")).collect();

        assert_eq!(counter("transport.retransmissions"), 0, "{name}: nothing was lost");
        assert_eq!(counter("transport.timer_idle"), counter("transport.timer_fires"), "{name}");
        assert!(
            counter("transport.timer_fires") <= sending_handlers.len() as u64,
            "{name}: {} timers for {} handler calls that sent envelopes",
            counter("transport.timer_fires"),
            sending_handlers.len()
        );

        // The transport is the one layer that recovers a lost message:
        // all a handler sends its own node (a send with no parent is the
        // executor's seed message) is the retransmission timer and an
        // agent's think time.
        for e in recording.events.iter().filter(|e| e.parent.is_some()) {
            if let SpanKind::MsgSend { from, to, label } = &e.kind {
                assert!(
                    from != to || matches!(&**label, "retry_timer" | "kick"),
                    "{name}: node {to} sent itself a {label}"
                );
            }
        }

        // The pins: the queue holds each envelope, its ack, the timers,
        // and the raw traffic (seed messages, think time).
        let counts = (
            counter("net.sent_total"),
            sends().count(),
            counter("transport.timer_fires"),
            sending_handlers.len(),
        );
        assert_eq!(counts, (sent, envelopes, timer_fires, handlers), "{name}");
    }
}
