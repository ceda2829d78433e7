//! Acceptance for the flight-recorder observability layer: recording the
//! travel workflow yields a justification chain for `buy::commit` whose
//! every node happens-before the firing, the causal audit stays green
//! across the standard fault matrix, and the unified metrics snapshot
//! subsumes the net/fault counters on every run — recorder on or off.

use constrained_events::{
    EventAttrs, ExecConfig, FreeEventSpec, Literal, ReliableConfig, SymbolTable, WorkflowBuilder,
    WorkflowSpec,
};
use obs::{explain, recording::Dag, ObsLit, RecordConfig, SpanKind};
use sim::SiteId;
use std::collections::BTreeMap;
use testkit::conformance::{check_run, standard_plans};

fn travel() -> constrained_events::Workflow {
    let src = std::fs::read_to_string("examples/specs/travel.wf").expect("travel.wf");
    WorkflowBuilder::from_spec(&src).expect("travel.wf parses").build()
}

fn recording_config(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.record = Some(RecordConfig::default());
    config
}

#[test]
fn travel_buy_commit_has_a_verified_justification_chain() {
    let workflow = travel();
    let report = workflow.run_with(recording_config(3));
    assert!(report.all_satisfied(), "{report:?}");
    let rec = report.recording.as_ref().expect("recording on");
    assert_eq!(rec.dropped, 0, "ring must not overflow on travel");

    let ex = explain(rec, "buy::commit", None).expect("buy::commit occurred");
    assert!(ex.verified, "chain must verify:\n{}", ex.render(rec));
    assert!(!ex.chain.is_empty(), "the commit is not a root cause");
    // Re-check the invariant independently of `Explanation::verified`:
    // every chain node strictly precedes the firing in the DAG.
    let dag = Dag::new(rec);
    for (_, node) in &ex.chain {
        assert!(
            dag.precedes(node.id, ex.firing.id),
            "{} does not precede the firing {}",
            node.id,
            ex.firing.id
        );
    }
    // The ordering core of the paper's Example 4: the non-compensatable
    // buy commits only after book commits, and the chain shows the fact
    // flow that enforced it.
    let text = ex.render(rec);
    assert!(text.contains("book.commit"), "chain misses the ordering fact:\n{text}");
}

#[test]
fn causal_audit_green_across_fault_matrix() {
    let workflow = travel();
    let mut config = recording_config(17);
    config.reliable = Some(ReliableConfig::default());
    config.max_steps = 2_000_000;
    for (name, plan) in standard_plans(17) {
        let run = check_run(&workflow.spec, config.clone(), plan, true);
        assert!(run.is_conformant(), "{name}: {:?}", run.failures);
        let rec = run.report.recording.as_ref().expect("recording on");
        assert!(!rec.events.is_empty(), "{name}: recorder captured nothing");
    }
}

/// A run's `net.deliveries` series are what its recording shows: one
/// series per site that handled a delivery, counting that site's
/// `MsgDeliver` spans — on travel as written (one site) and with its
/// agents on sites 7 and 1 000 000, fault-free and hardened under every
/// standard plan (crash drops and restarts are not deliveries).
#[test]
fn per_site_delivery_series_count_the_recorded_deliveries() {
    let src = std::fs::read_to_string("examples/specs/travel.wf").expect("travel.wf");
    let spread = src
        .replace("agent buy:  rda", "agent buy: rda @ site 7")
        .replace("agent book: rda", "agent book: rda @ site 1000000");
    let mut hardened = recording_config(11);
    hardened.reliable = Some(ReliableConfig::default());
    for (src, sites) in [(src, 1), (spread, 2)] {
        let workflow = WorkflowBuilder::from_spec(&src).expect("travel parses").build();
        let faulty =
            standard_plans(11).into_iter().map(|(_, p)| workflow.run_faulty(hardened.clone(), p));
        for report in std::iter::once(workflow.run_with(recording_config(3))).chain(faulty) {
            let rec = report.recording.as_ref().expect("recording on");
            assert_eq!((rec.dropped, rec.sampled_out), (0, 0), "every span kept");
            let mut recorded: BTreeMap<String, u64> = BTreeMap::new();
            for span in rec.events.iter().filter(|e| matches!(e.kind, SpanKind::MsgDeliver { .. }))
            {
                *recorded.entry(span.site.to_string()).or_insert(0) += 1;
            }
            let series: BTreeMap<String, u64> = report
                .metrics
                .counters
                .iter()
                .filter(|(key, _)| key.name == "net.deliveries")
                .map(|(key, count)| (key.labels[0].1.clone(), *count))
                .collect();
            assert_eq!(recorded.len(), sites, "{recorded:?}");
            assert_eq!(series, recorded);
            assert_eq!(recorded.values().sum::<u64>(), report.net.delivered_total);
        }
    }
}

#[test]
fn ring_overflow_truncates_but_stays_causally_sound() {
    // Regression: a ring far too small for the travel workflow must
    // overflow loudly — `dropped` counted in the recording AND surfaced
    // as the `obs.recorder.dropped_spans` metric — while the causal
    // audit still accepts the truncated DAG (dangling parents are
    // excused only because the recording admits to the loss).
    let workflow = travel();
    let mut config = ExecConfig::seeded(3);
    config.record = Some(RecordConfig::with_capacity(32));
    let report = workflow.run_with(config);
    assert!(report.all_satisfied(), "{report:?}");
    let rec = report.recording.as_ref().expect("recording on");
    assert!(rec.dropped > 0, "capacity 32 must overflow on travel");
    assert_eq!(rec.events.len(), 32, "ring keeps exactly its capacity");
    assert_eq!(
        report.metrics.counter("obs.recorder.dropped_spans", &[]),
        Some(rec.dropped),
        "dropped spans must reach the metrics snapshot"
    );
    assert_eq!(obs::causal_audit(rec), Vec::<String>::new());
}

#[test]
fn sampled_recording_keeps_safety_spans_exact() {
    // Deterministic sampling: non-safety spans are elided by the
    // seed-derived coin, safety-class spans survive untouched, the
    // elision is counted, and the thinned DAG still passes the causal
    // audit (span ids are allocated before the coin flip, so parent
    // edges stay stable whatever the rate).
    let workflow = travel();
    let full = workflow.run_with(recording_config(3));
    let frec = full.recording.as_ref().expect("recording on");
    let mut config = ExecConfig::seeded(3);
    config.record = Some(RecordConfig::default().sampled(4, 0xC0FFEE));
    let sampled = workflow.run_with(config);
    let srec = sampled.recording.as_ref().expect("recording on");
    assert!(srec.sampled_out > 0, "rate 1/4 must elide something on travel");
    assert_eq!(
        srec.events.len() as u64 + srec.sampled_out,
        frec.events.len() as u64,
        "every span is either kept or counted as sampled out"
    );
    let safety = |rec: &obs::Recording| rec.events.iter().filter(|e| e.kind.is_safety()).count();
    assert_eq!(safety(srec), safety(frec), "safety-class spans are never sampled");
    assert_eq!(sampled.metrics.counter("obs.recorder.sampled_out", &[]), Some(srec.sampled_out));
    assert_eq!(obs::causal_audit(srec), Vec::<String>::new());
}

#[test]
fn metrics_snapshot_subsumes_net_and_fault_stats() {
    let workflow = travel();
    // Recorder OFF: the metrics registry must still be populated, and
    // the fault-free path must report zeroed (not absent) fault stats.
    let report = workflow.run(5);
    assert!(report.recording.is_none());
    assert_eq!(report.fault_stats, Some(sim::FaultStats::default()));
    let m = &report.metrics;
    assert_eq!(m.counter("net.sent_total", &[]), Some(report.net.sent_total));
    assert_eq!(m.counter("faults.dropped", &[]), Some(0));
    assert_eq!(m.counter("run.steps", &[]), Some(report.steps));
    let commits: u64 = report
        .actor_stats
        .iter()
        .filter(|(sym, _)| workflow.spec.table.name(*sym).is_some_and(|n| n.ends_with(".commit")))
        .map(|(_, st)| st.granted)
        .sum();
    let metric_commits = m.counter("actor.granted", &[("event", "buy.commit")]).unwrap_or(0)
        + m.counter("actor.granted", &[("event", "book.commit")]).unwrap_or(0);
    assert_eq!(metric_commits, commits);

    // Recorder ON: the recording embeds the identical snapshot.
    let on = workflow.run_with(recording_config(5));
    let rec = on.recording.as_ref().expect("recording on");
    assert_eq!(rec.metrics, on.metrics);
    // JSON round trip of a real run (not just the generated ones).
    let back = obs::Recording::parse(&rec.to_json_string()).expect("parses");
    assert_eq!(&back, rec);
}

#[test]
fn every_parser_shares_one_nesting_cap() {
    // `obs` is dependency-free, so its JSON parser repeats the number.
    assert_eq!(obs::json::MAX_NESTING, event_algebra::MAX_NESTING);
}

#[test]
fn recording_tells_the_d_precedes_story() {
    // D<: e must precede f, and f is the one attempted from the start.
    // The decision log has to read attempt f → parked f → occurred e →
    // occurred f, on a non-decreasing clock, with every reported
    // occurrence present as an `occurred` span.
    let mut table = SymbolTable::new();
    let d = event_algebra::parse_expr("~e + ~f + e.f", &mut table).unwrap();
    let (e, f) = (table.event("e"), table.event("f"));
    let free = |site, lit| FreeEventSpec {
        site: SiteId(site),
        lit,
        attrs: EventAttrs::controllable(),
        attempt_after: Some(1),
    };
    let spec = WorkflowSpec {
        table,
        dependencies: vec![d],
        agents: vec![],
        free_events: vec![free(0, f), free(1, e)],
    };
    let report = constrained_events::run_workflow(&spec, recording_config(5));
    assert!(report.all_satisfied(), "{report:#?}");
    let rec = report.recording.as_ref().expect("recording on");
    assert_eq!(rec.dropped, 0);
    assert!(rec.events.windows(2).all(|w| w[0].at <= w[1].at), "timeline out of order");

    let olit = |l: Literal| ObsLit(l.index() as u32);
    let first = |what: &str, want: &dyn Fn(&SpanKind) -> bool| {
        rec.events
            .iter()
            .position(|ev| want(&ev.kind))
            .unwrap_or_else(|| panic!("no {what} span:\n{}", obs::stats_text(rec)))
    };
    let occurred = |l: Literal| {
        first("occurred", &|k| matches!(k, SpanKind::Occurred { lit, .. } if *lit == olit(l)))
    };
    let story = [
        first("attempt f", &|k| matches!(k, SpanKind::Attempt { lit } if *lit == olit(f))),
        first("parked f", &|k| matches!(k, SpanKind::Parked { lit } if *lit == olit(f))),
        occurred(e),
        occurred(f),
    ];
    assert!(story.windows(2).all(|w| w[0] < w[1]), "story out of order: {story:?}");
    for &(lit, at, seq) in &report.occurrences {
        let span = &rec.events[occurred(lit)];
        assert_eq!(span.at, at, "occurrence {lit}");
        assert!(matches!(span.kind, SpanKind::Occurred { seq: s, .. } if s == seq), "{lit}");
    }
    assert_eq!(rec.symbols, ["e", "f"], "the recording names the events");
    // e's guard is ¬f: f holds still for it, and the hold ends with e's
    // announcement, in whose delivery f occurs; no `release` is sent.
    // Holds and announcements are the network's spans for the messages
    // that carry them.
    for label in ["notyet_grant", "announce"] {
        let delivered =
            |k: &SpanKind| matches!(k, SpanKind::MsgDeliver { label: l, .. } if l == label);
        assert!(rec.events.iter().any(|ev| delivered(&ev.kind)), "no {label} was delivered");
    }
    let released =
        |k: &SpanKind| matches!(k, SpanKind::MsgSend { label, .. } if label == "release");
    assert!(!rec.events.iter().any(|ev| released(&ev.kind)), "a release was sent");
    let mut cause = rec.events[occurred(f)].parent;
    let delivery = loop {
        let span =
            rec.events.iter().find(|ev| Some(ev.id) == cause).expect("the cause is recorded");
        if matches!(span.kind, SpanKind::MsgDeliver { .. }) {
            break span;
        }
        cause = span.parent;
    };
    let e_node = rec.events[occurred(e)].node;
    assert!(
        matches!(&delivery.kind, SpanKind::MsgDeliver { from, label, .. }
            if label == "announce" && *from == e_node),
        "f occurs in the delivery of e's announcement, not in {:?}",
        delivery.kind
    );

    // Recording is opt-in: no recorder, no log.
    let quiet = constrained_events::run_workflow(&spec, ExecConfig::seeded(5));
    assert!(quiet.recording.is_none());
    assert_eq!(quiet.occurrences, report.occurrences, "recording does not move the run");
}
