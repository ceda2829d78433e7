//! `build_workflow` subscribes an actor to the symbols of the
//! dependencies that mention it and never reads a guard for it: under
//! `GuardScope::Mentioning`, `G(D, e)` mentions only `Γ_D`, so a guard's
//! symbols are among those already. Pinned here on every model, the
//! benchmark's and the examples' spec texts and random workflows, by
//! rebuilding the subscriber lists *with* the guard symbols and
//! comparing.
//!
//! The actor relies on it: a promise request or not-yet query about a
//! decided symbol is answered by that symbol's announcement alone, which
//! reaches every subscriber once. So every symbol a guard reads
//! subscribes the guard's actor, a fault-free run sends each
//! occurrence's announcement exactly once to each subscriber, and no
//! actor sends a denial once it has occurred — fault-free or hardened
//! under the standard fault plans.

use constrained_events::{models, Workflow, WorkflowBuilder};
use dist::{
    build_workflow, run_workflow, run_workflow_with_faults, ExecConfig, ReliableConfig,
    WorkflowSpec,
};
use event_algebra::{Literal, SymbolId};
use obs::{RecordConfig, Recording, SpanKind};
use sim::NodeId;
use std::collections::BTreeSet;
use testkit::conformance::standard_plans;
use testkit::workload::drive;
use testkit::{check, free_event_spec, Exprs};

fn assert_guards_add_no_interest(name: &str, spec: &WorkflowSpec) {
    let built = build_workflow(spec, ExecConfig::seeded(0));
    let compiled = &built.guards;
    let interest_of = |t: SymbolId| -> (BTreeSet<SymbolId>, BTreeSet<SymbolId>) {
        let from_dependencies: BTreeSet<SymbolId> = (compiled.dependency_symbols.iter())
            .filter(|syms| syms.contains(&t))
            .flatten()
            .copied()
            .collect();
        let from_guards = [Literal::pos(t), Literal::neg(t)]
            .into_iter()
            .flat_map(|lit| compiled.guard(lit).symbols())
            .collect();
        (from_dependencies, from_guards)
    };
    for &t in &built.symbols {
        let (from_dependencies, from_guards) = interest_of(t);
        assert!(from_guards.is_subset(&from_dependencies), "{name}: guards of {t} read more");
        let reader = built.routing.actor_of[t];
        for s in from_guards.into_iter().filter(|&s| s != t) {
            assert!(
                built.routing.subscribers_of[s].contains(&reader),
                "{name}: the guards of {t} read {s}, whose subscribers miss their actor"
            );
        }
    }
    for &s in &built.symbols {
        let with_guards: Vec<NodeId> = (built.symbols.iter())
            .filter(|&&t| t != s)
            .filter(|&&t| {
                let (from_dependencies, from_guards) = interest_of(t);
                from_dependencies.contains(&s) || from_guards.contains(&s)
            })
            .map(|t| built.routing.actor_of[t])
            .collect();
        assert_eq!(built.routing.subscribers_of[s], with_guards, "{name}: subscribers of {s}");
    }
}

#[test]
fn guard_symbols_add_nothing_to_the_interest_map() {
    let models = [
        ("saga(4, 3, None)", models::saga(4, 3, None)),
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1))),
        ("contingency(3, false)", models::contingency(3, false)),
        ("contingency(3, true)", models::contingency(3, true)),
        ("diamond(3)", models::diamond(3)),
    ];
    for (name, workflow) in &models {
        assert_guards_add_no_interest(name, &workflow.spec);
    }
    for path in [
        "benchmark/specs/travel.wf",
        "benchmark/specs/pipeline10.wf",
        "benchmark/specs/pipeline12.wf",
        "examples/specs/travel.wf",
        "examples/specs/pipeline10.wf",
    ] {
        assert_guards_add_no_interest(path, &spec_text(path).spec);
    }
    check("guard_symbols_add_nothing_to_the_interest_map", 300, |g| {
        let syms: Vec<SymbolId> = (0..5).map(SymbolId).collect();
        let spec = free_event_spec(g.workflow(&syms, 3, 3), &syms);
        assert_guards_add_no_interest("random", &spec);
    });
}

fn spec_text(path: &str) -> Workflow {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(&path).build()
}

/// The benchmark's six templates and the example specs.
fn templates() -> Vec<(&'static str, WorkflowSpec)> {
    let mut out = vec![
        ("diamond(3)", models::diamond(3).spec),
        ("contingency(3, false)", models::contingency(3, false).spec),
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1)).spec),
        ("saga(4, 3, None)", models::saga(4, 3, None).spec),
    ];
    for path in [
        "benchmark/specs/travel.wf",
        "benchmark/specs/pipeline10.wf",
        "examples/specs/travel.wf",
        "examples/specs/pipeline10.wf",
    ] {
        out.push((path, spec_text(path).spec));
    }
    out
}

/// Each template driven fault-free on seeds 1–3, recorded: the
/// announcements sent are, sender and receiver, one per subscriber of
/// each occurred symbol — no requester is sent a second copy.
#[test]
fn a_fault_free_run_announces_each_occurrence_once_per_subscriber() {
    for (name, spec) in templates() {
        let spec = drive(&spec);
        let routing = build_workflow(&spec, ExecConfig::seeded(0)).routing;
        for seed in 1..=3 {
            let mut config = ExecConfig::seeded(seed);
            config.record = Some(RecordConfig::default());
            let report = run_workflow(&spec, config);
            let at = format!("{name}, seed {seed}");
            assert!(report.all_satisfied(), "{at}");
            let recording = report.recording.as_ref().expect("recorded");
            assert_eq!(recording.dropped, 0, "{at}: the recording is whole");
            let mut sent: Vec<(u32, u32)> = (recording.events.iter())
                .filter_map(|e| match &e.kind {
                    SpanKind::MsgSend { from, to, label } if &**label == "announce" => {
                        Some((*from, *to))
                    }
                    _ => None,
                })
                .collect();
            sent.sort_unstable();
            let mut subscribed: Vec<(u32, u32)> = (report.occurrences.iter())
                .flat_map(|&(lit, _, _)| {
                    let from = routing.actor_of[lit.symbol()].0;
                    routing.subscribers_of[lit.symbol()].iter().map(move |to| (from, to.0))
                })
                .collect();
            subscribed.sort_unstable();
            assert!(!sent.is_empty(), "{at}: something was announced");
            assert_eq!(sent, subscribed, "{at}");
        }
    }
}

/// Each template driven fault-free on seeds 1–3, recorded: every promise
/// request goes to a literal that may grant early (the others' answer is
/// the announcement), no actor sends a `Release` once it has occurred
/// (its announcement ends its holds) nor a denial (its announcement
/// answers every request about it), and every hold keeper subscribes
/// to its holder's symbol (so that announcement reaches it).
#[test]
fn a_fault_free_run_asks_nothing_an_announcement_answers() {
    let mut held = false;
    for (name, spec) in templates() {
        let spec = drive(&spec);
        let routing = build_workflow(&spec, ExecConfig::seeded(0)).routing;
        let symbol_at = |node: u32| {
            let mut actors = routing.actor_of.iter();
            actors.find(|(_, n)| n.0 == node).map(|(s, _)| s).expect("an actor node")
        };
        let (mut requests, mut holds) = (0, 0);
        for seed in 1..=3 {
            let mut config = ExecConfig::seeded(seed);
            config.record = Some(RecordConfig::default());
            let report = run_workflow(&spec, config);
            let at = format!("{name}, seed {seed}");
            assert!(report.all_satisfied(), "{at}");
            let recording = report.recording.as_ref().expect("recorded");
            assert_eq!(recording.dropped, 0, "{at}: the recording is whole");
            let mut occurred: BTreeSet<u32> = BTreeSet::new();
            for e in &recording.events {
                match &e.kind {
                    SpanKind::Occurred { .. } => {
                        occurred.insert(e.node);
                    }
                    SpanKind::PromiseOpen { lit, .. } => {
                        let lit = Literal::from_index(lit.0 as usize);
                        assert!(routing.may_grant_early(lit), "{at}: asked {lit:?} for a promise");
                        requests += 1;
                    }
                    SpanKind::MsgSend { from, label, .. }
                        if matches!(&**label, "release" | "promise_deny" | "notyet_deny") =>
                    {
                        assert!(
                            !occurred.contains(from),
                            "{at}: node {from} sent {label} after it occurred"
                        );
                    }
                    SpanKind::MsgSend { from, to, label } if &**label == "notyet_grant" => {
                        let holder = symbol_at(*to);
                        assert!(
                            routing.subscribers_of[holder].contains(&NodeId(*from)),
                            "{at}: keeper {from} does not subscribe to its holder {holder:?}"
                        );
                        holds += 1;
                    }
                    _ => {}
                }
            }
        }
        println!("{name}: {requests} promise requests, {holds} holds granted over seeds 1-3");
        held |= holds > 0;
    }
    assert!(held, "some template holds an event still");
}

/// The `promise_deny` and `notyet_deny` messages in `recording` that a
/// node sent after its own occurrence, as `(node, label)`. A copy the
/// transport's retransmission timer resends is not counted: it repeats
/// what the actor sent earlier.
fn denials_after_occurrence(recording: &Recording) -> Vec<(u32, String)> {
    let (mut occurred, mut timer_deliveries) = (BTreeSet::new(), BTreeSet::new());
    let mut late = Vec::new();
    for e in &recording.events {
        match &e.kind {
            SpanKind::Occurred { .. } => {
                occurred.insert(e.node);
            }
            SpanKind::MsgDeliver { label, .. } if &**label == "retry_timer" => {
                timer_deliveries.insert(e.id);
            }
            SpanKind::MsgSend { from, label, .. }
                if matches!(&**label, "promise_deny" | "notyet_deny")
                    && occurred.contains(from)
                    && !e.parent.is_some_and(|p| timer_deliveries.contains(&p)) =>
            {
                late.push((*from, label.to_string()));
            }
            _ => {}
        }
    }
    late
}

/// Each template hardened under every standard fault plan on seeds
/// 1–10, recorded: no actor sends a denial once it has occurred, through
/// losses, duplicates, reordering, partitions and a crash (the requester
/// waits for the announcement, which the transport delivers).
#[test]
fn a_hardened_run_sends_no_denial_after_an_occurrence() {
    let mut runs = 0;
    for (name, spec) in templates() {
        let spec = drive(&spec);
        for seed in 1..=10 {
            let mut config = ExecConfig::seeded(seed);
            config.max_steps = 200_000;
            config.reliable = Some(ReliableConfig::default());
            config.record = Some(RecordConfig::default());
            for (plan_name, plan) in standard_plans(seed ^ 0x5EED) {
                let report = run_workflow_with_faults(&spec, config.clone(), plan);
                let at = format!("{name}/{plan_name}, seed {seed}");
                let recording = report.recording.as_ref().expect("recorded");
                assert_eq!(recording.dropped, 0, "{at}: the recording is whole");
                assert_eq!(denials_after_occurrence(recording), [], "{at}");
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 8 * 10 * 7);
}
