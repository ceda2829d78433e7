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
//! reaches once every subscriber the announcer has not heard decided (a
//! decided subscriber waits on nothing). So every symbol a guard reads
//! subscribes the guard's actor, a fault-free run sends each
//! occurrence's announcement exactly once to each of those subscribers
//! and to no other, a hardened run sends and delivers it to no other,
//! and no actor sends a denial once it has occurred — fault-free or
//! hardened under the standard fault plans.

use constrained_events::{models, Workflow, WorkflowBuilder};
use dist::{
    build_workflow, run_workflow, run_workflow_with_faults, ExecConfig, ReliableConfig, Routing,
    WorkflowSpec,
};
use event_algebra::{Literal, SymbolId};
use obs::{ObsLit, RecordConfig, Recording, SpanKind};
use sim::NodeId;
use std::collections::{BTreeMap, BTreeSet};
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
                built.routing.subscribes(s, reader),
                "{name}: the guards of {t} read {s}, whose subscribers miss their actor"
            );
        }
    }
    for &s in &built.symbols {
        let with_guards: Vec<(NodeId, SymbolId)> = (built.symbols.iter())
            .filter(|&&t| t != s)
            .filter(|&&t| {
                let (from_dependencies, from_guards) = interest_of(t);
                from_dependencies.contains(&s) || from_guards.contains(&s)
            })
            .map(|&t| (built.routing.actor_of[t], t))
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

fn lit(o: ObsLit) -> Literal {
    Literal::from_index(o.0 as usize)
}

/// The announcements the rule sends in `recording`, as `(sender,
/// receiver)`, sorted: each occurred symbol's subscribers, less those its
/// actor had heard decided (applied a fact of) when it occurred.
fn announcements_owed(recording: &Recording, routing: &Routing) -> Vec<(u32, u32)> {
    let mut heard: BTreeMap<u32, BTreeSet<SymbolId>> = BTreeMap::new();
    let mut owed = Vec::new();
    for e in &recording.events {
        let heard = heard.entry(e.node).or_default();
        match &e.kind {
            SpanKind::FactApplied { lit: l, .. } => {
                heard.insert(lit(*l).symbol());
            }
            SpanKind::Occurred { lit: l, .. } => {
                let subscribers = routing.subscribers_of[lit(*l).symbol()].iter();
                let undecided = subscribers.filter(|(_, s)| !heard.contains(s));
                owed.extend(undecided.map(|&(to, _)| (e.node, to.0)));
            }
            _ => {}
        }
    }
    owed.sort_unstable();
    owed
}

/// Where the announcements in `recording` went.
#[derive(Default)]
struct Announced {
    /// `(sender, receiver)` of each announce the actors sent, neither a
    /// transport retransmission nor a re-announcement after a restart,
    /// whether the network carried it or a fault dropped it, sorted.
    first: Vec<(u32, u32)>,
    /// The same for each re-announcement after a restart.
    resent: Vec<(u32, u32)>,
    /// Of `first`, the sends a fault dropped.
    dropped: usize,
    /// Transport retransmissions of an announce.
    retransmitted: usize,
    /// `(announcer, receiver)` of each announced fact applied, sorted.
    applied: Vec<(u32, u32)>,
}

fn announced(recording: &Recording) -> Announced {
    let (mut timers, mut restarts) = (BTreeSet::new(), BTreeSet::new());
    let mut owner: BTreeMap<SymbolId, u32> = BTreeMap::new();
    // A link's duplicated send is two `MsgSend`s in a row after its
    // `FaultDuplicate`: the link's state counts the copies still to come.
    let mut copies: BTreeMap<(u32, u32), u8> = BTreeMap::new();
    let mut out = Announced::default();
    for e in &recording.events {
        match &e.kind {
            SpanKind::MsgDeliver { label, .. } if &**label == "retry_timer" => {
                timers.insert(e.id);
            }
            SpanKind::Restart { .. } => {
                restarts.insert(e.id);
            }
            SpanKind::Occurred { lit: l, .. } => {
                owner.insert(lit(*l).symbol(), e.node);
            }
            SpanKind::FaultDuplicate { from, to, .. } => {
                copies.insert((*from, *to), 2);
            }
            SpanKind::MsgSend { from, to, label } => {
                let copy = match copies.get_mut(&(*from, *to)) {
                    Some(left) => {
                        *left -= 1;
                        *left == 0
                    }
                    None => false,
                };
                if copy {
                    copies.remove(&(*from, *to));
                }
                if &**label != "announce" || copy {
                    continue;
                }
                match e.parent {
                    Some(p) if timers.contains(&p) => out.retransmitted += 1,
                    Some(p) if restarts.contains(&p) => out.resent.push((*from, *to)),
                    _ => out.first.push((*from, *to)),
                }
            }
            // A dropped send leaves no `MsgSend`; its fault span names it.
            SpanKind::FaultDrop { from, to, label }
            | SpanKind::PartitionDrop { from, to, label }
                if &**label == "announce" =>
            {
                match e.parent {
                    Some(p) if timers.contains(&p) || restarts.contains(&p) => {}
                    _ => {
                        out.first.push((*from, *to));
                        out.dropped += 1;
                    }
                }
            }
            SpanKind::FactApplied { lit: l, .. } => match owner.get(&lit(*l).symbol()) {
                Some(&from) if from != e.node => out.applied.push((from, e.node)),
                _ => {}
            },
            _ => {}
        }
    }
    for pairs in [&mut out.first, &mut out.resent, &mut out.applied] {
        pairs.sort_unstable();
    }
    out
}

/// Each template driven fault-free on seeds 1–3, recorded: the
/// announcements sent are, sender and receiver, one per subscriber of
/// each occurred symbol that its actor had not heard decided when it
/// occurred — no requester is sent a second copy, and no decided
/// subscriber the announcer knows of is sent one at all.
#[test]
fn a_fault_free_run_announces_each_occurrence_once_per_undecided_subscriber() {
    let (mut sent, mut subscribed) = (0, 0);
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
            let announced = announced(recording);
            assert!(!announced.first.is_empty(), "{at}: something was announced");
            assert_eq!((announced.resent.len(), announced.retransmitted), (0, 0), "{at}");
            assert_eq!(announced.first, announcements_owed(recording, &routing), "{at}");
            assert_eq!(announced.applied, announced.first, "{at}: each one applied");
            sent += announced.first.len();
            subscribed += (report.occurrences.iter())
                .map(|&(lit, _, _)| routing.subscribers_of[lit.symbol()].len())
                .sum::<usize>();
        }
    }
    println!("{sent} announcements sent to {subscribed} subscribers over seeds 1-3");
    assert!(sent < subscribed, "some subscriber was heard decided");
}

/// The hardened twin: each template under every standard fault plan on
/// seeds 1–10, recorded. An actor's first sends of an announcement (not
/// the transport's retransmissions) are exactly one to each subscriber
/// it had not heard decided when it occurred — a send a fault dropped is
/// counted by the label on its drop span — a re-announcement after a
/// restart goes to a subset of them, and no other actor ever applies its
/// fact.
#[test]
fn a_hardened_run_announces_only_to_undecided_subscribers() {
    let (mut runs, mut first, mut dropped, mut retransmitted) = (0, 0, 0, 0);
    for (name, spec) in templates() {
        let spec = drive(&spec);
        let routing = build_workflow(&spec, ExecConfig::seeded(0)).routing;
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
                let owed_here = announcements_owed(recording, &routing);
                let announced = announced(recording);
                let within = |pairs: &[(u32, u32)]| {
                    pairs.iter().all(|pair| owed_here.binary_search(pair).is_ok())
                };
                assert_eq!(announced.first, owed_here, "{at}: first sends");
                assert!(within(&announced.resent), "{at}: re-announced {:?}", announced.resent);
                assert!(within(&announced.applied), "{at}: applied {:?}", announced.applied);
                first += announced.first.len();
                dropped += announced.dropped;
                retransmitted += announced.retransmitted;
                runs += 1;
            }
        }
    }
    println!(
        "{first} first announce sends, each owed ({dropped} dropped by a fault), \
         {retransmitted} retransmissions, {runs} runs"
    );
    assert_eq!(runs, 8 * 10 * 7);
    assert!(dropped > 0, "the plans dropped some first send");
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
                            routing.subscribes(holder, NodeId(*from)),
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

/// Fault-free messages per event (every message the network carried
/// over every occurrence) for each template on seeds 1–3, plain and on
/// the hardened transport: a report, not a gate. `scripts/check.sh`
/// prints its `msgs/event` lines from a release run.
#[test]
fn messages_per_event_by_template() {
    for (name, spec) in templates() {
        let spec = drive(&spec);
        let per_event = [None, Some(ReliableConfig::default())].map(|reliable| {
            let (mut msgs, mut events) = (0, 0);
            for seed in 1..=3 {
                let mut config = ExecConfig::seeded(seed);
                config.reliable = reliable;
                let report = run_workflow(&spec, config);
                assert!(report.all_satisfied(), "{name}, seed {seed}");
                msgs += report.net.sent_total;
                events += report.occurrences.len() as u64;
            }
            msgs as f64 / events as f64
        });
        println!(
            "msgs/event {name:<30} plain {:>6.3}  hardened {:>6.3}",
            per_event[0], per_event[1]
        );
    }
}
