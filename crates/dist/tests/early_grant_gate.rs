//! The differential gate for `Routing::early_grant`: an actor asks a
//! literal for a promise only if its bit says the literal may grant one
//! before it occurs, so a clear bit that should be set would lose a
//! grant. Here every request is sent — the actors read a routing whose
//! bits are all set — and no literal whose template bit is clear may be
//! granted: on the benchmark templates, both example specs and the four
//! gate sagas, and on random workflows of up to four symbols with
//! triggerable events and delayed attempts; fault-free and, hardened,
//! under the standard fault plans.

use constrained_events::{models, WorkflowBuilder};
use dist::{
    build_workflow, Arrival, ExecConfig, FreeEventSpec, InstanceSlot, Node, NodeStore,
    ReliableConfig, Routing, WorkflowSpec,
};
use event_algebra::{Literal, SymbolId};
use obs::{RecordConfig, SpanKind};
use sim::{FaultPlan, SiteId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use testkit::conformance::standard_plans;
use testkit::workload::drive;
use testkit::{check, Exprs};

/// Run `spec` with every promise request sent and return the literals
/// granted, as its recording shows them, beside the template's routing.
fn grants_when_every_request_is_sent(
    spec: &WorkflowSpec,
    config: &ExecConfig,
    plan: Option<FaultPlan>,
) -> (Vec<Literal>, Arc<Routing>) {
    let mut config = config.clone();
    config.record = Some(RecordConfig::default());
    let mut built = build_workflow(spec, config.clone());
    let template = Arc::clone(&built.routing);
    let mut every = Routing::clone(&template);
    every.early_grant.fill(true);
    let every = Arc::new(every);
    for (_, node) in &mut built.nodes {
        if let Node::Actor(actor) = node {
            actor.routing = Arc::clone(&every);
        }
    }
    let store = plan.is_some().then(NodeStore::new);
    let mut slot = InstanceSlot::assemble(spec, &built, &config, store);
    slot.prepare(&Arrival::new(0, 0, 0, config.sim.seed), plan);
    let recording = slot.execute().0.recording.expect("recorded");
    assert_eq!(recording.dropped, 0, "the recording is whole");
    let granted = (recording.events.iter())
        .filter_map(|e| match e.kind {
            SpanKind::PromiseGrant { lit, .. } => Some(Literal::from_index(lit.0 as usize)),
            _ => None,
        })
        .collect();
    (granted, template)
}

/// Every grant of `spec`'s run under `config` and `plan`, each checked
/// against its bit; returns how many there were.
fn gate(name: &str, spec: &WorkflowSpec, config: &ExecConfig, plan: Option<FaultPlan>) -> usize {
    let (granted, template) = grants_when_every_request_is_sent(spec, config, plan);
    for &lit in &granted {
        assert!(
            template.may_grant_early(lit),
            "{name}: {} was promised before it occurred, but its bit is clear",
            spec.table.literal_name(lit)
        );
    }
    granted.len()
}

/// The seed-th run of `spec` fault-free, then hardened under each
/// standard plan; returns the grants seen.
fn gate_all_plans(name: &str, spec: &WorkflowSpec, seed: u64) -> usize {
    let mut config = ExecConfig::seeded(seed);
    config.max_steps = 200_000;
    let mut grants = gate(&format!("{name}, seed {seed}"), spec, &config, None);
    config.reliable = Some(ReliableConfig::default());
    for (plan_name, plan) in standard_plans(seed ^ 0x5EED) {
        grants += gate(&format!("{name}/{plan_name}, seed {seed}"), spec, &config, Some(plan));
    }
    grants
}

fn spec_text(path: &str) -> WorkflowSpec {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(&path).build().spec
}

#[test]
fn no_clear_bit_is_granted_on_the_templates() {
    let mut templates = vec![
        ("diamond(3)", models::diamond(3).spec),
        ("contingency(3, false)", models::contingency(3, false).spec),
        ("contingency(3, true)", models::contingency(3, true).spec),
    ];
    templates.extend(models::gate_sagas().map(|(name, w)| (name, w.spec)));
    for path in [
        "benchmark/specs/travel.wf",
        "benchmark/specs/pipeline10.wf",
        "benchmark/specs/pipeline12.wf",
        "examples/specs/travel.wf",
        "examples/specs/pipeline10.wf",
    ] {
        templates.push((path, spec_text(path)));
    }
    let mut grants = 0;
    for (name, spec) in &templates {
        let spec = drive(spec);
        for seed in 1..=3 {
            grants += gate_all_plans(name, &spec, seed);
        }
    }
    assert!(grants > 0, "some promise was granted");
}

/// Random workflows of two to four symbols, each a free event on a site
/// of its own: a third triggerable, attempted late or never, the rest
/// attempted at start, later, or never.
#[test]
fn no_clear_bit_is_granted_on_random_workflows() {
    let grants = AtomicUsize::new(0);
    check("no_clear_bit_is_granted_on_random_workflows", 200, |g| {
        let n = g.range(2..=4u32);
        let syms: Vec<SymbolId> = (0..n).map(SymbolId).collect();
        let deps = g.range(1..=3usize);
        let dependencies = g.workflow(&syms, deps, 3);
        let mut table = event_algebra::SymbolTable::new();
        for i in 0..n {
            table.intern(&format!("e{i}"));
        }
        let free_events = (syms.iter().zip(0..))
            .map(|(&s, site)| {
                // A triggerable event waits for its trigger or comes late.
                let (attrs, attempt_after) = match g.range(0..6u32) {
                    0 => (agent::EventAttrs::triggerable(), None),
                    1 => (agent::EventAttrs::triggerable(), Some(g.range(20..60u64))),
                    2 => (agent::EventAttrs::controllable(), None),
                    3 => (agent::EventAttrs::controllable(), Some(1)),
                    _ => (agent::EventAttrs::controllable(), Some(g.range(2..60u64))),
                };
                FreeEventSpec { site: SiteId(site), lit: Literal::pos(s), attrs, attempt_after }
            })
            .collect();
        let spec = WorkflowSpec { table, dependencies, agents: vec![], free_events };
        grants.fetch_add(gate_all_plans("random", &spec, g.range(1..1000u64)), Ordering::Relaxed);
    });
    assert!(grants.into_inner() > 0, "some promise was granted");
}
