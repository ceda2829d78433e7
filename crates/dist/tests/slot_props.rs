//! An instance is a state over a template — so the state a slot is in
//! after `prepare` must not depend on what ran there before. These tests
//! hold [`InstanceSlot`] to that: a reset slot renders (`{:?}`) exactly as
//! a freshly assembled one, field by field, and the instance that follows
//! each abnormal ending — budget exhausted with messages queued, a
//! crash–restart, a recorded run — equals its isolated `run_workflow`
//! baseline.

use dist::{
    build_workflow, run_tenant, Arrival, ExecConfig, InstanceId, InstanceSlot, NodeStore,
    ReliableConfig, TenantConfig, WorkflowSpec,
};
use sim::{FaultPlan, NodeId, Termination};
use testkit::conformance::audit_tenant_isolation;
use testkit::workload::{drive, generate, WorkloadConfig};

fn example(name: &str) -> WorkflowSpec {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    drive(&constrained_events::WorkflowBuilder::from_spec(&src).expect("spec parses").build().spec)
}

fn templates() -> Vec<(&'static str, WorkflowSpec)> {
    use constrained_events::models;
    vec![
        ("travel", example("travel")),
        ("pipeline10", example("pipeline10")),
        ("saga3", drive(&models::saga(3, 3, Some(1)).spec)),
        ("diamond", drive(&models::diamond(3).spec)),
        ("contingency", drive(&models::contingency(3, false).spec)),
    ]
}

/// Monitors armed, hardened transport: every kind of per-instance state
/// a slot carries is in play.
fn hardened(seed: u64) -> ExecConfig {
    let mut exec = ExecConfig::seeded(seed);
    exec.monitor = Some(monitor::MonitorConfig::default());
    exec.reliable = Some(ReliableConfig::default());
    exec
}

/// RESET ≡ FRESH: run one random arrival in a slot, prepare the slot for
/// a second, and compare it with a slot assembled for that second arrival
/// alone — every node (transport, role, stamps) and the monitor, by their
/// `Debug` rendering, so a field added later takes part without anyone
/// remembering to list it (the guard tables print opaquely: they are
/// caches). Lossy links, a crash (with and without a restart) and the
/// write-ahead log make the first instance leave as much behind as an
/// instance can. Then both slots run the second arrival and must report
/// the same.
#[test]
fn a_reset_slot_is_a_freshly_assembled_one() {
    for (name, spec) in templates() {
        testkit::check(&format!("a_reset_slot_is_a_freshly_assembled_one/{name}"), 6, |g| {
            let seed = g.range(0u64..1 << 20);
            let arrivals = generate(std::slice::from_ref(&spec), &WorkloadConfig::new(2, seed));
            let exec = hardened(seed);
            let built = build_workflow(&spec, exec.clone());
            // Half the cases never restart node 0: it ends the instance
            // down, its envelopes unacked and its retransmission timer
            // armed, and its peers give up on it.
            let restart = g.flip().then_some(200);
            let plan = || {
                let plan = FaultPlan::new(seed ^ 0x5107).drop_rate(0.15).duplicate_rate(0.15);
                Some(plan.crash(NodeId(0), 30, restart))
            };

            let mut reused = InstanceSlot::assemble(&spec, &built, &exec, Some(NodeStore::new()));
            reused.prepare(&arrivals[0], plan());
            let (first, _) = reused.execute();
            assert!(first.steps > 0, "the first instance ran");
            reused.prepare(&arrivals[1], plan());

            let mut fresh = InstanceSlot::assemble(&spec, &built, &exec, Some(NodeStore::new()));
            fresh.prepare(&arrivals[1], plan());

            assert_eq!(format!("{reused:#?}"), format!("{fresh:#?}"), "{name}, seed {seed}");
            let (reused, fresh) = (reused.execute().0, fresh.execute().0);
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{name}, seed {seed}");
        });
    }
}

/// The `Debug` rendering the test above compares really shows the state:
/// it moves when an instance runs, and it names per-instance fields of
/// the actors, the transports and the monitor.
#[test]
fn the_rendering_compared_is_the_state() {
    let spec = example("travel");
    let exec = hardened(3);
    let built = build_workflow(&spec, exec.clone());
    let arrival = Arrival::new(7, 0, 0, 11);
    let mut slot = InstanceSlot::assemble(&spec, &built, &exec, Some(NodeStore::new()));
    slot.prepare(&arrival, None);
    let before = format!("{slot:#?}");
    slot.execute();
    assert_ne!(format!("{slot:#?}"), before);
    let fields =
        ["facts_seen", "holds: ", "unacked", "armed", "log: [", "dep_states", "open_rounds"];
    for field in fields {
        assert!(before.contains(field), "no `{field}` in the rendering");
    }
    assert!(format!("{slot:?}").contains("InstanceId(7)"), "the store stamp is part of it");
}

/// The arrivals of one template on one shard: one slot serves them all,
/// in order.
fn one_slot_fleet(template: WorkflowSpec, n: u64, seed: u64) -> (Vec<WorkflowSpec>, Vec<Arrival>) {
    let specs = vec![template];
    let arrivals = generate(&specs, &WorkloadConfig::new(n, seed));
    (specs, arrivals)
}

/// `a` joins three triggerable events on sites of their own. Whether
/// `a` asks a `bi` for a promise depends on whether the instance's think
/// times let `bi` occur first, so instances differ in how many messages
/// they send. (The example specs do not: a fault-free instance of them
/// sends its attempts and announcements and nothing that a race decides,
/// the same count whatever the latencies.)
fn join_on_triggerables() -> WorkflowSpec {
    let src = "workflow join {
        event a @ site 0;
        event b1 { triggerable } @ site 1;
        event b2 { triggerable } @ site 2;
        event b3 { triggerable } @ site 3;
        dep d1: ~a + b1;
        dep d2: ~a + b2;
        dep d3: ~a + b3;
    }";
    drive(&constrained_events::WorkflowBuilder::from_spec(src).expect("spec parses").build().spec)
}

/// AFTER A STARVED INSTANCE: with a budget between the instances' needs,
/// an instance that quiesces runs in the slot right after one that was
/// cut off with messages still queued — and every instance, starved or
/// not, is its isolated baseline. Once hardened over lossy links
/// (envelopes and retry timers left queued), once on the bare network
/// (raw protocol messages left queued): nothing but the reset stands
/// between those and the next instance.
#[test]
fn a_slot_is_clean_after_a_budget_exhausted_instance() {
    let mut lossy = TenantConfig::new(hardened(4));
    lossy.plan = Some(FaultPlan::new(0xD20C).drop_rate(0.2));
    let bare = TenantConfig::new(ExecConfig::seeded(4));
    let (specs, arrivals) = one_slot_fleet(join_on_triggerables(), 10, 0xB0D6);
    for (name, mut config) in [("hardened", lossy), ("bare", bare)] {
        let unbounded = run_tenant(&specs, &arrivals, &config);
        let mut steps: Vec<u64> = unbounded.instances.iter().map(|o| o.report.steps).collect();
        steps.sort_unstable();
        config.exec.max_steps = steps[steps.len() / 2];

        let (failures, fleet) = audit_tenant_isolation(&specs, &arrivals, &config);
        assert_eq!(failures, Vec::<String>::new(), "{name}");
        let exhausted = |id: InstanceId| {
            let outcome = fleet.instances.iter().find(|o| o.instance == id).expect("reported");
            outcome.report.termination == Termination::BudgetExhausted
        };
        assert!(
            arrivals.windows(2).any(|w| exhausted(w[0].instance) && !exhausted(w[1].instance)),
            "{name}: no quiescent instance directly follows a starved one: {:?}",
            arrivals.iter().map(|a| exhausted(a.instance)).collect::<Vec<_>>()
        );
    }
}

/// AFTER A CRASH: every instance loses node 0 mid-run and replays its
/// write-ahead-log slice; the slot's next instance starts from none of
/// it.
#[test]
fn a_slot_is_clean_after_a_crash_restart() {
    let (specs, arrivals) = one_slot_fleet(example("pipeline10"), 6, 0xC4A5);
    let mut config = TenantConfig::new(hardened(5));
    config.plan = Some(FaultPlan::new(0xD20C).drop_rate(0.1).crash(NodeId(0), 40, Some(300)));
    let (failures, fleet) = audit_tenant_isolation(&specs, &arrivals, &config);
    assert_eq!(failures, Vec::<String>::new());
    let restarts = |o: &dist::InstanceOutcome| o.report.fault_stats.map_or(0, |f| f.restarts);
    assert!(fleet.instances.iter().all(|o| restarts(o) == 1), "every instance restarted once");
    assert!(fleet.wal.expect("a plan materializes the log").total() > 0);
}

/// RECORDED: each instance gets a recorder of its own; the recording of
/// the slot's n-th instance is its solo run's, span for span.
#[test]
fn a_slot_records_each_instance_apart() {
    let (specs, arrivals) = one_slot_fleet(example("pipeline10"), 4, 0x4EC0);
    let mut config = TenantConfig::new(hardened(7));
    config.exec.record = Some(obs::RecordConfig::default());
    let (failures, fleet) = audit_tenant_isolation(&specs, &arrivals, &config);
    assert_eq!(failures, Vec::<String>::new());
    for o in &fleet.instances {
        let rec = o.report.recording.as_ref().expect("every instance is recorded");
        assert!(!rec.events.is_empty());
        assert_eq!(obs::causal_audit(rec), Vec::<String>::new(), "{}", o.instance);
    }
}
