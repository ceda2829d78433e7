//! Flight recordings may not move silently: each run below records
//! exactly the spans these digests were computed from — ids, parents,
//! times, nodes, sites and payloads, as `Recording::to_json_string`
//! writes them. The determinism audit only compares a run with itself and
//! `causal_audit` only checks the DAG's shape; these pins say whether a
//! change to how the runtime records moved a single span.

use constrained_events::models::gate_sagas;
use constrained_events::{
    run_workflow, run_workflow_with_faults, ExecConfig, ReliableConfig, WorkflowBuilder,
    WorkflowSpec,
};
use dist::{run_tenant, TenantConfig};
use obs::{RecordConfig, Recording, SpanKind};
use sim::{FaultPlan, NodeId};
use testkit::conformance::standard_plans;
use testkit::workload::{drive, generate, WorkloadConfig};

/// FNV-1a over the recording's JSON text.
fn digest(rec: &Recording) -> u64 {
    rec.to_json_string()
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

fn travel() -> WorkflowSpec {
    let src = std::fs::read_to_string("examples/specs/travel.wf").expect("travel.wf");
    WorkflowBuilder::from_spec(&src).expect("travel.wf parses").build().spec
}

fn recorded(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.record = Some(RecordConfig::default());
    config
}

fn hardened(seed: u64) -> ExecConfig {
    let mut config = recorded(seed);
    config.reliable = Some(ReliableConfig::default());
    config.max_steps = 2_000_000;
    config
}

/// A standard plan by name, seeded as `wftrace record --plan` seeds it.
fn plan(name: &str, seed: u64) -> FaultPlan {
    standard_plans(seed).into_iter().find(|(n, _)| *n == name).expect("a standard plan").1
}

/// `travel.wf` at seed 3: fault-free, then hardened under `crash` (WAL
/// appends, the replay and the restart's children) and under `chaos`
/// (drops, duplicates, jitter and a partition).
///
/// History: the `chaos` leg was re-pinned once, when the fault spans
/// `fault_drop`, `fault_dup` and `partition_drop` began to carry the
/// label of the message they hit; it is the only leg with such spans,
/// and the other four pins held.
#[test]
fn travel_seed3_recordings_are_pinned() {
    let spec = travel();
    let runs = [
        ("fault-free", run_workflow(&spec, recorded(3)), 0x3EC9_AF53_969D_8E4D_u64),
        (
            "crash",
            run_workflow_with_faults(&spec, hardened(3), plan("crash", 3)),
            0x1884_0213_86AA_CAE1,
        ),
        (
            "chaos",
            run_workflow_with_faults(&spec, hardened(3), plan("chaos", 3)),
            0x1D23_6E07_18F2_3BBC,
        ),
    ];
    let mut moved = Vec::new();
    for (name, report, pin) in runs {
        assert!(report.all_satisfied(), "{name}");
        let rec = report.recording.as_ref().expect("recording on");
        assert_eq!(rec.dropped, 0, "{name}");
        if digest(rec) != pin {
            moved.push(format!("{name}: {:#018X}", digest(rec)));
        }
    }
    assert!(moved.is_empty(), "recordings moved: {moved:?}");
}

/// A recorded two-shard `run_tenant` fleet of travel and pipeline10
/// instances, hardened under a crash of node 0: every instance's
/// recording, in report order, with its instance id.
#[test]
fn recorded_fleet_recordings_are_pinned() {
    let text = |name: &str| {
        let src = std::fs::read_to_string(format!("examples/specs/{name}.wf")).expect(name);
        WorkflowBuilder::from_spec(&src).expect(name).build().spec
    };
    let specs = vec![drive(&text("travel")), drive(&text("pipeline10"))];
    let arrivals = generate(&specs, &WorkloadConfig::new(8, 0x7E_4A47));
    let mut config = TenantConfig::new(hardened(5));
    config.plan = Some(FaultPlan::new(0xD20C).crash(NodeId(0), 40, Some(300)));
    config.shards = 2;
    let fleet = run_tenant(&specs, &arrivals, &config);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut replays = 0;
    for o in &fleet.instances {
        let rec = o.report.recording.as_ref().expect("every instance is recorded");
        assert_eq!(rec.dropped, 0, "{}", o.instance);
        replays +=
            rec.events.iter().filter(|e| matches!(e.kind, SpanKind::WalReplay { .. })).count();
        for x in [o.instance.0, digest(rec)] {
            h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
        }
    }
    assert_eq!((fleet.instances.len(), replays), (8, 8), "instances, WAL replays");
    assert_eq!(h, 0x2C3F_2811_82D2_D882, "the fleet's recordings moved ({h:#018X})");
}

/// One gate saga, `saga3-abort1`, hardened at seed 1.
#[test]
fn gate_saga_recording_is_pinned() {
    let [.., (name, workflow)] = gate_sagas();
    assert_eq!(name, "saga3-abort1");
    let report = run_workflow(&workflow.spec, hardened(1));
    assert!(report.all_satisfied());
    let rec = report.recording.as_ref().expect("recording on");
    assert_eq!(
        digest(rec),
        0x76E3_120F_36B0_E1A0,
        "the saga's recording moved ({:#018X})",
        digest(rec)
    );
}
