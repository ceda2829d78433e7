//! Acceptance: every example spec, run under the acceptance fault plan
//! (20% drop + 20% duplication + a partition that heals), reaches
//! `all_satisfied()` with zero false guard firings across 50 seeds, and
//! identical scenarios produce identical flight recordings.

use constrained_events::{
    run_workflow, run_workflow_with_faults, DepRuntime, ExecConfig, FaultPlan, ReliableConfig,
    RunReport, WorkflowBuilder,
};
use sim::{LatencyModel, SiteId};
use testkit::conformance::{check_determinism, check_run, standard_plans};

const SEEDS: u64 = 50;

fn acceptance_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xACCE).drop_rate(0.2).duplicate_rate(0.2).partition(
        SiteId(0),
        SiteId(1),
        20,
        400,
    )
}

fn hardened(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.reliable = Some(ReliableConfig::default());
    config.max_steps = 2_000_000;
    config
}

fn accept(spec_path: &str) {
    let src = std::fs::read_to_string(spec_path).expect(spec_path);
    let workflow = WorkflowBuilder::from_spec(&src).expect(spec_path).build();
    for seed in 0..SEEDS {
        let run = check_run(&workflow.spec, hardened(seed), acceptance_plan(seed), true);
        assert!(run.is_conformant(), "{} seed {seed}: {:?}", workflow.name, run.failures);
    }
    // Replay determinism on a sample of the band (every run above was
    // already audited; comparing recordings doubles the cost per seed).
    for seed in [0, SEEDS / 2, SEEDS - 1] {
        let failures = check_determinism(&workflow.spec, hardened(seed), acceptance_plan(seed));
        assert!(failures.is_empty(), "{} seed {seed}: {failures:?}", workflow.name);
    }
}

#[test]
fn pipeline10_conforms_under_acceptance_faults() {
    accept("examples/specs/pipeline10.wf");
}

#[test]
fn travel_conforms_under_acceptance_faults() {
    accept("examples/specs/travel.wf");
}

/// The symbolic residuation path stays selectable as the reference
/// oracle, and the default compiled-automaton runtime is observationally
/// identical to it: same conformance verdicts and, scenario for
/// scenario, the very same occurrence sequence.
#[test]
fn compiled_runtime_matches_symbolic_oracle_under_faults() {
    for spec_path in ["examples/specs/pipeline10.wf", "examples/specs/travel.wf"] {
        let src = std::fs::read_to_string(spec_path).expect(spec_path);
        let workflow = WorkflowBuilder::from_spec(&src).expect(spec_path).build();
        for seed in 0..10 {
            let mut symbolic = hardened(seed);
            symbolic.dep_runtime = DepRuntime::Symbolic;
            let oracle = check_run(&workflow.spec, symbolic, acceptance_plan(seed), true);
            assert!(
                oracle.is_conformant(),
                "{} seed {seed} (symbolic): {:?}",
                workflow.name,
                oracle.failures
            );
            let fast = check_run(&workflow.spec, hardened(seed), acceptance_plan(seed), true);
            assert!(
                fast.is_conformant(),
                "{} seed {seed} (compiled): {:?}",
                workflow.name,
                fast.failures
            );
            assert_eq!(
                fast.report.occurrences, oracle.report.occurrences,
                "{} seed {seed}: compiled and symbolic runtimes diverged",
                workflow.name
            );
        }
    }
}

/// FNV-1a over every occurrence's (symbol, polarity, time, sequence).
fn occurrence_digest(report: &RunReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &(lit, at, seq) in &report.occurrences {
        for x in [u64::from(lit.symbol().0), u64::from(lit.is_pos()), at, seq] {
            h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// FNV-1a over every occurrence's (symbol, polarity, time) — the
/// schedule without the delivery sequence numbers, which renumber
/// whenever a transport-internal delivery (a timer, an ack) is added or
/// removed although no event fires at another tick.
fn schedule_digest(report: &RunReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &(lit, at, _) in &report.occurrences {
        for x in [u64::from(lit.symbol().0), u64::from(lit.is_pos()), at] {
            h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// The seeded streams may not move silently: `travel.wf` at seed 3 under
/// uniform 1..=30 latency, on the fault-free simulator (latency draws)
/// and under the `chaos` plan (drop, duplicate and jitter draws on top),
/// fires exactly the occurrences these digests were computed from. A
/// third leg runs the hardened transport fault-free under the default
/// per-hop latency, where a node's self-addressed timers draw nothing
/// from the latency stream: its schedule digest is the one that says
/// whether a transport change moved an event or only renumbered
/// deliveries.
///
/// History: the uniform-latency pair was first pinned at the commit
/// before the generator moved in-tree, and re-pinned once, when the
/// transport went from a retransmission timer per envelope to one per
/// node. The per-hop leg kept both its digests across that change. The
/// uniform legs could not: under `LatencyModel::Uniform` a self-send
/// samples a latency like any message, so every timer that is no longer
/// sent shifts all later draws (fault-free: the same six events, the
/// second at tick 81 instead of 93), and under `chaos` the
/// retransmissions a node has due at one tick now leave from one handler
/// in `(receiver, seq)` order.
#[test]
fn travel_seed3_occurrence_digests_are_pinned() {
    let src = std::fs::read_to_string("examples/specs/travel.wf").expect("travel.wf");
    let workflow = WorkflowBuilder::from_spec(&src).expect("travel.wf").build();
    let per_hop = run_workflow(&workflow.spec, hardened(3));
    assert!(per_hop.all_satisfied());
    assert_eq!(
        schedule_digest(&per_hop),
        0x0415_4CB0_CBDD_B0CE,
        "per-hop fault-free schedule moved"
    );
    assert_eq!(
        occurrence_digest(&per_hop),
        0xDCBB_DA0D_0858_9E95,
        "per-hop fault-free stream moved"
    );
    let mut config = hardened(3);
    config.sim.latency = LatencyModel::Uniform { min: 1, max: 30 };
    let clean = run_workflow(&workflow.spec, config.clone());
    assert!(clean.all_satisfied());
    assert_eq!(schedule_digest(&clean), 0x751B_9EB7_914B_3464, "fault-free schedule moved");
    assert_eq!(occurrence_digest(&clean), 0xB36E_10ED_66DD_6833, "fault-free stream moved");
    let (_, chaos) = standard_plans(3 ^ 0x5EED).pop().expect("chaos is the last standard plan");
    let faulty = run_workflow_with_faults(&workflow.spec, config, chaos);
    assert!(faulty.all_satisfied());
    assert!(faulty.fault_stats.is_some_and(|f| f.dropped > 0 && f.duplicated > 0));
    assert_eq!(schedule_digest(&faulty), 0xF012_81EF_1204_21E0, "chaos schedule moved");
    assert_eq!(occurrence_digest(&faulty), 0x5133_5006_F750_290D, "chaos stream moved");
}

/// The sagas' guards are the widest the models produce, and the actors
/// read their conjunct structure to decide promises: `saga(4, 3, None)`
/// and `saga(3, 3, Some(1))` at seed 1, monitors armed, fire exactly the
/// occurrences these digests were computed from at the commit before the
/// guard kernel went flat.
#[test]
fn saga_seed1_occurrence_digests_are_pinned() {
    use constrained_events::models::saga;
    let pins = [
        (saga(4, 3, None), 12, 0x6BE2_B2AE_8E1A_A2CA_u64),
        (saga(3, 3, Some(1)), 10, 0x2D5B_ED20_9FC6_D051),
    ];
    for (workflow, occurrences, digest) in pins {
        let mut config = ExecConfig::seeded(1);
        config.monitor = Some(Default::default());
        let report = run_workflow(&workflow.spec, config);
        assert!(report.all_satisfied() && report.alerts.is_empty());
        assert_eq!(report.occurrences.len(), occurrences);
        assert_eq!(occurrence_digest(&report), digest, "saga schedule moved");
    }
}

/// ROADMAP item 1, as a file: `saga(2, 3, None)` under message loss
/// alone. Theorem 6 is stated for reliable delivery; the promise-round
/// timeout is this repository's extension to lossy links, and it is
/// unsound when an envelope is *dropped*: `t0.commit` fires with its
/// faithful guard false, `~t0.commit + c0.start + t1.commit` ends
/// violated and `t1.commit` stays parked. At this commit exactly seeds
/// 0, 5, 16, 21, 57, 70, 109, 121, 124, 125, 184, 197, 239, 247, 262
/// and 296 of 0..300 fail (which seeds depends on the order and ticks
/// retransmissions leave at: with a timer per envelope it was 5, 21, 34,
/// 50, 78, 184, 185, 197, 233, 247, 262, 285 and 296); the fix PR
/// un-ignores this test.
#[test]
#[ignore = "ROADMAP item 1: Theorem 6 under message loss"]
fn saga2_conforms_under_message_loss() {
    let workflow = constrained_events::models::saga(2, 3, None);
    let failing: Vec<u64> = (0..300)
        .filter(|&s| {
            let plan = FaultPlan::new(s ^ 0xACCE).drop_rate(0.2);
            !check_run(&workflow.spec, hardened(s), plan, true).is_conformant()
        })
        .collect();
    assert_eq!(failing, Vec::<u64>::new(), "nonconforming seeds");
}
