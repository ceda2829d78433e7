//! Acceptance: every example spec, run under the acceptance fault plan
//! (20% drop + 20% duplication + a partition that heals), reaches
//! `all_satisfied()` with zero false guard firings across 50 seeds, and
//! identical scenarios produce identical flight recordings.

use constrained_events::{
    run_workflow, run_workflow_with_faults, ExecConfig, FaultPlan, ReliableConfig, RunReport,
    WorkflowBuilder,
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
/// before the generator moved in-tree and re-pinned twice, each time
/// because a self-addressed timer stopped being sent — the transport's
/// timer per envelope became one per node, then the promise-round
/// timeout was deleted. The per-hop schedule digest held both times.
/// Its stream digest moved the second time (51 → 50 messages; the fifth
/// occurrence is delivery 39 instead of 38, because the node's
/// retransmission timer no longer queues behind a 512-tick promise
/// timer on the self-link and is delivered before that occurrence). The
/// uniform legs cannot hold: under `LatencyModel::Uniform` a self-send
/// samples a latency like any message, so every timer that is no longer
/// sent shifts all later draws (fault-free: the same six events, the
/// first at tick 52 instead of 40; `chaos`: 91 messages instead of 85,
/// done by tick 484 instead of 4 768). The orphan-grant `Release` moves
/// none of the three legs: all six digests are the same with that change
/// reverted. Re-pinned a third time when an occurrence began to end its
/// holds through its announcement (no `Release` after it) and promises
/// began to be asked only of literals that can grant before they occur
/// (50 → 48 messages): the per-hop schedule digest held, its stream
/// digest moved (fewer deliveries renumber the sequence), and both
/// uniform legs moved, because every message not sent shifts the later
/// draws. Re-pinned a fourth time when an announcement stopped going to
/// a subscriber its sender had heard decided (44 messages instead of 48
/// on the hardened run): the per-hop schedule digest held, its stream
/// digest moved, and the uniform legs moved, because every message not
/// sent shifts the later draws.
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
        0xE313_D053_132F_FD03,
        "per-hop fault-free stream moved"
    );
    let mut config = hardened(3);
    config.sim.latency = LatencyModel::Uniform { min: 1, max: 30 };
    let clean = run_workflow(&workflow.spec, config.clone());
    assert!(clean.all_satisfied());
    assert_eq!(schedule_digest(&clean), 0x74C3_4018_B1C3_2DAC, "fault-free schedule moved");
    assert_eq!(occurrence_digest(&clean), 0x7B58_7043_6715_1C7A, "fault-free stream moved");
    let (_, chaos) = standard_plans(3 ^ 0x5EED).pop().expect("chaos is the last standard plan");
    let faulty = run_workflow_with_faults(&workflow.spec, config, chaos);
    assert!(faulty.all_satisfied());
    assert!(faulty.fault_stats.is_some_and(|f| f.dropped > 0 && f.duplicated > 0));
    assert_eq!(schedule_digest(&faulty), 0xA895_59FC_DB9F_AFBF, "chaos schedule moved");
    assert_eq!(occurrence_digest(&faulty), 0x9F66_8183_6D6A_D12D, "chaos stream moved");
}

/// The sagas' guards are the widest the models produce, and the actors
/// read their conjunct structure to decide promises: `saga(4, 3, None)`
/// and `saga(3, 3, Some(1))` at seed 1, monitors armed, fire exactly the
/// occurrences these digests were computed from.
///
/// History: first pinned at the commit before the guard kernel went
/// flat; re-pinned once, when a not-yet grant nobody waits for began to
/// be answered with a `Release` (`SymbolActor::on_notyet_grant`). On a
/// fault-free run such a grant crosses the requester's own decision; the
/// extra send (`saga(4)` 137 → 139 messages, the abort saga 82 → 83)
/// draws a latency, which shifts every later draw of the stream, so the
/// same occurrences fire in the same order at other ticks. These runs
/// are not hardened: the promise-round timeout's deletion cannot reach
/// them. Re-pinned a second time when those sends went away again,
/// with others: an occurrence ends its holds through its announcement,
/// so neither a decided requester's `Release` nor its answer to a grant
/// that crossed its decision is sent, and promises are asked only of
/// literals that can grant before they occur. Every message not sent
/// shifts the later draws. Re-pinned, the abort saga's stream only, when
/// a decided event stopped answering requests about it with a denial:
/// its announcement is the answer, so three fewer sends shift the
/// delivery sequence numbers; the schedule digest holds. Re-pinned, all
/// four, when an announcement stopped going to a subscriber its sender
/// had heard decided (`saga(4)` and the abort saga send 309 and 181
/// messages over seeds 1–3 instead of 356 and 216): every message not
/// sent shifts the later draws, so the same occurrences fire at other
/// ticks.
#[test]
fn saga_seed1_occurrence_digests_are_pinned() {
    use constrained_events::models::saga;
    let pins = [
        (saga(4, 3, None), 12, 0xBA69_6D36_821D_496E_u64, 0xF8CD_1D6D_65BE_5777_u64),
        (saga(3, 3, Some(1)), 10, 0x9FDA_CF94_3ED5_826A, 0xA08C_C389_E57F_B140),
    ];
    for (workflow, occurrences, schedule, stream) in pins {
        let mut config = ExecConfig::seeded(1);
        config.monitor = Some(Default::default());
        let report = run_workflow(&workflow.spec, config);
        assert!(report.all_satisfied() && report.alerts.is_empty());
        assert_eq!(report.occurrences.len(), occurrences);
        assert_eq!(schedule_digest(&report), schedule, "saga schedule moved");
        assert_eq!(occurrence_digest(&report), stream, "saga stream moved");
    }
}

/// Theorem 6 on lossy links, on the smallest saga: `saga(2, 3, None)`
/// under message loss alone. `t0.commit`'s `NotYetQuery` to `t1.commit`
/// is dropped, `t0.commit` decides and its announcement overtakes the
/// retransmitted query; were `t1.commit` to grant that query a hold, no
/// announcement would come after it to end the hold, `t1.commit` would
/// stay held for ever and `~t0.commit + c0.start + t1.commit` would end
/// violated (DESIGN.md §5b). A keeper that has heard the requester's
/// announcement grants nothing: without that, seeds 40, 52, 58, 83, 93,
/// 101, 110, 124, 132, 156, 165, 173, 174, 177, 191, 213, 219, 240, 248,
/// 258, 277, 282, 292 and 297 fail. (Before an occurrence ended its
/// holds through its announcement, the requester's `Release` overtook
/// the query, and the requester's `Release` of the grant it had no use
/// for was what kept 17 seeds conforming.)
#[test]
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

/// The same guarantee over every saga shape the fault gates run, under
/// loss alone, loss with duplication, and both with jitter (150 seeds
/// each), and under the standard plan matrix (40 seeds).
#[test]
fn sagas_conform_under_lossy_plans() {
    let mut nonconforming = Vec::new();
    for (name, workflow) in constrained_events::models::gate_sagas() {
        let mut run = |seed: u64, plan_name: &str, plan: FaultPlan| {
            if !check_run(&workflow.spec, hardened(seed), plan, true).is_conformant() {
                nonconforming.push(format!("{name}/{plan_name}/seed {seed}"));
            }
        };
        for seed in 0..150 {
            let drop = FaultPlan::new(seed ^ 0xACCE).drop_rate(0.2);
            run(seed, "drop", drop.clone());
            run(seed, "drop+dup", drop.clone().duplicate_rate(0.2));
            run(seed, "drop+dup+jitter", drop.duplicate_rate(0.2).jitter(0, 20));
        }
        for seed in 0..40 {
            for (plan_name, plan) in standard_plans(seed ^ 0x5EED) {
                run(seed, plan_name, plan);
            }
        }
    }
    assert_eq!(nonconforming, Vec::<String>::new(), "nonconforming scenarios");
}
