//! Property tests of the scheduler under injected faults: random
//! workflows stay safe and consistent on lossy links, the confluent
//! workload families converge to the same final fixpoint as their
//! fault-free runs, and every faulty run replays bit for bit.

use dist::{run_workflow, run_workflow_with_faults, ExecConfig, ReliableConfig};
use event_algebra::{Literal, SymbolId};
use sim::{FaultPlan, LatencyModel, SimConfig};
use testkit::conformance::{check_determinism, check_run};
use testkit::{check, free_event_spec, Exprs};

fn faulty_config(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.sim = SimConfig { seed, latency: LatencyModel::Uniform { min: 1, max: 30 } };
    config.reliable = Some(ReliableConfig::default());
    config
}

/// 20% drop + 20% duplication — the acceptance-level lossy link.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xFA17).drop_rate(0.2).duplicate_rate(0.2)
}

/// The multiset of literals a run settled on, with its satisfaction
/// vector: the □/◇ fixpoint, independent of arrival order.
fn fixpoint(report: &dist::RunReport) -> (Vec<Literal>, Vec<bool>) {
    let mut evs = report.maximal_trace.events().to_vec();
    evs.sort_unstable();
    (evs, report.satisfied.clone())
}

const CASES: u32 = 16;

/// SAFETY under faults: on random workflows over ≤5 symbols, a run
/// across 20% drop + 20% duplication still quiesces, never fires an
/// event with a false faithful guard, and never lets two actors
/// disagree on the global occurrence order.
#[test]
fn random_workflows_conform_under_lossy_links() {
    check("random_workflows_conform_under_lossy_links", CASES, |g| {
        let seed = g.range(0u64..40);
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let deps = g.workflow(&syms, 2, 2);
        let spec = free_event_spec(deps.clone(), &syms);
        let run = check_run(&spec, faulty_config(seed), lossy_plan(seed), false);
        assert!(run.is_conformant(), "seed {seed} deps {deps:?}: {:?}", run.failures);
    });
}

/// CONVERGENCE: the Klein pipeline is confluent — whatever the link
/// does, the faulty run reaches the same final fixpoint (same events,
/// same satisfaction vector) as the fault-free run on the same seed.
#[test]
fn klein_pipeline_fixpoint_survives_faults() {
    check("klein_pipeline_fixpoint_survives_faults", CASES, |g| {
        let seed = g.range(0u64..30);
        let n = g.range(3usize..6);
        let syms: Vec<SymbolId> = (0..n as u32).map(SymbolId).collect();
        let spec = free_event_spec(testkit::klein_pipeline(&syms), &syms);
        let clean = run_workflow(&spec, faulty_config(seed));
        let faulty = run_workflow_with_faults(&spec, faulty_config(seed), lossy_plan(seed));
        assert!(clean.all_satisfied(), "clean run must complete");
        assert_eq!(fixpoint(&clean), fixpoint(&faulty), "seed {seed}");
    });
}

/// Same convergence property for the arrow fan-out family.
#[test]
fn arrow_fanout_fixpoint_survives_faults() {
    check("arrow_fanout_fixpoint_survives_faults", CASES, |g| {
        let seed = g.range(0u64..30);
        let n = g.range(2usize..5);
        let syms: Vec<SymbolId> = (0..=n as u32).map(SymbolId).collect();
        let spec = free_event_spec(testkit::arrow_fanout(syms[0], &syms[1..]), &syms);
        let clean = run_workflow(&spec, faulty_config(seed));
        let faulty = run_workflow_with_faults(&spec, faulty_config(seed), lossy_plan(seed));
        assert_eq!(fixpoint(&clean), fixpoint(&faulty), "seed {seed}");
    });
}

/// Same convergence property for independent disjoint arrows.
#[test]
fn disjoint_arrows_fixpoint_survives_faults() {
    check("disjoint_arrows_fixpoint_survives_faults", CASES, |g| {
        let seed = g.range(0u64..30);
        let pairs = g.range(2usize..4);
        let syms: Vec<SymbolId> = (0..2 * pairs as u32).map(SymbolId).collect();
        let spec = free_event_spec(testkit::disjoint_arrows(&syms), &syms);
        let clean = run_workflow(&spec, faulty_config(seed));
        let faulty = run_workflow_with_faults(&spec, faulty_config(seed), lossy_plan(seed));
        assert_eq!(fixpoint(&clean), fixpoint(&faulty), "seed {seed}");
    });
}

/// REPLAY: a faulty run is a pure function of (workflow, plan, seed) —
/// re-running reproduces the flight recording span for span and the trace,
/// duration and step count exactly.
#[test]
fn faulty_runs_replay_bit_for_bit() {
    check("faulty_runs_replay_bit_for_bit", CASES, |g| {
        let seed = g.range(0u64..20);
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let deps = g.workflow(&syms, 2, 2);
        let spec = free_event_spec(deps, &syms);
        let plan = lossy_plan(seed).jitter(0, 20);
        let failures = check_determinism(&spec, faulty_config(seed), plan);
        assert!(failures.is_empty(), "seed {seed}: {failures:?}");
    });
}
