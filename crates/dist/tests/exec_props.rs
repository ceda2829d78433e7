//! End-to-end property tests of the distributed scheduler: safety on
//! random workflows, empirical liveness on the well-behaved Klein
//! families, and determinism per seed.

use dist::{run_workflow, ExecConfig};
use event_algebra::{Literal, SymbolId};
use sim::{LatencyModel, SimConfig};
use testkit::{check, free_event_spec, Exprs};

fn config(seed: u64) -> ExecConfig {
    ExecConfig {
        sim: SimConfig { seed, latency: LatencyModel::Uniform { min: 1, max: 30 } },
        max_steps: 200_000,
        ..ExecConfig::seeded(seed)
    }
}

const CASES: u32 = 24;

/// SAFETY: whatever happens (parking, promises, rejections), when a
/// run resolves every symbol through the protocol, the realized trace
/// satisfies every dependency — the operational face of Theorem 6.
/// Runs where some event stays parked are judged on the complemented
/// maximal extension only if nothing was left undecided.
#[test]
fn random_workflows_are_safe() {
    check("random_workflows_are_safe", CASES, |g| {
        let seed = g.range(0u64..500);
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let deps = g.workflow(&syms, 2, 2);
        let spec = free_event_spec(deps.clone(), &syms);
        let report = run_workflow(&spec, config(seed));
        assert!(report.steps < 200_000, "runaway at seed {seed}");
        if report.unresolved.is_empty() && report.broken_promises.is_empty() {
            assert!(report.all_satisfied(), "UNSAFE seed {seed}: {report:#?} deps {deps:?}");
        }
    });
}

/// Determinism: identical seeds give identical traces.
#[test]
fn runs_are_deterministic() {
    check("runs_are_deterministic", CASES, |g| {
        let seed = g.range(0u64..100);
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let spec = free_event_spec(g.workflow(&syms, 2, 2), &syms);
        let r1 = run_workflow(&spec, config(seed));
        let r2 = run_workflow(&spec, config(seed));
        assert_eq!(r1.trace, r2.trace);
        assert_eq!(r1.duration, r2.duration);
        assert_eq!(r1.net.sent_total, r2.net.sent_total);
    });
}

/// LIVENESS (empirical) on the Klein pipeline family: all events
/// resolve and every precedence holds.
fn klein_pipeline_completes_at(seed: u64, n: usize) {
    let syms: Vec<SymbolId> = (0..n as u32).map(SymbolId).collect();
    let deps = testkit::klein_pipeline(&syms);
    let spec = free_event_spec(deps, &syms);
    let report = run_workflow(&spec, config(seed));
    assert!(report.all_satisfied(), "seed {seed}: {report:#?}");
    assert!(report.unresolved.is_empty(), "seed {seed}: {report:#?}");
    // Every event occurred positively, in pipeline order.
    let evs = report.trace.events();
    assert_eq!(evs.len(), n);
    for w in syms.windows(2) {
        let a = evs.iter().position(|&l| l == Literal::pos(w[0])).expect("occurred");
        let b = evs.iter().position(|&l| l == Literal::pos(w[1])).expect("occurred");
        assert!(a < b, "order violated at seed {seed}: {:?}", report.trace);
    }
}

#[test]
fn klein_pipeline_completes() {
    check("klein_pipeline_completes", CASES, |g| {
        klein_pipeline_completes_at(g.range(0u64..200), g.range(3usize..6));
    });
}

/// Recorded counter-example: the schedule of seed 17 once wedged the
/// three-stage pipeline.
#[test]
fn klein_pipeline_completes_at_seed17() {
    klein_pipeline_completes_at(17, 3);
}

/// The arrow fan-out family (one root enabling many leaves via D→)
/// completes with every leaf occurring after the promises settle.
#[test]
fn arrow_fanout_completes() {
    check("arrow_fanout_completes", CASES, |g| {
        let seed = g.range(0u64..100);
        let n = g.range(2usize..5);
        let syms: Vec<SymbolId> = (0..=n as u32).map(SymbolId).collect();
        let deps = testkit::arrow_fanout(syms[0], &syms[1..]);
        let spec = free_event_spec(deps, &syms);
        let report = run_workflow(&spec, config(seed));
        assert!(report.all_satisfied(), "seed {seed}: {report:#?}");
        assert!(report.unresolved.is_empty(), "seed {seed}: {report:#?}");
    });
}
