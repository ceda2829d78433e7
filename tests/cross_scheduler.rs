//! Cross-scheduler integration: the same workflow specifications run
//! under the distributed event-centric scheduler and under both
//! centralized baseline engines; each must realize only dependency-
//! satisfying traces, and the two centralized engines must agree
//! decision-for-decision.

use constrained_events::{run_centralized, run_workflow, CentralConfig, Engine, ExecConfig};
use event_algebra::SymbolId;
use testkit::{free_event_spec, Exprs, Gen};

#[test]
fn all_schedulers_enforce_klein_pipelines() {
    for seed in 0..15 {
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let deps = testkit::klein_pipeline(&syms);
        let d = run_workflow(&free_event_spec(deps.clone(), &syms), ExecConfig::seeded(seed));
        assert!(d.all_satisfied(), "distributed seed {seed}: {d:#?}");
        for engine in [Engine::Symbolic, Engine::Automata] {
            let c = run_centralized(
                &free_event_spec(deps.clone(), &syms),
                CentralConfig::new(seed, engine),
            );
            assert!(c.all_satisfied(), "central {engine:?} seed {seed}: {c:#?}");
        }
    }
}

#[test]
fn engines_agree_on_random_workflows() {
    for gen_seed in 0..15 {
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let mut g = Gen::new(gen_seed);
        let deps = g.workflow(&syms, 2, 2);
        for seed in 0..5 {
            let a = run_centralized(
                &free_event_spec(deps.clone(), &syms),
                CentralConfig::new(seed, Engine::Symbolic),
            );
            let b = run_centralized(
                &free_event_spec(deps.clone(), &syms),
                CentralConfig::new(seed, Engine::Automata),
            );
            assert_eq!(a.trace, b.trace, "gen {gen_seed} seed {seed}");
            assert_eq!(a.satisfied, b.satisfied, "gen {gen_seed} seed {seed}");
        }
    }
}

#[test]
fn distributed_and_centralized_are_both_safe_on_random_workflows() {
    for gen_seed in 0..15 {
        let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
        let mut g = Gen::new(gen_seed + 100);
        let deps = g.workflow(&syms, 2, 2);
        for seed in 0..5 {
            let d = run_workflow(&free_event_spec(deps.clone(), &syms), ExecConfig::seeded(seed));
            if d.unresolved.is_empty() && d.broken_promises.is_empty() {
                assert!(d.all_satisfied(), "dist gen {gen_seed} seed {seed}: {d:#?}");
            }
            let c = run_centralized(
                &free_event_spec(deps.clone(), &syms),
                CentralConfig::new(seed, Engine::Symbolic),
            );
            if c.unresolved.is_empty() {
                assert!(c.all_satisfied(), "central gen {gen_seed} seed {seed}: {c:#?}");
            }
        }
    }
}

#[test]
fn centralized_decisions_route_remotely_distributed_stay_local() {
    // The architectural claim (C1) in miniature: with events on distinct
    // sites and the scheduler on site 0, centralized attempts always cross
    // the network; distributed actors decide next to their agents.
    let syms: Vec<SymbolId> = (0..4).map(SymbolId).collect();
    let deps = testkit::klein_pipeline(&syms);
    let d = run_workflow(&free_event_spec(deps.clone(), &syms), ExecConfig::seeded(3));
    let c = run_centralized(&free_event_spec(deps, &syms), CentralConfig::new(3, Engine::Symbolic));
    assert!(d.all_satisfied() && c.all_satisfied());
    // Both ran; message counts are recorded for the bench harness.
    assert!(d.net.sent_total > 0 && c.net.sent_total > 0);
}
