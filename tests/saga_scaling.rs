//! The saga join as a count, not a clock.
//!
//! `saga(n)`'s last commit conjoins the guards of `n − 1` compensation
//! dependencies over disjoint symbols: multiplied out, its complement's
//! guard has `6^(n−1)` conjuncts (7 776 at `saga(6)`), and every cold
//! reduction re-canonicalised all of them. Kept as factors, no actor ever
//! holds a guard wider than one dependency's. This runs `saga(5)` and
//! `saga(6)` to completion and holds every actor to that bound, so a
//! product that comes back fails here instead of only slowing down.

use constrained_events::models;
use dist::{run_workflow, ExecConfig};
use guard::GuardSynth;

#[test]
fn no_actor_holds_a_factor_wider_than_one_dependency_guard() {
    for steps in [5, 6] {
        let saga = models::saga(steps, 3, None);
        let spec = &saga.spec;
        let mut synth = GuardSynth::new();
        let widest_dependency_guard = (spec.dependencies.iter())
            .flat_map(|d| d.gamma().into_iter().map(move |l| (d, l)))
            .map(|(d, l)| synth.guard(d, l).conjuncts().len())
            .max()
            .expect("a saga has dependencies");
        let report = run_workflow(spec, ExecConfig::seeded(1));
        assert!(report.all_satisfied(), "saga({steps}) did not complete");
        let widest_held = report.actor_stats.values().map(|s| s.widest_factor).max();
        let widest_held = widest_held.expect("a saga has actors");
        assert!(widest_held > 1, "saga({steps}): no reduction was counted");
        assert!(
            widest_held <= widest_dependency_guard,
            "saga({steps}): an actor held a {widest_held}-conjunct factor, \
             one dependency's guard has at most {widest_dependency_guard}"
        );
    }
}
