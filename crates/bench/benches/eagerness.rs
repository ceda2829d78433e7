//! Experiment C3 (wall-clock side): the cost of *reacting* to one
//! announcement — reducing a guard and re-deciding — must be cheap enough
//! that information can flow the moment it is available. Compares the
//! reduction-based reaction against recomputing the guard from scratch.

use bench::time;
use event_algebra::Literal;
use guard::{CompiledWorkflow, GuardScope, GuardSynth};
use testkit::{klein_pipeline, symbols};

fn bench_reaction() {
    let group = "reaction";
    for &n in &[4usize, 6, 8] {
        let (_, syms) = symbols(n);
        let deps = klein_pipeline(&syms);
        let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        let target = Literal::pos(syms[n - 1]);
        let g = compiled.guard(target);
        let fact = Literal::pos(syms[n - 2]);
        time(&format!("{group}/incremental-reduce/{n}"), || g.assume_occurred(fact).holds_now());
        time(&format!("{group}/recompute-from-scratch/{n}"), || {
            let mut s = GuardSynth::new();
            let mut acc = temporal::Guard::top();
            for d in &deps {
                if d.mentions(target.symbol()) {
                    acc = acc.and(&s.guard(d, target));
                }
            }
            acc.assume_occurred(fact).holds_now()
        });
    }
}

fn main() {
    bench_reaction();
}
