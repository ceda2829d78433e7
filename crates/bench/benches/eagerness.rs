//! Experiment C3 (wall-clock side): the cost of *reacting* to one
//! announcement — reading the guard at the facts heard and re-deciding —
//! must be cheap enough that information can flow the moment it is
//! available. Compares reading the compiled, weakened guard at the fact
//! against recomputing the guard from scratch first.

use bench::time;
use event_algebra::{Literal, SymbolId};
use guard::{CompiledWorkflow, GuardScope, GuardSynth};
use temporal::{occurred_mask, ST_FULL};
use testkit::{klein_pipeline, symbols};

fn bench_reaction() {
    let group = "reaction";
    for &n in &[4usize, 6, 8] {
        let (_, syms) = symbols(n);
        let deps = klein_pipeline(&syms);
        let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        let target = Literal::pos(syms[n - 1]);
        let g = compiled.guard(target).weaken_sequences();
        let fact = Literal::pos(syms[n - 2]);
        let known =
            |s: SymbolId| if s == fact.symbol() { occurred_mask(fact.polarity()) } else { ST_FULL };
        time(&format!("{group}/incremental-reduce/{n}"), || g.under(known).holds_now());
        time(&format!("{group}/recompute-from-scratch/{n}"), || {
            let mut s = GuardSynth::new();
            let mut acc = temporal::Guard::top();
            for d in &deps {
                if d.mentions(target.symbol()) {
                    acc = acc.and(&s.guard(d, target));
                }
            }
            acc.weaken_sequences().under(known).holds_now()
        });
    }
}

fn main() {
    bench_reaction();
}
