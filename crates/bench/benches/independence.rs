//! Experiment C6: the Theorem 2/4 independence fast path — synthesizing
//! guards for a `+`/`|` of sub-dependencies over disjoint alphabets by
//! per-part recursion instead of the full Definition 2 recursion over
//! `Γ_D`.

use bench::time;
use event_algebra::{Expr, Literal};
use guard::GuardSynth;
use testkit::{disjoint_arrows, symbols};

fn bench_independence() {
    let group = "independence";
    for &pairs in &[2usize, 3, 4] {
        let (_, syms) = symbols(pairs * 2);
        let d = Expr::Or(disjoint_arrows(&syms));
        let ev = Literal::pos(syms[0]);
        time(&format!("{group}/definition2-full/{pairs}"), || {
            let mut s = GuardSynth::new();
            s.guard(&d, ev).conjuncts().len()
        });
        time(&format!("{group}/thm2-split/{pairs}"), || {
            let mut s = GuardSynth::new();
            s.guard_split(&d, ev).conjuncts().len()
        });
    }
}

fn main() {
    bench_independence();
}
