//! The two arms of [`DepTracker`] are one tracker: on random dependencies,
//! along random traces, the compiled arm (a machine state and its
//! compile-time tables) and the symbolic arm (the tree algebra) hold the
//! same residual after every step and answer every question every
//! scheduler asks — triggering, acceptance, deadness, acceptance under
//! guarantees — identically, for every literal at every prefix.

use event_algebra::{
    acceptance, normalize, DepTracker, DependencyMachine, Expr, Literal, SymbolId,
};
use std::collections::BTreeSet;
use testkit::{check, Exprs, Gen};

const CASES: u32 = 256;

/// One to three dependencies over at most four symbols: the full grammar
/// in half the cases (mostly contradictory — trackers that start or end
/// in a trap), satisfiable dependencies in the other half.
fn workflow(g: &mut Gen, syms: &[SymbolId]) -> Vec<Expr> {
    let n = g.len(1, 3);
    if g.flip() {
        (0..n).map(|_| g.term(syms, 2)).collect()
    } else {
        g.workflow(syms, n, 2)
    }
}

/// A maximal trace over `syms`: every symbol once, in a random order and
/// polarity.
fn trace(g: &mut Gen, syms: &[SymbolId]) -> Vec<Literal> {
    let mut pool = syms.to_vec();
    let mut out = Vec::new();
    while !pool.is_empty() {
        let s = pool.swap_remove(g.range(0..pool.len()));
        out.push(if g.flip() { Literal::pos(s) } else { Literal::neg(s) });
    }
    out
}

/// Three sets of literals never to occur: none, one, and a random subset —
/// the machine arm answers the first two from tables and searches for the
/// third.
fn avoid_sets(g: &mut Gen, literals: &[Literal]) -> [BTreeSet<Literal>; 3] {
    let one = literals[g.range(0..literals.len())];
    let some = literals.iter().copied().filter(|_| g.range(0..3u32) == 0).collect();
    [BTreeSet::new(), BTreeSet::from([one]), some]
}

fn assert_arms_agree(g: &mut Gen, compiled: &[DepTracker], symbolic: &[DepTracker], at: &str) {
    // Every literal of every Γ_D, and one symbol no dependency mentions.
    let literals: Vec<Literal> =
        (0..5).flat_map(|s| [Literal::pos(SymbolId(s)), Literal::neg(SymbolId(s))]).collect();
    let avoids = avoid_sets(g, &literals);
    for (c, s) in compiled.iter().zip(symbolic) {
        assert_eq!(c.residual(), s.residual(), "residual {at}");
        assert_eq!(c.obs_state().1, s.obs_state().1, "violated {at}");
        for &lit in &literals {
            let at = format!("of {lit} on {} {at}", s.residual());
            assert_eq!(c.requires(lit), s.requires(lit), "requires {at}");
            assert_eq!(c.live_after(lit), s.live_after(lit), "live_after {at}");
            assert_eq!(c.may_contain(lit), s.may_contain(lit), "may_contain {at}");
            for avoid in &avoids {
                assert_eq!(
                    c.live_after_avoiding(lit, avoid),
                    s.live_after_avoiding(lit, avoid),
                    "live_after_avoiding {avoid:?} {at}"
                );
            }
        }
    }
    for &lit in &literals {
        for avoid in &avoids {
            assert_eq!(
                acceptance(compiled, lit, avoid),
                acceptance(symbolic, lit, avoid),
                "acceptance of {lit} avoiding {avoid:?} {at}"
            );
        }
    }
}

#[test]
fn compiled_and_symbolic_trackers_agree_at_every_prefix() {
    check("compiled_and_symbolic_trackers_agree_at_every_prefix", CASES, |g| {
        let syms: Vec<SymbolId> = (0..g.range(2..=4u32)).map(SymbolId).collect();
        let deps = workflow(g, &syms);
        let mut compiled: Vec<DepTracker> =
            DependencyMachine::compile_all(&deps).into_iter().map(DepTracker::compiled).collect();
        let mut symbolic: Vec<DepTracker> = deps.iter().map(DepTracker::symbolic).collect();
        let events = trace(g, &syms);
        assert_arms_agree(g, &compiled, &symbolic, "at the start");
        for (i, &lit) in events.iter().enumerate() {
            for t in compiled.iter_mut().chain(&mut symbolic) {
                t.step(lit);
            }
            assert_arms_agree(g, &compiled, &symbolic, &format!("after {:?}", &events[..=i]));
        }
        for (t, d) in compiled.iter_mut().chain(&mut symbolic).zip(deps.iter().chain(&deps)) {
            t.reset();
            assert_eq!(t.residual(), normalize(d), "a reset tracker is back at the dependency");
        }
    });
}
