//! The two arms of [`DepTracker`] are one tracker: on random dependencies
//! and on the paper's own, along random traces, the compiled arm (a
//! machine state and its compile-time tables) and the symbolic arm (the
//! tree algebra) hold the same residual after every step and answer every
//! question every scheduler asks — triggering, acceptance, deadness,
//! acceptance under guarantees — identically, for every literal at every
//! prefix.

use event_algebra::{
    acceptance, normalize, parse_expr, DepTracker, DependencyMachine, Expr, Literal, SymbolId,
    SymbolTable,
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

fn assert_arms_agree(
    g: &mut Gen,
    literals: &[Literal],
    compiled: &[DepTracker],
    symbolic: &[DepTracker],
    at: &str,
) {
    let avoids = avoid_sets(g, literals);
    for (c, s) in compiled.iter().zip(symbolic) {
        assert_eq!(c.residual(), s.residual(), "residual {at}");
        assert_eq!(c.obs_state().1, s.obs_state().1, "violated {at}");
        for &lit in literals {
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
    for &lit in literals {
        for avoid in &avoids {
            assert_eq!(
                acceptance(compiled, lit, avoid),
                acceptance(symbolic, lit, avoid),
                "acceptance of {lit} avoiding {avoid:?} {at}"
            );
        }
    }
}

/// Track `deps` both ways along one random maximal trace over `syms`,
/// comparing the arms at every prefix on every literal of `syms` and of
/// `unmentioned`, a symbol no dependency mentions; then reset both.
fn arms_agree_along_a_trace(g: &mut Gen, deps: &[Expr], syms: &[SymbolId], unmentioned: SymbolId) {
    let literals: Vec<Literal> = syms
        .iter()
        .chain([&unmentioned])
        .flat_map(|&s| [Literal::pos(s), Literal::neg(s)])
        .collect();
    let mut compiled: Vec<DepTracker> =
        DependencyMachine::compile_all(deps).into_iter().map(DepTracker::compiled).collect();
    let mut symbolic: Vec<DepTracker> = deps.iter().map(DepTracker::symbolic).collect();
    let events = trace(g, syms);
    assert_arms_agree(g, &literals, &compiled, &symbolic, "at the start");
    for (i, &lit) in events.iter().enumerate() {
        for t in compiled.iter_mut().chain(&mut symbolic) {
            t.step(lit);
        }
        assert_arms_agree(
            g,
            &literals,
            &compiled,
            &symbolic,
            &format!("after {:?}", &events[..=i]),
        );
    }
    for (t, d) in compiled.iter_mut().chain(&mut symbolic).zip(deps.iter().chain(deps)) {
        t.reset();
        assert_eq!(t.residual(), normalize(d), "a reset tracker is back at the dependency");
    }
}

#[test]
fn compiled_and_symbolic_trackers_agree_at_every_prefix() {
    check("compiled_and_symbolic_trackers_agree_at_every_prefix", CASES, |g| {
        let n = g.range(2..=4u32);
        let syms: Vec<SymbolId> = (0..n).map(SymbolId).collect();
        let deps = workflow(g, &syms);
        arms_agree_along_a_trace(g, &deps, &syms, SymbolId(n));
    });
}

/// Parse `deps` into one table, then intern a symbol none of them
/// mentions: the dependencies, the symbols they mention, and that one.
fn fixed<S: AsRef<str>>(deps: &[S]) -> (Vec<Expr>, Vec<SymbolId>, SymbolId) {
    let mut table = SymbolTable::new();
    let deps: Vec<Expr> = deps
        .iter()
        .map(|d| {
            parse_expr(d.as_ref(), &mut table).unwrap_or_else(|e| panic!("{}: {e}", d.as_ref()))
        })
        .collect();
    let syms = deps.iter().flat_map(Expr::symbols).collect::<BTreeSet<_>>().into_iter().collect();
    (deps, syms, table.intern("unmentioned"))
}

/// The arms agree on the dependencies the runtime is driven with: the
/// travel workflow's `d1` and `d2` with Example 4's compensation
/// dependency (`examples/travel_booking.rs`), the Klein precedence
/// pipeline over ten events (`testkit::klein_pipeline`, the experiments'
/// pipeline workload) and `examples/specs/pipeline10.wf`'s arrow chain.
#[test]
fn compiled_and_symbolic_trackers_agree_on_the_example_workflows() {
    let travel = fixed(&[
        "~buy::start + book::start",
        "~buy::commit + book::commit . buy::commit",
        "~book::commit + buy::commit + cancel::start",
    ]);
    let klein = fixed(
        &(1..10).map(|i| format!("~e{} + ~e{i} + e{} . e{i}", i - 1, i - 1)).collect::<Vec<_>>(),
    );
    assert_eq!(klein.0, testkit::klein_pipeline(&klein.1), "the text is the Klein pipeline");
    let arrows = fixed(&(1..10).map(|i| format!("~e{} + e{i}", i - 1)).collect::<Vec<_>>());
    for (name, (deps, syms, unmentioned)) in
        [("travel", travel), ("klein10", klein), ("pipeline10", arrows)]
    {
        check(&format!("trackers_agree_on_{name}"), 64, |g| {
            arms_agree_along_a_trace(g, &deps, &syms, unmentioned);
        });
    }
}
