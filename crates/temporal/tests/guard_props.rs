//! Property tests for the canonical guard representation: the mask
//! algebra agrees with the trace semantics, a guard at a set of facts is
//! sound, and the `T` rendering round-trips.

use event_algebra::{enumerate_maximal, Expr, Literal, SymbolId};
use temporal::{guards_equivalent_auto, sat_at, Fact, Guard, ST_FULL};
use testkit::{check, Exprs, Gen};

const NSYMS: u32 = 3;
const CASES: u32 = 64;

fn syms() -> Vec<SymbolId> {
    (0..NSYMS).map(SymbolId).collect()
}

/// A random literal-level guard: atoms combined with `or`/`and`, at most
/// `depth` (and the case's size) levels deep.
fn guard(g: &mut Gen, depth: usize) -> Guard {
    if depth.min(g.size()) == 0 || g.range(0..3u32) == 0 {
        let l = g.literal(&syms());
        return match g.range(0..5u32) {
            0 => Guard::occurred(l),
            1 => Guard::not_yet(l),
            2 => Guard::eventually(l),
            3 => Guard::top(),
            _ => Guard::bottom(),
        };
    }
    let (a, b) = (guard(g, depth - 1), guard(g, depth - 1));
    if g.flip() {
        a.or(&b)
    } else {
        a.and(&b)
    }
}

/// A guard that may also carry a `◇(sequence)` atom.
fn seq_guard(g: &mut Gen) -> Guard {
    let base = guard(g, 3);
    // Distinct symbols for the sequence (repeats collapse to 0).
    let mut seen = std::collections::BTreeSet::new();
    let seq: Vec<Expr> = (0..g.range(2..=3usize))
        .map(|_| g.literal(&syms()))
        .filter(|l| seen.insert(l.symbol()))
        .map(Expr::lit)
        .collect();
    if seq.len() < 2 {
        base
    } else {
        base.or(&Guard::eventually_expr(&Expr::seq(seq)))
    }
}

/// `or`/`and` on guards are pointwise ∨/∧ of the trace semantics.
#[test]
fn or_and_are_pointwise() {
    check("or_and_are_pointwise", CASES, |gen| {
        let a = seq_guard(gen);
        let b = seq_guard(gen);
        let or = a.or(&b);
        let and = a.and(&b);
        for u in enumerate_maximal(&syms()) {
            for i in 0..=u.len() {
                assert_eq!(or.eval(&u, i), a.eval(&u, i) || b.eval(&u, i));
                assert_eq!(and.eval(&u, i), a.eval(&u, i) && b.eval(&u, i));
            }
        }
    });
}

/// The rendered `T` expression denotes the same predicate.
#[test]
fn to_texpr_roundtrips() {
    check("to_texpr_roundtrips", CASES, |gen| {
        let g = seq_guard(gen);
        let te = g.to_texpr();
        for u in enumerate_maximal(&syms()) {
            for i in 0..=u.len() {
                assert_eq!(g.eval(&u, i), sat_at(&u, i, &te), "{te} at {u},{i}");
            }
        }
    });
}

/// `is_top` is exact for literal-level guards (no sequence atoms).
#[test]
fn is_top_exact_on_literal_guards() {
    check("is_top_exact_on_literal_guards", CASES, |gen| {
        let g = guard(gen, 3);
        let brute = enumerate_maximal(&syms()).iter().all(|u| (0..=u.len()).all(|i| g.eval(u, i)));
        assert_eq!(g.is_top(), brute, "{g:?}");
    });
}

/// `is_bottom` is exact for literal-level guards.
#[test]
fn is_bottom_exact_on_literal_guards() {
    check("is_bottom_exact_on_literal_guards", CASES, |gen| {
        let g = guard(gen, 3);
        let brute = enumerate_maximal(&syms()).iter().any(|u| (0..=u.len()).any(|i| g.eval(u, i)));
        assert_eq!(!g.is_bottom(), brute, "{g:?}");
    });
}

/// `g` at the fact set `facts` ([`Guard::under`]).
fn at(g: &Guard, facts: &[Fact]) -> Guard {
    g.under(|s| {
        let about = facts.iter().filter(|f| f.literal().symbol() == s);
        about.fold(ST_FULL, |k, f| k & f.closure_mask())
    })
}

/// Soundness of occurrence facts (the Section 4.3 proof rules): the
/// weakened guard at the occurrences of a trace's first `k` events
/// agrees with it at every index ≥ k — what an actor that has heard
/// that prefix's announcements holds. Sequence atoms are weakened first:
/// facts never reduce them.
#[test]
fn assume_occurred_prefix_sound() {
    check("assume_occurred_prefix_sound", CASES, |gen| {
        let g = seq_guard(gen).weaken_sequences();
        for u in enumerate_maximal(&syms()) {
            let facts: Vec<Fact> = u.events().iter().map(|&l| Fact::Occurred(l)).collect();
            for k in 1..=u.len() {
                let reduced = at(&g, &facts[..k]);
                for i in k..=u.len() {
                    assert_eq!(
                        reduced.eval(&u, i),
                        g.eval(&u, i),
                        "guard {g:?} reduced {reduced:?} on {u} at {i}"
                    );
                }
            }
        }
    });
}

/// Literal-level guards at a single occurrence fact agree with the
/// guard wherever the occurrence has happened.
#[test]
fn assume_occurred_single_fact_sound_without_seqs() {
    check("assume_occurred_single_fact_sound_without_seqs", CASES, |gen| {
        let g = guard(gen, 3);
        let l = gen.literal(&syms());
        let reduced = at(&g, &[Fact::Occurred(l)]);
        for u in enumerate_maximal(&syms()) {
            let Some(k) = u.events().iter().position(|&x| x == l) else { continue };
            for i in (k + 1)..=u.len() {
                assert_eq!(reduced.eval(&u, i), g.eval(&u, i), "{g:?} on {u} at {i}");
            }
        }
    });
}

/// Soundness of a promise fact: on any trace where `l` eventually
/// occurs, the (weakened) guard at `◇l` agrees with it at *every* index.
fn promise_reduction_is_sound(g: &Guard, l: Literal) {
    let g = g.weaken_sequences();
    let reduced = at(&g, &[Fact::Promised(l)]);
    for u in enumerate_maximal(&syms()) {
        if !u.contains(l) {
            continue;
        }
        for i in 0..=u.len() {
            assert_eq!(
                reduced.eval(&u, i),
                g.eval(&u, i),
                "guard {g:?} promised {reduced:?} on {u} at {i}"
            );
        }
    }
}

#[test]
fn assume_promised_sound() {
    check("assume_promised_sound", CASES, |gen| {
        let g = seq_guard(gen);
        promise_reduction_is_sound(&g, gen.literal(&syms()));
    });
}

/// Recorded counter-example: a promise for the *last* literal of a
/// sequence atom, `◇(ē₀·ē₂·ē₁)` with `l = ē₁`. It was a bug in the
/// fact-at-a-time reduction, which stepped sequence atoms; the weakened
/// guard is `◇ē₀ ∧ ◇ē₂ ∧ ◇ē₁`, and the promise discharges its last
/// constraint.
#[test]
fn assume_promised_sound_on_a_sequence_tail() {
    let [e0, e1, e2] = [0, 1, 2].map(|s| Literal::neg(SymbolId(s)));
    let g = Guard::eventually_expr(&Expr::seq([e0, e2, e1].map(Expr::lit)));
    promise_reduction_is_sound(&g, e1);
    let weakened = Guard::eventually(e0).and(&Guard::eventually(e2));
    assert_eq!(at(&g.weaken_sequences(), &[Fact::Promised(e1)]), weakened);
}

/// Weakening sequences only ever *widens* the guard (the "small
/// insight" trades precision for locality; the other events' guards
/// recover the order).
#[test]
fn weaken_sequences_widens() {
    check("weaken_sequences_widens", CASES, |gen| {
        let g = seq_guard(gen);
        let w = g.weaken_sequences();
        for u in enumerate_maximal(&syms()) {
            for i in 0..=u.len() {
                assert!(!g.eval(&u, i) || w.eval(&u, i), "narrowed at {u},{i}");
            }
        }
    });
}

/// Holding-now implies holding on every consistent state — i.e.
/// `holds_now` guards never fire early.
#[test]
fn holds_now_is_sound() {
    check("holds_now_is_sound", CASES, |gen| {
        let g = guard(gen, 3);
        if g.holds_now() {
            for u in enumerate_maximal(&syms()) {
                for i in 0..=u.len() {
                    assert!(g.eval(&u, i));
                }
            }
        }
    });
}

/// Mask equivalence is a congruence for or/and on literal guards.
#[test]
fn equiv_masks_matches_semantics() {
    check("equiv_masks_matches_semantics", CASES, |gen| {
        let a = guard(gen, 3);
        let b = guard(gen, 3);
        let semantically = guards_equivalent_auto(&a, &b)
            && enumerate_maximal(&syms())
                .iter()
                .all(|u| (0..=u.len()).all(|i| a.eval(u, i) == b.eval(u, i)));
        assert_eq!(a.equiv_masks(&b), semantically, "{a:?} vs {b:?}");
    });
}
