//! Property tests for the paper's guard-calculation results
//! (Section 4.4): Theorems 2 and 4 (independence), Lemma 3 (case split),
//! Lemma 5 (path-based synthesis) and Theorem 6 (correctness of
//! generation), each on randomly generated dependencies.

use event_algebra::{Expr, Literal, SymbolId};
use guard::theorems::{check_lemma3, check_lemma5, check_thm2, check_thm4, check_thm6};
use guard::GuardScope;
use testkit::{check, Exprs, Gen};

const CASES: u32 = 32;

fn syms(range: std::ops::Range<u32>) -> Vec<SymbolId> {
    range.map(SymbolId).collect()
}

/// A dependency Theorem 6 speaks about: neither `0` nor `⊤`, and
/// satisfiable. A workflow containing `0` admits no correct execution at
/// all, and the paper's scheduler would reject it statically.
fn schedulable(d: &Expr) -> bool {
    !d.is_top() && !d.is_zero() && event_algebra::satisfiable(d)
}

/// A random schedulable dependency over `range`, from the full grammar.
fn dependency(g: &mut Gen, range: std::ops::Range<u32>) -> Expr {
    loop {
        let d = g.term(&syms(range.clone()), 2);
        if schedulable(&d) {
            return d;
        }
    }
}

fn lit(sym: u32, positive: bool) -> Literal {
    if positive {
        Literal::pos(SymbolId(sym))
    } else {
        Literal::neg(SymbolId(sym))
    }
}

/// Theorem 2: `G(D+E,e) = G(D,e)+G(E,e)` for disjoint alphabets.
#[test]
fn thm2_or_split() {
    check("thm2_or_split", CASES, |g| {
        let d = g.term(&syms(0..2), 2);
        let e2 = g.term(&syms(2..4), 2);
        let ev = g.literal(&syms(0..4));
        assert!(check_thm2(&d, &e2, ev), "D={d} E={e2} e={ev}");
    });
}

/// Theorem 4: `G(D|E,e) = G(D,e)|G(E,e)` for disjoint alphabets.
#[test]
fn thm4_and_split() {
    check("thm4_and_split", CASES, |g| {
        let d = g.term(&syms(0..2), 2);
        let e2 = g.term(&syms(2..4), 2);
        let ev = g.literal(&syms(0..4));
        assert!(check_thm4(&d, &e2, ev), "D={d} E={e2} e={ev}");
    });
}

/// Lemma 3: `G(D,e) = ¬g|G(D,e) + □g|G(D/g,e)` for any `g ∉ {e,ē}`
/// (under the sequence-tail side condition — see `check_lemma3`'s
/// reproduction note).
#[test]
fn lemma3_case_split() {
    check("lemma3_case_split", CASES, |g| {
        let d = g.term(&syms(0..3), 2);
        let ev = g.literal(&syms(0..3));
        let by = g.literal(&syms(0..4));
        assert!(check_lemma3(&d, ev, by), "D={d} e={ev} g={by}");
    });
}

/// Recorded counter-examples of the lemma as literally stated, both with
/// `g` in a position residuation cannot reach first; they hold under the
/// side condition `check_lemma3` now applies.
#[test]
fn lemma3_recorded_cases() {
    let d = Expr::and([Expr::lit(lit(0, true)), Expr::lit(lit(2, false))]);
    assert!(check_lemma3(&d, lit(1, false), lit(0, true)));
    let d = Expr::seq([Expr::lit(lit(2, false)), Expr::lit(lit(1, true))]);
    assert!(check_lemma3(&d, lit(0, false), lit(1, true)));
}

/// Lemma 5: Definition 2 equals the Π(D) path-based synthesis, for
/// events in `Γ_D` of non-degenerate dependencies (for `e ∉ Γ_D` the
/// path sum is empty while `G(D,e)` gates on `D`'s satisfiability —
/// the lemma is about participating events).
#[test]
fn lemma5_paths() {
    check("lemma5_paths", CASES, |g| {
        let d = loop {
            let d = g.term(&syms(0..3), 2);
            if !d.is_top() && !d.is_zero() {
                break d;
            }
        };
        let mentioned: Vec<SymbolId> = d.symbols().into_iter().collect();
        let ev = g.literal(&mentioned);
        assert!(check_lemma5(&d, ev), "D={d} e={ev}");
    });
}

/// Recorded counter-example that drew the lemma's boundary: `D = ē₁`
/// does not mention `e = ē₀`, so the path sum is empty while `G(D,e)`
/// gates on `D`'s satisfiability. Outside `Γ_D` the two differ.
#[test]
fn lemma5_recorded_case_is_outside_the_alphabet() {
    let (d, ev) = (Expr::lit(lit(1, false)), lit(0, false));
    assert!(!d.mentions(ev.symbol()));
    assert!(!check_lemma5(&d, ev));
}

/// Theorem 6, single dependency: the guard-generated maximal traces
/// are exactly the satisfying ones — under both guard scopes.
/// Degenerate dependencies (`0`, `⊤`, unsatisfiable) are excluded, see
/// [`schedulable`].
#[test]
fn thm6_single_dependency() {
    check("thm6_single_dependency", CASES, |g| {
        let d = dependency(g, 0..3);
        assert!(
            check_thm6(std::slice::from_ref(&d), GuardScope::Mentioning).is_ok(),
            "mentioning scope failed for {d}"
        );
        assert!(
            check_thm6(std::slice::from_ref(&d), GuardScope::All).is_ok(),
            "all scope failed for {d}"
        );
    });
}

/// Recorded counter-example that drew the theorem's boundary: `D = 0`
/// is not schedulable, and the theorem indeed fails on it.
#[test]
fn thm6_recorded_case_is_degenerate() {
    assert!(!schedulable(&Expr::Zero));
    assert!(check_thm6(&[Expr::Zero], GuardScope::Mentioning).is_err());
}

/// Theorem 6, multi-dependency workflows.
#[test]
fn thm6_workflows() {
    check("thm6_workflows", CASES, |g| {
        let w = vec![dependency(g, 0..3), dependency(g, 0..3)];
        assert!(
            check_thm6(&w, GuardScope::Mentioning).is_ok(),
            "mentioning scope failed for {w:?}"
        );
        assert!(check_thm6(&w, GuardScope::All).is_ok(), "all scope failed for {w:?}");
    });
}

/// Theorem 6 with overlapping three-dependency workflows over a
/// slightly larger alphabet.
#[test]
fn thm6_three_dependencies() {
    check("thm6_three_dependencies", CASES, |g| {
        let w = vec![dependency(g, 0..2), dependency(g, 1..3), dependency(g, 2..4)];
        assert!(check_thm6(&w, GuardScope::Mentioning).is_ok(), "failed for {w:?}");
    });
}
