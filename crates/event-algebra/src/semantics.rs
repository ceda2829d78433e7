//! Trace semantics of `E` (Semantics 1–5) and denotations.
//!
//! `u ⊨ E` is decided by structural recursion; `Seq` tries every split of
//! the trace (Semantics 3). Traces here are tiny (≤ |Σ| events), so the
//! naive recursion is exact and fast enough even inside exhaustive
//! universe sweeps.

use crate::expr::Expr;
use crate::symbol::{Literal, SymbolId};
use crate::trace::{enumerate_universe, Trace};

/// `u ⊨ E` (Semantics 1–5).
pub fn satisfies(u: &Trace, e: &Expr) -> bool {
    holds_on(u.events(), e)
}

/// [`satisfies`] on the events of a trace. A prefix or suffix of a trace
/// is a trace, so the splits of Semantics 3 are sub-slices: the executor
/// judges every dependency of every instance through this function, and
/// copying both halves of every split was most of what that cost.
fn holds_on(u: &[Literal], e: &Expr) -> bool {
    match e {
        Expr::Zero => false,
        Expr::Top => true,
        Expr::Lit(l) => u.contains(l),
        Expr::Or(parts) => parts.iter().any(|p| holds_on(u, p)),
        Expr::And(parts) => parts.iter().all(|p| holds_on(u, p)),
        Expr::Seq(parts) => seq_holds_on(u, parts),
    }
}

/// `u ⊨ E₁·E₂·…·Eₙ`: some consecutive split of `u` into `n` parts
/// satisfies the factors pointwise (Semantics 3, n-ary by associativity).
fn seq_holds_on(u: &[Literal], parts: &[Expr]) -> bool {
    match parts {
        [] => true,
        [only] => holds_on(u, only),
        [head, rest @ ..] => (0..=u.len()).any(|j| {
            let (v, w) = u.split_at(j);
            holds_on(v, head) && seq_holds_on(w, rest)
        }),
    }
}

/// The verdict on a finished run: `trace`, the events that occurred,
/// extended by the complement of every `unresolved` symbol — an event that
/// never happens is judged as its complement, which makes the trace
/// maximal (Definition 1) — and, per dependency, whether that maximal
/// trace satisfies it. Every scheduler's report is this one judgement.
///
/// # Panics
///
/// If `unresolved` names a symbol `trace` resolves, or one twice.
pub fn verdict(
    trace: &Trace,
    unresolved: &[SymbolId],
    dependencies: &[Expr],
) -> (Trace, Vec<bool>) {
    let complements = unresolved.iter().map(|&s| Literal::neg(s));
    let maximal = Trace::new(trace.events().iter().copied().chain(complements))
        .expect("an unresolved symbol is not on the trace");
    let satisfied = dependencies.iter().map(|d| satisfies(&maximal, d)).collect();
    (maximal, satisfied)
}

/// The denotation `[E]` restricted to the universe over `syms`:
/// `{u ∈ U_E : u ⊨ E}`.
pub fn denotation(e: &Expr, syms: &[SymbolId]) -> Vec<Trace> {
    enumerate_universe(syms).into_iter().filter(|u| satisfies(u, e)).collect()
}

/// Semantic equivalence of two expressions over the universe spanned by
/// `syms` (which must cover both expressions' symbols to be conclusive).
pub fn equivalent(a: &Expr, b: &Expr, syms: &[SymbolId]) -> bool {
    enumerate_universe(syms).iter().all(|u| satisfies(u, a) == satisfies(u, b))
}

/// Semantic equivalence over the union of the two expressions' own symbol
/// sets — the common case for law-checking.
pub fn equivalent_auto(a: &Expr, b: &Expr) -> bool {
    let mut syms: Vec<SymbolId> = a.symbols().union(&b.symbols()).copied().collect();
    syms.sort_unstable();
    equivalent(a, b, &syms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Literal;

    fn s(i: u32) -> SymbolId {
        SymbolId(i)
    }
    fn e() -> Expr {
        Expr::event(s(0))
    }
    fn f() -> Expr {
        Expr::event(s(1))
    }
    fn ne() -> Expr {
        Expr::comp(s(0))
    }
    fn nf() -> Expr {
        Expr::comp(s(1))
    }
    fn tr(lits: &[Literal]) -> Trace {
        Trace::new(lits.iter().copied()).unwrap()
    }
    fn le() -> Literal {
        Literal::pos(s(0))
    }
    fn lf() -> Literal {
        Literal::pos(s(1))
    }

    #[test]
    fn atom_satisfaction_is_occurrence_anywhere() {
        assert!(satisfies(&tr(&[le(), lf()]), &e()));
        assert!(satisfies(&tr(&[lf(), le()]), &e()));
        assert!(!satisfies(&tr(&[lf()]), &e()));
        assert!(!satisfies(&Trace::empty(), &e()));
    }

    #[test]
    fn top_and_zero() {
        assert!(satisfies(&Trace::empty(), &Expr::Top));
        assert!(!satisfies(&Trace::empty(), &Expr::Zero));
    }

    #[test]
    fn seq_requires_order() {
        let ef = Expr::seq([e(), f()]);
        assert!(satisfies(&tr(&[le(), lf()]), &ef));
        // ⟨f e⟩ ⊭ e·f: no split has an e-part before an f-part.
        assert!(!satisfies(&tr(&[lf(), le()]), &ef));
        assert!(!satisfies(&tr(&[le()]), &ef));
    }

    #[test]
    fn seq_allows_interleaved_extensions() {
        // ⟨e g f⟩ ⊨ e·f via the split ⟨e⟩ / ⟨g f⟩.
        let g = Literal::pos(s(2));
        let ef = Expr::seq([e(), f()]);
        assert!(satisfies(&tr(&[le(), g, lf()]), &ef));
    }

    #[test]
    fn example1_denotations() {
        // Example 1 with Γ = {e, ē, f, f̄}.
        let syms = [s(0), s(1)];
        assert_eq!(denotation(&Expr::Zero, &syms).len(), 0);
        assert_eq!(denotation(&Expr::Top, &syms).len(), 13);
        // [e] = {⟨e⟩, ⟨ef⟩, ⟨fe⟩, ⟨ef̄⟩, ⟨f̄e⟩} — 5 traces.
        assert_eq!(denotation(&e(), &syms).len(), 5);
        // [e·f] = {⟨ef⟩}.
        let d = denotation(&Expr::seq([e(), f()]), &syms);
        assert_eq!(d, vec![tr(&[le(), lf()])]);
        // [e + ē] ≠ U_E and [e | ē] = ∅.
        assert_ne!(denotation(&Expr::or([e(), ne()]), &syms).len(), 13);
        assert_eq!(
            denotation(&Expr::and([Expr::Lit(le()), Expr::Lit(le().complement())]), &syms).len(),
            0
        );
    }

    #[test]
    fn example2_d_arrow() {
        // D→ = ē + f: if e occurs then f occurs, in either order.
        let d = Expr::or([ne(), f()]);
        assert!(satisfies(&tr(&[le(), lf()]), &d));
        assert!(satisfies(&tr(&[lf(), le()]), &d));
        assert!(satisfies(&tr(&[le().complement()]), &d));
        assert!(!satisfies(&tr(&[le()]), &d));
        assert!(!satisfies(&tr(&[le(), lf().complement()]), &d));
    }

    #[test]
    fn example3_d_precedes() {
        // D< = ē + f̄ + e·f: if both occur, e precedes f.
        let d = Expr::or([ne(), nf(), Expr::seq([e(), f()])]);
        assert!(satisfies(&tr(&[le(), lf()]), &d));
        assert!(!satisfies(&tr(&[lf(), le()]), &d));
        assert!(satisfies(&tr(&[lf(), le().complement()]), &d));
        assert!(satisfies(&tr(&[le(), lf().complement()]), &d));
        // λ does not satisfy D<: satisfaction needs a witnessing disjunct,
        // and none of ē, f̄, e·f occurs on the empty trace. Maximal traces
        // always resolve every symbol, so this never penalizes a complete
        // computation.
        assert!(!satisfies(&Trace::empty(), &d));
    }

    #[test]
    fn satisfaction_is_extension_closed() {
        // If v ⊨ E and uv ∈ U_E then (prepend/append)-extended traces
        // also satisfy E — the property justifying dropping ⊤ units in Seq.
        let g = Literal::pos(s(2));
        let exprs = [e(), Expr::seq([e(), f()]), Expr::or([ne(), f()]), Expr::and([e(), f()])];
        for ex in &exprs {
            let base = tr(&[le(), lf()]);
            if satisfies(&base, ex) {
                assert!(satisfies(&tr(&[le(), lf(), g]), ex), "append ext: {ex}");
                assert!(satisfies(&tr(&[g, le(), lf()]), ex), "prepend ext: {ex}");
                assert!(satisfies(&tr(&[le(), g, lf()]), ex), "mid ext: {ex}");
            }
        }
    }

    #[test]
    fn smart_constructor_laws_hold_semantically() {
        let syms = [s(0), s(1), s(2)];
        let gexp = Expr::event(s(2));
        // E·⊤ = E and ⊤·E = E.
        let ef = Expr::seq([e(), f()]);
        assert!(equivalent(&Expr::Seq(vec![ef.clone(), Expr::Top]), &ef, &syms));
        // Distributivity of · over +.
        let lhs = Expr::Seq(vec![Expr::Or(vec![e(), f()]), gexp.clone()]);
        let rhs = Expr::or([Expr::seq([e(), gexp.clone()]), Expr::seq([f(), gexp.clone()])]);
        assert!(equivalent(&lhs, &rhs, &syms));
        // Distributivity of · over |.
        let lhs = Expr::Seq(vec![Expr::And(vec![e(), f()]), gexp.clone()]);
        let rhs = Expr::and([Expr::seq([e(), gexp.clone()]), Expr::seq([f(), gexp])]);
        assert!(equivalent(&lhs, &rhs, &syms));
    }

    #[test]
    fn right_distributivity_over_or_and_and() {
        let syms = [s(0), s(1), s(2)];
        let gexp = Expr::event(s(2));
        let lhs = Expr::Seq(vec![gexp.clone(), Expr::Or(vec![e(), f()])]);
        let rhs = Expr::or([Expr::seq([gexp.clone(), e()]), Expr::seq([gexp.clone(), f()])]);
        assert!(equivalent(&lhs, &rhs, &syms));
        let lhs = Expr::Seq(vec![gexp.clone(), Expr::And(vec![e(), f()])]);
        let rhs = Expr::and([Expr::seq([gexp.clone(), e()]), Expr::seq([gexp, f()])]);
        assert!(equivalent(&lhs, &rhs, &syms));
    }

    #[test]
    fn equivalent_auto_spans_both_symbol_sets() {
        assert!(equivalent_auto(&Expr::or([e(), e()]), &e()));
        assert!(!equivalent_auto(&e(), &f()));
    }
}
