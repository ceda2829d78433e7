//! Guards kept as products of factors (Theorems 2 and 4 at the
//! representation level).
//!
//! An event's guard is the conjunction of its per-dependency guards
//! (Definition 2), and those constrain disjoint symbol sets unless two
//! dependencies share a second symbol. A [`FactoredGuard`] keeps that
//! conjunction as a list of canonical [`Guard`]s over pairwise disjoint
//! symbols instead of multiplying it out: `saga(4)`'s last commit is
//! three six-conjunct factors, not one 216-conjunct DNF. The facts heard
//! about a symbol change only the factor that mentions it (each factor is
//! read at the facts on its own symbols, [`Guard::under`]), and
//! everything a scheduler reads off the product — its status, its asks,
//! its coverage, its truth on a trace — is a combination of per-factor
//! answers.
//!
//! The product is still a value: [`FactoredGuard::expand`] builds it as
//! the sorted cross product, which is exactly what [`Guard::and`] returns
//! for the same operands, so rendering, sizes and static analyses see the
//! DNF they always saw.

use crate::guard_repr::{Conjunct, Guard};
use crate::message::GuardStatus;
use crate::texpr::TExpr;
use event_algebra::{SymbolId, Trace};
use std::collections::BTreeSet;

/// A guard as a conjunction of canonical factors over pairwise disjoint
/// symbol sets. No factor is `⊤` (the empty product is `⊤`), and a guard
/// with a `0` factor is that one factor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FactoredGuard {
    factors: Vec<Guard>,
}

impl FactoredGuard {
    /// The empty product, `⊤`.
    pub fn top() -> FactoredGuard {
        FactoredGuard::default()
    }

    /// The product of `factors`, which must mention pairwise disjoint
    /// symbols: `⊤` factors are dropped and a `0` factor absorbs the rest.
    pub fn new(mut factors: Vec<Guard>) -> FactoredGuard {
        if let Some(at) = factors.iter().position(Guard::is_bottom) {
            factors.swap(0, at);
            factors.truncate(1);
        } else {
            factors.retain(|f| !f.holds_now());
        }
        debug_assert!(
            factors.iter().enumerate().all(|(i, f)| {
                let mine = f.symbols();
                factors[i + 1..].iter().all(|g| g.symbols_all(|s| !mine.contains(&s)))
            }),
            "factors must mention disjoint symbols"
        );
        FactoredGuard { factors }
    }

    /// The factors, in the order given.
    pub fn factors(&self) -> &[Guard] {
        &self.factors
    }

    /// The multiplied-out guard: the sorted cross product of the factors,
    /// canonical as it stands.
    pub fn expand(&self) -> Guard {
        match &self.factors[..] {
            [] => Guard::top(),
            [first, rest @ ..] => rest.iter().fold(first.clone(), |acc, f| acc.disjoint_product(f)),
        }
    }

    /// The conjuncts of the [expanded](FactoredGuard::expand) guard.
    pub fn conjuncts(&self) -> Vec<Conjunct> {
        self.expand().into_conjuncts()
    }

    /// The expanded guard in `T` syntax.
    pub fn to_texpr(&self) -> TExpr {
        self.expand().to_texpr()
    }

    /// Evaluate on a maximal trace at an index, factor by factor.
    pub fn eval(&self, u: &Trace, i: usize) -> bool {
        self.factors.iter().all(|f| f.eval(u, i))
    }

    /// `true` iff every symbol some factor mentions satisfies `pred`.
    pub fn symbols_all(&self, mut pred: impl FnMut(SymbolId) -> bool) -> bool {
        self.factors.iter().all(|f| f.symbols_all(&mut pred))
    }

    /// All symbols the guard mentions.
    pub fn symbols(&self) -> BTreeSet<SymbolId> {
        self.factors.iter().flat_map(Guard::symbols).collect()
    }

    /// `true` if some factor carries a `◇(sequence)` atom.
    pub fn has_seq_atoms(&self) -> bool {
        self.factors.iter().any(Guard::has_seq_atoms)
    }

    /// [`Guard::weaken_sequences`] factor by factor: a sequence atom's
    /// symbols are its factor's, so the factors stay disjoint.
    pub fn weaken_sequences(&self) -> FactoredGuard {
        if !self.has_seq_atoms() {
            return self.clone();
        }
        FactoredGuard::new(self.factors.iter().map(Guard::weaken_sequences).collect())
    }
}

/// The [`status`](crate::status) of a product from its factors' statuses: enabled now
/// iff every factor is (the empty product is `⊤`), dead iff some factor
/// is.
pub fn product_status(factors: impl IntoIterator<Item = GuardStatus>) -> GuardStatus {
    let mut out = GuardStatus::EnabledNow;
    for f in factors {
        match f {
            GuardStatus::Dead => return GuardStatus::Dead,
            GuardStatus::Blocked => out = GuardStatus::Blocked,
            GuardStatus::EnabledNow => {}
        }
    }
    out
}

impl From<Guard> for FactoredGuard {
    fn from(g: Guard) -> FactoredGuard {
        FactoredGuard::new(vec![g])
    }
}

/// A factored guard equals a guard when it expands to it.
impl PartialEq<Guard> for FactoredGuard {
    fn eq(&self, other: &Guard) -> bool {
        self.expand() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::{Expr, Literal};

    fn lit(s: u32) -> Literal {
        Literal::pos(SymbolId(s))
    }

    #[test]
    fn expansion_is_the_conjunction() {
        let a = Guard::eventually(lit(1)).or(&Guard::occurred(lit(2)).and(&Guard::not_yet(lit(1))));
        let b = Guard::not_yet(lit(3)).or(&Guard::eventually(lit(4).complement()));
        let c = Guard::eventually_expr(&Expr::seq([Expr::lit(lit(5)), Expr::lit(lit(6))]));
        let f = FactoredGuard::new(vec![a.clone(), Guard::top(), b.clone(), c.clone()]);
        assert_eq!(f.factors().len(), 3, "⊤ is dropped");
        assert_eq!(f, a.and(&b).and(&c));
        assert_eq!(f.conjuncts().len(), a.conjuncts().len() * b.conjuncts().len());
        assert!(f.has_seq_atoms() && !f.weaken_sequences().has_seq_atoms());
        assert_eq!(f.weaken_sequences(), a.and(&b).and(&c).weaken_sequences());
        assert_eq!(f.symbols(), a.and(&b).and(&c).symbols());
    }

    #[test]
    fn a_bottom_factor_is_the_guard() {
        let f = FactoredGuard::new(vec![Guard::eventually(lit(1)), Guard::bottom()]);
        assert_eq!(f.factors(), [Guard::bottom()]);
        assert!(f.expand().is_bottom() && f.symbols().is_empty());
        assert_eq!(FactoredGuard::top(), Guard::top());
        assert_eq!(FactoredGuard::from(Guard::top()).factors().len(), 0);
    }
}
