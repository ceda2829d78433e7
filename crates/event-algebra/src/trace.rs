//! Traces and the trace universes `U_E` and `U_T` (Definition 1).
//!
//! A trace is a finite sequence of events from `Γ` in which (a) no event
//! co-occurs with its complement and (b) no event instance occurs twice.
//! The paper admits infinite traces (`Γ^ω`), but over a finite alphabet the
//! two conditions bound every trace by `|Σ|` events, so both universes are
//! finite and can be enumerated exhaustively — which is how we turn the
//! paper's theorems into executable tests.

use crate::symbol::{Literal, SymbolId};
use std::fmt;

/// A finite trace: a sequence of pairwise symbol-distinct events.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Trace(Vec<Literal>);

impl Trace {
    /// The empty trace `λ`.
    pub fn empty() -> Trace {
        Trace(Vec::new())
    }

    /// Build a trace, checking the `U_E` conditions.
    ///
    /// Returns `None` if some symbol appears twice (this covers both the
    /// no-complement-pair and the no-repetition condition of Definition 1).
    pub fn new(events: impl IntoIterator<Item = Literal>) -> Option<Trace> {
        let mut trace = Trace::empty();
        trace.refill(events).then_some(trace)
    }

    /// Replace this trace's events by `events`, keeping its buffer — for
    /// a caller that rebuilds a trace over and over (the online monitor
    /// rebuilds its observed trace after every out-of-order fact). Checks
    /// what [`Trace::new`] checks; on a repeated symbol the trace is left
    /// empty and `false` is returned.
    pub fn refill(&mut self, events: impl IntoIterator<Item = Literal>) -> bool {
        self.0.clear();
        self.0.extend(events);
        let distinct = distinct_symbols(&self.0);
        if !distinct {
            self.0.clear();
        }
        distinct
    }

    /// Append `l` without checking that its symbol is new — for a caller
    /// that tracks resolved symbols itself (the online monitor).
    pub fn push_unchecked(&mut self, l: Literal) {
        self.0.push(l);
    }

    /// Build a trace without validity checks (for internal enumeration,
    /// where validity holds by construction).
    pub(crate) fn from_vec_unchecked(events: Vec<Literal>) -> Trace {
        Trace(events)
    }

    /// Number of events on the trace.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for `λ`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The events in order.
    pub fn events(&self) -> &[Literal] {
        &self.0
    }

    /// The `i`th event, **1-indexed** as in the paper (`u_i`, `1 ≤ i ≤ size`).
    pub fn at(&self, i: usize) -> Option<Literal> {
        if i == 0 {
            None
        } else {
            self.0.get(i - 1).copied()
        }
    }

    /// `true` if event `l` occurs anywhere on the trace.
    pub fn contains(&self, l: Literal) -> bool {
        self.0.contains(&l)
    }

    /// `true` if `l` occurs among the first `i` events (i.e. "by index `i`"
    /// in the indexed semantics of `T`).
    pub fn contains_by(&self, l: Literal, i: usize) -> bool {
        self.0.iter().take(i).any(|&x| x == l)
    }

    /// `true` if `sym` is resolved (either polarity occurred) on the trace.
    pub fn resolves(&self, sym: SymbolId) -> bool {
        self.0.iter().any(|l| l.symbol() == sym)
    }

    /// Concatenation `uv`, returning `None` when the result leaves `U_E`
    /// (shared symbol between the parts).
    pub fn concat(&self, v: &Trace) -> Option<Trace> {
        Trace::new(self.0.iter().chain(v.0.iter()).copied())
    }

    /// The suffix `u^j` that drops the first `j` events.
    pub fn suffix(&self, j: usize) -> Trace {
        Trace(self.0.get(j.min(self.0.len())..).unwrap_or(&[]).to_vec())
    }

    /// The prefix keeping the first `j` events.
    pub fn prefix(&self, j: usize) -> Trace {
        Trace(self.0[..j.min(self.0.len())].to_vec())
    }

    /// All splits `u = v·w` (including the trivial ones), as prefix/suffix
    /// index pairs — used by the sequencing semantics.
    pub fn splits(&self) -> impl Iterator<Item = (Trace, Trace)> + '_ {
        (0..=self.0.len()).map(move |j| (self.prefix(j), self.suffix(j)))
    }

    /// `true` if every symbol in `syms` is resolved on this trace — the
    /// maximality condition defining `U_T` relative to an alphabet.
    pub fn is_maximal_for(&self, syms: &[SymbolId]) -> bool {
        syms.iter().all(|&s| self.resolves(s))
    }

    /// Append an event, returning `None` if its symbol already occurred.
    pub fn push(&self, l: Literal) -> Option<Trace> {
        if self.resolves(l.symbol()) {
            return None;
        }
        let mut v = self.0.clone();
        v.push(l);
        Some(Trace(v))
    }
}

/// `true` if no two events share a symbol. Sorts a copy of the symbols;
/// the copy of a workflow-sized trace lives on the stack.
fn distinct_symbols(events: &[Literal]) -> bool {
    const INLINE: usize = 64;
    let mut inline = [SymbolId(0); INLINE];
    let mut spilled;
    let syms: &mut [SymbolId] = if events.len() <= INLINE {
        &mut inline[..events.len()]
    } else {
        spilled = vec![SymbolId(0); events.len()];
        &mut spilled
    };
    for (s, l) in syms.iter_mut().zip(events) {
        *s = l.symbol();
    }
    syms.sort_unstable();
    syms.windows(2).all(|w| w[0] != w[1])
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ">")
    }
}

impl FromIterator<Literal> for Trace {
    /// Panics if the events violate the `U_E` conditions; use
    /// [`Trace::new`] for fallible construction.
    fn from_iter<T: IntoIterator<Item = Literal>>(iter: T) -> Trace {
        Trace::new(iter).expect("events violate the trace universe conditions")
    }
}

/// Enumerate the full universe `U_E` over the symbols `syms`: every
/// polarity choice for every subset of symbols, in every order.
///
/// Sizes grow as `Σ_k C(n,k)·2^k·k!`; intended for `n ≤ 6` (n = 5 gives
/// 13,756 traces), which is ample for exhaustively checking the paper's
/// theorems.
pub fn enumerate_universe(syms: &[SymbolId]) -> Vec<Trace> {
    let mut out = Vec::new();
    let mut current: Vec<Literal> = Vec::new();
    let mut used = vec![false; syms.len()];
    fn go(
        syms: &[SymbolId],
        used: &mut Vec<bool>,
        current: &mut Vec<Literal>,
        out: &mut Vec<Trace>,
    ) {
        out.push(Trace::from_vec_unchecked(current.clone()));
        for i in 0..syms.len() {
            if used[i] {
                continue;
            }
            used[i] = true;
            for lit in [Literal::pos(syms[i]), Literal::neg(syms[i])] {
                current.push(lit);
                go(syms, used, current, out);
                current.pop();
            }
            used[i] = false;
        }
    }
    go(syms, &mut used, &mut current, &mut out);
    out
}

/// Enumerate the maximal universe `U_T` over `syms`: every trace that
/// resolves *every* symbol (each to `e` or `ē`), in every order.
///
/// `|U_T| = n!·2^n` (n = 5 gives 3,840 traces).
pub fn enumerate_maximal(syms: &[SymbolId]) -> Vec<Trace> {
    enumerate_universe(syms).into_iter().filter(|t| t.len() == syms.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(n: u32) -> Vec<SymbolId> {
        (0..n).map(SymbolId).collect()
    }

    #[test]
    fn new_rejects_repeats_and_complement_pairs() {
        let e = Literal::pos(SymbolId(0));
        assert!(Trace::new([e, e]).is_none());
        assert!(Trace::new([e, e.complement()]).is_none());
        assert!(Trace::new([e, Literal::pos(SymbolId(1))]).is_some());
    }

    #[test]
    fn refill_checks_like_new_and_reuses_the_trace() {
        let lits: Vec<Literal> = (0..100).map(|i| Literal::pos(SymbolId(i))).collect();
        let mut t = Trace::empty();
        // Below and above the inline bound of the distinctness check.
        for n in [0, 1, 2, 64, 65, 100] {
            assert!(t.refill(lits[..n].iter().copied()), "{n} distinct symbols");
            assert_eq!(t.events(), &lits[..n]);
            assert_eq!(Some(&t), Trace::new(lits[..n].iter().copied()).as_ref());
            let repeated = lits[..n].iter().copied().chain(lits.first().map(|l| l.complement()));
            assert_eq!(t.refill(repeated), n == 0, "{n} symbols and the first one again");
            assert!(n == 0 || t.is_empty(), "a rejected refill leaves the trace empty");
        }
    }

    #[test]
    fn at_is_one_indexed() {
        let e = Literal::pos(SymbolId(0));
        let f = Literal::pos(SymbolId(1));
        let t = Trace::new([e, f]).unwrap();
        assert_eq!(t.at(0), None);
        assert_eq!(t.at(1), Some(e));
        assert_eq!(t.at(2), Some(f));
        assert_eq!(t.at(3), None);
    }

    #[test]
    fn contains_by_respects_index() {
        let e = Literal::pos(SymbolId(0));
        let f = Literal::pos(SymbolId(1));
        let t = Trace::new([e, f]).unwrap();
        assert!(!t.contains_by(e, 0));
        assert!(t.contains_by(e, 1));
        assert!(!t.contains_by(f, 1));
        assert!(t.contains_by(f, 2));
    }

    #[test]
    fn concat_rejects_conflicts() {
        let e = Literal::pos(SymbolId(0));
        let f = Literal::pos(SymbolId(1));
        let u = Trace::new([e]).unwrap();
        let v = Trace::new([f]).unwrap();
        assert!(u.concat(&v).is_some());
        assert!(u.concat(&u).is_none());
        let ne = Trace::new([e.complement()]).unwrap();
        assert!(u.concat(&ne).is_none());
    }

    #[test]
    fn splits_enumerates_all_cuts() {
        let e = Literal::pos(SymbolId(0));
        let f = Literal::pos(SymbolId(1));
        let t = Trace::new([e, f]).unwrap();
        let all: Vec<_> = t.splits().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].0, Trace::empty());
        assert_eq!(all[2].1, Trace::empty());
    }

    #[test]
    fn universe_size_example1() {
        // Example 1: Γ = {e, ē, f, f̄} → 13 traces (λ + 4 singletons + 8 pairs).
        let u = enumerate_universe(&syms(2));
        assert_eq!(u.len(), 13);
        assert!(u.contains(&Trace::empty()));
    }

    #[test]
    fn universe_sizes_small_n() {
        assert_eq!(enumerate_universe(&syms(0)).len(), 1);
        assert_eq!(enumerate_universe(&syms(1)).len(), 3);
        // n=3: 1 + 6 + 24 + 48 = 79.
        assert_eq!(enumerate_universe(&syms(3)).len(), 79);
    }

    #[test]
    fn maximal_universe_sizes() {
        assert_eq!(enumerate_maximal(&syms(1)).len(), 2);
        assert_eq!(enumerate_maximal(&syms(2)).len(), 8);
        assert_eq!(enumerate_maximal(&syms(3)).len(), 48);
    }

    #[test]
    fn maximality_check() {
        let s = syms(2);
        for t in enumerate_maximal(&s) {
            assert!(t.is_maximal_for(&s));
            assert_eq!(t.len(), 2);
        }
    }

    #[test]
    fn suffix_and_prefix() {
        let e = Literal::pos(SymbolId(0));
        let f = Literal::pos(SymbolId(1));
        let t = Trace::new([e, f]).unwrap();
        assert_eq!(t.suffix(1).events(), &[f]);
        assert_eq!(t.prefix(1).events(), &[e]);
        assert_eq!(t.suffix(5), Trace::empty());
    }

    #[test]
    fn push_rejects_resolved_symbols() {
        let e = Literal::pos(SymbolId(0));
        let t = Trace::new([e]).unwrap();
        assert!(t.push(e.complement()).is_none());
        assert!(t.push(Literal::pos(SymbolId(1))).is_some());
    }
}
