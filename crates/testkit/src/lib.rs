//! Shared test/bench support: the property runner and seeded generator
//! (re-exported from `seeded`), random dependency and workflow
//! generators on top of them, plus the canonical workload families used
//! by the experiment harness.

#![warn(missing_docs)]

pub mod conformance;
pub mod workload;

use agent::EventAttrs;
use dist::{FreeEventSpec, WorkflowSpec};
use event_algebra::{Expr, Literal, SymbolId, SymbolTable};
pub use seeded::{check, replay, Gen};
use sim::SiteId;

/// Random event-algebra expressions and workflows drawn from a [`Gen`]:
/// the one generator family behind every property suite, conformance
/// sweep and experiment workload. Every recursion depth is additionally
/// capped by [`Gen::size`], so a failing property case shrinks by size.
pub trait Exprs {
    /// A random literal over `syms`.
    fn literal(&mut self, syms: &[SymbolId]) -> Literal;

    /// A random expression over `syms` with at most `depth` operator
    /// levels, whose sequences are runs of distinct literals (repeated
    /// symbols collapse to `0` anyway) — the shape dependencies have in
    /// practice.
    fn expr(&mut self, syms: &[SymbolId], depth: usize) -> Expr;

    /// A random expression over the whole grammar of `E`: like
    /// [`Exprs::expr`], but a sequence composes two or three arbitrary
    /// sub-expressions, so `(a + b)·(c | d)` and its like appear.
    fn term(&mut self, syms: &[SymbolId], depth: usize) -> Expr;

    /// A random *satisfiable, non-trivial* dependency (resamples
    /// [`Exprs::expr`] until the expression is neither `0` nor `⊤` and has
    /// a satisfying completion).
    fn dependency(&mut self, syms: &[SymbolId], depth: usize) -> Expr;

    /// A random workflow: `n` dependencies over `syms`.
    fn workflow(&mut self, syms: &[SymbolId], n: usize, depth: usize) -> Vec<Expr>;
}

/// The shared body of [`Exprs::expr`] and [`Exprs::term`].
fn expr_of(g: &mut Gen, syms: &[SymbolId], depth: usize, nested_seqs: bool) -> Expr {
    let depth = depth.min(g.size());
    if depth == 0 || g.rng().random_bool(0.3) {
        return match g.range(0..10u32) {
            0 => Expr::Top,
            1 => Expr::Zero,
            _ => Expr::lit(g.literal(syms)),
        };
    }
    let arity: usize = g.range(2..=3);
    let parts = |g: &mut Gen| -> Vec<Expr> {
        (0..arity).map(|_| expr_of(g, syms, depth - 1, nested_seqs)).collect()
    };
    match g.range(0..3u32) {
        0 => Expr::or(parts(g)),
        1 => Expr::and(parts(g)),
        _ if nested_seqs => Expr::seq(parts(g)),
        _ => {
            // A sequence of distinct literals.
            let mut pool: Vec<SymbolId> = syms.to_vec();
            let mut parts = Vec::new();
            for _ in 0..arity.min(pool.len()) {
                let s = pool.swap_remove(g.range(0..pool.len()));
                parts.push(Expr::lit(if g.flip() { Literal::pos(s) } else { Literal::neg(s) }));
            }
            Expr::seq(parts)
        }
    }
}

impl Exprs for Gen {
    fn literal(&mut self, syms: &[SymbolId]) -> Literal {
        let s = syms[self.range(0..syms.len())];
        if self.flip() {
            Literal::pos(s)
        } else {
            Literal::neg(s)
        }
    }

    fn expr(&mut self, syms: &[SymbolId], depth: usize) -> Expr {
        expr_of(self, syms, depth, false)
    }

    fn term(&mut self, syms: &[SymbolId], depth: usize) -> Expr {
        expr_of(self, syms, depth, true)
    }

    fn dependency(&mut self, syms: &[SymbolId], depth: usize) -> Expr {
        loop {
            let e = self.expr(syms, depth);
            if !e.is_top() && !e.is_zero() && event_algebra::satisfiable(&e) {
                return e;
            }
        }
    }

    fn workflow(&mut self, syms: &[SymbolId], n: usize, depth: usize) -> Vec<Expr> {
        (0..n).map(|_| self.dependency(syms, depth)).collect()
    }
}

/// `n` fresh symbols named `e0..` in a fresh table.
pub fn symbols(n: usize) -> (SymbolTable, Vec<SymbolId>) {
    let mut t = SymbolTable::new();
    let syms = (0..n).map(|i| t.intern(&format!("e{i}"))).collect();
    (t, syms)
}

/// The executable form of a bare dependency set: symbols named `e0..`,
/// each a controllable free event on a site of its own, all attempted at
/// start.
pub fn free_event_spec(dependencies: Vec<Expr>, syms: &[SymbolId]) -> WorkflowSpec {
    let mut table = SymbolTable::new();
    for i in 0..syms.len() {
        table.intern(&format!("e{i}"));
    }
    let free_events = syms
        .iter()
        .zip(0..)
        .map(|(&s, site)| FreeEventSpec {
            site: SiteId(site),
            lit: Literal::pos(s),
            attrs: EventAttrs::controllable(),
            attempt_after: Some(1),
        })
        .collect();
    WorkflowSpec { table, dependencies, agents: vec![], free_events }
}

/// Workload family: the chain dependency `e₁·e₂·…·eₙ` (strict pipeline).
pub fn chain(syms: &[SymbolId]) -> Expr {
    Expr::seq(syms.iter().map(|&s| Expr::lit(Literal::pos(s))))
}

/// Workload family: `n-1` Klein precedences forming a pipeline
/// (`e₁<e₂, e₂<e₃, …`) — the decomposed version of [`chain`].
pub fn klein_pipeline(syms: &[SymbolId]) -> Vec<Expr> {
    syms.windows(2)
        .map(|w| {
            let (a, b) = (Literal::pos(w[0]), Literal::pos(w[1]));
            Expr::or([
                Expr::lit(a.complement()),
                Expr::lit(b.complement()),
                Expr::seq([Expr::lit(a), Expr::lit(b)]),
            ])
        })
        .collect()
}

/// Workload family: a fan-out of arrows from a root (`r→e₁, r→e₂, …`).
pub fn arrow_fanout(root: SymbolId, leaves: &[SymbolId]) -> Vec<Expr> {
    leaves
        .iter()
        .map(|&l| Expr::or([Expr::lit(Literal::neg(root)), Expr::lit(Literal::pos(l))]))
        .collect()
}

/// Workload family: `k` independent Klein-arrow pairs over disjoint
/// symbols (`e₂ᵢ → e₂ᵢ₊₁`) — exercises the Theorem 2/4 independence fast
/// path when combined with `+`/`|`.
pub fn disjoint_arrows(syms: &[SymbolId]) -> Vec<Expr> {
    syms.chunks_exact(2)
        .map(|w| Expr::or([Expr::lit(Literal::neg(w[0])), Expr::lit(Literal::pos(w[1]))]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let (_, syms) = symbols(4);
        let a: Vec<Expr> = {
            let mut g = Gen::new(9);
            (0..5).map(|_| g.expr(&syms, 3)).collect()
        };
        let b: Vec<Expr> = {
            let mut g = Gen::new(9);
            (0..5).map(|_| g.expr(&syms, 3)).collect()
        };
        assert_eq!(a, b);
    }

    /// `term` reaches the part of the grammar `expr` leaves out, and both
    /// obey the size bound the property runner shrinks by.
    #[test]
    fn terms_nest_sequences_and_sizes_cap_depth() {
        fn has_nested_seq(e: &Expr) -> bool {
            match e {
                Expr::Seq(parts) => parts.iter().any(|p| !matches!(p, Expr::Lit(_))),
                Expr::Or(parts) | Expr::And(parts) => parts.iter().any(has_nested_seq),
                _ => false,
            }
        }
        let (_, syms) = symbols(3);
        let mut g = Gen::new(5);
        let terms: Vec<Expr> = (0..200).map(|_| g.term(&syms, 3)).collect();
        assert!(terms.iter().any(has_nested_seq), "no sequence of compound parts in 200 terms");
        let flat: Vec<Expr> = (0..200).map(|_| g.expr(&syms, 3)).collect();
        assert!(!flat.iter().any(has_nested_seq), "`expr` sequences are runs of literals");
        check("size one is shallow", 32, |g| {
            if g.size() == 1 {
                let e = g.term(&syms, 3);
                let shallow = match &e {
                    Expr::Or(p) | Expr::And(p) | Expr::Seq(p) => {
                        p.iter().all(|q| matches!(q, Expr::Lit(_) | Expr::Top | Expr::Zero))
                    }
                    _ => true,
                };
                assert!(shallow, "size 1 allows one operator level, got {e}");
            }
        });
    }

    #[test]
    fn dependency_is_satisfiable_nontrivial() {
        let (_, syms) = symbols(4);
        let mut g = Gen::new(3);
        for _ in 0..20 {
            let d = g.dependency(&syms, 2);
            assert!(!d.is_top() && !d.is_zero());
            assert!(event_algebra::satisfiable(&d));
        }
    }

    #[test]
    fn workload_families_have_expected_shapes() {
        let (_, syms) = symbols(6);
        assert!(matches!(chain(&syms), Expr::Seq(_)));
        assert_eq!(klein_pipeline(&syms).len(), 5);
        assert_eq!(arrow_fanout(syms[0], &syms[1..]).len(), 5);
        assert_eq!(disjoint_arrows(&syms).len(), 3);
    }
}
