//! Oracle property tests for the hash-consed [`ExprArena`]: on random
//! expressions over a small alphabet, every arena operation must agree
//! with the reference tree implementation — interning, normalization and
//! residuation. The arena is what dependency machines are compiled on;
//! the tree functions are the specification.

use event_algebra::{normalize, residuate, Expr, ExprArena, SymbolId};
use testkit::{check, Exprs, Gen};

const NSYMS: u32 = 6;
const CASES: u32 = 256;

fn syms() -> Vec<SymbolId> {
    (0..NSYMS).map(SymbolId).collect()
}

/// A random expression of bounded depth over the full grammar, built
/// through the canonicalizing constructors (the arena's round-trip
/// contract is stated for canonical trees; raw `Expr::Or(vec![...])` nodes
/// are covered by the constructor laws in `laws.rs`).
fn term(g: &mut Gen) -> Expr {
    g.term(&syms(), 3)
}

/// Interning and rebuilding is the identity on canonical trees, and
/// id equality coincides with structural equality.
#[test]
fn intern_round_trips() {
    check("intern_round_trips", CASES, |g| {
        let e = term(g);
        let f = term(g);
        let mut arena = ExprArena::new();
        let ie = arena.intern(&e);
        let if_ = arena.intern(&f);
        assert_eq!(arena.expr(ie), e.clone());
        assert_eq!(arena.expr(if_), f.clone());
        assert_eq!(ie == if_, e == f);
        // Re-interning hits the same id.
        assert_eq!(arena.intern(&e), ie);
    });
}

/// Arena normalization equals tree normalization.
#[test]
fn normalize_matches_tree() {
    check("normalize_matches_tree", CASES, |g| {
        let e = term(g);
        let mut arena = ExprArena::new();
        let id = arena.intern(&e);
        let nid = arena.normalize(id);
        assert_eq!(arena.expr(nid), normalize(&e));
        assert!(arena.is_normal(nid));
    });
}

/// Arena residuation (normalize + R1–R8 with the memo cache) equals
/// tree residuation, including chained residuation by two literals —
/// which exercises cache hits on shared residuals.
#[test]
fn residuate_matches_tree() {
    check("residuate_matches_tree", CASES, |g| {
        let e = term(g);
        let a = g.literal(&syms());
        let b = g.literal(&syms());
        let mut arena = ExprArena::new();
        let id = arena.intern(&e);
        let ra = arena.residuate(id, a);
        assert_eq!(arena.expr(ra), residuate(&e, a));
        let rab = arena.residuate(ra, b);
        assert_eq!(arena.expr(rab), residuate(&residuate(&e, a), b));
        // Same query again: must come out of the cache unchanged.
        assert_eq!(arena.residuate(id, a), ra);
    });
}

/// One arena serving many expressions stays consistent: interleaved
/// queries against fresh single-use arenas give identical answers.
#[test]
fn shared_arena_is_isolated() {
    check("shared_arena_is_isolated", CASES, |g| {
        let es = (0..g.len(2, 4)).map(|_| term(g)).collect::<Vec<Expr>>();
        let l = g.literal(&syms());
        let mut shared = ExprArena::new();
        for e in &es {
            let id = shared.intern(e);
            let mut fresh = ExprArena::new();
            let fid = fresh.intern(e);
            let (shared_res, fresh_res) = (shared.residuate(id, l), fresh.residuate(fid, l));
            assert_eq!(shared.expr(shared_res), fresh.expr(fresh_res));
        }
    });
}
