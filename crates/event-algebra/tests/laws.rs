//! Property tests: algebraic laws of `E` and soundness of residuation
//! (Theorem 1), checked against the trace semantics by exhaustive
//! enumeration over small alphabets.

use event_algebra::{
    enumerate_maximal, enumerate_universe, equivalent, normalize, residuate, residuate_trace,
    residuation_sound, satisfiable, satisfiable_avoiding, satisfies, DependencyMachine, Expr,
    Literal, SymbolId,
};
use testkit::{check, Exprs, Gen};

const NSYMS: u32 = 3;
const CASES: u32 = 64;

fn syms() -> Vec<SymbolId> {
    (0..NSYMS).map(SymbolId).collect()
}

/// A random expression over the full grammar of `E` (nested sequences
/// included), up to three operator levels deep.
fn term(g: &mut Gen) -> Expr {
    g.term(&syms(), 3)
}

/// `+` and `|` are associative, commutative and idempotent; `·` is
/// associative — all semantically (the constructors canonicalize, so
/// we compare raw nodes against constructed ones).
#[test]
fn or_and_laws() {
    check("or_and_laws", CASES, |g| {
        let a = term(g);
        let b = term(g);
        let c = term(g);
        let s = syms();
        let ab_c = Expr::Or(vec![Expr::Or(vec![a.clone(), b.clone()]), c.clone()]);
        let a_bc = Expr::Or(vec![a.clone(), Expr::Or(vec![b.clone(), c.clone()])]);
        assert!(equivalent(&ab_c, &a_bc, &s));
        let ab = Expr::And(vec![a.clone(), b.clone()]);
        let ba = Expr::And(vec![b.clone(), a.clone()]);
        assert!(equivalent(&ab, &ba, &s));
        let aa = Expr::Or(vec![a.clone(), a.clone()]);
        assert!(equivalent(&aa, &a, &s));
    });
}

/// `·` distributes over `+` and over `|` (the laws normalization
/// relies on — Section 3.2 "validates various useful properties").
#[test]
fn seq_distributivity() {
    check("seq_distributivity", CASES, |g| {
        let a = term(g);
        let b = term(g);
        let c = term(g);
        let s = syms();
        let lhs = Expr::Seq(vec![Expr::Or(vec![a.clone(), b.clone()]), c.clone()]);
        let rhs = Expr::Or(vec![
            Expr::Seq(vec![a.clone(), c.clone()]),
            Expr::Seq(vec![b.clone(), c.clone()]),
        ]);
        assert!(equivalent(&lhs, &rhs, &s));
        let lhs = Expr::Seq(vec![Expr::And(vec![a.clone(), b.clone()]), c.clone()]);
        let rhs = Expr::And(vec![
            Expr::Seq(vec![a.clone(), c.clone()]),
            Expr::Seq(vec![b.clone(), c.clone()]),
        ]);
        assert!(equivalent(&lhs, &rhs, &s));
    });
}

/// Normalization preserves meaning and establishes the normal form.
#[test]
fn normalize_sound() {
    check("normalize_sound", CASES, |g| {
        let a = term(g);
        let n = normalize(&a);
        assert!(event_algebra::is_normal(&n));
        assert!(equivalent(&a, &n, &syms()));
    });
}

/// Theorem 1: the residuation rules R1–R8 agree with the
/// model-theoretic definition on every realizable future.
#[test]
fn theorem1_residuation_sound() {
    check("theorem1_residuation_sound", CASES, |g| {
        let a = term(g);
        let by = g.literal(&syms());
        assert!(residuation_sound(&a, by, &syms()));
    });
}

/// A maximal trace satisfies `D` iff chain-residuating `D` by the
/// trace ends at `⊤` (the basis of Definition 3 / Figure 2).
#[test]
fn residual_chain_characterizes_satisfaction() {
    check("residual_chain_characterizes_satisfaction", CASES, |g| {
        let a = term(g);
        for u in enumerate_maximal(&syms()) {
            let r = residuate_trace(&a, &u);
            assert!(r.is_top() || r.is_zero(), "residual {r} not terminal on {u}");
            assert_eq!(r.is_top(), satisfies(&u, &a), "u={u}");
        }
    });
}

/// The dependency machine accepts exactly the satisfying maximal
/// traces and is consistent with step-by-step residuation.
#[test]
fn machine_agrees_with_semantics() {
    check("machine_agrees_with_semantics", CASES, |g| {
        let a = term(g);
        let m = DependencyMachine::compile(&a);
        for u in enumerate_maximal(&syms()) {
            assert_eq!(m.is_accepting(m.run(&u)), satisfies(&u, &a), "u={u}");
        }
    });
}

/// `satisfiable` agrees with brute-force search over maximal traces.
#[test]
fn satisfiable_agrees_with_enumeration() {
    check("satisfiable_agrees_with_enumeration", CASES, |g| {
        let a = term(g);
        let brute = enumerate_maximal(&syms()).iter().any(|u| satisfies(u, &a));
        assert_eq!(satisfiable(&a), brute);
    });
}

/// `satisfiable_avoiding` agrees with brute force restricted to
/// traces not containing the avoided event.
#[test]
fn satisfiable_avoiding_agrees() {
    check("satisfiable_avoiding_agrees", CASES, |g| {
        let a = term(g);
        let avoid = g.literal(&syms());
        let brute =
            enumerate_maximal(&syms()).iter().any(|u| !u.contains(avoid) && satisfies(u, &a));
        assert_eq!(satisfiable_avoiding(&a, avoid), brute);
    });
}

/// Residuation by an irrelevant symbol is the identity (rule R6).
#[test]
fn residuation_r6_identity() {
    check("residuation_r6_identity", CASES, |g| {
        let a = term(g);
        let foreign = Literal::pos(SymbolId(7));
        assert_eq!(residuate(&normalize(&a), foreign), normalize(&a));
    });
}

/// Satisfaction is closed under trace extension (the property that
/// justifies `E·⊤ = ⊤·E = E`).
#[test]
fn satisfaction_extension_closed() {
    check("satisfaction_extension_closed", CASES, |g| {
        let a = term(g);
        let universe = enumerate_universe(&syms());
        for u in &universe {
            if !satisfies(u, &a) {
                continue;
            }
            for v in &universe {
                if let Some(uv) = u.concat(v) {
                    assert!(satisfies(&uv, &a), "append {u} {v}");
                }
                if let Some(vu) = v.concat(u) {
                    assert!(satisfies(&vu, &a), "prepend {v} {u}");
                }
            }
        }
    });
}
