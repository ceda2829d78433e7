//! Property tests for the Section 5 dynamic scheduler: mutual exclusion
//! under random adversarial interleavings, and serializability-style
//! uniform ordering (the paper's concluding remark in Example 13:
//! "concurrency control requirements such as serializability are
//! similar, except that they impose a uniform order over data access
//! events").

use dist::param::{mutex_pair, DynamicScheduler, Outcome, PExpr, Term};
use event_algebra::Literal;
use testkit::check;

/// Drive two looping tasks through a random interleaving of enter/exit
/// attempts; the scheduler may park enters, which retry implicitly when
/// exits occur. Checks the exclusion invariant on the realized trace.
fn run_mutex_interleaving(order: &[(u8, bool)]) -> DynamicScheduler {
    let (d12, d21) = mutex_pair("b1", "e1", "b2", "e2");
    let mut s = DynamicScheduler::new(vec![d12, d21]);
    let mut iter = [0u64, 0u64];
    let mut inside = [None::<u64>, None::<u64>];
    for &(task, enter) in order {
        let t = task as usize;
        if enter {
            if inside[t].is_some() {
                continue; // task already inside: cannot enter again
            }
            iter[t] += 1;
            let k = iter[t];
            let (var, b, e) = if t == 0 { ("x", "b1", "e1") } else { ("y", "b2", "e2") };
            s.bind(var, k);
            match s.attempt(&format!("{b}[{k}]")) {
                Outcome::Granted => {
                    s.guarantee(&format!("{e}[{k}]"));
                    inside[t] = Some(k);
                }
                Outcome::Parked => {
                    // Entering remains pending; the task cannot proceed,
                    // but it is still obligated to exit once inside. We
                    // model the task as abandoning the pending enter for
                    // this round (it will mint a fresh iteration later).
                }
                Outcome::Rejected => {}
            }
        } else if let Some(k) = inside[t].take() {
            let e = if t == 0 { "e1" } else { "e2" };
            // Exits of entered sections are guaranteed: must be granted.
            assert_eq!(
                s.attempt(&format!("{e}[{k}]")),
                Outcome::Granted,
                "guaranteed exit must be granted"
            );
        }
    }
    s
}

/// The exclusion invariant on the trace realized by `order`.
fn mutex_invariant_holds(order: &[(u8, bool)]) {
    let s = run_mutex_interleaving(order);
    let trace = s.trace();
    let evs = trace.events();
    let name_pos = |n: &str| {
        s.table.lookup(n).and_then(|sym| evs.iter().position(|l| l.symbol() == sym && l.is_pos()))
    };
    for k in 1..=24u64 {
        for j in 1..=24u64 {
            if let (Some(b1), Some(e1), Some(b2)) = (
                name_pos(&format!("b1[{k}]")),
                name_pos(&format!("e1[{k}]")),
                name_pos(&format!("b2[{j}]")),
            ) {
                assert!(!(b1 < b2 && b2 < e1), "b2[{j}] inside T1's section {k}: {trace}");
            }
            if let (Some(b2), Some(e2), Some(b1)) = (
                name_pos(&format!("b2[{k}]")),
                name_pos(&format!("e2[{k}]")),
                name_pos(&format!("b1[{j}]")),
            ) {
                assert!(!(b2 < b1 && b1 < e2), "b1[{j}] inside T2's section {k}: {trace}");
            }
        }
    }
}

/// The invariant holds on every realized trace, for every random
/// interleaving of enters and exits.
#[test]
fn mutex_invariant_under_random_interleavings() {
    check("mutex_invariant_under_random_interleavings", 48, |g| {
        let order: Vec<(u8, bool)> =
            (0..g.len(4, 23)).map(|_| (g.range(0u8..2), g.flip())).collect();
        mutex_invariant_holds(&order);
    });
}

/// Recorded counter-example: T2 enters, T1 enters, T1 tries to re-enter,
/// T2 exits.
#[test]
fn mutex_invariant_on_a_contended_reentry() {
    mutex_invariant_holds(&[(1, true), (0, true), (0, true), (1, false)]);
}

/// Serializability-style uniform ordering: two transactions access two
/// shared items; the dependencies impose that the access order agrees on
/// *every* item (as the paper notes, "a uniform order over data access
/// events"). Template per item z:
///
/// `w2[z]·w1[z] + w̄1[z] + w̄2[z] + w1[z]·w2[z]` is trivial (either order);
/// the uniformity comes from tying both items to the same direction via
/// the mutex-shaped dependency used twice, sharing the direction token.
#[test]
fn uniform_access_order_across_items() {
    // Accesses: t1 writes item a then b; t2 writes a then b. Uniform
    // order means: if t1's a-write precedes t2's, then also for b.
    // Encode with two mutex-style dependencies sharing variables:
    //   w2a[y]·w1a[x] + w̄1b[x] + w̄2a[y] + w1b[x]·w2a[y]
    // ("if t1 accessed a before t2, t1 finishes b before t2 touches a" —
    // two-phase-locking style ordering).
    let d = PExpr::Or(vec![
        PExpr::Seq(vec![
            PExpr::lit("w2a", &[Term::Var("y".into())]),
            PExpr::lit("w1a", &[Term::Var("x".into())]),
        ]),
        PExpr::comp("w1b", &[Term::Var("x".into())]),
        PExpr::comp("w2a", &[Term::Var("y".into())]),
        PExpr::Seq(vec![
            PExpr::lit("w1b", &[Term::Var("x".into())]),
            PExpr::lit("w2a", &[Term::Var("y".into())]),
        ]),
    ]);
    let d2 = PExpr::Or(vec![
        PExpr::Seq(vec![
            PExpr::lit("w1a", &[Term::Var("x".into())]),
            PExpr::lit("w2a", &[Term::Var("y".into())]),
        ]),
        PExpr::comp("w2b", &[Term::Var("y".into())]),
        PExpr::comp("w1a", &[Term::Var("x".into())]),
        PExpr::Seq(vec![
            PExpr::lit("w2b", &[Term::Var("y".into())]),
            PExpr::lit("w1a", &[Term::Var("x".into())]),
        ]),
    ]);
    let mut s = DynamicScheduler::new(vec![d, d2]);
    s.bind("x", 1);
    s.bind("y", 1);
    // t1 writes a first.
    assert_eq!(s.attempt("w1a[1]"), Outcome::Granted);
    s.guarantee("w1b[1]");
    // t2's a-write must now wait until t1 finishes b.
    assert_eq!(s.attempt("w2a[1]"), Outcome::Parked);
    assert_eq!(s.attempt("w1b[1]"), Outcome::Granted);
    // Parked w2a wakes after w1b.
    let trace = s.trace();
    let evs = trace.events();
    let pos = |n: &str| {
        s.table.lookup(n).and_then(|sym| evs.iter().position(|l| l.symbol() == sym && l.is_pos()))
    };
    let (w1a, w1b, w2a) = (
        pos("w1a[1]").unwrap(),
        pos("w1b[1]").unwrap(),
        pos("w2a[1]").expect("t2's access proceeded after t1 finished"),
    );
    assert!(w1a < w2a && w1b < w2a, "uniform order violated: {trace}");
    s.guarantee("w2b[1]");
    assert_eq!(s.attempt("w2b[1]"), Outcome::Granted);
    assert!(s.all_satisfied(), "{}", s.trace());
    let _ = Literal::pos(event_algebra::SymbolId(0));
}
