//! Prebuilt extended-transaction workflow models.
//!
//! The paper's thesis is that "intertask dependencies can be used to
//! formalize the scheduling aspects of a large variety of, and
//! combinations of, workflow and transaction models" (Section 1). This
//! module instantiates that claim: the classic extended-transaction
//! models — sagas, contingency (alternative) tasks, DAG-structured
//! workflows — are expressed purely as dependency sets over the agent
//! library, with no bespoke scheduler support.

use crate::{Script, Workflow, WorkflowBuilder};
use agent::library::{rda_transaction, typical_application};

/// A **saga**: a chain of transactions `t₁ … tₙ`, each compensatable.
/// Forward flow: tᵢ₊₁ starts when tᵢ commits. Backward recovery: if any
/// tᵢ aborts, compensations `cⱼ` run for every j < i that committed.
///
/// Scripts: every step works `think` ticks then commits; `fail_at`
/// (0-based) makes that step abort instead, exercising recovery.
pub fn saga(steps: usize, think: u64, fail_at: Option<usize>) -> Workflow {
    assert!(steps >= 2, "a saga needs at least two steps");
    let mut b = WorkflowBuilder::new("saga");
    for i in 0..steps {
        let t = rda_transaction(&format!("t{i}"), b.table());
        let script = if fail_at == Some(i) {
            Script::default().wait(think).then("abort")
        } else if i == 0 {
            Script::default().then("start").wait(think).then("commit")
        } else {
            Script::default().wait(think).then("commit")
        };
        b.add_agent(i as u32, t, script);
        // Compensation task for every step that can need undoing (all but
        // the last).
        if i + 1 < steps {
            let c = typical_application(&format!("c{i}"), b.table());
            b.add_agent(i as u32, c, Script::of(&[]));
        }
    }
    let last = steps - 1;
    for i in 0..steps - 1 {
        // Forward: t_{i+1} begins exactly when t_i commits.
        b.dependency_spec(&format!("begin_on_commit(t{i}, t{})", i + 1)).unwrap();
        // Backward: a saga is committed iff its *final* step commits; any
        // committed step whose saga never completes is compensated
        // (Example 4's pattern, keyed to the last step).
        b.dependency_spec(&format!("compensate(t{i}, t{last}, c{i})")).unwrap();
    }
    // Structure dependencies (commit-after-start etc.) let the scheduler
    // conclude "t_last will never commit" as soon as its start is ruled
    // out, cascading into the compensations.
    b.add_structure_deps();
    b.build()
}

/// The sagas the lossy-link gates run (`tests/fault_conformance.rs` and
/// the `conformance` driver's fault mode): two, three and four steps,
/// and three steps with the second aborting.
pub fn gate_sagas() -> [(&'static str, Workflow); 4] {
    [
        ("saga2", saga(2, 3, None)),
        ("saga3", saga(3, 3, None)),
        ("saga4", saga(4, 3, None)),
        ("saga3-abort1", saga(3, 3, Some(1))),
    ]
}

/// A **hold an abort breaks**: a payment may commit only before its
/// order aborts (`pay.commit < order.abort`) and only after the stock is
/// committed (`stock.commit . pay.commit`). The payment's commit is
/// attempted at once and, while it waits for the stock, asks
/// `order.abort` to hold still; the order's agent aborts anyway 20 ticks
/// after it starts — an immediate event the scheduler can neither delay
/// nor reject — which ends the hold and kills the payment's guard, so
/// the payment is rejected. The stock commits 2 000 ticks after it
/// starts, well past the abort's announcement under every standard fault
/// plan, so every run ends satisfied.
///
/// The model the conformance sweep runs for the twelfth audit: an
/// occurrence ends the holds it keeps, and the requester, which heard
/// it, sends it nothing that could.
pub fn held_abort() -> Workflow {
    let mut b = WorkflowBuilder::new("held-abort");
    let order = rda_transaction("order", b.table());
    let pay = rda_transaction("pay", b.table());
    let stock = rda_transaction("stock", b.table());
    b.add_agent(0, order, Script::default().then("start").wait(20).then("abort"));
    b.add_agent(0, pay, Script::default().then("start").then("commit"));
    b.add_agent(1, stock, Script::default().then("start").wait(2000).then("commit"));
    b.dependency_str("~pay::commit + ~order::abort + pay::commit . order::abort").unwrap();
    b.dependency_str("~pay::commit + stock::commit . pay::commit").unwrap();
    b.build()
}

/// A **contingency** pair: try `primary`; if it aborts, run `alternate`
/// (Günthör-style alternative tasks). At most one of the two commits.
pub fn contingency(think: u64, primary_fails: bool) -> Workflow {
    let mut b = WorkflowBuilder::new("contingency");
    let p = rda_transaction("primary", b.table());
    let a = rda_transaction("alternate", b.table());
    let p_script = if primary_fails {
        Script::default().then("start").wait(think).then("abort")
    } else {
        Script::default().then("start").wait(think).then("commit")
    };
    b.add_agent(0, p, p_script);
    // The alternate runs only when triggered.
    b.add_agent(1, a, Script::default().then("commit"));
    // If the primary aborts, the alternate starts (and its agent commits).
    b.dependency_str("~primary::abort + alternate::start").unwrap();
    // The alternate starts and commits only after the primary's abort —
    // this is the *operational* exclusion: if the primary commits, its
    // abort never happens and the alternate's events are rejected. (A
    // bare `exclusion(primary, alternate)` would instead give the
    // primary's commit a guard ◇~alternate.commit that nothing can
    // promise — a specification deadlock the compile-time analysis
    // reports as a consensus gap.)
    b.dependency_str("~alternate::start + primary::abort . alternate::start").unwrap();
    b.dependency_str("~alternate::commit + primary::abort . alternate::commit").unwrap();
    b.build()
}

/// A **DAG workflow**: a diamond `src → {left, right} → sink` where the
/// sink starts only after both branches commit — the fork/join shape of
/// workflow nets, expressed as four dependencies.
pub fn diamond(think: u64) -> Workflow {
    let mut b = WorkflowBuilder::new("diamond");
    for (site, name) in [(0u32, "src"), (1, "left"), (2, "right"), (3, "sink")] {
        let t = rda_transaction(name, b.table());
        let script = if name == "src" {
            Script::default().then("start").wait(think).then("commit")
        } else {
            Script::default().wait(think).then("commit")
        };
        b.add_agent(site, t, script);
    }
    b.dependency_spec("begin_on_commit(src, left)").unwrap();
    b.dependency_spec("begin_on_commit(src, right)").unwrap();
    // Join: the sink starts after both branches commit.
    b.dependency_str("~sink::start + left::commit . sink::start").unwrap();
    b.dependency_str("~sink::start + right::commit . sink::start").unwrap();
    b.dependency_str("~left::commit + sink::start").unwrap();
    b.dependency_str("~right::commit + sink::start").unwrap();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(report: &crate::RunReport, wf: &Workflow) -> Vec<String> {
        report
            .trace
            .events()
            .iter()
            .filter(|l| l.is_pos())
            .filter_map(|l| wf.spec.table.name(l.symbol()).map(str::to_owned))
            .collect()
    }

    #[test]
    fn saga_happy_path_commits_everything_no_compensation() {
        for seed in 0..8 {
            let wf = saga(3, 4, None);
            let r = wf.run(seed);
            assert!(r.all_satisfied(), "seed {seed}: {r:#?}");
            let ns = names(&r, &wf);
            for i in 0..3 {
                assert!(ns.contains(&format!("t{i}.commit")), "seed {seed}: {ns:?}");
            }
            assert!(
                !ns.iter().any(|n| n.starts_with('c') && n.ends_with(".start")),
                "no compensation on success: {ns:?}"
            );
        }
    }

    #[test]
    fn held_abort_breaks_a_hold_and_rejects_the_payment() {
        let wf = held_abort();
        let sym = |name| wf.spec.table.lookup(name).expect(name);
        for seed in 0..8 {
            let r = wf.run(seed);
            assert!(r.all_satisfied(), "seed {seed}: {r:#?}");
            let ns = names(&r, &wf);
            assert!(ns.contains(&"order.abort".to_owned()), "seed {seed}: {ns:?}");
            assert!(!ns.contains(&"pay.commit".to_owned()), "seed {seed}: {ns:?}");
            // The abort occurred while it held still for the payment.
            assert_eq!(r.actor_stats[sym("order.abort")].holds_granted, 1, "seed {seed}");
            assert!(r.standing_holds.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn saga_failure_compensates_committed_prefix() {
        for seed in 0..8 {
            // Step 2 (0-based) fails; steps 0 and 1 committed and must be
            // compensated.
            let wf = saga(3, 4, Some(2));
            let r = wf.run(seed);
            assert!(r.all_satisfied(), "seed {seed}: {r:#?}");
            let ns = names(&r, &wf);
            assert!(ns.contains(&"t0.commit".to_owned()), "{ns:?}");
            assert!(ns.contains(&"t1.commit".to_owned()), "{ns:?}");
            assert!(!ns.contains(&"t2.commit".to_owned()), "{ns:?}");
            assert!(ns.contains(&"c1.start".to_owned()), "step 1 compensated: {ns:?}");
            assert!(ns.contains(&"c0.start".to_owned()), "step 0 compensated: {ns:?}");
        }
    }

    #[test]
    fn saga_first_step_failure_compensates_nothing() {
        let wf = saga(3, 2, Some(0));
        let r = wf.run(5);
        assert!(r.all_satisfied(), "{r:#?}");
        let ns = names(&r, &wf);
        assert!(!ns.iter().any(|n| n.ends_with(".commit")), "{ns:?}");
        assert!(!ns.iter().any(|n| n.starts_with('c') && n.ends_with(".start")), "{ns:?}");
    }

    #[test]
    fn contingency_prefers_primary() {
        for seed in 0..8 {
            let wf = contingency(3, false);
            let r = wf.run(seed);
            assert!(r.all_satisfied(), "seed {seed}: {r:#?}");
            let ns = names(&r, &wf);
            assert!(ns.contains(&"primary.commit".to_owned()), "{ns:?}");
            assert!(!ns.contains(&"alternate.start".to_owned()), "{ns:?}");
        }
    }

    #[test]
    fn contingency_falls_back_on_abort() {
        for seed in 0..8 {
            let wf = contingency(3, true);
            let r = wf.run(seed);
            assert!(r.all_satisfied(), "seed {seed}: {r:#?}");
            let ns = names(&r, &wf);
            assert!(ns.contains(&"primary.abort".to_owned()), "{ns:?}");
            assert!(ns.contains(&"alternate.commit".to_owned()), "{ns:?}");
            assert!(!ns.contains(&"primary.commit".to_owned()), "{ns:?}");
        }
    }

    #[test]
    fn diamond_joins_after_both_branches() {
        for seed in 0..8 {
            let wf = diamond(3);
            let r = wf.run(seed);
            assert!(r.all_satisfied(), "seed {seed}: {r:#?}");
            let evs = r.trace.events();
            let pos = |name: &str| {
                evs.iter().position(|l| l.is_pos() && wf.spec.table.name(l.symbol()) == Some(name))
            };
            let (l, rt, s) = (
                pos("left.commit").expect("left committed"),
                pos("right.commit").expect("right committed"),
                pos("sink.start").expect("sink started"),
            );
            assert!(l < s && rt < s, "join order violated: {}", r.trace);
        }
    }
}
