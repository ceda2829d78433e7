//! Integration test X3: the travel workflow of Example 4 across seeds
//! and schedulers — every realized run satisfies all three
//! dependencies, the commit order of dependency 2 always holds, and the
//! compensation of dependency 3 triggers exactly when buy fails.

use constrained_events::agents::library::{rda_transaction, typical_application};
use constrained_events::{Engine, Script, Workflow, WorkflowBuilder};

fn build(buy_script: &[&str]) -> Workflow {
    let mut b = WorkflowBuilder::new("travel");
    let buy = rda_transaction("buy", b.table());
    let book = rda_transaction("book", b.table());
    let cancel = typical_application("cancel", b.table());
    b.add_agent(0, buy, Script::of(buy_script));
    b.add_agent(1, book, Script::of(&["commit"]));
    b.add_agent(2, cancel, Script::of(&[]));
    b.dependency_str("~buy::start + book::start").unwrap();
    b.dependency_str("~buy::commit + book::commit . buy::commit").unwrap();
    b.dependency_str("~book::commit + buy::commit + cancel::start").unwrap();
    b.build()
}

fn pos_of(report: &constrained_events::RunReport, wf: &Workflow, name: &str) -> Option<usize> {
    report
        .trace
        .events()
        .iter()
        .position(|l| l.is_pos() && wf.spec.table.name(l.symbol()) == Some(name))
}

#[test]
fn success_path_across_seeds() {
    for seed in 0..40 {
        let wf = build(&["start", "commit"]);
        let report = wf.run(seed);
        assert!(report.all_satisfied(), "seed {seed}: {report:#?}");
        let b = pos_of(&report, &wf, "book.commit")
            .unwrap_or_else(|| panic!("seed {seed}: book did not commit: {}", report.trace));
        let a = pos_of(&report, &wf, "buy.commit")
            .unwrap_or_else(|| panic!("seed {seed}: buy did not commit: {}", report.trace));
        assert!(b < a, "seed {seed}: dependency 2 order violated: {}", report.trace);
        assert!(
            pos_of(&report, &wf, "cancel.start").is_none(),
            "seed {seed}: spurious compensation: {}",
            report.trace
        );
    }
}

#[test]
fn failure_path_triggers_compensation_across_seeds() {
    for seed in 0..40 {
        let wf = build(&["start", "abort"]);
        let report = wf.run(seed);
        assert!(report.all_satisfied(), "seed {seed}: {report:#?}");
        assert!(
            pos_of(&report, &wf, "cancel.start").is_some(),
            "seed {seed}: compensation missing: {}",
            report.trace
        );
        assert!(
            pos_of(&report, &wf, "buy.commit").is_none(),
            "seed {seed}: aborted buy committed?!"
        );
    }
}

#[test]
fn centralized_schedulers_agree_on_correctness() {
    for seed in 0..10 {
        for engine in [Engine::Symbolic, Engine::Automata] {
            let wf = build(&["start", "commit"]);
            let report = wf.run_centralized(seed, engine);
            assert!(report.all_satisfied(), "seed {seed} {engine:?}: {report:#?}");
            if let (Some(b), Some(a)) =
                (pos_of(&report, &wf, "book.commit"), pos_of(&report, &wf, "buy.commit"))
            {
                assert!(b < a, "seed {seed} {engine:?}: order violated");
            }
        }
    }
}

#[test]
fn guards_match_paper_closed_forms() {
    let wf = build(&["start", "commit"]);
    // Dependency 2 alone is c_book < c_buy restricted — conjoined guards:
    // buy.commit waits for book.commit's occurrence.
    assert_eq!(wf.guard_text("buy.commit").unwrap(), "[]book.commit");
    // buy.start needs the workflow's book.start eventuality (Example 11
    // shape).
    assert_eq!(wf.guard_text("buy.start").unwrap(), "<>book.start");
    assert_eq!(wf.guard_text("book.start").unwrap(), "T");
}
