//! Quickstart: specify a two-task workflow declaratively, inspect the
//! synthesized guards, run it distributed, and check the realized trace.

use constrained_events::agents::library::rda_transaction;
use constrained_events::{Engine, Script, WorkflowBuilder};

fn main() {
    // Two transactions at different sites; book must commit before buy
    // (buy is non-refundable — Example 4's core constraint).
    let mut b = WorkflowBuilder::new("quickstart");
    let buy = rda_transaction("buy", b.table());
    let book = rda_transaction("book", b.table());
    b.add_agent(0, buy, Script::of(&["start", "commit"]));
    b.add_agent(1, book, Script::of(&["start", "commit"]));
    b.dependency_str("~buy::start + book::start").unwrap();
    b.dependency_str("~buy::commit + book::commit . buy::commit").unwrap();
    let workflow = b.build();

    println!("== guards synthesized from the dependencies (Definition 2) ==");
    for ev in ["buy.start", "book.start", "buy.commit", "book.commit"] {
        println!("  G({ev}) = {}", workflow.guard_text(ev).unwrap());
    }

    // Static analysis (the paper's compilation phase, Section 6).
    let analysis = analyze::analyze_dependencies(
        &workflow.spec.dependencies,
        &workflow.spec.table,
        &analyze::AnalyzeOptions::default(),
    );
    let consensus = analysis.diagnostics.iter().filter(|d| d.code == "WF020").count();
    println!("\n== compile-time analysis ==");
    println!("  jointly contradictory: {}", analysis.jointly_contradictory);
    println!("  consensus groups (Example 11 promises): {consensus}");

    // Distributed execution on the simulated network.
    let report = workflow.run(42);
    println!("\n== distributed run ==");
    println!("  trace: {}", report.trace);
    println!("  all dependencies satisfied: {}", report.all_satisfied());
    println!(
        "  {} messages, {:.0}% crossed sites, busiest site handled {}",
        report.net.sent_total,
        100.0 * report.net.remote_fraction(),
        report.net.max_site_load()
    );
    assert!(report.all_satisfied());

    // The same workflow under the centralized baseline for comparison.
    let central = workflow.run_centralized(42, Engine::Symbolic);
    println!("\n== centralized baseline ==");
    println!("  trace: {}", central.trace);
    println!(
        "  {} messages, busiest site handled {}",
        central.net.sent_total,
        central.net.max_site_load()
    );
    assert!(central.all_satisfied());
}
