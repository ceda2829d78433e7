//! Experiment C5: "\[the automaton approach of \[2\]\] avoids generating
//! product automata, but the individual automata themselves can be quite
//! large."
//!
//! For growing dependency families we compare the per-dependency residual
//! automaton's state count against the size of the synthesized guards
//! (total `T` node count over all participating events).

use bench::row;
use event_algebra::{DependencyMachine, Expr, SymbolId, SymbolTable};
use guard::{CompiledWorkflow, GuardScope};

fn measure(label: &str, dep: Expr, widths: &[usize]) {
    let machine = DependencyMachine::compile(&dep);
    let compiled = CompiledWorkflow::compile(std::slice::from_ref(&dep), GuardScope::Mentioning);
    println!(
        "{}",
        row(
            &[
                label.to_string(),
                dep.symbols().len().to_string(),
                machine.state_count().to_string(),
                compiled.total_guard_size().to_string(),
                compiled.max_guard_size().to_string(),
            ],
            widths
        )
    );
}

fn main() {
    println!("== C5: automaton states vs guard size ==\n");
    let widths = [22usize, 8, 10, 12, 14];
    println!(
        "{}",
        row(
            &[
                "dependency".into(),
                "symbols".into(),
                "automaton".into(),
                "guard nodes".into(),
                "max per event".into(),
            ],
            &widths
        )
    );
    let mut t = SymbolTable::new();
    let syms: Vec<SymbolId> = (0..8).map(|i| t.intern(&format!("e{i}"))).collect();

    // Chains e1·…·en: the residual automaton is linear, guards linear.
    for n in [2usize, 4, 6, 8] {
        let dep = testkit::chain(&syms[..n]);
        measure(&format!("chain-{n}"), dep, &widths);
    }
    // Disjunctions of independent arrows: the automaton must track every
    // combination of progress across branches (product-like growth within
    // one dependency), while guards stay per-event local.
    for pairs in [1usize, 2, 3] {
        let parts = testkit::disjoint_arrows(&syms[..pairs * 2]);
        let dep = Expr::And(parts.clone());
        measure(&format!("and-of-{pairs}-arrows"), dep, &widths);
    }
    // Conjunction of precedences sharing events.
    for n in [3usize, 4, 5] {
        let parts = testkit::klein_pipeline(&syms[..n]);
        let dep = Expr::And(parts);
        measure(&format!("pipeline-{n}-as-one"), dep, &widths);
    }
    println!("\n(the automaton is ONE object the scheduler must host and walk; each guard");
    println!(" lives at its own event — 'max per event' is what any single actor stores)");
}
