//! Guard-synthesis growth: `CompiledWorkflow::compile` wall time and the
//! conjunct counts it produces for sagas of 2..=5 steps and Klein
//! pipelines of 4..=12 stages. The end-to-end benchmark samples this
//! curve at two points (`saga(3)`, and `saga(4)` as 2 % of `solo_cold`);
//! here the whole curve is on record.

use bench::time;
use constrained_events::models::saga;
use event_algebra::{Expr, SymbolId};
use guard::{CompiledWorkflow, GuardScope};
use testkit::klein_pipeline;

/// Time one compile and print what it built: total and largest conjunct
/// count over the per-literal guards, multiplied out.
fn bench_compile(name: &str, deps: &[Expr]) {
    let compiled = CompiledWorkflow::compile(deps, GuardScope::Mentioning);
    let counts = compiled.guards.keys().map(|&lit| compiled.guard(lit).conjuncts().len());
    println!(
        "guards/{name}: {} dependencies, {} conjuncts, widest guard {}",
        deps.len(),
        counts.clone().sum::<usize>(),
        counts.max().unwrap_or(0)
    );
    time(&format!("guards/compile/{name}"), || {
        CompiledWorkflow::compile(deps, GuardScope::Mentioning).guards.len()
    });
}

fn main() {
    for steps in 2..=5 {
        bench_compile(&format!("saga{steps}"), &saga(steps, 3, None).spec.dependencies);
    }
    for stages in 4..=12u32 {
        let syms: Vec<SymbolId> = (0..stages).map(SymbolId).collect();
        bench_compile(&format!("pipeline{stages}"), &klein_pipeline(&syms));
    }
}
