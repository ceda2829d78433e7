//! Experiment C2: "much of the required symbolic reasoning can be
//! precompiled, leading to efficiency at runtime." One-time compilation
//! cost (guard synthesis / automaton construction) versus the per-message
//! runtime cost it buys (constant-time guard reduction / table lookup),
//! as dependency size grows.

use bench::time;
use event_algebra::{residuate, satisfiable, DependencyMachine, Literal, SymbolId};
use guard::{CompiledWorkflow, GuardScope};
use testkit::{chain, klein_pipeline, symbols};

fn bench_compile() {
    let group = "compile";
    for &n in &[2usize, 4, 6, 8] {
        let (_, syms) = symbols(n);
        let deps = klein_pipeline(&syms);
        time(&format!("{group}/guards/{n}"), || {
            CompiledWorkflow::compile(&deps, GuardScope::Mentioning).guards.len()
        });
        time(&format!("{group}/automata/{n}"), || {
            deps.iter().map(|d| DependencyMachine::compile(d).state_count()).sum::<usize>()
        });
        let ch = chain(&syms);
        time(&format!("{group}/guards-chain/{n}"), || {
            CompiledWorkflow::compile(std::slice::from_ref(&ch), GuardScope::Mentioning)
                .guards
                .len()
        });
    }
}

fn bench_runtime() {
    let group = "runtime";
    for &n in &[4usize, 8] {
        let (_, syms) = symbols(n);
        let deps = klein_pipeline(&syms);
        let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        let last = Literal::pos(*syms.last().unwrap());
        let g = compiled.guard(last);
        let fact = Literal::pos(syms[n - 2]);
        // Precompiled guard: one reduction per arriving announcement.
        time(&format!("{group}/guard-reduce/{n}"), || g.assume_occurred(fact).holds_now());
        // Automata runtime: one table step per event.
        let machines: Vec<DependencyMachine> =
            deps.iter().map(DependencyMachine::compile).collect();
        time(&format!("{group}/automata-step/{n}"), || {
            machines.iter().map(|m| m.step(m.initial, fact).index()).sum::<usize>()
        });
        // Uncompiled baseline: the centralized scheduler's runtime work —
        // residuate every dependency and re-check satisfiability.
        time(&format!("{group}/residuate-and-check/{n}"), || {
            deps.iter().map(|d| satisfiable(&residuate(d, fact)) as usize).sum::<usize>()
        });
        let _ = SymbolId(0);
    }
}

fn main() {
    bench_compile();
    bench_runtime();
}
