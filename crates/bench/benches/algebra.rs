//! Hot-path microbenchmarks for the hash-consed expression arena and the
//! compiled guard runtime: interning, residuation, dependency-machine
//! compilation, the per-message FSM step, and the end-to-end simulated
//! schedule under the symbolic vs the compiled dependency runtime.
//!
//! Each group pairs the tree-walking reference implementation ("tree")
//! against the arena/automaton fast path ("arena"/"compiled") so the
//! before/after ratio is measured, not assumed. `src/bin/perfprobe.rs`
//! measures the same pairs into `BENCH_algebra.json`.

use bench::{pipeline_workload, standard_sim, time};
use dist::{run_workflow, DepRuntime, ExecConfig, GuardMode};
use event_algebra::{normalize, residuate, DependencyMachine, Expr, ExprArena, Literal};

/// The normalized pipeline dependencies plus every literal of their joint
/// alphabet — the workload all algebra-level groups share.
fn pipeline_exprs(n: u32) -> (Vec<Expr>, Vec<Literal>) {
    let w = pipeline_workload(n, 1);
    let deps: Vec<Expr> = w.deps.iter().map(normalize).collect();
    let mut lits: Vec<Literal> = deps
        .iter()
        .flat_map(|d| d.symbols())
        .flat_map(|s| [Literal::pos(s), Literal::neg(s)])
        .collect();
    lits.sort();
    lits.dedup();
    (deps, lits)
}

fn bench_intern() {
    let group = "intern";
    for &n in &[10u32, 20] {
        let (deps, _) = pipeline_exprs(n);
        time(&format!("{group}/pipeline/{n}"), || {
            let mut arena = ExprArena::new();
            let ids: Vec<_> = deps.iter().map(|d| arena.intern(d)).collect();
            (arena.len(), ids.len())
        });
    }
}

fn bench_residuate() {
    let group = "residuate";
    for &n in &[10u32, 20] {
        let (deps, lits) = pipeline_exprs(n);
        time(&format!("{group}/tree/{n}"), || {
            let mut acc = 0usize;
            for d in &deps {
                for &l in &lits {
                    acc += residuate(d, l).node_count();
                }
            }
            acc
        });
        // The arena persists across calls — exactly how GuardSynth and
        // the machine compiler hold it — so steady-state probes are memo
        // hits on interned ids.
        let mut arena = ExprArena::new();
        let ids: Vec<_> = deps.iter().map(|d| arena.intern(d)).collect();
        time(&format!("{group}/arena/{n}"), || {
            let mut acc = 0u64;
            for &id in &ids {
                for &l in &lits {
                    acc += arena.residuate(id, l).index() as u64;
                }
            }
            acc
        });
    }
}

fn bench_compile() {
    let group = "machine-compile";
    // Pipeline arrows each compile to a tiny (≤4-state) machine, so these
    // series measure per-dependency overhead and structural dedup; the
    // `large/*` series below compiles one (n+1)-state chain machine so a
    // regression in the big-automaton path can't hide in tiny-machine
    // noise.
    for &n in &[10u32, 20] {
        let (deps, _) = pipeline_exprs(n);
        debug_assert!(deps
            .iter()
            .all(|d| DependencyMachine::compile_tree_reference(d).state_count() <= 4));
        time(&format!("{group}/tiny/tree/{n}"), || {
            deps.iter()
                .map(|d| DependencyMachine::compile_tree_reference(d).state_count())
                .sum::<usize>()
        });
        time(&format!("{group}/tiny/arena/{n}"), || {
            DependencyMachine::compile_all(&deps)
                .iter()
                .map(DependencyMachine::state_count)
                .sum::<usize>()
        });
        // Structural dedup: the same dependency instantiated n times is
        // compiled once by the arena path, n times by the tree path.
        let replicated: Vec<Expr> = (0..deps.len()).map(|_| deps[0].clone()).collect();
        time(&format!("{group}/tiny/tree-replicated/{n}"), || {
            replicated
                .iter()
                .map(|d| DependencyMachine::compile_tree_reference(d).state_count())
                .sum::<usize>()
        });
        time(&format!("{group}/tiny/arena-replicated/{n}"), || {
            DependencyMachine::compile_all(&replicated)
                .iter()
                .map(DependencyMachine::state_count)
                .sum::<usize>()
        });
        // One monolithic chain e₁·e₂·…·eₙ: a single machine whose state
        // count grows with n instead of many constant-size machines.
        let chain = normalize(&Expr::seq(
            deps.iter()
                .flat_map(|d| d.symbols())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|s| Expr::lit(Literal::pos(s))),
        ));
        time(&format!("{group}/large/tree/{n}"), || {
            DependencyMachine::compile_tree_reference(&chain).state_count()
        });
        time(&format!("{group}/large/arena/{n}"), || {
            DependencyMachine::compile_all(std::slice::from_ref(&chain))
                .iter()
                .map(DependencyMachine::state_count)
                .sum::<usize>()
        });
    }
}

fn bench_step() {
    let group = "step";
    let (deps, lits) = pipeline_exprs(10);
    let machines = DependencyMachine::compile_all(&deps);
    // Per-message work of one actor: fold each alphabet literal into
    // every dependency's residual once.
    time(&format!("{group}/tree-residual"), || {
        let mut acc = 0usize;
        for d in &deps {
            let mut r = d.clone();
            for &l in &lits {
                r = residuate(&r, l);
            }
            acc += r.node_count();
        }
        acc
    });
    time(&format!("{group}/fsm-step"), || {
        let mut acc = 0u32;
        for m in &machines {
            let mut s = m.initial;
            for &l in &lits {
                s = m.step(s, l);
            }
            acc += s.0;
        }
        acc
    });
}

fn bench_e2e() {
    let group = "e2e-schedule";
    for &n in &[10u32] {
        let w = pipeline_workload(n, n.min(8));
        for (label, runtime) in
            [("symbolic", DepRuntime::Symbolic), ("compiled", DepRuntime::Compiled)]
        {
            time(&format!("{group}/{label}/{n}"), || {
                let r = run_workflow(
                    &w.spec(),
                    ExecConfig {
                        sim: standard_sim(1),
                        guard_mode: GuardMode::Weakened,
                        max_steps: 5_000_000,
                        dep_runtime: runtime,
                        ..ExecConfig::seeded(1)
                    },
                );
                assert!(r.all_satisfied());
                r.net.sent_total
            });
        }
    }
}

fn main() {
    bench_intern();
    bench_residuate();
    bench_compile();
    bench_step();
    bench_e2e();
}
