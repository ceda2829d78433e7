//! Experiment C1/B2 (wall-clock side): cost of scheduling one complete
//! workflow under the three engines — distributed guards, centralized
//! symbolic residuation, centralized precompiled automata.

use baseline::Engine;
use bench::{pipeline_workload, run_central, run_distributed, standard_sim, time};
use dist::{run_workflow, ExecConfig, GuardMode};

fn bench_scheduling() {
    let group = "scheduling";
    for &n in &[4u32, 8, 16] {
        let w = pipeline_workload(n, n.min(8));
        time(&format!("{group}/distributed/{n}"), || {
            let r = run_distributed(&w, 1);
            assert!(r.all_satisfied());
            r.net.sent_total
        });
        time(&format!("{group}/central-symbolic/{n}"), || {
            let r = run_central(&w, 1, Engine::Symbolic);
            assert!(r.all_satisfied());
            r.net.sent_total
        });
        time(&format!("{group}/central-automata/{n}"), || {
            let r = run_central(&w, 1, Engine::Automata);
            assert!(r.all_satisfied());
            r.net.sent_total
        });
    }
}

/// Ablation: the paper's Section 4.2 "small insight" (weakened sequence
/// guards, the default) against fully faithful `◇(sequence)` guards with
/// residuation-based reduction.
fn bench_guard_modes() {
    let group = "guard-mode";
    for &n in &[4u32, 8] {
        let w = pipeline_workload(n, n.min(8));
        for (label, mode) in [("weakened", GuardMode::Weakened), ("faithful", GuardMode::Faithful)]
        {
            time(&format!("{group}/{label}/{n}"), || {
                let r = run_workflow(
                    &w.spec(),
                    ExecConfig {
                        sim: standard_sim(1),
                        guard_mode: mode,
                        max_steps: 5_000_000,
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
    bench_scheduling();
    bench_guard_modes();
}
