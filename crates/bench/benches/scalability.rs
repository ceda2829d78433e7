//! Experiment C4 (wall-clock side): end-to-end scheduling cost as the
//! workflow widens — independent work should scale linearly in total
//! work for every engine, with the distributed engine spreading it.

use baseline::Engine;
use bench::{disjoint_workload, run_central, run_distributed, time};

fn bench_scalability() {
    let group = "scalability";
    for &pairs in &[4u32, 16, 32] {
        let w = disjoint_workload(pairs, pairs.min(16));
        time(&format!("{group}/distributed/{pairs}"), || {
            let r = run_distributed(&w, 1);
            assert!(r.all_satisfied());
            r.duration
        });
        time(&format!("{group}/central-symbolic/{pairs}"), || {
            let r = run_central(&w, 1, Engine::Symbolic);
            assert!(r.all_satisfied());
            r.duration
        });
    }
}

fn main() {
    bench_scalability();
}
