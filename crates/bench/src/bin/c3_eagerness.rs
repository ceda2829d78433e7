//! Experiment C3: "information flows as soon as it is available, and
//! activities are not unnecessarily delayed."
//!
//! On the precedence fan-out workload (one root that must precede n−1
//! leaves), every leaf waits for the root's occurrence. We measure the
//! virtual-time gap between the root's occurrence and each leaf's
//! occurrence under
//!
//! - the paper's **eager** scheduler (announcements re-evaluate parked
//!   attempts immediately),
//! - the **lazy** ablation (the same actors, each reading its inbox only
//!   once every P ticks, on a phase of its own — a polling scheduler),
//! - the centralized baseline (decision gap at the scheduler plus the
//!   round trip the agent pays).
//!
//! The claim shows as the eager gap sitting at one announcement latency
//! (10–20 ticks) while the lazy gap grows with the poll period: every row
//! must read eager < lazy P=10 < P=40 < P=80, or the binary fails.

use baseline::Engine;
use bench::{mean, prec_fanout_workload, row, run_central, run_distributed, run_polled};
use event_algebra::{Literal, SymbolId};
use sim::Time;

fn reaction_gaps(occurrences: &[(Literal, Time, u64)], root: SymbolId) -> Vec<f64> {
    let Some(&(_, t_root, _)) = occurrences.iter().find(|(l, _, _)| l.symbol() == root) else {
        return vec![];
    };
    occurrences
        .iter()
        .filter(|(l, _, _)| l.symbol() != root && l.is_pos())
        .map(|&(_, t, _)| (t.saturating_sub(t_root)) as f64)
        .collect()
}

fn main() {
    println!("== C3: reaction latency after the enabling event ==\n");
    let widths = [7usize, 10, 10, 10, 10, 10];
    let header = ["leaves", "eager", "lazy P=10", "lazy P=40", "lazy P=80", "central"];
    println!("{}", row(&header.map(String::from), &widths));
    for &n in &[3u32, 5, 9] {
        let w = prec_fanout_workload(n, n);
        // The gaps of each column after the first: eager, lazy, central.
        let mut gaps: [Vec<f64>; 5] = Default::default();
        for seed in 0..5 {
            let d = run_distributed(&w, seed);
            assert!(d.all_satisfied(), "{d:#?}");
            gaps[0].extend(reaction_gaps(&d.occurrences, SymbolId(0)));
            for (col, period) in [(1, 10), (2, 40), (3, 80)] {
                let l = run_polled(&w, seed, period);
                assert!(l.all_satisfied, "lazy P={period}: {l:#?}");
                gaps[col].extend(reaction_gaps(&l.occurrences, SymbolId(0)));
            }
            let c = run_central(&w, seed, Engine::Symbolic);
            assert!(c.all_satisfied());
            gaps[4].extend(reaction_gaps(&c.occurrences, SymbolId(0)));
        }
        let means = gaps.map(|g| mean(&g));
        assert!(
            means[..4].windows(2).all(|w| w[0] < w[1]),
            "{} leaves: eager < lazy P=10 < P=40 < P=80 fails: {means:?}",
            n - 1
        );
        let mut cols = vec![(n - 1).to_string()];
        cols.extend(means.iter().map(|m| format!("{m:.1}")));
        println!("{}", row(&cols, &widths));
    }
    println!("\n(virtual ticks from root occurrence to leaf occurrence; announcement");
    println!(" latency is 10-20 ticks; the central gap excludes the grant's return hop)");
}
