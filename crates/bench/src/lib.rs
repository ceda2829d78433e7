//! Shared harness for the experiment suite: canonical workloads, run
//! helpers, table printing and the timing loop. Every figure/table
//! regeneration binary and every bench under `benches/` builds on these,
//! so the experiments in EXPERIMENTS.md are reproducible with one command
//! each.

#![warn(missing_docs)]

mod polled;

pub use polled::{run_polled, PolledRun};

use agent::library::rda_transaction;
use agent::EventAttrs;
use baseline::{run_centralized, CentralConfig, Engine};
use dist::{run_workflow, AgentSpec, ExecConfig, FreeEventSpec, RunReport, Script, WorkflowSpec};
use event_algebra::{Expr, Literal, SymbolId, SymbolTable};
use sim::SiteId;
use speclang::parse_dependency;

/// A workload: dependencies plus free controllable events spread over
/// sites, all attempted at start.
pub struct Workload {
    /// Event names.
    pub table: SymbolTable,
    /// The dependencies.
    pub deps: Vec<Expr>,
    /// Number of symbols.
    pub nsyms: u32,
    /// Number of sites the events are spread over.
    pub sites: u32,
}

impl Workload {
    /// Build the executable spec (events round-robin across `sites`).
    pub fn spec(&self) -> WorkflowSpec {
        let free_events = (0..self.nsyms)
            .map(|i| FreeEventSpec {
                site: SiteId(i % self.sites),
                lit: Literal::pos(SymbolId(i)),
                attrs: EventAttrs::controllable(),
                attempt_after: Some(1),
            })
            .collect();
        WorkflowSpec {
            table: self.table.clone(),
            dependencies: self.deps.clone(),
            agents: vec![],
            free_events,
        }
    }
}

/// The Klein-precedence pipeline workload over `n` events (`e₀<e₁<…`),
/// spread over `sites` sites.
pub fn pipeline_workload(n: u32, sites: u32) -> Workload {
    let mut table = SymbolTable::new();
    let syms: Vec<SymbolId> = (0..n).map(|i| table.intern(&format!("e{i}"))).collect();
    Workload { table, deps: testkit::klein_pipeline(&syms), nsyms: n, sites }
}

/// The precedence fan-out workload: one root that must precede `n-1`
/// leaves (`root < leafᵢ`), so every leaf *waits* for the root's
/// occurrence announcement.
pub fn prec_fanout_workload(n: u32, sites: u32) -> Workload {
    let mut table = SymbolTable::new();
    let syms: Vec<SymbolId> = (0..n).map(|i| table.intern(&format!("e{i}"))).collect();
    let root = Literal::pos(syms[0]);
    let deps = syms[1..]
        .iter()
        .map(|&l| {
            let leaf = Literal::pos(l);
            Expr::or([
                Expr::lit(root.complement()),
                Expr::lit(leaf.complement()),
                Expr::seq([Expr::lit(root), Expr::lit(leaf)]),
            ])
        })
        .collect();
    Workload { table, deps, nsyms: n, sites }
}

/// The arrow fan-out workload: one root, `n-1` leaves.
pub fn fanout_workload(n: u32, sites: u32) -> Workload {
    let mut table = SymbolTable::new();
    let syms: Vec<SymbolId> = (0..n).map(|i| table.intern(&format!("e{i}"))).collect();
    Workload { table, deps: testkit::arrow_fanout(syms[0], &syms[1..]), nsyms: n, sites }
}

/// `k` independent arrow pairs over disjoint symbols.
pub fn disjoint_workload(pairs: u32, sites: u32) -> Workload {
    let n = pairs * 2;
    let mut table = SymbolTable::new();
    let syms: Vec<SymbolId> = (0..n).map(|i| table.intern(&format!("e{i}"))).collect();
    Workload { table, deps: testkit::disjoint_arrows(&syms), nsyms: n, sites }
}

/// A *reactive* pipeline of `n` task agents, one per site: each stage is
/// an RDA transaction that starts, works for `think` ticks, and commits;
/// `begin_on_commit` chains stage i+1's start to stage i's commit. This
/// models real tasks whose work happens between grants — the setting in
/// which per-decision network hops dominate end-to-end latency.
pub fn reactive_pipeline_spec(n: u32, think: u64) -> WorkflowSpec {
    let mut table = SymbolTable::new();
    let mut agents = Vec::new();
    for i in 0..n {
        let agent = rda_transaction(&format!("s{i}"), &mut table);
        let script = if i == 0 {
            Script::default().then("start").wait(think).then("commit")
        } else {
            // Later stages only plan the work and commit; their start is
            // triggered by the begin_on_commit dependency.
            Script::default().wait(think).then("commit")
        };
        agents.push(AgentSpec { site: SiteId(i), agent, script });
    }
    let mut deps = Vec::new();
    for i in 0..n.saturating_sub(1) {
        let d =
            parse_dependency(&format!("begin_on_commit(s{i}, s{})", i + 1)).expect("macro parses");
        deps.push(d.instantiate(&event_algebra::Binding::new(), &mut table));
    }
    WorkflowSpec { table, dependencies: deps, agents, free_events: vec![] }
}

/// Run a reactive pipeline on the distributed scheduler.
pub fn run_reactive_distributed(n: u32, think: u64, seed: u64) -> RunReport {
    run_workflow(
        &reactive_pipeline_spec(n, think),
        ExecConfig { max_steps: 5_000_000, ..ExecConfig::seeded(seed) },
    )
}

/// Run a reactive pipeline on the centralized baseline.
pub fn run_reactive_central(n: u32, think: u64, seed: u64, engine: Engine) -> RunReport {
    run_centralized(
        &reactive_pipeline_spec(n, think),
        CentralConfig { max_steps: 5_000_000, ..CentralConfig::new(seed, engine) },
    )
}

/// Run a workload on the distributed event-centric scheduler.
pub fn run_distributed(w: &Workload, seed: u64) -> RunReport {
    run_workflow(&w.spec(), ExecConfig { max_steps: 5_000_000, ..ExecConfig::seeded(seed) })
}

/// Run a workload on a centralized baseline engine (scheduler on site 0).
pub fn run_central(w: &Workload, seed: u64, engine: Engine) -> RunReport {
    run_centralized(
        &w.spec(),
        CentralConfig { max_steps: 5_000_000, ..CentralConfig::new(seed, engine) },
    )
}

/// Time `f` and print one `name  best  median` line, in nanoseconds per
/// call: the whole harness of the wall-clock benches under `benches/`.
/// The batch is doubled until one batch takes 5 ms, then 15 batches are
/// timed; the best is the least disturbed by the host, the median shows
/// how much disturbance there was.
pub fn time<R>(name: &str, mut f: impl FnMut() -> R) {
    let mut batch = |iters: u64| {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        start.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters) < std::time::Duration::from_millis(5) && iters < 1 << 30 {
        iters *= 2;
    }
    let mut ns: Vec<f64> = (0..15).map(|_| batch(iters).as_nanos() as f64 / iters as f64).collect();
    ns.sort_by(f64::total_cmp);
    println!("{name:<44} best {:>12.1} ns  median {:>12.1} ns  ({iters} calls x 15)", ns[0], ns[7]);
}

/// Print an aligned table row.
pub fn row(cols: &[String], widths: &[usize]) -> String {
    cols.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
}

/// Mean over a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_and_satisfy() {
        let w = pipeline_workload(5, 3);
        let r = run_distributed(&w, 1);
        assert!(r.all_satisfied(), "{r:#?}");
        let c = run_central(&w, 1, Engine::Symbolic);
        assert!(c.all_satisfied(), "{c:#?}");
    }

    #[test]
    fn fanout_and_disjoint_workloads_complete() {
        let r = run_distributed(&fanout_workload(5, 5), 2);
        assert!(r.all_satisfied() && r.unresolved.is_empty(), "{r:#?}");
        let r = run_distributed(&disjoint_workload(4, 4), 2);
        assert!(r.all_satisfied() && r.unresolved.is_empty(), "{r:#?}");
    }
}
