//! Fault-conformance driver: run every workflow spec through the
//! standard fault-plan matrix across a band of seeds and audit each run
//! for guard safety, view consistency, convergence, liveness and
//! determinism. Exits nonzero on the first nonconforming scenario.
//!
//! ```text
//! conformance [--seeds N] [--max-steps N] [--parallel] [SPEC.wf ...]
//! ```
//!
//! With no spec arguments, sweeps `examples/specs/*.wf`. Liveness is
//! only demanded of specs the static analyzer reports error-free — a
//! spec wfcheck already rejects is run for safety alone.
//!
//! `--parallel` switches to the tenth audit instead of the fault
//! matrix: every spec runs fault-free on the sharded round executor,
//! held to the single-queue simulator oracle
//! (`testkit::conformance::audit_parallel_conformance`) for each seed;
//! then one mixed fleet of all the specs runs on two real worker
//! threads and on one, which must agree byte for byte, every instance
//! matching its isolated baseline
//! (`testkit::conformance::audit_parallel_fleet`).
//!
//! `--monitor-equiv` switches to the eleventh audit: every spec runs
//! each (seed, fault plan) scenario twice — fused monitor stepping vs
//! the legacy sink-driven oracle — and the two monitor reports must
//! agree (`testkit::conformance::audit_monitor_equivalence`).

use analyze::{analyze_workflow, AnalyzeOptions, Severity};
use constrained_events::{ExecConfig, LoweredWorkflow, ReliableConfig, WorkflowBuilder};
use std::path::PathBuf;
use std::process::ExitCode;
use testkit::conformance::{
    audit_monitor_equivalence, audit_parallel_conformance, audit_parallel_fleet, explore,
    standard_plans,
};
use testkit::workload::{drive, generate, WorkloadConfig};

struct Args {
    seeds: u64,
    max_steps: u64,
    parallel: bool,
    monitor_equiv: bool,
    specs: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 10,
        max_steps: 2_000_000,
        parallel: false,
        monitor_equiv: false,
        specs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|e| format!("--seeds {v}: {e}"))?;
            }
            "--max-steps" => {
                let v = it.next().ok_or("--max-steps needs a value")?;
                args.max_steps = v.parse().map_err(|e| format!("--max-steps {v}: {e}"))?;
            }
            "--parallel" => args.parallel = true,
            "--monitor-equiv" => args.monitor_equiv = true,
            "--help" | "-h" => {
                println!(
                    "usage: conformance [--seeds N] [--max-steps N] [--parallel] \
                     [--monitor-equiv] [SPEC.wf ...]"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => args.specs.push(PathBuf::from(path)),
        }
    }
    if args.specs.is_empty() {
        let dir = PathBuf::from("examples/specs");
        let mut found: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "wf"))
            .collect();
        found.sort();
        args.specs = found;
    }
    if args.specs.is_empty() {
        return Err("no .wf specs found".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::from(2);
        }
    };

    let plan_count = standard_plans(0).len() as u64;
    let mut total_failures = 0usize;
    let mut fleet_specs = Vec::new();
    for path in &args.specs {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("conformance: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let lowered = match LoweredWorkflow::parse(&src) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("conformance: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        // Liveness is a theorem about statically clean workflows only.
        let verdict = analyze_workflow(&lowered, &AnalyzeOptions::default());
        let expect_live = verdict.count(Severity::Error) == 0;

        let workflow = match WorkflowBuilder::from_spec(&src) {
            Ok(b) => b.build(),
            Err(e) => {
                eprintln!("conformance: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let mut config = ExecConfig::seeded(0);
        config.reliable = Some(ReliableConfig::default());
        config.max_steps = args.max_steps;

        if args.monitor_equiv {
            // Eleventh audit: fused monitor stepping vs the sink-driven
            // oracle over the full (seed x fault plan) matrix.
            let mut failures = Vec::new();
            for seed in 0..args.seeds {
                let mut cfg = config.clone();
                cfg.sim.seed = seed;
                for (plan_name, plan) in standard_plans(seed ^ 0x5EED) {
                    failures.extend(
                        audit_monitor_equivalence(&workflow.spec, &cfg, &plan)
                            .into_iter()
                            .map(|f| format!("[{}/{plan_name}/seed {seed}] {f}", workflow.name)),
                    );
                }
            }
            let scenarios = args.seeds * plan_count;
            if failures.is_empty() {
                println!(
                    "conformance: {:<12} {} monitor-equivalence scenarios ok \
                     ({} seeds x {} plans, fused == sink oracle)",
                    workflow.name, scenarios, args.seeds, plan_count
                );
            } else {
                for f in &failures {
                    eprintln!("FAIL {f}");
                }
                eprintln!(
                    "conformance: {:<12} {}/{} monitor-equivalence scenarios nonconforming",
                    workflow.name,
                    failures.len(),
                    scenarios
                );
                total_failures += failures.len();
            }
            continue;
        }

        if args.parallel {
            // Tenth audit: fault-free sharded runs held to the
            // single-queue oracle per seed. The raw (unwrapped) transport
            // is the parallel runtime's scope.
            let mut failures = Vec::new();
            for seed in 0..args.seeds {
                let mut cfg = config.clone();
                cfg.reliable = None;
                cfg.sim.seed = seed;
                let (fails, run) = audit_parallel_conformance(&workflow.spec, &cfg);
                failures.extend(
                    fails.into_iter().map(|f| format!("[{}/seed {seed}] {f}", workflow.name)),
                );
                if expect_live && !run.report.all_satisfied() {
                    failures.push(format!(
                        "[{}/seed {seed}] sharded run left dependencies unsatisfied",
                        workflow.name
                    ));
                }
            }
            if failures.is_empty() {
                println!(
                    "conformance: {:<12} {} sharded scenarios ok (== single-queue oracle)",
                    workflow.name, args.seeds
                );
            } else {
                for f in &failures {
                    eprintln!("FAIL {f}");
                }
                eprintln!(
                    "conformance: {:<12} {}/{} sharded scenarios nonconforming",
                    workflow.name,
                    failures.len(),
                    args.seeds
                );
                total_failures += failures.len();
            }
            // The fleet below demands satisfaction, so it takes clean specs only.
            if expect_live {
                fleet_specs.push(drive(&workflow.spec));
            }
            continue;
        }

        let failures = explore(&workflow.name, &workflow.spec, config, 0..args.seeds, expect_live);
        let scenarios = args.seeds * plan_count;
        if failures.is_empty() {
            println!(
                "conformance: {:<12} {} scenarios ok ({} seeds x {} plans, liveness {})",
                workflow.name,
                scenarios,
                args.seeds,
                plan_count,
                if expect_live { "checked" } else { "waived: static errors" }
            );
        } else {
            for f in &failures {
                eprintln!("FAIL {f}");
            }
            eprintln!(
                "conformance: {:<12} {}/{} scenarios nonconforming",
                workflow.name,
                failures.len(),
                scenarios
            );
            total_failures += failures.len();
        }
    }
    if !fleet_specs.is_empty() {
        // Worker counts only mean something for a fleet: one mixed fleet
        // of every spec, on two real worker threads and on one.
        let instances = 40 * fleet_specs.len() as u64;
        let arrivals = generate(&fleet_specs, &WorkloadConfig::new(instances, 0xF1EE7));
        let mut config = ExecConfig::seeded(0);
        config.max_steps = args.max_steps;
        config.parallel = Some(sim::ParallelConfig::new(2));
        let (failures, fleet) = audit_parallel_fleet(&fleet_specs, &arrivals, &config);
        if failures.is_empty() && fleet.all_satisfied() {
            println!(
                "conformance: fleet        {instances} instances, {} events ok \
                 (2 workers == 1 worker, every instance == its solo baseline)",
                fleet.events
            );
        } else {
            for f in &failures {
                eprintln!("FAIL [fleet] {f}");
            }
            eprintln!(
                "conformance: fleet        nonconforming ({} failures, {} exhausted)",
                failures.len(),
                fleet.exhausted
            );
            total_failures += failures.len().max(1);
        }
    }
    if total_failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
