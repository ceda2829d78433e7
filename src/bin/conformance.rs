//! Fault-conformance driver: run every workflow spec through the
//! standard fault-plan matrix across a band of seeds and audit each run
//! for guard safety, view consistency, convergence, liveness and
//! determinism. Exits nonzero on the first nonconforming scenario.
//!
//! ```text
//! conformance [--seeds N] [--max-steps N]
//!             [--monitor-equiv | --tenant] [SPEC.wf ...]
//! ```
//!
//! With no spec arguments, sweeps `examples/specs/*.wf`. Liveness is
//! only demanded of specs the static analyzer reports error-free — a
//! spec wfcheck already rejects is run for safety alone. After the
//! specs, the default (fault) mode always sweeps the four model sagas
//! of `constrained_events::models::gate_sagas` through the same matrix:
//! they are the workflows whose not-yet agreements a lost message can
//! leave half done. Then `models::held_abort`, whose hold keeper is an
//! immediate event that occurs while it holds still: the twelfth audit's
//! case (`testkit::conformance::audit_holds`).
//!
//! `--monitor-equiv` switches to the eleventh audit: every spec, then
//! the same five models, runs each (seed, fault plan) scenario once
//! with the fused monitor and the flight recorder both on, and the fused
//! report must equal a replay of that run's recording
//! (`testkit::conformance::audit_monitor_equivalence`).
//!
//! `--tenant` switches to the ninth audit at fleet scale: one mixed
//! `run_tenant` fleet of the statically clean specs (40 instances per
//! spec, `testkit::workload` arrivals, monitors armed) runs fault-free
//! and under the `chaos` plan, at one shard and at two; every instance
//! must quiesce, raise no monitor violation and equal its isolated run
//! (`testkit::conformance::audit_tenant_isolation`). One more leg runs
//! it fault-free at one shard with the flight recorder on: every
//! instance's recording must be complete, causally sound
//! (`obs::causal_audit`) and its isolated run's span for span. The same
//! fleet then goes through `run_parallel_fleet` on two worker threads,
//! whose report must be the fault-free tenant report on the fleet clock
//! (`testkit::conformance::diff_fleet_reports`).

use analyze::{analyze_workflow, AnalyzeOptions, Severity};
use constrained_events::{
    ExecConfig, LoweredWorkflow, MonitorConfig, ReliableConfig, WorkflowBuilder,
};
use dist::{TenantConfig, WorkflowSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use testkit::conformance::{
    audit_monitor_equivalence, audit_tenant_isolation, diff_fleet_reports, explore, standard_plans,
};
use testkit::workload::{drive, generate, WorkloadConfig};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Faults,
    MonitorEquiv,
    Tenant,
}

struct Args {
    seeds: u64,
    max_steps: u64,
    mode: Mode,
    specs: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seeds: 10, max_steps: 2_000_000, mode: Mode::Faults, specs: Vec::new() };
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
            "--monitor-equiv" => args.mode = Mode::MonitorEquiv,
            "--tenant" => args.mode = Mode::Tenant,
            "--help" | "-h" => {
                println!(
                    "usage: conformance [--seeds N] [--max-steps N] \
                     [--monitor-equiv | --tenant] [SPEC.wf ...]"
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

    let mut config = ExecConfig::seeded(0);
    config.reliable = Some(ReliableConfig::default());
    config.max_steps = args.max_steps;
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
        if args.mode == Mode::Tenant {
            // The fleet below demands satisfaction, so it takes clean specs only.
            if expect_live {
                fleet_specs.push(drive(&workflow.spec));
            }
            continue;
        }

        total_failures += match args.mode {
            Mode::MonitorEquiv => {
                monitor_equiv_sweep(&workflow.name, &workflow.spec, &config, args.seeds)
            }
            _ => fault_sweep(&workflow.name, &workflow.spec, &config, args.seeds, expect_live),
        };
    }
    if args.mode != Mode::Tenant {
        // The model sagas: their not-yet agreements are what a lost
        // message can leave half done (DESIGN.md §5b), and no example
        // spec asks for one. Then a keeper informed while it holds.
        let held_abort = ("held-abort", constrained_events::models::held_abort());
        for (name, workflow) in
            constrained_events::models::gate_sagas().into_iter().chain([held_abort])
        {
            total_failures += match args.mode {
                Mode::MonitorEquiv => {
                    monitor_equiv_sweep(name, &workflow.spec, &config, args.seeds)
                }
                _ => fault_sweep(name, &workflow.spec, &config, args.seeds, true),
            };
        }
    }
    if args.mode == Mode::Tenant {
        total_failures += tenant_fleet(&fleet_specs, args.max_steps);
    }
    if total_failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Fault mode: `spec` through the standard plan matrix over `seeds`
/// seeds, one line printed. Returns the number of failures.
fn fault_sweep(
    name: &str,
    spec: &WorkflowSpec,
    config: &ExecConfig,
    seeds: u64,
    expect_live: bool,
) -> usize {
    let plan_count = standard_plans(0).len() as u64;
    let failures = explore(name, spec, config.clone(), 0..seeds, expect_live);
    let scenarios = seeds * plan_count;
    if failures.is_empty() {
        println!(
            "conformance: {name:<12} {scenarios} scenarios ok ({seeds} seeds x {plan_count} \
             plans, liveness {})",
            if expect_live { "checked" } else { "waived: static errors" }
        );
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        let failing = scenarios_failing(&failures);
        eprintln!("conformance: {name:<12} {failing}/{scenarios} scenarios nonconforming");
    }
    failures.len()
}

/// How many scenarios `failures` come from: each failure starts with its
/// scenario's `[name/plan/seed N]` coordinates, and one scenario may fail
/// several audits and its determinism check.
fn scenarios_failing(failures: &[String]) -> usize {
    let mut scenarios: Vec<&str> =
        failures.iter().map(|f| f.find(']').map_or(f.as_str(), |end| &f[..=end])).collect();
    scenarios.sort_unstable();
    scenarios.dedup();
    scenarios.len()
}

/// Monitor-equivalence mode, the eleventh audit: `spec`'s fused monitor
/// against a replay of the same run's recording over the full (seed x
/// fault plan) matrix, one line printed. Returns the number of failures.
fn monitor_equiv_sweep(name: &str, spec: &WorkflowSpec, config: &ExecConfig, seeds: u64) -> usize {
    let plan_count = standard_plans(0).len() as u64;
    let mut failures = Vec::new();
    for seed in 0..seeds {
        let mut cfg = config.clone();
        cfg.sim.seed = seed;
        for (plan_name, plan) in standard_plans(seed ^ 0x5EED) {
            failures.extend(
                audit_monitor_equivalence(spec, &cfg, &plan)
                    .into_iter()
                    .map(|f| format!("[{name}/{plan_name}/seed {seed}] {f}")),
            );
        }
    }
    let scenarios = seeds * plan_count;
    if failures.is_empty() {
        println!(
            "conformance: {name:<12} {scenarios} monitor-equivalence scenarios ok \
             ({seeds} seeds x {plan_count} plans, fused == replayed recording)"
        );
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        eprintln!(
            "conformance: {name:<12} {}/{scenarios} monitor-equivalence scenarios nonconforming",
            scenarios_failing(&failures)
        );
    }
    failures.len()
}

/// The `--tenant` tier: one mixed fleet of `specs`, monitors armed,
/// through the isolation audit fault-free and under the `chaos` plan at
/// one shard and at two, once more fault-free with every instance
/// recorded, then through `run_parallel_fleet` at two workers against
/// the fault-free tenant report. Returns the number of failures.
fn tenant_fleet(specs: &[WorkflowSpec], max_steps: u64) -> usize {
    if specs.is_empty() {
        eprintln!("conformance: tenant       no statically clean spec to build a fleet from");
        return 1;
    }
    let instances = 40 * specs.len() as u64;
    let arrivals = generate(specs, &WorkloadConfig::new(instances, 0xF1EE7));
    let chaos = standard_plans(0x5EED).pop().expect("the matrix ends with chaos").1;
    let mut total = 0;
    let legs = [
        ("clean", None, 1, false),
        ("clean", None, 2, false),
        ("chaos", Some(chaos.clone()), 1, false),
        ("chaos", Some(chaos), 2, false),
        ("recorded", None, 1, true),
    ];
    for (leg, plan, shards, record) in legs {
        let mut exec = ExecConfig::seeded(0);
        exec.max_steps = max_steps;
        exec.monitor = Some(MonitorConfig::default());
        exec.reliable = plan.is_some().then(ReliableConfig::default);
        exec.record = record.then(obs::RecordConfig::default);
        let mut config = TenantConfig::new(exec);
        config.plan = plan;
        config.shards = shards;
        let (mut failures, fleet) = audit_tenant_isolation(specs, &arrivals, &config);
        if fleet.exhausted > 0 {
            failures.push(format!("{} instances ran out of budget", fleet.exhausted));
        }
        if fleet.monitor_violations > 0 {
            failures.push(format!("{} monitor violations", fleet.monitor_violations));
        }
        if !fleet.all_satisfied() {
            failures.push("an instance left dependencies unsatisfied".to_owned());
        }
        // On a recorded leg audit 9 held every recording to its solo
        // run's (and failed on a missing one); each must also be complete
        // and causally sound.
        let mut spans = 0;
        for o in &fleet.instances {
            let Some(rec) = &o.report.recording else { continue };
            spans += rec.events.len();
            if rec.dropped > 0 {
                failures.push(format!("instance {}: {} spans lost", o.instance, rec.dropped));
            }
            let unsound = obs::causal_audit(rec);
            failures.extend(unsound.into_iter().map(|f| format!("instance {}: {f}", o.instance)));
        }
        if failures.is_empty() {
            let recorded = if record {
                format!(", {spans} spans causally sound and == the solo recordings")
            } else {
                String::new()
            };
            println!(
                "conformance: tenant       {leg}/{shards} shards: {instances} instances, {} \
                 events ok (all quiescent, 0 violations, every instance == its solo run{recorded})",
                fleet.events
            );
        } else {
            for f in &failures {
                eprintln!("FAIL [tenant/{leg}/{shards} shards] {f}");
            }
            total += failures.len();
        }
    }
    // The other report shape over the same runner, on two worker threads.
    let mut exec = ExecConfig::seeded(0);
    exec.max_steps = max_steps;
    exec.monitor = Some(MonitorConfig::default());
    exec.parallel = Some(sim::ParallelConfig::new(2));
    let tenant = dist::run_tenant(specs, &arrivals, &TenantConfig::new(exec.clone()));
    let fleet = dist::run_parallel_fleet(specs, &arrivals, &exec);
    let failures = diff_fleet_reports(&fleet, &tenant);
    if failures.is_empty() {
        println!(
            "conformance: tenant       parallel/2 workers: {instances} instances, {} events ok \
             (every instance == its tenant instance on the fleet clock)",
            fleet.events
        );
    } else {
        for f in &failures {
            eprintln!("FAIL [tenant/parallel/2 workers] {f}");
        }
        total += failures.len();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::scenarios_failing;

    #[test]
    fn failures_count_by_scenario() {
        let failures = [
            "[saga2/drop20/seed 3] a hold outlived its holder's decision",
            "[saga2/drop20/seed 3] determinism: runs differ",
            "[saga2/chaos/seed 3] a hold outlived its holder's decision",
        ]
        .map(String::from);
        assert_eq!(scenarios_failing(&failures), 2);
        assert_eq!(scenarios_failing(&[]), 0);
    }
}
