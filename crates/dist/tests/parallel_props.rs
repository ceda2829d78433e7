//! Property tests of `run_parallel_fleet`: it is the tenant fleet on the
//! fleet clock (every instance equals the `run_tenant` instance of the
//! same arrival, and so its isolated run), and full fleet reports are
//! identical at every worker count.

use agent::EventAttrs;
use dist::{run_parallel_fleet, ExecConfig, FreeEventSpec, TenantConfig, WorkflowSpec};
use event_algebra::{parse_expr, SymbolId, SymbolTable};
use monitor::MonitorConfig;
use sim::{ParallelConfig, SiteId};
use testkit::conformance::{audit_tenant_isolation, diff_fleet_reports};
use testkit::workload::{drive, generate, WorkloadConfig};
use testkit::{check, free_event_spec, klein_pipeline};

/// An arrow chain `□e0 → e1 → … → e{n-1}`, one site per event: every
/// hop is remote, so latencies are actually drawn.
fn chain_spec(n: u32) -> WorkflowSpec {
    let mut table = SymbolTable::new();
    let mut deps = Vec::new();
    for i in 0..n.saturating_sub(1) {
        deps.push(parse_expr(&format!("~e{i} + e{}", i + 1), &mut table).unwrap());
    }
    let free_events = (0..n)
        .map(|i| FreeEventSpec {
            site: SiteId(i),
            lit: table.event(&format!("e{i}")),
            attrs: EventAttrs::controllable(),
            attempt_after: Some(1),
        })
        .collect();
    WorkflowSpec { table, dependencies: deps, agents: vec![], free_events }
}

/// A precedence pipeline `e0 < e1 < … < e{n-1}`: sequential-composition
/// dependencies, so events park on `□`-announcements.
fn precedence_spec(n: u32) -> WorkflowSpec {
    let syms: Vec<SymbolId> = (0..n).map(SymbolId).collect();
    free_event_spec(klein_pipeline(&syms), &syms)
}

const CASES: u32 = 10;

fn fleet_exec(seed: u64, workers: usize) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.monitor = Some(MonitorConfig::default());
    config.parallel = Some(ParallelConfig::new(workers));
    config
}

/// FLEET CONFORMANCE: random open-loop fleets (workload-generated
/// arrivals with think-time overrides) run on the parallel entry point
/// match their isolated baselines instance by instance — through the
/// tenant fleet, which the ninth audit holds to independent runs.
#[test]
fn random_fleets_match_solo_baselines() {
    check("random_fleets_match_solo_baselines", CASES, |g| {
        let seed = g.range(0u64..10);
        let n = g.range(2u64..7);
        let workers = g.range(1usize..5);
        let specs = vec![drive(&precedence_spec(3)), drive(&chain_spec(4))];
        let arrivals = generate(&specs, &WorkloadConfig::new(n, seed));
        let exec = fleet_exec(seed, workers);
        let (failures, tenant) =
            audit_tenant_isolation(&specs, &arrivals, &TenantConfig::new(exec.clone()));
        assert!(failures.is_empty(), "seed {seed} n {n}: {failures:?}");
        let fleet = run_parallel_fleet(&specs, &arrivals, &exec);
        let failures = diff_fleet_reports(&fleet, &tenant);
        assert!(failures.is_empty(), "seed {seed} n {n} workers {workers}: {failures:?}");
        assert_eq!(fleet.instances.len(), arrivals.len());
    });
}

/// WORKER-COUNT DETERMINISM: how many instances are in flight is an
/// execution detail. Random mixed fleets give the identical full report
/// at 1–4 workers — occurrences with their sequences, per-instance
/// steps and termination, traffic statistics and the fleet's virtual
/// duration; only wall-clock timings, steals and the per-worker split
/// may differ. And within every instance, sequence order refines tick
/// order.
#[test]
fn metrics_are_worker_count_invariant() {
    check("metrics_are_worker_count_invariant", CASES, |g| {
        let seed = g.range(0u64..10);
        let n = g.range(1u64..9);
        let specs = vec![drive(&chain_spec(5)), drive(&precedence_spec(3)), drive(&chain_spec(2))];
        let arrivals = generate(&specs, &WorkloadConfig::new(n, seed));
        let run = |w: usize| {
            let mut config = ExecConfig::seeded(seed);
            config.parallel = Some(ParallelConfig::new(w));
            run_parallel_fleet(&specs, &arrivals, &config)
        };
        let a = run(1);
        for o in &a.instances {
            let mut by_seq = o.report.occurrences.clone();
            by_seq.sort_by_key(|&(_, _, q)| q);
            assert!(
                by_seq.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].2 < w[1].2),
                "instance {}: sequence order must refine tick order: {by_seq:?}",
                o.instance
            );
        }
        for workers in 2..=4 {
            let b = run(workers);
            assert_eq!((a.events, a.quiesced, a.exhausted), (b.events, b.quiesced, b.exhausted));
            assert_eq!(a.instances.len(), b.instances.len());
            for (x, y) in a.instances.iter().zip(&b.instances) {
                assert_eq!(x.instance, y.instance, "outcomes are in arrival order");
                assert_eq!(&x.report.occurrences, &y.report.occurrences, "{}", x.instance);
                assert_eq!(x.report.steps, y.report.steps, "{}", x.instance);
                assert_eq!(x.report.termination, y.report.termination, "{}", x.instance);
                assert_eq!(x.finished_at, y.finished_at);
            }
            assert_eq!(a.net, b.net);
            assert_eq!(a.stats.duration, b.stats.duration);
            assert_eq!(b.stats.workers, workers.min(arrivals.len()));
            assert_eq!(b.stats.per_worker.len(), b.stats.workers);
        }
    });
}

/// The fixed mixed fleet: 30 arrivals over travel, pipeline10 and
/// diamond, workload seed `0xF1EE7` (so about half the driven events
/// carry think-time overrides), default `PerHop` latency.
fn mixed_fleet() -> (Vec<WorkflowSpec>, Vec<dist::Arrival>) {
    let text = |name: &str| {
        let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        constrained_events::WorkflowBuilder::from_spec(&src).expect("spec parses").build().spec
    };
    let specs = vec![
        drive(&text("travel")),
        drive(&text("pipeline10")),
        drive(&constrained_events::models::diamond(3).spec),
    ];
    let arrivals = generate(&specs, &WorkloadConfig::new(30, 0xF1EE7));
    (specs, arrivals)
}

/// ONE RUNNER, TWO REPORT SHAPES: over the fixed mixed fleet — unrecorded
/// and with the flight recorder on — and over random workload fleets, at
/// 1, 2 and 4 workers, every `run_parallel_fleet` instance is the
/// `run_tenant` instance of the same arrival — occurrences once
/// `arrived_at` is subtracted, sequences, steps, duration, termination,
/// fused-monitor verdicts, alert kinds and recorded spans — and
/// `ParallelFleetReport::net` is the sum of the instances' `NetStats`.
/// The tenant side goes through the ninth audit, so both equal the
/// arrival's isolated run.
#[test]
fn parallel_fleet_is_the_tenant_fleet_on_the_fleet_clock() {
    let against_tenant =
        |specs: &[WorkflowSpec], arrivals: &[dist::Arrival], seed: u64, record: bool| {
            let exec = |workers: usize| {
                let mut exec = fleet_exec(seed, workers);
                exec.record = record.then(obs::RecordConfig::default);
                exec
            };
            let (failures, tenant) =
                audit_tenant_isolation(specs, arrivals, &TenantConfig::new(exec(1)));
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
            for workers in [1, 2, 4] {
                let fleet = run_parallel_fleet(specs, arrivals, &exec(workers));
                let failures = diff_fleet_reports(&fleet, &tenant);
                assert!(failures.is_empty(), "seed {seed}, {workers} workers: {failures:?}");
                for o in &fleet.instances {
                    assert!(o.report.monitor.is_some(), "fused monitors");
                    assert_eq!(o.report.recording.is_some(), record, "recorded iff asked");
                    if let Some(rec) = &o.report.recording {
                        assert_eq!(rec.dropped, 0, "instance {}", o.instance);
                        assert_eq!(obs::causal_audit(rec), Vec::<String>::new(), "{}", o.instance);
                    }
                }
            }
            tenant
        };
    let (specs, arrivals) = mixed_fleet();
    for spec_ix in 0..specs.len() {
        assert!(arrivals.iter().any(|a| a.spec_ix == spec_ix), "template {spec_ix} is in the mix");
    }
    assert!(arrivals.iter().any(|a| !a.think.is_empty()), "think-time overrides are in the mix");
    for record in [false, true] {
        let tenant = against_tenant(&specs, &arrivals, 5, record);
        assert!(tenant.all_satisfied());
        assert_eq!(tenant.events, 274);
    }

    check("parallel_fleet_is_the_tenant_fleet_on_the_fleet_clock", CASES, |g| {
        let seed = g.range(0u64..10);
        let n = g.range(1u64..9);
        let specs = vec![drive(&chain_spec(5)), drive(&precedence_spec(3)), drive(&chain_spec(2))];
        let arrivals = generate(&specs, &WorkloadConfig::new(n, seed));
        against_tenant(&specs, &arrivals, seed, false);
    });
}
