//! Property tests of the multi-tenant engine: random seeded workloads
//! never leak facts across instance boundaries (the isolation audit
//! stays green under lossy links), fleets are shard-invariant, budget
//! exhaustion is reported honestly, and a deliberately cross-wired
//! instance is always caught and correctly attributed.

use dist::{run_tenant, ExecConfig, InstanceId, ReliableConfig, TenantConfig, WorkflowSpec};
use event_algebra::SymbolId;
use sim::{FaultPlan, LatencyModel, SimConfig, Termination};
use testkit::conformance::audit_tenant_isolation;
use testkit::workload::{drive, generate, WorkloadConfig};
use testkit::{check, free_event_spec, klein_pipeline};

/// A precedence pipeline `e0 < e1 < … < e{n-1}` with one controllable
/// free event per site. Precedence (not mutual promise) so a starved
/// □-announcement visibly wedges the instance.
fn precedence_template(n: u32) -> WorkflowSpec {
    let syms: Vec<SymbolId> = (0..n).map(SymbolId).collect();
    free_event_spec(klein_pipeline(&syms), &syms)
}

fn templates() -> Vec<WorkflowSpec> {
    vec![drive(&precedence_template(3)), drive(&precedence_template(5))]
}

fn hardened(seed: u64) -> ExecConfig {
    let mut config = ExecConfig::seeded(seed);
    config.sim =
        SimConfig { seed, latency: LatencyModel::Uniform { min: 1, max: 20 }, fifo_links: true };
    config.reliable = Some(ReliableConfig::default());
    config
}

const CASES: u32 = 12;

/// ISOLATION: on random seeded fleets over a mixed template
/// population, with a 15% lossy + duplicating link, no fact ever
/// crosses an instance boundary and every instance's outcome equals
/// its independent single-instance baseline — the full differential
/// audit, not just the counters.
#[test]
fn random_fleets_pass_the_isolation_audit() {
    check("random_fleets_pass_the_isolation_audit", CASES, |g| {
        let seed = g.range(0u64..24);
        let n = g.range(3u64..9);
        let specs = templates();
        let arrivals = generate(&specs, &WorkloadConfig::new(n, seed));
        let mut config = TenantConfig::new(hardened(seed));
        config.plan = Some(FaultPlan::new(seed ^ 0x7E4A).drop_rate(0.15).duplicate_rate(0.15));
        config.shards = 1 + (seed as usize % 3);
        let (failures, report) = audit_tenant_isolation(&specs, &arrivals, &config);
        assert!(failures.is_empty(), "seed {seed} n {n}: {failures:?}");
        assert_eq!(report.cross_instance_dropped, 0);
        assert_eq!(report.cross_instance_rejected, 0);
    });
}

/// SHARD INVARIANCE: the fleet outcome is a pure function of
/// (specs, arrivals, exec) — the shard count changes wall-clock
/// parallelism only, never a single instance's trace, duration or
/// termination.
#[test]
fn fleets_are_shard_invariant() {
    check("fleets_are_shard_invariant", CASES, |g| {
        let seed = g.range(0u64..20);
        let shards = g.range(2usize..6);
        let specs = templates();
        let arrivals = generate(&specs, &WorkloadConfig::new(6, seed));
        let mut solo = TenantConfig::new(hardened(seed));
        solo.shards = 1;
        let mut wide = TenantConfig::new(hardened(seed));
        wide.shards = shards;
        let a = run_tenant(&specs, &arrivals, &solo);
        let b = run_tenant(&specs, &arrivals, &wide);
        assert_eq!(a.instances.len(), b.instances.len());
        for (x, y) in a.instances.iter().zip(&b.instances) {
            assert_eq!(x.instance, y.instance);
            assert_eq!(&x.report.trace, &y.report.trace, "instance {:?}", x.instance);
            assert_eq!(x.report.duration, y.report.duration);
            assert_eq!(x.report.steps, y.report.steps);
            assert_eq!(x.report.termination, y.report.termination);
            assert_eq!(x.finished_at, y.finished_at);
        }
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
    });
}

/// HONEST TERMINATION: every instance is accounted for exactly once
/// as quiesced or exhausted, and the roll-up counters agree with the
/// per-instance termination verdicts — a starved delivery budget is
/// never silently upgraded to success.
#[test]
fn termination_accounting_is_honest() {
    check("termination_accounting_is_honest", CASES, |g| {
        let seed = g.range(0u64..20);
        let budget = g.range(1u64..40);
        let specs = templates();
        let arrivals = generate(&specs, &WorkloadConfig::new(5, seed));
        let mut exec = hardened(seed);
        exec.max_steps = budget; // tight enough that some fleets starve
        let report = run_tenant(&specs, &arrivals, &TenantConfig::new(exec));
        assert_eq!(report.quiesced + report.exhausted, report.instances.len());
        for o in &report.instances {
            match o.report.termination {
                Termination::Quiescent => assert!(o.report.steps <= budget),
                Termination::BudgetExhausted => {
                    assert!(o.report.steps >= budget, "instance {:?}", o.instance);
                }
            }
        }
        let quiesced = report
            .instances
            .iter()
            .filter(|o| o.report.termination == Termination::Quiescent)
            .count();
        assert_eq!(report.quiesced, quiesced);
    });
}

/// MUTATION: cross-wiring any one instance's announcement stamp is
/// caught by the audit — the transport counters light up and the
/// differential comparison names the mutant (and only the mutant)
/// as diverging from its solo baseline.
#[test]
fn cross_wired_instance_is_always_caught() {
    check("cross_wired_instance_is_always_caught", CASES, |g| {
        let seed = g.range(0u64..12);
        let victim = g.range(0u64..4);
        let specs = vec![drive(&precedence_template(4))];
        let arrivals = generate(&specs, &WorkloadConfig::new(4, seed));
        let mut config = TenantConfig::new(hardened(seed));
        config.cross_wire = Some(InstanceId(victim));
        let (failures, report) = audit_tenant_isolation(&specs, &arrivals, &config);
        assert!(!failures.is_empty(), "seed {seed}: mutant i{victim} escaped the audit");
        assert!(report.cross_instance_rejected > 0, "no rejection recorded");
        let tag = format!("instance i{victim}:");
        assert!(
            failures.iter().any(|f| f.contains(&tag)),
            "failures name the wrong instance: {failures:?}"
        );
        // Healthy neighbors stay clean: no failure implicates them.
        for other in (0..4).filter(|&o| o != victim) {
            let other_tag = format!("instance i{other}:");
            assert!(
                !failures.iter().any(|f| f.contains(&other_tag)),
                "innocent i{other} implicated: {failures:?}"
            );
        }
    });
}
