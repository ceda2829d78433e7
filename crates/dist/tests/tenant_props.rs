//! Property tests of the multi-tenant engine: random seeded workloads
//! never leak facts across instance boundaries (the isolation audit
//! stays green under lossy links), fleets are shard-invariant, budget
//! exhaustion is reported honestly, and a recorded fleet hands back
//! every instance's solo flight recording.

use dist::{
    run_tenant, Arrival, ExecConfig, ReliableConfig, TenantConfig, TenantReport, WorkflowSpec,
};
use event_algebra::SymbolId;
use sim::{FaultPlan, LatencyModel, NodeId, SimConfig, Termination};
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
    config.sim = SimConfig { seed, latency: LatencyModel::Uniform { min: 1, max: 20 } };
    config.reliable = Some(ReliableConfig::default());
    config
}

const CASES: u32 = 12;

/// ISOLATION: on random seeded fleets over a mixed template
/// population, with a 15% lossy + duplicating link, no fact ever
/// crosses an instance boundary and every instance's outcome equals
/// its independent single-instance baseline — the full differential
/// audit.
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
        let (failures, _) = audit_tenant_isolation(&specs, &arrivals, &config);
        assert!(failures.is_empty(), "seed {seed} n {n}: {failures:?}");
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

/// The fixed mixed fleet of the whole-history pin: 40 arrivals over
/// travel, pipeline10 and diamond, workload seed `0x7E4A47`, default
/// `PerHop` latency.
fn pinned_fleet() -> (Vec<WorkflowSpec>, Vec<Arrival>) {
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
    let arrivals = generate(&specs, &WorkloadConfig::new(40, 0x7E_4A47));
    (specs, arrivals)
}

/// FNV-1a over every instance's `(instance, steps, duration,
/// termination)` and every occurrence's `(symbol, polarity, tick, seq)`,
/// instances and occurrences in report order.
fn history_digest(fleet: &TenantReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
    for o in &fleet.instances {
        let quiescent = o.report.termination == Termination::Quiescent;
        for x in [o.instance.0, o.report.steps, o.report.duration, u64::from(quiescent)] {
            eat(x);
        }
        for &(lit, at, seq) in &o.report.occurrences {
            for x in [u64::from(lit.symbol().0), u64::from(lit.is_pos()), at, seq] {
                eat(x);
            }
        }
    }
    h
}

/// FNV-1a over every occurrence's `(instance, symbol, polarity, tick)`:
/// the fleet's schedule without delivery sequence numbers, step counts
/// and durations, all of which renumber when a transport-internal
/// delivery (a timer, an ack) is added or removed although no event
/// fires at another tick.
fn schedule_digest(fleet: &TenantReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for o in &fleet.instances {
        for &(lit, at, _) in &o.report.occurrences {
            for x in [o.instance.0, u64::from(lit.symbol().0), u64::from(lit.is_pos()), at] {
                h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

/// Running each admitted instance to completion on the thread that
/// claimed it may not move a single delivery: the fault-free digests were
/// computed at the commit whose tenant engine still interleaved live
/// instances in 64-delivery quanta (identical there at 1, 2 and 4
/// shards). The hardened fault-free leg tells a transport change that
/// moved an event from one that only renumbered deliveries. Twice a
/// self-addressed timer stopped being sent — the retransmission timer
/// went from one per envelope to one per node, then the promise-round
/// timeout was deleted — and both times its schedule digest stayed and
/// its history digest (sequence numbers, step counts, durations) was
/// re-pinned. The drop20+crash leg was re-pinned whole both times: first
/// because the retransmissions a node has due at one tick leave from one
/// handler in `(receiver, seq)` order, then because an unanswered
/// promise request is resent by the transport alone, on its schedule.
/// Answering an orphan not-yet grant with a `Release` moves none of the
/// six digests (they are the same with that change reverted). A decided
/// event stopped re-sending its announcement to each requester: both
/// fault-free legs kept their schedule digests and re-pinned their
/// history digests (fewer deliveries renumber the sequence), and the
/// drop20+crash leg was re-pinned whole, because its fault stream draws
/// once per message sent. Then an occurrence began to end its holds
/// through its announcement and promises began to be asked only of
/// literals that can grant before they occur: all six digests were
/// re-pinned, the schedules too, because every remote message not sent
/// is a latency draw not taken, which moves the later draws. Re-pinned,
/// all six, for the same reason when an announcement stopped going to a
/// subscriber its sender had heard decided.
#[test]
fn fleet_histories_are_pinned() {
    let (specs, arrivals) = pinned_fleet();
    for spec_ix in 0..specs.len() {
        assert!(arrivals.iter().any(|a| a.spec_ix == spec_ix), "template {spec_ix} is in the mix");
    }
    let clean = TenantConfig::new(ExecConfig::seeded(5));
    let mut hardened = clean.clone();
    hardened.exec.reliable = Some(ReliableConfig::default());
    let mut faulty = hardened.clone();
    faulty.plan = Some(FaultPlan::new(0xD20C).drop_rate(0.2).crash(NodeId(0), 40, Some(300)));
    for (name, base, faulty, history, schedule) in [
        ("fault-free", clean, false, 0x05C4_2AA0_4A93_9B35u64, 0x8BD5_FDED_9054_2447u64),
        ("hardened fault-free", hardened, false, 0xFF91_F6CB_E9AE_109F, 0x86B1_1677_B1F8_5EA7),
        ("drop20+crash", faulty, true, 0x63B9_2820_F7ED_CCA6, 0x4739_AA59_AF5D_16E3),
    ] {
        for shards in [1, 2, 4] {
            let mut config = base.clone();
            config.shards = shards;
            let fleet = run_tenant(&specs, &arrivals, &config);
            assert!(fleet.all_satisfied(), "{name}, {shards} shards");
            assert_eq!(fleet.events, 364, "{name}, {shards} shards");
            assert_eq!(schedule_digest(&fleet), schedule, "{name}, {shards} shards");
            assert_eq!(history_digest(&fleet), history, "{name}, {shards} shards");
            let faults = |f: fn(&sim::FaultStats) -> u64| -> u64 {
                fleet.instances.iter().filter_map(|o| o.report.fault_stats.as_ref()).map(f).sum()
            };
            let (dropped, restarts) = (faults(|s| s.dropped), faults(|s| s.restarts));
            assert_eq!(
                dropped > 0 && restarts > 0,
                faulty,
                "{name}: {dropped} drops, {restarts} restarts"
            );
        }
    }
}

/// RECORDED FLEETS: with `exec.record` set, every instance of the pinned
/// fleet comes back with a complete, causally sound flight recording
/// that is its isolated run's span for span (the ninth audit compares
/// them), fault-free and under drop20 + crash, at one shard and at two —
/// and turning the recorder on moves no delivery. Without it no
/// instance carries a recording.
#[test]
fn recorded_fleets_carry_every_instances_solo_recording() {
    let (specs, arrivals) = pinned_fleet();
    let clean = TenantConfig::new(ExecConfig::seeded(5));
    let mut faulty = clean.clone();
    faulty.exec.reliable = Some(ReliableConfig::default());
    faulty.plan = Some(FaultPlan::new(0xD20C).drop_rate(0.2).crash(NodeId(0), 40, Some(300)));
    for (name, quiet) in [("fault-free", clean), ("drop20+crash", faulty)] {
        let unrecorded = run_tenant(&specs, &arrivals, &quiet);
        assert!(unrecorded.instances.iter().all(|o| o.report.recording.is_none()), "{name}");
        for shards in [1, 2] {
            let mut config = quiet.clone();
            config.shards = shards;
            config.exec.record = Some(obs::RecordConfig::default());
            let (failures, fleet) = audit_tenant_isolation(&specs, &arrivals, &config);
            assert_eq!(failures, Vec::<String>::new(), "{name}, {shards} shards");
            assert_eq!(history_digest(&fleet), history_digest(&unrecorded), "{name}, {shards}");
            for o in &fleet.instances {
                let rec = o.report.recording.as_ref().expect("every instance is recorded");
                assert!(!rec.events.is_empty() && rec.dropped == 0, "{name}, {}", o.instance);
                assert_eq!(obs::causal_audit(rec), Vec::<String>::new(), "{name}, {}", o.instance);
            }
            let replays = fleet
                .instances
                .iter()
                .flat_map(|o| &o.report.recording.as_ref().expect("recorded").events)
                .filter(|e| matches!(e.kind, obs::SpanKind::WalReplay { .. }))
                .count();
            assert_eq!(replays > 0, config.plan.is_some(), "{name}: {replays} WAL replays");
        }
    }
}
