//! Property tests of the sharded parallel runtime: random specs and
//! fleets always match the deterministic single-queue simulator
//! (occurrence sets, verdicts and final □-views — the tenth audit),
//! full fleet reports are identical at every worker count, fleet
//! timestamps are pinned to the values one merged network gave, and a
//! forged [`ShardPlan`] independence claim is always caught by the
//! transposition audit with the racy pair correctly attributed.

use agent::EventAttrs;
use dist::{run_parallel_fleet, ExecConfig, FreeEventSpec, WorkflowSpec};
use event_algebra::{parse_expr, ShardClass, ShardPlan, SymbolId, SymbolTable};
use sim::{ParallelConfig, SiteId};
use std::sync::Arc;
use testkit::conformance::{audit_parallel_conformance, audit_parallel_fleet};
use testkit::workload::{drive, generate, WorkloadConfig};
use testkit::{check, free_event_spec, klein_pipeline};

/// An arrow chain `□e0 → e1 → … → e{n-1}`: every dependency commutes,
/// so the Lemma 5 coupling fallback shards each event alone and the
/// parallel runtime actually runs multi-shard rounds.
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
/// dependencies do *not* commute, so consecutive events colocate and
/// the fallback plan mixes multi-event classes with real coupling.
fn precedence_spec(n: u32) -> WorkflowSpec {
    let syms: Vec<SymbolId> = (0..n).map(SymbolId).collect();
    free_event_spec(klein_pipeline(&syms), &syms)
}

const CASES: u32 = 10;

/// ORACLE CONFORMANCE: on random seeds and sizes, both the commuting
/// chain (singleton shards) and the coupled precedence pipeline
/// (multi-event classes) pass the tenth audit — sharded occurrence
/// sets, verdicts and final □-views equal the single-queue
/// simulator's, and the transposition audits stay green over the
/// sharded schedule.
#[test]
fn random_specs_conform_to_the_oracle() {
    check("random_specs_conform_to_the_oracle", CASES, |g| {
        let seed = g.range(0u64..12);
        let n = g.range(2u32..7);
        for spec in [chain_spec(n), precedence_spec(n)] {
            let (failures, run) = audit_parallel_conformance(&spec, &ExecConfig::seeded(seed));
            assert!(failures.is_empty(), "seed {seed} n {n}: {failures:?}");
            assert!(run.report.all_satisfied(), "seed {seed} n {n}");
        }
    });
}

/// FLEET CONFORMANCE: random open-loop fleets (workload-generated
/// arrivals with think-time overrides) run on the parallel engine
/// match their isolated single-queue baselines instance by instance.
#[test]
fn random_fleets_match_solo_baselines() {
    check("random_fleets_match_solo_baselines", CASES, |g| {
        let seed = g.range(0u64..10);
        let n = g.range(2u64..7);
        let workers = g.range(1usize..5);
        let specs = vec![drive(&precedence_spec(3)), drive(&chain_spec(4))];
        let arrivals = generate(&specs, &WorkloadConfig::new(n, seed));
        let mut config = ExecConfig::seeded(seed);
        config.parallel = Some(ParallelConfig::new(workers));
        let (failures, fleet) = audit_parallel_fleet(&specs, &arrivals, &config);
        assert!(failures.is_empty(), "seed {seed} n {n} workers {workers}: {failures:?}");
        assert_eq!(fleet.instances.len(), arrivals.len());
    });
}

/// WORKER-COUNT DETERMINISM: how many instances are in flight is an
/// execution detail. Random mixed fleets give the identical full report
/// at 1–4 workers — occurrences with their sequences, per-instance
/// steps and termination, traffic statistics, and every metric that
/// describes the round structure (rounds, shards, round width); only
/// wall-clock timings, steals and the per-worker split may differ. And
/// within every instance, sequence order refines tick order.
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
            assert_eq!(a.stats.rounds, b.stats.rounds);
            assert_eq!(a.stats.shards, b.stats.shards);
            assert_eq!(a.stats.max_round_width, b.stats.max_round_width);
            assert_eq!(a.stats.duration, b.stats.duration);
            assert_eq!(b.stats.workers, workers.min(arrivals.len()));
            assert_eq!(b.stats.per_worker.len(), b.stats.workers);
        }
    });
}

/// MUTATION: a shard plan that forges independence of a
/// non-commuting precedence pair is caught by the tenth audit on
/// every seed — through the transposition replay over the
/// shard-keying plan at the latest — and the failure names the pair.
#[test]
fn forged_independence_claims_are_always_caught() {
    check("forged_independence_claims_are_always_caught", CASES, |g| {
        let seed = g.range(0u64..10);
        let mut table = SymbolTable::new();
        let d = parse_expr("~e + ~f + e.f", &mut table).unwrap();
        let e = table.event("e");
        let f = table.event("f");
        let spec = WorkflowSpec {
            table,
            dependencies: vec![d],
            agents: vec![],
            free_events: vec![
                FreeEventSpec {
                    site: SiteId(0),
                    lit: e,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
                FreeEventSpec {
                    site: SiteId(0),
                    lit: f,
                    attrs: EventAttrs::controllable(),
                    attempt_after: Some(1),
                },
            ],
        };
        let pair = event_algebra::shard::canonical(e.symbol(), f.symbol());
        let forged = ShardPlan {
            classes: vec![
                ShardClass { id: 0, events: vec![pair.0], site: None },
                ShardClass { id: 1, events: vec![pair.1], site: None },
            ],
            commuting: vec![pair],
            independent: vec![pair],
            ..ShardPlan::default()
        };
        let mut config = ExecConfig::seeded(seed);
        config.shard_plan = Some(Arc::new(forged));
        let (failures, _) = audit_parallel_conformance(&spec, &config);
        assert!(!failures.is_empty(), "seed {seed}: forged plan went undetected");
        assert!(
            failures.iter().any(|fl| fl.contains("schedule race") && fl.contains('e')),
            "seed {seed}: the race must be attributed to the forged pair: {failures:?}"
        );
    });
}

/// The fixed mixed fleet of the timestamp pin: 30 arrivals over travel,
/// pipeline10 and diamond, workload seed `0xF1EE7` (so about half the
/// driven events carry think-time overrides), default `PerHop` latency.
fn pinned_fleet() -> (Vec<WorkflowSpec>, Vec<dist::Arrival>) {
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

/// FNV-1a over every occurrence's `(instance, symbol, polarity, tick)`,
/// instances in arrival order, occurrences in report order.
fn timestamp_digest(fleet: &dist::ParallelFleetReport) -> u64 {
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

/// Running instances apart may not move a single occurrence: the digest
/// was computed at the commit whose fleet was still ONE merged network
/// with a global barrier per tick (274 events, identical there at 1, 2
/// and 4 workers).
#[test]
fn fleet_timestamps_are_pinned() {
    let (specs, arrivals) = pinned_fleet();
    for spec_ix in 0..specs.len() {
        assert!(arrivals.iter().any(|a| a.spec_ix == spec_ix), "template {spec_ix} is in the mix");
    }
    assert!(arrivals.iter().any(|a| !a.think.is_empty()), "think-time overrides are in the mix");
    for workers in [1, 2, 4] {
        let mut config = ExecConfig::seeded(5);
        config.parallel = Some(ParallelConfig::new(workers));
        let fleet = run_parallel_fleet(&specs, &arrivals, &config);
        assert!(fleet.all_satisfied(), "{workers} workers");
        assert_eq!(fleet.events, 274, "{workers} workers");
        assert_eq!(timestamp_digest(&fleet), 0xE841_8ACB_11D5_E535, "{workers} workers");
    }
}
