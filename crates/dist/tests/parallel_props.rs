//! Property tests of the work-stealing parallel runtime: random specs
//! and fleets always match the deterministic single-queue simulator
//! (occurrence sets, verdicts and final □-views — the tenth audit),
//! results and scheduling metrics are invariant in the worker count,
//! and a forged [`ShardPlan`] independence claim is always caught by
//! the transposition audit with the racy pair correctly attributed.

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
/// (multi-event classes) pass the tenth audit at several worker
/// counts — parallel occurrence sets, verdicts and final □-views
/// equal the single-queue simulator's, and the transposition audits
/// stay green over the parallel schedule.
#[test]
fn random_specs_conform_to_the_oracle() {
    check("random_specs_conform_to_the_oracle", CASES, |g| {
        let seed = g.range(0u64..12);
        let n = g.range(2u32..7);
        for spec in [chain_spec(n), precedence_spec(n)] {
            let (failures, run) =
                audit_parallel_conformance(&spec, &ExecConfig::seeded(seed), &[1, 3]);
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

/// WORKER-COUNT DETERMINISM: the pool width is an execution detail.
/// Histories are byte-identical across worker counts, and so is
/// every *scheduling* metric that describes the round structure
/// (rounds, shards, round width, per-shard load) — only wall-clock
/// timing fields may differ between runs.
#[test]
fn metrics_are_worker_count_invariant() {
    check("metrics_are_worker_count_invariant", CASES, |g| {
        let seed = g.range(0u64..10);
        let workers = g.range(2usize..6);
        let specs = vec![drive(&chain_spec(5))];
        let arrivals = generate(&specs, &WorkloadConfig::new(4, seed));
        let run = |w: usize| {
            let mut config = ExecConfig::seeded(seed);
            config.parallel = Some(ParallelConfig::new(w));
            run_parallel_fleet(&specs, &arrivals, &config)
        };
        let a = run(1);
        let b = run(workers);
        assert_eq!(a.events, b.events);
        assert_eq!(a.quiesced, b.quiesced);
        assert_eq!(a.exhausted, b.exhausted);
        for (x, y) in a.instances.iter().zip(&b.instances) {
            assert_eq!(&x.report.occurrences, &y.report.occurrences, "instance {:?}", x.instance);
            assert_eq!(x.finished_at, y.finished_at);
        }
        assert_eq!(a.stats.rounds, b.stats.rounds);
        assert_eq!(a.stats.shards, b.stats.shards);
        assert_eq!(a.stats.max_round_width, b.stats.max_round_width);
        assert_eq!(&a.stats.per_shard_delivered, &b.stats.per_shard_delivered);
        assert_eq!(&a.stats.per_shard_last_time, &b.stats.per_shard_last_time);
        assert_eq!(a.stats.duration, b.stats.duration);
        assert_eq!(b.stats.workers, workers.min(b.stats.shards.max(1)));
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
        let (failures, _) = audit_parallel_conformance(&spec, &config, &[1]);
        assert!(!failures.is_empty(), "seed {seed}: forged plan went undetected");
        assert!(
            failures.iter().any(|fl| fl.contains("schedule race") && fl.contains('e')),
            "seed {seed}: the race must be attributed to the forged pair: {failures:?}"
        );
    });
}
