//! Property: a recording — events of every span kind, parent edges, and
//! the metrics snapshot — survives the JSON round trip identically, so
//! the happens-before DAG reconstructed by `wftrace` from a trace file is
//! the DAG the run produced.

use obs::recording::Dag;
use obs::{Fact, MetricsRegistry, ObsLit, Recording, SpanId, SpanKind, TraceEvent, Verdict};
use seeded::{check, Rng};

const CASES: u32 = 256;

fn lit(r: &mut Rng) -> ObsLit {
    ObsLit((r.next_u64() % 12) as u32)
}

fn kind(r: &mut Rng) -> SpanKind {
    let a = (r.next_u64() % 6) as u32;
    let b = (r.next_u64() % 6) as u32;
    let seq = r.next_u64() % 1000;
    match r.next_u64() % 27 {
        0 => SpanKind::MsgSend { from: a, to: b, label: "announce".into() },
        1 => SpanKind::MsgDeliver { from: a, to: b, label: "attempt".into() },
        2 => SpanKind::FaultDrop { from: a, to: b, label: "promise_req".into() },
        3 => SpanKind::FaultDuplicate { from: a, to: b, label: "ack".into() },
        4 => SpanKind::FaultDelay { from: a, to: b, by: seq },
        5 => SpanKind::PartitionDrop { from: a, to: b, label: "notyet_grant".into() },
        6 => SpanKind::CrashDrop { node: a },
        7 => SpanKind::Restart { node: a },
        8 => SpanKind::EnvSend { to: b, seq },
        9 => SpanKind::EnvRetransmit { to: b, seq, attempt: a + 1 },
        10 => SpanKind::EnvAck { peer: b, seq },
        11 => SpanKind::EnvDedupDrop { from: a, seq },
        12 => SpanKind::EnvGiveUp { to: b, seq },
        13 => SpanKind::Attempt { lit: lit(r) },
        14 => {
            let verdict = match r.next_u64() % 3 {
                0 => Verdict::Enabled,
                1 => Verdict::Parked,
                _ => Verdict::Dead,
            };
            let facts = (0..r.next_u64() % 4)
                .map(|_| Fact { seq: r.next_u64() % 100, lit: lit(r), at: r.next_u64() % 50 })
                .collect();
            SpanKind::GuardEval {
                lit: lit(r),
                verdict,
                residual: (r.next_u64() % 9000) as u32,
                facts,
            }
        }
        15 => SpanKind::DepStep {
            dep: a,
            input: lit(r),
            state: (r.next_u64() % 100) as u32,
            live: r.next_u64().is_multiple_of(2),
        },
        16 => SpanKind::FactApplied { lit: lit(r), seq },
        17 => {
            SpanKind::Occurred { lit: lit(r), seq, by_acceptance: r.next_u64().is_multiple_of(2) }
        }
        18 => SpanKind::Parked { lit: lit(r) },
        19 => SpanKind::Rejected { lit: lit(r) },
        20 => SpanKind::Triggered { lit: lit(r) },
        21 => SpanKind::PromiseOpen { lit: lit(r), for_lit: lit(r) },
        22 => SpanKind::PromiseGrant { lit: lit(r), to: b },
        23 => SpanKind::PromiseDeny { lit: lit(r), to: b },
        24 => SpanKind::PromiseCommit { lit: lit(r) },
        25 => SpanKind::WalAppend { seq },
        _ => SpanKind::WalReplay { entries: seq },
    }
}

fn recording(seed: u64) -> Recording {
    let r = &mut Rng::seed_from_u64(seed);
    let n_events = 1 + (r.next_u64() % 40) as usize;
    let mut at = 0u64;
    let events: Vec<TraceEvent> = (0..n_events as u64)
        .map(|id| {
            at += r.next_u64() % 3;
            let parent = if id > 0 && !r.next_u64().is_multiple_of(3) {
                Some(SpanId(r.next_u64() % id))
            } else {
                None
            };
            let node = (r.next_u64() % 5) as u32;
            TraceEvent { id: SpanId(id), parent, at, node, site: node % 3, kind: kind(r) }
        })
        .collect();
    let reg = MetricsRegistry::new();
    for _ in 0..r.next_u64() % 6 {
        reg.add("net.sent", &[("site", "0")], r.next_u64() % 50);
        reg.set_gauge("dep.satisfied", &[("dep", "1")], (r.next_u64() % 3) as i64 - 1);
        reg.observe("net.latency", &[], r.next_u64() % (1 << 20));
    }
    Recording {
        workflow: format!("wf-{}", seed % 97),
        symbols: (0..6).map(|i| format!("e{i}")).collect(),
        dropped: r.next_u64() % 3,
        sampled_out: r.next_u64() % 3,
        events,
        metrics: reg.snapshot(),
    }
}

#[test]
fn recording_round_trips_through_json() {
    check("recording_round_trips_through_json", CASES, |g| {
        let seed = g.range(0u64..u64::MAX / 2);
        let rec = recording(seed);
        let back =
            Recording::parse(&rec.to_json_string()).expect("serialized recording must parse");
        assert_eq!(&back, &rec);

        // The reconstructed DAG answers reachability identically: parent
        // edges and per-node program order survive the round trip.
        let dag_a = Dag::new(&rec);
        let dag_b = Dag::new(&back);
        let n = rec.events.len() as u64;
        for _ in 0..16 {
            let a = SpanId(g.range(0..n));
            let b = SpanId(g.range(0..n));
            assert_eq!(dag_a.precedes(a, b), dag_b.precedes(a, b));
        }
    });
}

#[test]
fn metrics_snapshot_round_trips() {
    check("metrics_snapshot_round_trips", CASES, |g| {
        let snap = recording(g.range(0u64..u64::MAX / 2)).metrics;
        let back = obs::MetricsSnapshot::from_json(&snap.to_json())
            .expect("serialized snapshot must parse");
        assert_eq!(back, snap);
    });
}
