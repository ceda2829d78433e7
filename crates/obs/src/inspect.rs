//! Run inspection: justification chains (`wftrace explain`), aggregate
//! statistics (`wftrace stats`), and the Chrome-tracing export
//! (`wftrace export --chrome`).

use crate::json::Json;
use crate::recording::{Dag, Recording};
use crate::span::{SpanId, SpanKind, Time, TraceEvent};
use std::collections::{BTreeMap, HashSet};

/// A justification chain for one firing: the announcements, residuation
/// steps, and guard flip that caused it, in happens-before order.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The `Occurred` record being explained.
    pub firing: TraceEvent,
    /// `(depth, event)` pairs: the chain in discovery order, root causes
    /// deepest. Does not include the firing itself.
    pub chain: Vec<(usize, TraceEvent)>,
    /// `true` if every chain node strictly precedes the firing in the
    /// happens-before DAG (the acceptance invariant).
    pub verified: bool,
}

impl Explanation {
    /// Multi-line human rendering.
    pub fn render(&self, rec: &Recording) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "firing {} t={} node={} site={}: {}\n",
            self.firing.id,
            self.firing.at,
            self.firing.node,
            self.firing.site,
            self.firing.kind.describe(&rec.symbols)
        ));
        let mut sorted: Vec<&(usize, TraceEvent)> = self.chain.iter().collect();
        sorted.sort_by_key(|(_, e)| e.id);
        for (depth, e) in sorted {
            out.push_str(&format!(
                "{}{} t={} node={}: {}\n",
                "  ".repeat(depth + 1),
                e.id,
                e.at,
                e.node,
                e.kind.describe(&rec.symbols)
            ));
        }
        out.push_str(if self.verified {
            "chain verified: every node happens-before the firing\n"
        } else {
            "chain NOT verified: some node does not precede the firing\n"
        });
        out
    }
}

/// Explain why `event_name` fired: locate its `Occurred` record
/// (optionally at exact time `at`) and walk the justification backwards —
/// the guard flip, the facts it consumed, their announcement deliveries,
/// and the establishing occurrences, recursively.
pub fn explain(rec: &Recording, event_name: &str, at: Option<Time>) -> Result<Explanation, String> {
    let lit = rec
        .lit_by_name(event_name)
        .ok_or_else(|| format!("unknown event {event_name:?} (not in the symbol table)"))?;
    let mut firings = rec
        .events
        .iter()
        .filter(|e| matches!(&e.kind, SpanKind::Occurred { lit: l, .. } if *l == lit));
    let firing = match at {
        Some(t) => firings.find(|e| e.at == t).ok_or_else(|| {
            let times: Vec<String> = rec
                .events
                .iter()
                .filter(|e| matches!(&e.kind, SpanKind::Occurred { lit: l, .. } if *l == lit))
                .map(|e| e.at.to_string())
                .collect();
            format!(
                "{event_name} did not occur at t={t}; recorded occurrence times: [{}]",
                times.join(", ")
            )
        })?,
        None => firings.next().ok_or_else(|| format!("{event_name} never occurred"))?,
    }
    .clone();

    let mut chain: Vec<(usize, TraceEvent)> = Vec::new();
    let mut visited: HashSet<SpanId> = HashSet::new();
    visited.insert(firing.id);
    justify(rec, &firing, 0, &mut chain, &mut visited);

    let dag = Dag::new(rec);
    let verified = chain.iter().all(|(_, e)| dag.precedes(e.id, firing.id));
    Ok(Explanation { firing, chain, verified })
}

/// Walk one firing's causes; bounded by the visited set (the record is a
/// DAG) and a depth cap for safety.
fn justify(
    rec: &Recording,
    from: &TraceEvent,
    depth: usize,
    chain: &mut Vec<(usize, TraceEvent)>,
    visited: &mut HashSet<SpanId>,
) {
    if depth > 64 {
        return;
    }
    // Ancestor walk: delivery/send context, promise phases, the guard flip.
    let mut cursor = from.parent;
    while let Some(pid) = cursor {
        let Some(parent) = rec.event(pid) else { break };
        if !visited.insert(parent.id) {
            break;
        }
        chain.push((depth, parent.clone()));
        if let SpanKind::GuardEval { facts, .. } = &parent.kind {
            for f in facts {
                // The residuation step that folded this fact in, with its
                // own delivery ancestry.
                if let Some(fa) = rec.events.iter().find(|e| {
                    e.node == from.node
                        && matches!(&e.kind, SpanKind::FactApplied { lit, seq }
                            if *lit == f.lit && *seq == f.seq)
                }) {
                    if visited.insert(fa.id) {
                        chain.push((depth + 1, fa.clone()));
                        let mut up = fa.parent;
                        while let Some(uid) = up {
                            let Some(anc) = rec.event(uid) else { break };
                            if !visited.insert(anc.id) {
                                break;
                            }
                            chain.push((depth + 1, anc.clone()));
                            up = anc.parent;
                        }
                    }
                }
                // The establishing occurrence, recursively justified.
                if let Some(est) = rec.establisher(f.lit, f.seq) {
                    if visited.insert(est.id) {
                        chain.push((depth + 1, est.clone()));
                        justify(rec, &est.clone(), depth + 1, chain, visited);
                    }
                }
            }
        }
        cursor = parent.parent;
    }
}

/// Aggregate statistics: per-site load, transport retransmissions, and
/// promise-round latencies, followed by the metrics snapshot.
pub fn stats_text(rec: &Recording) -> String {
    let mut sends: BTreeMap<u32, u64> = BTreeMap::new();
    let mut delivers: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rtx: BTreeMap<u32, u64> = BTreeMap::new();
    let mut dedup = 0u64;
    let mut giveups = 0u64;
    let mut occurrences = 0u64;
    let mut opens: Vec<&TraceEvent> = Vec::new();
    let mut round_latencies: Vec<u64> = Vec::new();
    for e in &rec.events {
        match &e.kind {
            SpanKind::MsgSend { .. } => *sends.entry(e.site).or_insert(0) += 1,
            SpanKind::MsgDeliver { .. } => *delivers.entry(e.site).or_insert(0) += 1,
            SpanKind::EnvRetransmit { .. } => *rtx.entry(e.node).or_insert(0) += 1,
            SpanKind::EnvDedupDrop { .. } => dedup += 1,
            SpanKind::EnvGiveUp { .. } => giveups += 1,
            SpanKind::Occurred { .. } => occurrences += 1,
            SpanKind::PromiseOpen { .. } => opens.push(e),
            SpanKind::PromiseCommit { lit } => {
                // Close the earliest still-open round for this literal.
                if let Some(i) = opens.iter().position(|o| {
                    matches!(&o.kind, SpanKind::PromiseOpen { lit: l, .. } if l == lit)
                        && o.node == e.node
                }) {
                    round_latencies.push(e.at.saturating_sub(opens[i].at));
                    opens.remove(i);
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "workflow {} — {} events recorded ({} dropped), {} occurrences\n\n",
        rec.workflow,
        rec.events.len(),
        rec.dropped,
        occurrences
    ));
    out.push_str("per-site load (recorded sends / deliveries):\n");
    let sites: HashSet<u32> = sends.keys().chain(delivers.keys()).copied().collect();
    let mut sites: Vec<u32> = sites.into_iter().collect();
    sites.sort_unstable();
    for s in sites {
        out.push_str(&format!(
            "  site {s}: {} sent, {} delivered\n",
            sends.get(&s).copied().unwrap_or(0),
            delivers.get(&s).copied().unwrap_or(0)
        ));
    }
    out.push_str(&format!(
        "\ntransport: {} retransmissions, {dedup} dedup drops, {giveups} give-ups\n",
        rtx.values().sum::<u64>()
    ));
    for (n, c) in &rtx {
        out.push_str(&format!("  node {n}: {c} retransmissions\n"));
    }
    // Timer deliveries leave no span of their own; the run's counters
    // carry them (a recording from before they existed has none).
    let timers = |series| rec.metrics.counter(series, &[]);
    if let (Some(fires), Some(idle)) =
        (timers("transport.timer_fires"), timers("transport.timer_idle"))
    {
        out.push_str(&format!("  retransmission timers: {fires} fired, {idle} with nothing due\n"));
    }
    if round_latencies.is_empty() {
        out.push_str("\npromise rounds: none recorded\n");
    } else {
        let mut sorted = round_latencies.clone();
        sorted.sort_unstable();
        out.push_str(&format!(
            "\npromise rounds: {} closed, latency min={} p50={} max={}\n",
            sorted.len(),
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1]
        ));
    }
    let metrics = rec.metrics.render();
    if !metrics.is_empty() {
        out.push_str("\nmetrics:\n");
        for line in metrics.lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

/// Sampling report (`wftrace stats --sampled`): the observed keep rate
/// of non-safety spans and, per span kind, the extrapolated *true*
/// count of the unthinned run.
///
/// The recorder flips its deterministic coin per span but counts every
/// elision in `Recording::sampled_out`, so the aggregate keep rate is
/// known exactly: `kept / (kept + sampled_out)` over non-safety spans.
/// Per-kind true counts are estimated by scaling each kept count by the
/// inverse of that rate — the coin is kind-blind, so the estimate is
/// unbiased. Safety-class kinds are never sampled and print exact.
pub fn sampling_text(rec: &Recording) -> String {
    let mut kinds: BTreeMap<&'static str, (u64, bool)> = BTreeMap::new();
    let mut kept_nonsafety = 0u64;
    for e in &rec.events {
        let entry = kinds.entry(e.kind.tag()).or_insert((0, e.kind.is_safety()));
        entry.0 += 1;
        if !e.kind.is_safety() {
            kept_nonsafety += 1;
        }
    }
    let mut out = String::new();
    if rec.sampled_out == 0 {
        out.push_str("\nsampling: off — every span kept, all counts exact\n");
        return out;
    }
    let true_nonsafety = kept_nonsafety + rec.sampled_out;
    let rate = kept_nonsafety as f64 / true_nonsafety.max(1) as f64;
    out.push_str(&format!(
        "\nsampling: {kept_nonsafety} of {true_nonsafety} non-safety spans kept \
         (keep rate {rate:.3}, {} sampled out)\n",
        rec.sampled_out
    ));
    out.push_str("per-kind counts (safety kinds exact, others extrapolated):\n");
    for (tag, &(kept, safety)) in &kinds {
        if safety {
            out.push_str(&format!("  {tag:<16} {kept:>8} (exact)\n"));
        } else {
            let estimated = if rate > 0.0 { (kept as f64 / rate).round() as u64 } else { kept };
            out.push_str(&format!("  {tag:<16} {kept:>8} kept ~= {estimated} true\n"));
        }
    }
    out
}

/// Export the recording as Chrome `chrome://tracing` JSON (one complete
/// event per record; pid = site, tid = node, ts = virtual time).
pub fn chrome_trace(rec: &Recording) -> String {
    let events: Vec<Json> = rec
        .events
        .iter()
        .map(|e| {
            let mut args = vec![("id", Json::u64(e.id.0)), ("kind", Json::str(e.kind.tag()))];
            if let Some(p) = e.parent {
                args.push(("parent", Json::u64(p.0)));
            }
            Json::obj(vec![
                ("name", Json::str(&e.kind.describe(&rec.symbols))),
                ("cat", Json::str(e.kind.tag())),
                ("ph", Json::str("X")),
                ("ts", Json::u64(e.at)),
                ("dur", Json::u64(1)),
                ("pid", Json::u64(e.site as u64)),
                ("tid", Json::u64(e.node as u64)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", Json::obj(vec![("workflow", Json::str(&rec.workflow))])),
    ]);
    let mut s = doc.to_string_compact();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::span::{Fact, ObsLit, Verdict};

    fn ev(id: u64, parent: Option<u64>, node: u32, kind: SpanKind) -> TraceEvent {
        TraceEvent { id: SpanId(id), parent: parent.map(SpanId), at: id, node, site: node, kind }
    }

    fn two_node_run() -> Recording {
        Recording {
            workflow: "travel".to_string(),
            symbols: vec!["buy.commit".to_string(), "book.commit".to_string()],
            dropped: 0,
            sampled_out: 0,
            events: vec![
                ev(0, None, 0, SpanKind::Attempt { lit: ObsLit::pos(0) }),
                ev(
                    1,
                    Some(0),
                    0,
                    SpanKind::GuardEval {
                        lit: ObsLit::pos(0),
                        verdict: Verdict::Enabled,
                        residual: 0,
                        facts: vec![],
                    },
                ),
                ev(
                    2,
                    Some(1),
                    0,
                    SpanKind::Occurred { lit: ObsLit::pos(0), seq: 3, by_acceptance: false },
                ),
                ev(3, Some(2), 0, SpanKind::MsgSend { from: 0, to: 1, label: "announce".into() }),
                ev(
                    4,
                    Some(3),
                    1,
                    SpanKind::MsgDeliver { from: 0, to: 1, label: "announce".into() },
                ),
                ev(5, Some(4), 1, SpanKind::FactApplied { lit: ObsLit::pos(0), seq: 3 }),
                ev(
                    6,
                    Some(4),
                    1,
                    SpanKind::GuardEval {
                        lit: ObsLit::pos(1),
                        verdict: Verdict::Enabled,
                        residual: 2,
                        facts: vec![Fact { seq: 3, lit: ObsLit::pos(0), at: 2 }],
                    },
                ),
                ev(
                    7,
                    Some(6),
                    1,
                    SpanKind::Occurred { lit: ObsLit::pos(1), seq: 8, by_acceptance: false },
                ),
            ],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn explain_builds_verified_chain_back_to_root_cause() {
        let rec = two_node_run();
        let ex = explain(&rec, "book.commit", None).unwrap();
        assert_eq!(ex.firing.id, SpanId(7));
        assert!(ex.verified, "chain must verify");
        let ids: HashSet<u64> = ex.chain.iter().map(|(_, e)| e.id.0).collect();
        // The guard flip, the fact application, its delivery/send context,
        // and the establishing occurrence with its own justification.
        for expected in [6, 5, 4, 3, 2, 1, 0] {
            assert!(ids.contains(&expected), "chain missing #{expected}: {ids:?}");
        }
        let text = ex.render(&rec);
        assert!(text.contains("chain verified"), "{text}");
    }

    #[test]
    fn explain_respects_at_and_reports_misses() {
        let rec = two_node_run();
        assert!(explain(&rec, "book.commit", Some(7)).is_ok());
        let err = explain(&rec, "book.commit", Some(99)).unwrap_err();
        assert!(err.contains("recorded occurrence times"), "{err}");
        assert!(explain(&rec, "missing.event", None).is_err());
        let never = explain(&rec, "~buy.commit", None).unwrap_err();
        assert!(never.contains("never occurred"), "{never}");
    }

    #[test]
    fn stats_counts_sites_and_transport() {
        let mut rec = two_node_run();
        rec.events.push(ev(8, None, 1, SpanKind::EnvRetransmit { to: 0, seq: 1, attempt: 1 }));
        rec.events.push(ev(9, None, 0, SpanKind::EnvDedupDrop { from: 1, seq: 1 }));
        let text = stats_text(&rec);
        assert!(text.contains("site 0: 1 sent"), "{text}");
        assert!(text.contains("site 1: 0 sent, 1 delivered"), "{text}");
        assert!(text.contains("1 retransmissions, 1 dedup drops"), "{text}");
        assert!(text.contains("2 occurrences"), "{text}");
        assert!(!text.contains("retransmission timers"), "no transport counters, no line: {text}");
        crate::MetricSink::add(&mut rec.metrics, "transport.timer_fires", &[], 5);
        crate::MetricSink::add(&mut rec.metrics, "transport.timer_idle", &[], 4);
        let text = stats_text(&rec);
        assert!(text.contains("retransmission timers: 5 fired, 4 with nothing due"), "{text}");
    }

    #[test]
    fn promise_round_latency_pairs_open_with_close() {
        let mut rec = two_node_run();
        rec.events.push(ev(
            10,
            None,
            0,
            SpanKind::PromiseOpen { lit: ObsLit::pos(0), for_lit: ObsLit::pos(1) },
        ));
        rec.events.push(ev(11, None, 0, SpanKind::PromiseCommit { lit: ObsLit::pos(0) }));
        let text = stats_text(&rec);
        assert!(text.contains("promise rounds: 1 closed"), "{text}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_record() {
        let rec = two_node_run();
        let text = chrome_trace(&rec);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), rec.events.len());
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
    }
}
