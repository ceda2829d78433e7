//! A completed recording: the event DAG plus metrics, its JSON codec, and
//! the causal-consistency audit.
//!
//! # The happens-before DAG invariant
//!
//! A recording's events form a DAG under two edge families:
//!
//! 1. **parent edges** — each record may name the span in scope when it
//!    was made (the delivery being handled, the guard evaluation that
//!    fired, ...);
//! 2. **program order** — a node's records are totally ordered by span id
//!    (ids come from one global monotone counter and each node is handled
//!    sequentially by the simulator).
//!
//! Both edge families point strictly backwards in id order, so the union
//! is acyclic. The causal audit ([`causal_audit`]) checks the semantic
//! invariant on top: every fact a guard evaluation consumed has an
//! establishing `Occurred` record that *precedes* the consumer in this
//! DAG. Program order is a legitimate happens-before edge even across a
//! crash–restart, because the WAL replays exactly the messages whose
//! deliveries were recorded before the crash.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::span::{Fact, ObsLit, SpanId, SpanKind, TraceEvent, Verdict};
use std::collections::{HashMap, HashSet};

/// A serialized run: identity, the event DAG, and the metrics snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Workflow name from the spec.
    pub workflow: String,
    /// Symbol names indexed by symbol id (renders [`ObsLit`]s).
    pub symbols: Vec<String>,
    /// Records overwritten by the ring buffer before the snapshot.
    pub dropped: u64,
    /// Non-safety records elided by sampling ([`RecordConfig::sample`]);
    /// they consumed span ids but recorded no payload.
    ///
    /// [`RecordConfig::sample`]: crate::RecordConfig::sample
    pub sampled_out: u64,
    /// The recorded events in id order.
    pub events: Vec<TraceEvent>,
    /// Metrics captured at the end of the run.
    pub metrics: MetricsSnapshot,
}

impl Recording {
    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workflow", Json::str(&self.workflow)),
            ("symbols", Json::Arr(self.symbols.iter().map(|s| Json::str(s)).collect())),
            ("dropped", Json::u64(self.dropped)),
            ("sampled_out", Json::u64(self.sampled_out)),
            ("events", Json::Arr(self.events.iter().map(event_to_json).collect())),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// Serialize to a JSON document string.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_compact();
        s.push('\n');
        s
    }

    /// Inverse of [`Recording::to_json`].
    pub fn from_json(v: &Json) -> Result<Recording, String> {
        let workflow = v
            .get("workflow")
            .and_then(Json::as_str)
            .ok_or("recording missing workflow")?
            .to_string();
        let symbols = v
            .get("symbols")
            .and_then(Json::as_arr)
            .ok_or("recording missing symbols")?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or("symbol must be a string"))
            .collect::<Result<Vec<_>, _>>()?;
        let dropped = v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        // Absent in recordings from before sampling existed — they are
        // exact by construction.
        let sampled_out = v.get("sampled_out").and_then(Json::as_u64).unwrap_or(0);
        let mut events = v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("recording missing events")?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        events.sort_by_key(|e| e.id);
        let metrics = match v.get("metrics") {
            Some(m) => MetricsSnapshot::from_json(m)?,
            None => MetricsSnapshot::default(),
        };
        Ok(Recording { workflow, symbols, dropped, sampled_out, events, metrics })
    }

    /// Parse a JSON document string.
    pub fn parse(src: &str) -> Result<Recording, String> {
        Recording::from_json(&Json::parse(src)?)
    }

    /// The event with span id `id`, if it is still in the recording.
    pub fn event(&self, id: SpanId) -> Option<&TraceEvent> {
        self.events.binary_search_by_key(&id, |e| e.id).ok().map(|i| &self.events[i])
    }

    /// Resolve an event name (`commit` / `~commit`, also accepting the
    /// spec's `agent::event` form for the table's `agent.event` symbols)
    /// to a literal.
    pub fn lit_by_name(&self, name: &str) -> Option<ObsLit> {
        let (neg, base) = match name.strip_prefix('~') {
            Some(rest) => (true, rest),
            None => (false, name),
        };
        let dotted = base.replace("::", ".");
        let sym = self.symbols.iter().position(|s| *s == dotted)? as u32;
        Some(if neg { ObsLit::neg(sym) } else { ObsLit::pos(sym) })
    }

    /// The `Occurred` record establishing fact `(lit, seq)`.
    pub fn establisher(&self, lit: ObsLit, seq: u64) -> Option<&TraceEvent> {
        self.events.iter().find(|e| {
            matches!(&e.kind, SpanKind::Occurred { lit: l, seq: s, .. } if *l == lit && *s == seq)
        })
    }
}

/// Reachability queries over a recording's happens-before DAG.
///
/// Edges are parent links plus per-node program order; both kinds point
/// to strictly smaller ids, so backward search is bounded.
pub struct Dag<'a> {
    rec: &'a Recording,
    /// For each event (by position), the previous event on the same node.
    prev_on_node: Vec<Option<SpanId>>,
    index: HashMap<SpanId, usize>,
}

impl<'a> Dag<'a> {
    /// Build the program-order index for `rec`.
    pub fn new(rec: &'a Recording) -> Dag<'a> {
        let mut last: HashMap<u32, SpanId> = HashMap::new();
        let mut prev_on_node = Vec::with_capacity(rec.events.len());
        let mut index = HashMap::with_capacity(rec.events.len());
        for (i, e) in rec.events.iter().enumerate() {
            prev_on_node.push(last.get(&e.node).copied());
            last.insert(e.node, e.id);
            index.insert(e.id, i);
        }
        Dag { rec, prev_on_node, index }
    }

    /// A concrete happens-before path from `a` to `b` (inclusive), or
    /// `None` if `a` does not precede `b`. Each consecutive pair in the
    /// returned path is one DAG edge (a parent link or one step of
    /// per-node program order), so the whole path can be re-verified
    /// edge-by-edge with [`Dag::precedes`].
    pub fn path(&self, a: SpanId, b: SpanId) -> Option<Vec<SpanId>> {
        if a >= b {
            return None;
        }
        // Backward BFS from `b`; `came_from[p] = successor we reached p
        // from`, so the forward path falls out by following successors.
        let mut came_from: HashMap<SpanId, SpanId> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([b]);
        'search: while let Some(cur) = queue.pop_front() {
            let Some(&i) = self.index.get(&cur) else { continue };
            for pred in [self.rec.events[i].parent, self.prev_on_node[i]].into_iter().flatten() {
                // Backward edges strictly decrease ids: below `a` nothing
                // can lead back to it.
                if pred < a || came_from.contains_key(&pred) {
                    continue;
                }
                came_from.insert(pred, cur);
                if pred == a {
                    break 'search;
                }
                queue.push_back(pred);
            }
        }
        came_from.contains_key(&a).then(|| {
            let mut path = vec![a];
            let mut cur = a;
            while cur != b {
                cur = came_from[&cur];
                path.push(cur);
            }
            path
        })
    }

    /// `true` if `a` strictly happens-before `b` in the DAG.
    pub fn precedes(&self, a: SpanId, b: SpanId) -> bool {
        if a >= b {
            return false;
        }
        let mut seen: HashSet<SpanId> = HashSet::new();
        let mut stack = vec![b];
        while let Some(cur) = stack.pop() {
            let Some(&i) = self.index.get(&cur) else { continue };
            for pred in [self.rec.events[i].parent, self.prev_on_node[i]].into_iter().flatten() {
                if pred == a {
                    return true;
                }
                // Backward edges strictly decrease ids: below `a` nothing
                // can lead back to it.
                if pred > a && seen.insert(pred) {
                    stack.push(pred);
                }
            }
        }
        false
    }
}

/// Check the causal-consistency invariant: the parent edges form a
/// well-founded DAG (no dangling references, no forward edges — which
/// would admit cycles — and no child stamped earlier than its parent),
/// and on top of that every fact consumed by a guard evaluation or fact
/// application has an establishing `Occurred` record that precedes the
/// consumer in the happens-before DAG.
///
/// Returns human-readable violations (empty = green). Facts and parents
/// whose records were overwritten by the ring buffer are excused when
/// `rec.dropped > 0`. A dangling *parent* is additionally excused when
/// `rec.sampled_out > 0` (the parent may have been a sampled-out
/// non-safety span), but a missing *establisher* is never excused by
/// sampling: establishers are `Occurred` records, a safety kind the
/// sampler always keeps, so that half of the audit keeps its full
/// strength on sampled recordings.
///
/// The establisher-precedes-consumer check degrades gracefully on a
/// sampled recording: the relay spans (`msg_send`/`msg_deliver`) that
/// carry a cross-node happens-before path are non-safety kinds the
/// sampler may elide, so when a path cannot be traced and
/// `rec.sampled_out > 0` the audit falls back to timestamp order
/// between the two safety spans themselves — which are exact by
/// construction — and flags only `consumer.at < establisher.at`.
pub fn causal_audit(rec: &Recording) -> Vec<String> {
    let dag = Dag::new(rec);
    let mut violations = Vec::new();
    for e in &rec.events {
        let Some(p) = e.parent else { continue };
        // A parent edge must point strictly backwards in id order: ids
        // come from one monotone counter, so a forward (or self) edge is
        // fabricated and would let the "DAG" contain a cycle.
        if p >= e.id {
            violations
                .push(format!("parent edge {} → {p} points forward in id order (cycle)", e.id));
            continue;
        }
        match rec.event(p) {
            None => {
                if rec.dropped == 0 && rec.sampled_out == 0 {
                    violations.push(format!("{} names a dangling parent {p}", e.id));
                }
            }
            Some(pe) => {
                if e.at < pe.at {
                    violations.push(format!(
                        "{} at t={} is stamped earlier than its parent {p} at t={}",
                        e.id, e.at, pe.at
                    ));
                }
            }
        }
    }
    let mut check = |consumer: &TraceEvent, lit: ObsLit, seq: u64| match rec.establisher(lit, seq) {
        None => {
            if rec.dropped == 0 {
                violations.push(format!(
                    "fact {}@{seq} consumed by {} (node {}) has no establishing record",
                    lit.name(&rec.symbols),
                    consumer.id,
                    consumer.node
                ));
            }
        }
        Some(est) => {
            if est.id != consumer.id && !dag.precedes(est.id, consumer.id) {
                // A sampled recording may have elided the relay spans
                // that carried this cross-node path; both endpoints are
                // safety spans with exact stamps, so fall back to
                // timestamp order (see the doc comment).
                if rec.sampled_out == 0 || consumer.at < est.at {
                    violations.push(format!(
                        "establisher {} of fact {}@{seq} does not precede consumer {} (node {})",
                        est.id,
                        lit.name(&rec.symbols),
                        consumer.id,
                        consumer.node
                    ));
                }
            }
        }
    };
    for e in &rec.events {
        match &e.kind {
            SpanKind::GuardEval { facts, .. } => {
                for f in facts {
                    check(e, f.lit, f.seq);
                }
            }
            SpanKind::FactApplied { lit, seq } => check(e, *lit, *seq),
            _ => {}
        }
    }
    violations
}

fn opt_u64(v: Option<SpanId>) -> Json {
    match v {
        Some(id) => Json::u64(id.0),
        None => Json::Null,
    }
}

fn event_to_json(e: &TraceEvent) -> Json {
    let mut pairs = vec![
        ("id", Json::u64(e.id.0)),
        ("parent", opt_u64(e.parent)),
        ("at", Json::u64(e.at)),
        ("node", Json::u64(e.node as u64)),
        ("site", Json::u64(e.site as u64)),
        ("k", Json::str(e.kind.tag())),
    ];
    pairs.extend(kind_fields(&e.kind));
    Json::obj(pairs)
}

fn kind_fields(kind: &SpanKind) -> Vec<(&'static str, Json)> {
    let lit = |l: &ObsLit| Json::u64(l.0 as u64);
    match kind {
        SpanKind::MsgSend { from, to, label }
        | SpanKind::MsgDeliver { from, to, label }
        | SpanKind::FaultDrop { from, to, label }
        | SpanKind::FaultDuplicate { from, to, label }
        | SpanKind::PartitionDrop { from, to, label } => vec![
            ("from", Json::u64(*from as u64)),
            ("to", Json::u64(*to as u64)),
            ("label", Json::str(label)),
        ],
        SpanKind::FaultDelay { from, to, by } => vec![
            ("from", Json::u64(*from as u64)),
            ("to", Json::u64(*to as u64)),
            ("by", Json::u64(*by)),
        ],
        SpanKind::CrashDrop { node } | SpanKind::Restart { node } => {
            vec![("n", Json::u64(*node as u64))]
        }
        SpanKind::EnvSend { to, seq } | SpanKind::EnvGiveUp { to, seq } => {
            vec![("to", Json::u64(*to as u64)), ("seq", Json::u64(*seq))]
        }
        SpanKind::EnvRetransmit { to, seq, attempt } => vec![
            ("to", Json::u64(*to as u64)),
            ("seq", Json::u64(*seq)),
            ("attempt", Json::u64(*attempt as u64)),
        ],
        SpanKind::EnvAck { peer, seq } => {
            vec![("peer", Json::u64(*peer as u64)), ("seq", Json::u64(*seq))]
        }
        SpanKind::EnvDedupDrop { from, seq } => {
            vec![("from", Json::u64(*from as u64)), ("seq", Json::u64(*seq))]
        }
        SpanKind::Attempt { lit: l }
        | SpanKind::Parked { lit: l }
        | SpanKind::Rejected { lit: l }
        | SpanKind::Triggered { lit: l }
        | SpanKind::PromiseCommit { lit: l } => vec![("lit", lit(l))],
        SpanKind::GuardEval { lit: l, verdict, residual, facts } => vec![
            ("lit", lit(l)),
            ("verdict", Json::str(verdict.label())),
            ("residual", Json::u64(*residual as u64)),
            (
                "facts",
                Json::Arr(
                    facts
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("seq", Json::u64(f.seq)),
                                ("lit", Json::u64(f.lit.0 as u64)),
                                ("at", Json::u64(f.at)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
        SpanKind::DepStep { dep, input, state, live } => vec![
            ("dep", Json::u64(*dep as u64)),
            ("input", lit(input)),
            ("state", Json::u64(*state as u64)),
            ("live", Json::Bool(*live)),
        ],
        SpanKind::FactApplied { lit: l, seq } => vec![("lit", lit(l)), ("seq", Json::u64(*seq))],
        SpanKind::Occurred { lit: l, seq, by_acceptance } => {
            vec![("lit", lit(l)), ("seq", Json::u64(*seq)), ("acc", Json::Bool(*by_acceptance))]
        }
        SpanKind::PromiseOpen { lit: l, for_lit } => {
            vec![("lit", lit(l)), ("for", lit(for_lit))]
        }
        SpanKind::PromiseGrant { lit: l, to } | SpanKind::PromiseDeny { lit: l, to } => {
            vec![("lit", lit(l)), ("to", Json::u64(*to as u64))]
        }
        SpanKind::WalAppend { seq } => vec![("seq", Json::u64(*seq))],
        SpanKind::WalReplay { entries } => vec![("entries", Json::u64(*entries))],
    }
}

fn event_from_json(v: &Json) -> Result<TraceEvent, String> {
    let u64_field = |name: &str| -> Result<u64, String> {
        v.get(name).and_then(Json::as_u64).ok_or_else(|| format!("event missing {name}"))
    };
    let u32_field = |name: &str| -> Result<u32, String> {
        u64_field(name).and_then(|n| u32::try_from(n).map_err(|_| format!("{name} overflows u32")))
    };
    let lit_field = |name: &str| -> Result<ObsLit, String> { Ok(ObsLit(u32_field(name)?)) };
    let bool_field = |name: &str| -> Result<bool, String> {
        v.get(name).and_then(Json::as_bool).ok_or_else(|| format!("event missing {name}"))
    };
    let str_field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("event missing {name}"))
    };
    let id = SpanId(u64_field("id")?);
    let parent = match v.get("parent") {
        Some(Json::Null) | None => None,
        Some(p) => Some(SpanId(p.as_u64().ok_or("bad parent")?)),
    };
    let at = u64_field("at")?;
    let node = u32_field("node")?;
    let site = u32_field("site")?;
    let tag = str_field("k")?;
    let kind = match tag.as_str() {
        "msg_send" => SpanKind::MsgSend {
            from: u32_field("from")?,
            to: u32_field("to")?,
            label: str_field("label")?.into(),
        },
        "msg_deliver" => SpanKind::MsgDeliver {
            from: u32_field("from")?,
            to: u32_field("to")?,
            label: str_field("label")?.into(),
        },
        "fault_drop" => SpanKind::FaultDrop {
            from: u32_field("from")?,
            to: u32_field("to")?,
            label: str_field("label")?.into(),
        },
        "fault_dup" => SpanKind::FaultDuplicate {
            from: u32_field("from")?,
            to: u32_field("to")?,
            label: str_field("label")?.into(),
        },
        "fault_delay" => SpanKind::FaultDelay {
            from: u32_field("from")?,
            to: u32_field("to")?,
            by: u64_field("by")?,
        },
        "partition_drop" => SpanKind::PartitionDrop {
            from: u32_field("from")?,
            to: u32_field("to")?,
            label: str_field("label")?.into(),
        },
        "crash_drop" => SpanKind::CrashDrop { node: u32_field("n")? },
        "restart" => SpanKind::Restart { node: u32_field("n")? },
        "env_send" => SpanKind::EnvSend { to: u32_field("to")?, seq: u64_field("seq")? },
        "env_rtx" => SpanKind::EnvRetransmit {
            to: u32_field("to")?,
            seq: u64_field("seq")?,
            attempt: u32_field("attempt")?,
        },
        "env_ack" => SpanKind::EnvAck { peer: u32_field("peer")?, seq: u64_field("seq")? },
        "env_dedup" => SpanKind::EnvDedupDrop { from: u32_field("from")?, seq: u64_field("seq")? },
        "env_giveup" => SpanKind::EnvGiveUp { to: u32_field("to")?, seq: u64_field("seq")? },
        "attempt" => SpanKind::Attempt { lit: lit_field("lit")? },
        "guard_eval" => {
            let verdict =
                Verdict::from_label(&str_field("verdict")?).ok_or("bad guard_eval verdict")?;
            let facts = v
                .get("facts")
                .and_then(Json::as_arr)
                .ok_or("guard_eval missing facts")?
                .iter()
                .map(|f| -> Result<Fact, String> {
                    Ok(Fact {
                        seq: f.get("seq").and_then(Json::as_u64).ok_or("fact seq")?,
                        lit: ObsLit(
                            f.get("lit")
                                .and_then(Json::as_u64)
                                .and_then(|n| u32::try_from(n).ok())
                                .ok_or("fact lit")?,
                        ),
                        at: f.get("at").and_then(Json::as_u64).ok_or("fact at")?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            SpanKind::GuardEval {
                lit: lit_field("lit")?,
                verdict,
                residual: u32_field("residual")?,
                facts,
            }
        }
        "dep_step" => SpanKind::DepStep {
            dep: u32_field("dep")?,
            input: lit_field("input")?,
            state: u32_field("state")?,
            live: bool_field("live")?,
        },
        "fact_applied" => SpanKind::FactApplied { lit: lit_field("lit")?, seq: u64_field("seq")? },
        "occurred" => SpanKind::Occurred {
            lit: lit_field("lit")?,
            seq: u64_field("seq")?,
            by_acceptance: bool_field("acc")?,
        },
        "parked" => SpanKind::Parked { lit: lit_field("lit")? },
        "rejected" => SpanKind::Rejected { lit: lit_field("lit")? },
        "triggered" => SpanKind::Triggered { lit: lit_field("lit")? },
        "promise_open" => {
            SpanKind::PromiseOpen { lit: lit_field("lit")?, for_lit: lit_field("for")? }
        }
        "promise_grant" => SpanKind::PromiseGrant { lit: lit_field("lit")?, to: u32_field("to")? },
        "promise_deny" => SpanKind::PromiseDeny { lit: lit_field("lit")?, to: u32_field("to")? },
        "promise_commit" => SpanKind::PromiseCommit { lit: lit_field("lit")? },
        "wal_append" => SpanKind::WalAppend { seq: u64_field("seq")? },
        "wal_replay" => SpanKind::WalReplay { entries: u64_field("entries")? },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceEvent { id, parent, at, node, site, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: Option<u64>, node: u32, kind: SpanKind) -> TraceEvent {
        TraceEvent { id: SpanId(id), parent: parent.map(SpanId), at: id, node, site: node, kind }
    }

    fn sample() -> Recording {
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
                    SpanKind::Occurred { lit: ObsLit::pos(0), seq: 3, by_acceptance: false },
                ),
                ev(2, Some(1), 0, SpanKind::MsgSend { from: 0, to: 1, label: "announce".into() }),
                ev(
                    3,
                    Some(2),
                    1,
                    SpanKind::MsgDeliver { from: 0, to: 1, label: "announce".into() },
                ),
                ev(4, Some(3), 1, SpanKind::FactApplied { lit: ObsLit::pos(0), seq: 3 }),
                ev(
                    5,
                    Some(3),
                    1,
                    SpanKind::GuardEval {
                        lit: ObsLit::pos(1),
                        verdict: Verdict::Enabled,
                        residual: 7,
                        facts: vec![Fact { seq: 3, lit: ObsLit::pos(0), at: 1 }],
                    },
                ),
                ev(
                    6,
                    Some(5),
                    1,
                    SpanKind::Occurred { lit: ObsLit::pos(1), seq: 9, by_acceptance: false },
                ),
            ],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let rec = sample();
        let back = Recording::parse(&rec.to_json_string()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn dag_precedence_follows_parents_and_program_order() {
        let rec = sample();
        let dag = Dag::new(&rec);
        // Parent chain: 0 → 1 → 2 → 3 → 5 → 6.
        assert!(dag.precedes(SpanId(0), SpanId(6)));
        assert!(dag.precedes(SpanId(2), SpanId(6)));
        // Program order on node 1: 4 precedes 6 even though 6's parent is 5.
        assert!(dag.precedes(SpanId(4), SpanId(6)));
        // Nothing precedes itself, and later never precedes earlier.
        assert!(!dag.precedes(SpanId(6), SpanId(6)));
        assert!(!dag.precedes(SpanId(6), SpanId(0)));
    }

    #[test]
    fn causal_audit_accepts_well_formed_run() {
        assert_eq!(causal_audit(&sample()), Vec::<String>::new());
    }

    #[test]
    fn causal_audit_flags_missing_establisher() {
        let mut rec = sample();
        // Remove the establishing occurrence of buy.commit@3.
        rec.events.retain(|e| e.id != SpanId(1));
        let violations = causal_audit(&rec);
        // Dropping #1 also dangles #2's parent edge, so the structural
        // pass adds a third diagnostic to fact_applied + guard_eval.
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("dangling parent")), "{violations:?}");
        assert!(
            violations.iter().filter(|v| v.contains("no establishing record")).count() == 2,
            "{violations:?}"
        );
        // ...unless the ring dropped records, which excuses absences.
        rec.dropped = 1;
        assert!(causal_audit(&rec).is_empty());
    }

    #[test]
    fn causal_audit_flags_non_preceding_establisher() {
        let mut rec = sample();
        // Detach the establisher from the DAG and move it after the
        // consumer: same node trickery won't save it on another node.
        rec.events.retain(|e| e.id != SpanId(1));
        rec.events.push(ev(
            9,
            None,
            3,
            SpanKind::Occurred { lit: ObsLit::pos(0), seq: 3, by_acceptance: false },
        ));
        let violations = causal_audit(&rec);
        assert!(violations.iter().any(|v| v.contains("does not precede")), "{violations:?}");
    }

    #[test]
    fn dag_path_is_a_concrete_edge_verified_chain() {
        let rec = sample();
        let dag = Dag::new(&rec);
        let path = dag.path(SpanId(0), SpanId(6)).expect("0 precedes 6");
        assert_eq!(path.first(), Some(&SpanId(0)));
        assert_eq!(path.last(), Some(&SpanId(6)));
        assert!(path.len() >= 2);
        for pair in path.windows(2) {
            assert!(dag.precedes(pair[0], pair[1]), "{} !< {}", pair[0], pair[1]);
        }
        // Unrelated or reversed queries have no path.
        assert!(dag.path(SpanId(6), SpanId(0)).is_none());
        assert!(dag.path(SpanId(6), SpanId(6)).is_none());
    }

    #[test]
    fn causal_audit_flags_a_dangling_parent() {
        let mut rec = sample();
        // Parent 8 does not exist; the edge still points backwards, so
        // only the dangling-reference check can catch it.
        rec.events.push(ev(9, Some(8), 2, SpanKind::Attempt { lit: ObsLit::pos(1) }));
        let violations = causal_audit(&rec);
        assert!(violations.iter().any(|v| v.contains("dangling parent")), "{violations:?}");
        // A ring overflow excuses the absence — the parent may simply
        // have been evicted.
        rec.dropped = 1;
        assert!(causal_audit(&rec).is_empty());
    }

    #[test]
    fn causal_audit_flags_a_parent_cycle() {
        let mut rec = sample();
        // 7 → 8 → 7: the forward half of the cycle is the fabrication.
        rec.events.push(ev(7, Some(8), 2, SpanKind::Attempt { lit: ObsLit::pos(0) }));
        rec.events.push(ev(8, Some(7), 2, SpanKind::Attempt { lit: ObsLit::pos(1) }));
        let violations = causal_audit(&rec);
        assert!(violations.iter().any(|v| v.contains("points forward")), "{violations:?}");
        // Even with drops the cycle stays flagged: no eviction story
        // explains an id pointing at a later record.
        rec.dropped = 5;
        assert!(causal_audit(&rec).iter().any(|v| v.contains("points forward")));
    }

    #[test]
    fn causal_audit_flags_a_child_stamped_earlier_than_its_parent() {
        let mut rec = sample();
        // Parent 5 is stamped at t=5; a child claiming t=2 inverts time.
        rec.events.push(TraceEvent {
            id: SpanId(7),
            parent: Some(SpanId(5)),
            at: 2,
            node: 1,
            site: 1,
            kind: SpanKind::Attempt { lit: ObsLit::pos(1) },
        });
        let violations = causal_audit(&rec);
        assert!(
            violations.iter().any(|v| v.contains("stamped earlier than its parent")),
            "{violations:?}"
        );
    }

    #[test]
    fn sampling_excuses_dangling_parents_but_not_missing_establishers() {
        let mut rec = sample();
        // A dangling parent edge may point at a sampled-out span.
        rec.events.push(ev(9, Some(8), 2, SpanKind::Attempt { lit: ObsLit::pos(1) }));
        assert!(causal_audit(&rec).iter().any(|v| v.contains("dangling parent")));
        rec.sampled_out = 1;
        assert!(causal_audit(&rec).is_empty());
        // A missing establisher is a safety span: sampling never elides
        // those, so sampled_out must NOT excuse it.
        rec.events.retain(|e| e.id != SpanId(1));
        let violations = causal_audit(&rec);
        assert!(violations.iter().any(|v| v.contains("no establishing record")), "{violations:?}");
    }

    #[test]
    fn sampled_out_roundtrips_and_defaults_to_zero() {
        let mut rec = sample();
        rec.sampled_out = 17;
        let back = Recording::parse(&rec.to_json_string()).unwrap();
        assert_eq!(back.sampled_out, 17);
        // Recordings serialized before the field existed parse as exact.
        let mut v = rec.to_json();
        if let Json::Obj(map) = &mut v {
            map.remove("sampled_out");
        }
        let old = Recording::from_json(&v).unwrap();
        assert_eq!(old.sampled_out, 0);
    }

    #[test]
    fn lit_and_establisher_lookup() {
        let rec = sample();
        assert_eq!(rec.lit_by_name("book.commit"), Some(ObsLit::pos(1)));
        assert_eq!(rec.lit_by_name("~buy.commit"), Some(ObsLit::neg(0)));
        assert_eq!(rec.lit_by_name("nope"), None);
        assert_eq!(rec.establisher(ObsLit::pos(0), 3).unwrap().id, SpanId(1));
        assert!(rec.establisher(ObsLit::pos(0), 99).is_none());
    }
}
