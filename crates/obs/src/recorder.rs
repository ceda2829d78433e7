//! The ring-buffered [`FlightRecorder`] and the cheap handles ([`Obs`],
//! [`NodeObs`]) the runtime threads through itself.
//!
//! # Zero cost when disabled
//!
//! The runtime never talks to a recorder directly; it holds an [`Obs`]
//! handle, which is an `Option` of the [`FlightRecorder`]. Call sites
//! guard every record with `if obs.enabled() { ... }`, so with recording
//! off (the default) the hot path pays one predictable branch and
//! constructs no payloads.
//!
//! # Causal parents
//!
//! The recorder keeps a *cursor*: the span currently in scope. The
//! simulator sets it to the `MsgDeliver` span before dispatching a
//! message handler and clears it afterwards, so every record made while
//! handling (guard evaluations, sends placed on the outbox, WAL appends)
//! is parented under the delivery that caused it. Parent edges plus
//! per-node program order make the record a happens-before DAG.

use crate::span::{SpanId, SpanKind, Time, TraceEvent};
use seeded::mix64;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Configuration for an enabled flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordConfig {
    /// Ring-buffer capacity in events; the oldest records are overwritten
    /// once it fills (the drop count is kept).
    pub capacity: usize,
    /// Keep one in `sample` non-safety spans (`0` or `1` = keep all).
    /// Safety-relevant kinds ([`SpanKind::is_safety`]) are always kept
    /// exactly, so monitor verdicts and the establisher half of the
    /// causal audit are unaffected by any sampling rate. The decision is
    /// a deterministic hash of `(sample_seed, span id)`: the same run
    /// records the same spans.
    pub sample: u32,
    /// Seed mixed into the sampling hash, so fleets can decorrelate
    /// which spans their instances keep.
    pub sample_seed: u64,
}

impl Default for RecordConfig {
    fn default() -> RecordConfig {
        RecordConfig { capacity: 1 << 20, sample: 1, sample_seed: 0 }
    }
}

impl RecordConfig {
    /// Default config with the given ring capacity.
    pub fn with_capacity(capacity: usize) -> RecordConfig {
        RecordConfig { capacity, ..RecordConfig::default() }
    }

    /// This config with 1-in-`sample` sampling of non-safety spans under
    /// `seed`.
    pub fn sampled(self, sample: u32, seed: u64) -> RecordConfig {
        RecordConfig { sample, sample_seed: seed, ..self }
    }
}

/// How a record names its causal parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParentRef {
    /// Use the recorder's current cursor (the span in scope).
    #[default]
    Cursor,
    /// Force a root record (no parent).
    Root,
    /// An explicit parent span.
    Span(SpanId),
}

#[derive(Debug)]
struct RecorderInner {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    next_id: u64,
    dropped: u64,
    cursor: Option<SpanId>,
    sample: u32,
    sample_seed: u64,
    sampled_out: u64,
}

/// A shared, ring-buffered event sink.
///
/// Clones share the same buffer (`Arc<Mutex<..>>`): one recorder is
/// threaded through every node of a run. Span ids come from one monotone
/// counter, so id order is global record order even after the ring wraps.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl FlightRecorder {
    /// A recorder with the given ring capacity (minimum 1).
    pub fn new(config: RecordConfig) -> FlightRecorder {
        let capacity = config.capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                // Pre-size the ring for typical runs, but never reserve a
                // huge default capacity up front.
                ring: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                next_id: 0,
                dropped: 0,
                cursor: None,
                sample: config.sample.max(1),
                sample_seed: config.sample_seed,
                sampled_out: 0,
            })),
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").ring.len()
    }

    /// `true` if nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records overwritten by the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder lock").dropped
    }

    /// Non-safety records elided by sampling. They still consumed a span
    /// id (so id allocation is sampling-invariant); only the payload was
    /// skipped.
    pub fn sampled_out(&self) -> u64 {
        self.inner.lock().expect("recorder lock").sampled_out
    }

    /// Snapshot of all held records in id order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("recorder lock").ring.iter().cloned().collect()
    }

    /// Drain all held records in id order, leaving the ring empty.
    ///
    /// The end-of-run path uses this instead of [`FlightRecorder::events`]:
    /// assembling the final `Recording` would otherwise deep-clone every
    /// span (message labels, guard fact lists) a second time, which shows
    /// up directly in the recorder-overhead benchmark.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.lock().expect("recorder lock").ring).into()
    }

    /// Append one record and return its id (allocated even when sampling
    /// elides the payload).
    pub fn record_event(
        &self,
        at: Time,
        node: u32,
        site: u32,
        parent: ParentRef,
        kind: SpanKind,
    ) -> SpanId {
        let mut inner = self.inner.lock().expect("recorder lock");
        let id = SpanId(inner.next_id);
        inner.next_id += 1;
        if inner.sample > 1
            && !kind.is_safety()
            && !mix64(inner.sample_seed ^ id.0).is_multiple_of(inner.sample as u64)
        {
            inner.sampled_out += 1;
            return id;
        }
        let parent = match parent {
            ParentRef::Cursor => inner.cursor,
            ParentRef::Root => None,
            ParentRef::Span(p) => Some(p),
        };
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(TraceEvent { id, parent, at, node, site, kind });
        id
    }

    /// Set the cursor (current causal scope).
    pub fn set_cursor(&self, cursor: Option<SpanId>) {
        self.inner.lock().expect("recorder lock").cursor = cursor;
    }

    /// The current cursor.
    pub fn cursor(&self) -> Option<SpanId> {
        self.inner.lock().expect("recorder lock").cursor
    }
}

/// The handle the runtime actually carries: either off (free) or a
/// [`FlightRecorder`]. Clones share the recorder — its span allocator,
/// cursor and ring.
#[derive(Clone, Default)]
pub struct Obs {
    rec: Option<FlightRecorder>,
}

// Actors carry a handle and derive `Debug`; the ring stays out of it.
impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() { "Obs(on)" } else { "Obs(off)" })
    }
}

impl Obs {
    /// A disabled handle — the default everywhere.
    pub fn off() -> Obs {
        Obs { rec: None }
    }

    /// An enabled handle backed by a fresh recorder.
    pub fn on(config: RecordConfig) -> Obs {
        Obs::from_recorder(FlightRecorder::new(config))
    }

    /// Wrap an existing recorder (clones share its buffer).
    pub fn from_recorder(rec: FlightRecorder) -> Obs {
        Obs { rec: Some(rec) }
    }

    /// `true` if records go anywhere. Guard payload construction with
    /// this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The underlying ring-buffered recorder, if one is attached.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.rec.as_ref()
    }

    /// Non-safety spans elided by sampling so far.
    pub fn sampled_out(&self) -> u64 {
        self.rec.as_ref().map_or(0, FlightRecorder::sampled_out)
    }

    /// Record under the current cursor.
    #[inline]
    pub fn rec(&self, at: Time, node: u32, site: u32, kind: SpanKind) -> Option<SpanId> {
        self.record_event(at, node, site, ParentRef::Cursor, kind)
    }

    /// Record under an explicit parent (`None` = root).
    #[inline]
    pub fn rec_under(
        &self,
        parent: Option<SpanId>,
        at: Time,
        node: u32,
        site: u32,
        kind: SpanKind,
    ) -> Option<SpanId> {
        let parent = match parent {
            Some(p) => ParentRef::Span(p),
            None => ParentRef::Root,
        };
        self.record_event(at, node, site, parent, kind)
    }

    /// Append one record; returns its id, or `None` if recording is off.
    pub fn record_event(
        &self,
        at: Time,
        node: u32,
        site: u32,
        parent: ParentRef,
        kind: SpanKind,
    ) -> Option<SpanId> {
        Some(self.rec.as_ref()?.record_event(at, node, site, parent, kind))
    }

    /// Set the causal cursor.
    #[inline]
    pub fn set_cursor(&self, cursor: Option<SpanId>) {
        if let Some(rec) = &self.rec {
            rec.set_cursor(cursor);
        }
    }

    /// The causal cursor.
    #[inline]
    pub fn cursor(&self) -> Option<SpanId> {
        self.rec.as_ref().and_then(FlightRecorder::cursor)
    }
}

/// An [`Obs`] pre-bound to one node and site — what each actor and
/// transport endpoint holds so call sites don't repeat their identity.
#[derive(Debug, Clone, Default)]
pub struct NodeObs {
    obs: Obs,
    /// The node this handle records for.
    pub node: u32,
    /// The site the node lives on.
    pub site: u32,
}

impl NodeObs {
    /// A disabled handle.
    pub fn off() -> NodeObs {
        NodeObs::default()
    }

    /// Bind `obs` to a node/site identity.
    pub fn new(obs: Obs, node: u32, site: u32) -> NodeObs {
        NodeObs { obs, node, site }
    }

    /// `true` if records are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// The unbound handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Record under the current cursor.
    #[inline]
    pub fn rec(&self, at: Time, kind: SpanKind) -> Option<SpanId> {
        self.obs.rec(at, self.node, self.site, kind)
    }

    /// Record under an explicit parent (`None` = root).
    #[inline]
    pub fn rec_under(&self, parent: Option<SpanId>, at: Time, kind: SpanKind) -> Option<SpanId> {
        self.obs.rec_under(parent, at, self.node, self.site, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::ObsLit;

    fn attempt(sym: u32) -> SpanKind {
        SpanKind::Attempt { lit: ObsLit::pos(sym) }
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert_eq!(obs.rec(1, 2, 3, attempt(0)), None);
        obs.set_cursor(Some(SpanId(9)));
        assert_eq!(obs.cursor(), None);
    }

    #[test]
    fn cursor_becomes_default_parent() {
        let obs = Obs::on(RecordConfig::default());
        let root = obs.rec(0, 0, 0, attempt(0)).unwrap();
        obs.set_cursor(Some(root));
        let child = obs.rec(1, 0, 0, attempt(1)).unwrap();
        obs.set_cursor(None);
        let orphan = obs.rec(2, 0, 0, attempt(2)).unwrap();
        let events = obs.recorder().unwrap().events();
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].id, child);
        assert_eq!(events[1].parent, Some(root));
        assert_eq!(events[2].id, orphan);
        assert_eq!(events[2].parent, None);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let obs = Obs::on(RecordConfig::with_capacity(2));
        for i in 0..5 {
            obs.rec(i, 0, 0, attempt(i as u32));
        }
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let ids: Vec<u64> = rec.events().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn clones_share_one_buffer() {
        let obs = Obs::on(RecordConfig::default());
        let node = NodeObs::new(obs.clone(), 7, 1);
        node.rec(5, attempt(0));
        let events = obs.recorder().unwrap().events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].node, events[0].site, events[0].at), (7, 1, 5));
    }

    #[test]
    fn sampling_elides_only_non_safety_spans_and_keeps_ids() {
        let obs = Obs::on(RecordConfig::default().sampled(1 << 30, 7));
        // Attempt is sampleable; with a huge rate essentially everything
        // non-safety is elided. Occurred is a safety kind and survives.
        for i in 0..50 {
            obs.rec(i, 0, 0, attempt(i as u32));
        }
        let kept = obs
            .rec(99, 0, 0, SpanKind::Occurred { lit: ObsLit::pos(0), seq: 1, by_acceptance: false })
            .unwrap();
        // Ids keep advancing across elided spans.
        assert_eq!(kept.0, 50);
        let rec = obs.recorder().unwrap();
        let events = rec.events();
        assert!(events.iter().all(|e| e.kind.is_safety()), "{events:?}");
        assert_eq!(obs.sampled_out() + events.len() as u64, 51);
        assert!(obs.sampled_out() >= 49);
    }

    #[test]
    fn sampling_decision_is_deterministic() {
        let run = || {
            let obs = Obs::on(RecordConfig::default().sampled(4, 42));
            for i in 0..100 {
                obs.rec(i, 0, 0, attempt(i as u32));
            }
            (obs.recorder().unwrap().events(), obs.sampled_out())
        };
        let (a, dropped_a) = run();
        let (b, dropped_b) = run();
        assert_eq!(a, b);
        assert_eq!(dropped_a, dropped_b);
        assert!(dropped_a > 0 && !a.is_empty(), "rate 4 keeps some, elides some");
    }

    #[test]
    fn explicit_parent_overrides_cursor() {
        let obs = Obs::on(RecordConfig::default());
        let a = obs.rec(0, 0, 0, attempt(0)).unwrap();
        let b = obs.rec(0, 0, 0, attempt(1)).unwrap();
        obs.set_cursor(Some(a));
        let c = obs.rec_under(Some(b), 1, 0, 0, attempt(2)).unwrap();
        let d = obs.rec_under(None, 1, 0, 0, attempt(3)).unwrap();
        let events = obs.recorder().unwrap().events();
        assert_eq!(events.iter().find(|e| e.id == c).unwrap().parent, Some(b));
        assert_eq!(events.iter().find(|e| e.id == d).unwrap().parent, None);
    }
}
