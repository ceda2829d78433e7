//! The ring-buffered [`FlightRecorder`] a run records into.
//!
//! # One recorder per run
//!
//! A recorder belongs to the run, not to its nodes: the network a run
//! executes on owns it (`sim::Network`) and lends it to each handler
//! through the handler's context, which knows the node, its site and the
//! span the handler runs under. An instance runs on one thread, so the
//! recorder is a plain struct: no shared handle, no lock.
//!
//! # Zero cost when disabled
//!
//! A run without a recorder has none to lend. Call sites ask their
//! context whether it records before building a payload, so with
//! recording off (the default) the hot path pays one predictable branch
//! and constructs nothing.
//!
//! # Causal parents
//!
//! Every record names its parent: a handler's records hang off the
//! `MsgDeliver` (or `Restart`) span the network recorded before calling
//! it, unless the handler names another (an occurrence hangs off the
//! guard evaluation that justified it). Parent edges plus per-node
//! program order make the record a happens-before DAG.

use crate::span::{SpanId, SpanKind, Time, TraceEvent};
use seeded::mix64;
use std::collections::VecDeque;

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

/// A ring-buffered event sink: one per recorded run.
///
/// Span ids come from one monotone counter, so id order is global record
/// order even after the ring wraps.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    next_id: u64,
    dropped: u64,
    sample: u32,
    sample_seed: u64,
    sampled_out: u64,
}

impl FlightRecorder {
    /// A recorder with the given ring capacity (minimum 1).
    pub fn new(config: RecordConfig) -> FlightRecorder {
        let capacity = config.capacity.max(1);
        FlightRecorder {
            // Pre-size the ring for typical runs, but never reserve a huge
            // default capacity up front.
            ring: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            next_id: 0,
            dropped: 0,
            sample: config.sample.max(1),
            sample_seed: config.sample_seed,
            sampled_out: 0,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of records overwritten by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Non-safety records elided by sampling. They still consumed a span
    /// id (so id allocation is sampling-invariant); only the payload was
    /// skipped.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Snapshot of all held records in id order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Drain all held records in id order, leaving the ring empty.
    ///
    /// The end-of-run path uses this instead of [`FlightRecorder::events`]:
    /// assembling the final `Recording` would otherwise deep-clone every
    /// span (message labels, guard fact lists) a second time, which shows
    /// up directly in the recorder-overhead benchmark.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.ring).into()
    }

    /// Append one record under `parent` (`None` = a root) and return its
    /// id (allocated even when sampling elides the payload).
    pub fn record(
        &mut self,
        at: Time,
        node: u32,
        site: u32,
        parent: Option<SpanId>,
        kind: SpanKind,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        if self.sample > 1
            && !kind.is_safety()
            && !mix64(self.sample_seed ^ id.0).is_multiple_of(self.sample as u64)
        {
            self.sampled_out += 1;
            return id;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent { id, parent, at, node, site, kind });
        id
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
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut rec = FlightRecorder::new(RecordConfig::with_capacity(2));
        for i in 0..5 {
            rec.record(i, 0, 0, None, attempt(i as u32));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let ids: Vec<u64> = rec.events().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn sampling_elides_only_non_safety_spans_and_keeps_ids() {
        let mut rec = FlightRecorder::new(RecordConfig::default().sampled(1 << 30, 7));
        // Attempt is sampleable; with a huge rate essentially everything
        // non-safety is elided. Occurred is a safety kind and survives.
        for i in 0..50 {
            rec.record(i, 0, 0, None, attempt(i as u32));
        }
        let occurred = SpanKind::Occurred { lit: ObsLit::pos(0), seq: 1, by_acceptance: false };
        let kept = rec.record(99, 0, 0, None, occurred);
        // Ids keep advancing across elided spans.
        assert_eq!(kept.0, 50);
        let events = rec.events();
        assert!(events.iter().all(|e| e.kind.is_safety()), "{events:?}");
        assert_eq!(rec.sampled_out() + events.len() as u64, 51);
        assert!(rec.sampled_out() >= 49);
    }

    #[test]
    fn sampling_decision_is_deterministic() {
        let run = || {
            let mut rec = FlightRecorder::new(RecordConfig::default().sampled(4, 42));
            for i in 0..100 {
                rec.record(i, 0, 0, None, attempt(i as u32));
            }
            (rec.events(), rec.sampled_out())
        };
        let (a, dropped_a) = run();
        let (b, dropped_b) = run();
        assert_eq!(a, b);
        assert_eq!(dropped_a, dropped_b);
        assert!(dropped_a > 0 && !a.is_empty(), "rate 4 keeps some, elides some");
    }
}
