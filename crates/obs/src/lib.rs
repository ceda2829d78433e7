//! Flight-recorder observability for the distributed workflow runtime.
//!
//! The paper's semantics evaluate every guard `G(D, e)` against a *trace
//! prefix*, so each firing has a finite justification: the `□`/`◇`
//! announcements it consumed, the residuation (FSM) steps they caused, and
//! the final guard flip. This crate captures that justification as data: a
//! ring-buffered [`FlightRecorder`] collects typed [`TraceEvent`]s — guard
//! evaluations, dependency-machine steps, transport envelope lifecycle,
//! promise-round phases, WAL appends/replays, and fault injections — each
//! stamped with sim time, node, site, and a **causal parent id**, so the
//! recorded run forms a happens-before DAG (parent edges plus per-node
//! program order).
//!
//! A recorder belongs to the run: the simulated network owns the one
//! [`FlightRecorder`] of a recorded run and lends it to each handler
//! through the handler's context (`sim::Ctx::rec`), which stamps the node,
//! its site and the delivery the handler runs under. Everything is
//! zero-cost when disabled: a run without a recorder lends none, and the
//! context's `recording()` check guards payload construction at every
//! call site.
//!
//! The companion [`MetricsRegistry`] subsumes the ad-hoc `NetStats` /
//! `FaultStats` counters behind one snapshotting API
//! ([`MetricsSnapshot`]), and [`Recording`] bundles events + metrics into a
//! JSON document the `wftrace` CLI inspects ([`inspect`]).

#![warn(missing_docs)]

pub mod inspect;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod recording;
pub mod span;

pub use inspect::{chrome_trace, explain, sampling_text, stats_text, Explanation};
pub use json::Json;
pub use metrics::{Log2Histogram, MetricKey, MetricSink, MetricsRegistry, MetricsSnapshot};
pub use recorder::{FlightRecorder, RecordConfig};
pub use recording::{causal_audit, Dag, Recording};
pub use span::{Fact, ObsLit, SpanId, SpanKind, Time, TraceEvent, Verdict};
