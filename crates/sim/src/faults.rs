//! Seeded fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes, per link and per site pair, how the network
//! misbehaves: message drops, duplication, bounded extra delay (which
//! reorders messages even on FIFO links, since a fault-delayed copy is
//! released behind later traffic), site partitions with heal times, and
//! crash–restart windows for individual nodes. The plan carries its own
//! RNG seed, so fault decisions are reproducible and independent of the
//! latency sampling stream: two runs with equal `(SimConfig, FaultPlan)`
//! are identical.
//!
//! Faults apply to traffic between *distinct* nodes only. Self-sends
//! (timers, think-time wake-ups) model node-local work and are never
//! dropped, duplicated or delayed by the link layer — though a crashed
//! node does lose timers that come due while it is down. Externally
//! injected messages ([`Network::inject`]) are exempt as well: they model
//! the workload arriving, not the protocol under test.
//!
//! [`Network::inject`]: crate::Network::inject

use crate::net::{NodeId, SiteId, Time};
use seeded::Rng;
use std::collections::HashMap;

/// Per-link misbehavior probabilities and delay bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a second copy of the message is delivered.
    pub duplicate: f64,
    /// Extra delay sampled uniformly from `[min, max]` and added on top
    /// of the regular latency. A fault-delayed copy bypasses the per-link
    /// FIFO clamp, so nonzero bounds produce reordering.
    pub extra_delay: (Time, Time),
}

impl Default for LinkFaults {
    fn default() -> LinkFaults {
        LinkFaults { drop: 0.0, duplicate: 0.0, extra_delay: (0, 0) }
    }
}

impl LinkFaults {
    /// `true` when this configuration never perturbs anything.
    pub fn is_benign(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.extra_delay.1 == 0
    }
}

/// A connectivity cut between two sites over `[from, until)`; messages
/// crossing the cut during the window are dropped. The partition heals at
/// `until` — retransmissions sent afterwards go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub a: SiteId,
    /// The other side.
    pub b: SiteId,
    /// Virtual time the cut appears.
    pub from: Time,
    /// Virtual time the cut heals (exclusive).
    pub until: Time,
}

impl Partition {
    /// `true` when a message between `x` and `y` sent at `now` is cut.
    pub fn severs(&self, x: SiteId, y: SiteId, now: Time) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && now >= self.from && now < self.until
    }
}

/// A crash window for one node: every message that comes due while the
/// node is down is lost, and the node's volatile state is gone — on the
/// first activity at or after `restart_at` the network calls
/// [`Process::on_restart`] so the node can rebuild from durable state.
///
/// [`Process::on_restart`]: crate::Process::on_restart
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The crashing node.
    pub node: NodeId,
    /// Virtual time of the crash.
    pub at: Time,
    /// Virtual time of the restart; `None` crashes forever.
    pub restart_at: Option<Time>,
}

/// A complete, seeded fault scenario. Build with the fluent methods:
///
/// ```
/// use sim::{FaultPlan, NodeId, SiteId};
/// let plan = FaultPlan::new(0xFA57)
///     .drop_rate(0.2)
///     .duplicate_rate(0.1)
///     .jitter(0, 25)
///     .partition(SiteId(0), SiteId(1), 100, 400)
///     .crash(NodeId(3), 50, Some(300));
/// assert_eq!(plan.crashes().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault-decision RNG (independent of latency sampling).
    pub seed: u64,
    default_link: LinkFaults,
    links: HashMap<(NodeId, NodeId), LinkFaults>,
    partitions: Vec<Partition>,
    crashes: Vec<Crash>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Set the default drop probability for every link.
    #[must_use]
    pub fn drop_rate(mut self, p: f64) -> FaultPlan {
        self.default_link.drop = p;
        self
    }

    /// Set the default duplication probability for every link.
    #[must_use]
    pub fn duplicate_rate(mut self, p: f64) -> FaultPlan {
        self.default_link.duplicate = p;
        self
    }

    /// Set the default extra-delay bounds for every link (enables
    /// reordering; see [`LinkFaults::extra_delay`]).
    #[must_use]
    pub fn jitter(mut self, min: Time, max: Time) -> FaultPlan {
        self.default_link.extra_delay = (min, max);
        self
    }

    /// Override the fault profile of one directed link.
    #[must_use]
    pub fn link(mut self, from: NodeId, to: NodeId, faults: LinkFaults) -> FaultPlan {
        self.links.insert((from, to), faults);
        self
    }

    /// Sever sites `a` and `b` over `[from, until)`.
    #[must_use]
    pub fn partition(mut self, a: SiteId, b: SiteId, from: Time, until: Time) -> FaultPlan {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Crash `node` at `at`; restart (rebuilding from durable state) at
    /// `restart_at`, or never when `None`.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: Time, restart_at: Option<Time>) -> FaultPlan {
        self.crashes.push(Crash { node, at, restart_at });
        self
    }

    /// The configured crash windows.
    pub fn crashes(&self) -> &[Crash] {
        &self.crashes
    }

    /// The configured partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The fault profile of a directed link.
    pub fn link_faults(&self, from: NodeId, to: NodeId) -> &LinkFaults {
        self.links.get(&(from, to)).unwrap_or(&self.default_link)
    }

    /// `true` when the plan perturbs nothing at all.
    pub fn is_benign(&self) -> bool {
        self.default_link.is_benign()
            && self.links.values().all(LinkFaults::is_benign)
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }
}

/// Counters describing what the fault layer actually did in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by link faults.
    pub dropped: u64,
    /// Extra copies delivered by duplication faults.
    pub duplicated: u64,
    /// Messages given nonzero extra fault delay.
    pub delayed: u64,
    /// Messages dropped because the endpoints were partitioned.
    pub partition_dropped: u64,
    /// Messages dropped because the destination node was down.
    pub crash_dropped: u64,
    /// Restarts performed.
    pub restarts: u64,
}

impl FaultStats {
    /// Write these counters to a metrics sink (`&MetricsRegistry`, or a
    /// `&mut MetricsSnapshot` under assembly) under the `faults.*`
    /// namespace — the snapshotting API that subsumes this struct on run
    /// reports. The series are written in key order.
    pub fn record_into(&self, mut metrics: impl obs::MetricSink) {
        metrics.add("faults.crash_dropped", &[], self.crash_dropped);
        metrics.add("faults.delayed", &[], self.delayed);
        metrics.add("faults.dropped", &[], self.dropped);
        metrics.add("faults.duplicated", &[], self.duplicated);
        metrics.add("faults.partition_dropped", &[], self.partition_dropped);
        metrics.add("faults.restarts", &[], self.restarts);
    }
}

/// How the link layer treats one send: up to two copies, each with an
/// extra fault delay (`None` means the copy is dropped entirely).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkDecision {
    /// Extra delay of the primary copy, if it survives.
    pub primary: Option<Time>,
    /// Extra delay of a duplicate copy, if one is made.
    pub duplicate: Option<Time>,
}

/// Runtime state of the fault layer inside a [`Network`](crate::Network).
#[derive(Debug)]
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    pub stats: FaultStats,
    rng: Rng,
    /// `restarted[i]` is set once crash `i`'s restart has been performed.
    restarted: Vec<bool>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> FaultState {
        let restarted = vec![false; plan.crashes.len()];
        let rng = Rng::seed_from_u64(plan.seed);
        FaultState { plan, stats: FaultStats::default(), rng, restarted }
    }

    /// `true` when the two sites are currently cut from each other.
    pub fn partitioned(&self, x: SiteId, y: SiteId, now: Time) -> bool {
        x != y && self.plan.partitions.iter().any(|p| p.severs(x, y, now))
    }

    /// `true` when `node` is down at `now`.
    pub fn down(&self, node: NodeId, now: Time) -> bool {
        self.plan
            .crashes
            .iter()
            .any(|c| c.node == node && now >= c.at && c.restart_at.is_none_or(|r| now < r))
    }

    /// Sample the link-layer treatment of one message on `(from, to)`.
    pub fn decide(&mut self, from: NodeId, to: NodeId) -> LinkDecision {
        let lf = *self.plan.links.get(&(from, to)).unwrap_or(&self.plan.default_link);
        if lf.drop > 0.0 && self.rng.random_bool(lf.drop) {
            self.stats.dropped += 1;
            return LinkDecision { primary: None, duplicate: None };
        }
        fn sample_delay(rng: &mut Rng, stats: &mut FaultStats, bounds: (Time, Time)) -> Time {
            if bounds.1 == 0 {
                return 0;
            }
            let d = rng.random_range(bounds.0..=bounds.1);
            if d > 0 {
                stats.delayed += 1;
            }
            d
        }
        let primary = Some(sample_delay(&mut self.rng, &mut self.stats, lf.extra_delay));
        let duplicate = if lf.duplicate > 0.0 && self.rng.random_bool(lf.duplicate) {
            self.stats.duplicated += 1;
            Some(sample_delay(&mut self.rng, &mut self.stats, lf.extra_delay))
        } else {
            None
        };
        LinkDecision { primary, duplicate }
    }

    /// The earliest unprocessed restart due at or before `horizon`
    /// (`None` horizon = any remaining restart). Returns the crash index.
    pub fn due_restart(&self, horizon: Option<Time>) -> Option<(usize, NodeId, Time)> {
        self.plan
            .crashes
            .iter()
            .enumerate()
            .filter(|&(i, c)| !self.restarted[i] && c.restart_at.is_some())
            .map(|(i, c)| (i, c.node, c.restart_at.expect("filtered")))
            .filter(|&(_, _, r)| horizon.is_none_or(|h| r <= h))
            .min_by_key(|&(i, _, r)| (r, i))
    }

    /// Mark crash `ix` restarted.
    pub fn mark_restarted(&mut self, ix: usize) {
        self.restarted[ix] = true;
        self.stats.restarts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::new(7)
            .drop_rate(0.5)
            .duplicate_rate(0.25)
            .jitter(1, 9)
            .partition(SiteId(0), SiteId(1), 10, 20)
            .crash(NodeId(2), 5, Some(15))
            .link(NodeId(0), NodeId(1), LinkFaults { drop: 1.0, ..LinkFaults::default() });
        assert_eq!(plan.link_faults(NodeId(0), NodeId(1)).drop, 1.0);
        assert_eq!(plan.link_faults(NodeId(1), NodeId(0)).drop, 0.5);
        assert_eq!(plan.partitions().len(), 1);
        assert_eq!(plan.crashes().len(), 1);
        assert!(!plan.is_benign());
        assert!(FaultPlan::new(3).is_benign());
    }

    #[test]
    fn partition_severs_symmetrically_and_heals() {
        let p = Partition { a: SiteId(0), b: SiteId(1), from: 10, until: 20 };
        assert!(p.severs(SiteId(0), SiteId(1), 10));
        assert!(p.severs(SiteId(1), SiteId(0), 19));
        assert!(!p.severs(SiteId(0), SiteId(1), 9));
        assert!(!p.severs(SiteId(0), SiteId(1), 20), "healed");
        assert!(!p.severs(SiteId(0), SiteId(2), 15), "unrelated site");
    }

    #[test]
    fn crash_window_downtime() {
        let fs = FaultState::new(FaultPlan::new(0).crash(NodeId(1), 10, Some(20)));
        assert!(!fs.down(NodeId(1), 9));
        assert!(fs.down(NodeId(1), 10));
        assert!(fs.down(NodeId(1), 19));
        assert!(!fs.down(NodeId(1), 20));
        assert!(!fs.down(NodeId(0), 15));
        let forever = FaultState::new(FaultPlan::new(0).crash(NodeId(1), 10, None));
        assert!(forever.down(NodeId(1), u64::MAX));
    }

    #[test]
    fn certain_drop_and_certain_duplicate() {
        let mut fs = FaultState::new(FaultPlan::new(1).drop_rate(1.0));
        let d = fs.decide(NodeId(0), NodeId(1));
        assert!(d.primary.is_none() && d.duplicate.is_none());
        assert_eq!(fs.stats.dropped, 1);

        let mut fs = FaultState::new(FaultPlan::new(1).duplicate_rate(1.0));
        let d = fs.decide(NodeId(0), NodeId(1));
        assert!(d.primary.is_some() && d.duplicate.is_some());
        assert_eq!(fs.stats.duplicated, 1);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed| {
            let mut fs = FaultState::new(FaultPlan::new(seed).drop_rate(0.3).duplicate_rate(0.3));
            (0..64)
                .map(|_| {
                    let d = fs.decide(NodeId(0), NodeId(1));
                    (d.primary.is_some(), d.duplicate.is_some())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn due_restart_orders_by_time() {
        let mut fs = FaultState::new(
            FaultPlan::new(0).crash(NodeId(0), 5, Some(50)).crash(NodeId(1), 5, Some(30)).crash(
                NodeId(2),
                5,
                None,
            ),
        );
        let (ix, node, at) = fs.due_restart(None).unwrap();
        assert_eq!((node, at), (NodeId(1), 30));
        assert!(fs.due_restart(Some(10)).is_none());
        fs.mark_restarted(ix);
        let (_, node, at) = fs.due_restart(None).unwrap();
        assert_eq!((node, at), (NodeId(0), 50));
        assert_eq!(fs.stats.restarts, 1);
    }
}
