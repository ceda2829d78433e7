//! The deterministic sharded round executor: one workflow instance's
//! nodes, grouped into shards, run to quiescence on the calling thread.
//!
//! Nodes are grouped into shards by the caller (keyed by certified
//! `ShardPlan` colocation classes, falling back to Lemma 5 site-coupling
//! classes — see `dist::parallel`). Execution proceeds in conservative
//! barrier rounds at the minimum pending virtual time `T`: every shard
//! with a message due at `T` applies its whole `T`-batch against its own
//! mailbox heap, in shard order, and the round's sends are then merged
//! into the destination mailboxes. Because the minimum message latency
//! is 1, every send produced at `T` lands strictly after `T` — the round
//! barrier is therefore also the proof that virtual time advances every
//! round. Round planning is O(width log shards): a lazy due index (a
//! min-heap of `(head time, shard)` entries, validated against the live
//! mailbox heads on pop) replaces scanning every shard.
//!
//! # Where the threads are
//!
//! Not here. Events interact only through the guards they share, and two
//! workflow instances share none, so the unit of parallel work is the
//! *instance*: `dist::run_parallel_fleet` runs whole instances — one
//! [`run_sharded`] call each — on its worker threads, and a single
//! workflow is one island on the calling thread. A shard batch is about
//! a microsecond of work: handing batches to a worker pool every tick
//! costs more than running them (two pooled workers measured 0.14–0.58×
//! of one; DESIGN.md §10). [`ParallelConfig::workers`] is read by the
//! fleet only.
//!
//! # Determinism
//!
//! Latency is sampled *statelessly* per send, by hashing `(seed, T,
//! from, to, batch nonce)`, so the sampled stream is a pure function of
//! the run's inputs. An [`Island`] places the run inside a fleet: node
//! ids and injection nonces enter the hash offset by the island's bases,
//! so an instance draws the same latencies wherever and whenever it
//! runs. Send sequences (the mailbox tiebreaker) and delivery sequences
//! are run-local counters, allocated in (round time, shard index,
//! position) order. The single-queue [`Network`] remains the conformance
//! oracle: `testkit::conformance` audit 10 replays each sharded run
//! against it and diffs occurrence sets and final □-views (under `Fixed`
//! latency no sampling happens at all and the sharded run reproduces the
//! oracle bitwise).
//!
//! # Quiescence and budget
//!
//! A run that exhausts its step budget with messages still pending
//! reports [`Termination::BudgetExhausted`] honestly; budget checks
//! happen at round granularity, so a run may overshoot `max_steps` by at
//! most one round's width (the single-queue [`Network`] checks per
//! delivery and stops exactly on its budget).
//!
//! [`Network`]: crate::Network

use crate::net::{
    Ctx, LatencyModel, NodeId, Process, RunOutcome, SimConfig, SiteId, Termination, Time,
};
use crate::stats::NetStats;
use seeded::mix64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Configuration of fleet parallelism.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Workflow instances in flight: the threads `dist::run_parallel_fleet`
    /// runs whole instances on (`0` counts as `1`). A single workflow is
    /// one island and runs on the calling thread whatever this says.
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig { workers: 1 }
    }
}

impl ParallelConfig {
    /// `workers` instances in flight.
    pub fn new(workers: usize) -> ParallelConfig {
        ParallelConfig { workers }
    }
}

/// What one fleet worker thread did. Wall-clock and load split are
/// scheduler-dependent: they are *excluded* from the determinism
/// guarantee (everything in [`ParallelStats`] outside `per_worker`,
/// `steals`, `busy_ns`, `merge_ns` and `wall_ns` is worker-count
/// invariant).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoad {
    /// Messages this worker delivered.
    pub delivered: u64,
    /// Nanoseconds this worker spent on its instances: instantiate, run
    /// and collect.
    pub busy_ns: u64,
    /// Instances claimed whose round-robin home was another worker.
    pub steals: u64,
}

/// Statistics of one [`run_sharded`] call, or — folded with
/// [`ParallelStats::absorb`] — of a whole fleet of them.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Threads used (1 for a single run).
    pub workers: usize,
    /// Number of shards; summed over a fleet's instances.
    pub shards: usize,
    /// Barrier rounds executed; over a fleet, the *sum* of the instances'
    /// rounds (instances do not share rounds).
    pub rounds: u64,
    /// Fleet only: instances claimed off their round-robin home worker
    /// (`arrival index % workers`); 0 for a single run.
    pub steals: u64,
    /// Widest round (most shards due at one virtual time) — over a
    /// fleet, the widest round of any one instance.
    pub max_round_width: usize,
    /// Nanoseconds inside [`run_sharded`] (mailbox set-up, round
    /// planning, handlers, routing, merging) — one clock pair per run,
    /// not per round; summed over a fleet's instances. Equals `wall_ns`
    /// for a single run.
    pub busy_ns: u64,
    /// Fleet only: nanoseconds the coordinator spent, after its workers
    /// returned and their outcomes were put in arrival order, folding
    /// their totals — the serial tail. 0 for a single run.
    pub merge_ns: u64,
    /// Wall-clock nanoseconds of the whole run (over a fleet: of the
    /// whole call, template compilation included).
    pub wall_ns: u64,
    /// Virtual time of the last delivery (the run's virtual duration).
    pub duration: Time,
    /// Fleet only: per-thread load breakdown (empty for a single run,
    /// which has no threads to compare).
    pub per_worker: Vec<WorkerLoad>,
}

impl ParallelStats {
    /// Fold one instance's run into a fleet total: counts and `busy_ns`
    /// add, widths and durations take the maximum. `workers`, `steals`,
    /// `merge_ns`, `wall_ns` and `per_worker` describe the fleet's
    /// threads and are the caller's to set.
    pub fn absorb(&mut self, run: &ParallelStats) {
        self.shards += run.shards;
        self.rounds += run.rounds;
        self.max_round_width = self.max_round_width.max(run.max_round_width);
        self.busy_ns += run.busy_ns;
        self.duration = self.duration.max(run.duration);
    }
}

/// Where a run sits in a larger fleet. Only the stateless latency hash
/// reads it: node ids enter the hash as `node_base + id` and injection
/// `i` draws with nonce `nonce_base + i`, so an instance run alone on
/// its island draws exactly what it would as a block of one merged
/// network. The default is a run that is the whole network.
#[derive(Debug, Clone, Copy, Default)]
pub struct Island {
    /// Fleet-global id of this run's node 0.
    pub node_base: u32,
    /// Fleet-global index of this run's first injection.
    pub nonce_base: u64,
}

/// Result of [`run_sharded`]: nodes in their original order, the honest
/// [`RunOutcome`], traffic statistics comparable to [`Network`]'s, and
/// the round breakdown.
///
/// [`Network`]: crate::Network
pub struct ShardedRun<P> {
    /// The processes, indexed by their [`NodeId`].
    pub nodes: Vec<P>,
    /// Steps delivered and honest termination.
    pub outcome: RunOutcome,
    /// Traffic statistics (sends, deliveries, latencies, per-site load).
    pub net: NetStats,
    /// Round statistics.
    pub stats: ParallelStats,
}

/// A message sitting in a shard's mailbox heap, ordered by
/// `(at, send_seq)` exactly like the oracle's in-flight queue.
struct Pending<M> {
    at: Time,
    send_seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.send_seq == other.send_seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.send_seq).cmp(&(other.at, other.send_seq))
    }
}

/// One shard's mailbox.
type Mailbox<M> = BinaryHeap<Reverse<Pending<M>>>;

/// A single-`u64` multiplicative hasher for the link-clock map. Link
/// keys are packed id pairs mixed through [`mix64`]; SipHash would
/// be pure overhead on this per-send hot path.
#[derive(Default)]
struct LinkHasher(u64);

impl std::hash::Hasher for LinkHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("link keys hash as u64")
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(n);
    }
}

type BuildLinkHasher = std::hash::BuildHasherDefault<LinkHasher>;

/// Everything a send needs on its way to a mailbox: the site and shard
/// of every node, the latency model, the per-link FIFO clocks, the
/// send-sequence tiebreaker and the traffic statistics.
struct Router {
    config: SimConfig,
    island: Island,
    sites: Vec<SiteId>,
    link_clock: HashMap<u64, Time, BuildLinkHasher>,
    send_seq: u64,
    net: NetStats,
}

impl Router {
    fn site(&self, id: NodeId) -> SiteId {
        match self.sites.get(id.0 as usize) {
            Some(&site) => site,
            None => panic!("node id {} is outside this run of {} nodes", id.0, self.sites.len()),
        }
    }

    /// Route one send produced at time `t`: sample latency statelessly
    /// by hashing `(seed, t, from, to, nonce)` with fleet-global node
    /// ids — every input is a pure function of the run's inputs — apply
    /// the per-link FIFO clamp (a send may not overtake the link's
    /// previous one), assign the send sequence and record the send.
    /// `nonce` is the sender batch's send counter.
    fn route<M>(
        &mut self,
        t: Time,
        from: NodeId,
        to: NodeId,
        msg: M,
        extra: Time,
        nonce: u64,
    ) -> Pending<M> {
        let (sf, st) = (self.site(from), self.site(to));
        let (gf, gt) = (from.0 + self.island.node_base, to.0 + self.island.node_base);
        let draw = |min: Time, max: Time| {
            let key = t ^ (u64::from(gf) << 40) ^ (u64::from(gt) << 20) ^ nonce;
            min + mix64(self.config.seed ^ mix64(key)) % (max - min + 1)
        };
        let lat = match self.config.latency {
            LatencyModel::Fixed(t) => t,
            LatencyModel::Uniform { min, max } => draw(min, max),
            LatencyModel::PerHop { local, remote_min, remote_max } => {
                if sf == st {
                    local
                } else {
                    draw(remote_min, remote_max)
                }
            }
        }
        .max(1);
        let latency = lat + extra;
        self.net.record_send(sf != st, latency);
        let mut at = t + latency;
        if self.config.fifo_links {
            let key = (u64::from(from.0) << 32) | u64::from(to.0);
            let clock = self.link_clock.entry(key).or_insert(0);
            at = at.max(*clock + 1);
            *clock = at;
        }
        self.send_seq += 1;
        Pending { at, send_seq: self.send_seq, from, to, msg }
    }
}

/// Pop the lazy due index down to the minimum pending time and collect
/// the shards due at it, in shard order. Entries are validated against
/// the live mailbox heads: a stale entry (its shard's head moved later)
/// re-arms with the true head, duplicates collapse. Each round costs
/// O(width log |index|) instead of a scan of every shard.
fn plan_round<M>(
    mailboxes: &[Mailbox<M>],
    due: &mut BinaryHeap<Reverse<(Time, usize)>>,
    round: &mut Vec<usize>,
) -> Option<Time> {
    let head_of = |ix: usize| mailboxes[ix].peek().map(|Reverse(p)| p.at);
    let t = loop {
        let &Reverse((t, ix)) = due.peek()?;
        match head_of(ix) {
            Some(h) if h == t => break t,
            Some(h) => {
                // Stale: the head moved. It can only have moved later —
                // merges that lower a head arm a fresh entry for it.
                debug_assert!(h > t, "mailbox head moved earlier without arming the due index");
                due.pop();
                due.push(Reverse((h, ix)));
            }
            None => {
                due.pop();
            }
        }
    };
    round.clear();
    while let Some(&Reverse((ti, ix))) = due.peek() {
        if ti != t {
            break;
        }
        due.pop();
        match head_of(ix) {
            Some(h) if h == t && !round.contains(&ix) => round.push(ix),
            Some(h) if h > t => due.push(Reverse((h, ix))),
            _ => {}
        }
    }
    Some(t)
}

/// Run `nodes` partitioned into shards by `shard_of` (one shard index
/// per node) until quiescence or `max_steps` deliveries, on the calling
/// thread. `injections` seed the run at virtual time 0 with an extra
/// delay each, exactly like [`Network::inject_after`].
///
/// Results — node states, occurrence timestamps, [`NetStats`], round
/// count, virtual duration — are a pure function of `(config.seed,
/// island, inputs)`; see the module docs.
///
/// # Panics
///
/// Panics, naming the id, when an injection or a process addresses a
/// node id outside `nodes`.
///
/// [`Network::inject_after`]: crate::Network::inject_after
pub fn run_sharded<M, P: Process<M>>(
    nodes: Vec<(SiteId, P)>,
    shard_of: &[usize],
    injections: Vec<(NodeId, NodeId, M, Time)>,
    config: SimConfig,
    island: Island,
    max_steps: u64,
) -> ShardedRun<P> {
    let wall_start = Instant::now();
    assert_eq!(shard_of.len(), nodes.len(), "one shard index per node");
    let shard_count = shard_of.iter().copied().max().map_or(0, |m| m + 1);
    let (sites, mut nodes): (Vec<SiteId>, Vec<P>) = nodes.into_iter().unzip();
    let mut mailboxes: Vec<Mailbox<M>> = (0..shard_count).map(|_| BinaryHeap::new()).collect();
    let mut router = Router {
        config,
        island,
        sites,
        link_clock: HashMap::default(),
        send_seq: 0,
        net: NetStats::default(),
    };

    let mut in_flight = 0u64;
    for (i, (from, to, msg, extra)) in injections.into_iter().enumerate() {
        let pending = router.route(0, from, to, msg, extra, island.nonce_base + i as u64);
        mailboxes[shard_of[to.0 as usize]].push(Reverse(pending));
        in_flight += 1;
    }
    // Arm the due index with every seeded mailbox.
    let mut due: BinaryHeap<Reverse<(Time, usize)>> = mailboxes
        .iter()
        .enumerate()
        .filter_map(|(ix, m)| m.peek().map(|Reverse(p)| Reverse((p.at, ix))))
        .collect();

    let mut stats = ParallelStats { workers: 1, shards: shard_count, ..ParallelStats::default() };
    let mut steps = 0u64;
    let mut round: Vec<usize> = Vec::new();
    let mut outbox: Vec<(NodeId, M, Time)> = Vec::new();
    let mut sends: Vec<Pending<M>> = Vec::new();
    let termination = loop {
        // Quiescence first, budget second: delivering exactly the budget
        // and then going silent is convergence, not exhaustion.
        if in_flight == 0 {
            break Termination::Quiescent;
        }
        if steps >= max_steps {
            break Termination::BudgetExhausted;
        }
        let t = plan_round(&mailboxes, &mut due, &mut round)
            .expect("in-flight messages imply a due round");

        // Deliver every message due at `t`, shard by shard, each shard's
        // batch in `(at, send_seq)` order. Sends land after `t`, so they
        // wait in `sends` for the merge below.
        for &shard in &round {
            let mailbox = &mut mailboxes[shard];
            let mut nonce = 0u64;
            while mailbox.peek().is_some_and(|Reverse(p)| p.at == t) {
                let Reverse(p) = mailbox.pop().expect("peeked entry");
                router.net.record_delivery(router.sites[p.to.0 as usize].0);
                // The delivery sequence: 1-based like the oracle's
                // post-increment counter.
                steps += 1;
                in_flight -= 1;
                let mut ctx = Ctx::manual(p.to, t, steps, &mut outbox);
                nodes[p.to.0 as usize].on_message(&mut ctx, p.from, p.msg);
                for (dest, msg, extra) in outbox.drain(..) {
                    sends.push(router.route(t, p.to, dest, msg, extra, nonce));
                    nonce += 1;
                }
            }
            // The old head was consumed; whatever remains is the new one.
            if let Some(Reverse(p)) = mailbox.peek() {
                due.push(Reverse((p.at, shard)));
            }
        }
        stats.duration = t;

        in_flight += sends.len() as u64;
        for pending in sends.drain(..) {
            let shard = shard_of[pending.to.0 as usize];
            let mailbox = &mut mailboxes[shard];
            if mailbox.peek().is_none_or(|Reverse(head)| pending.at < head.at) {
                due.push(Reverse((pending.at, shard)));
            }
            mailbox.push(Reverse(pending));
        }
        stats.rounds += 1;
        stats.max_round_width = stats.max_round_width.max(round.len());
    };
    debug_assert_eq!(
        in_flight,
        mailboxes.iter().map(|m| m.len() as u64).sum::<u64>(),
        "in-flight counter agrees with mailbox depth"
    );

    stats.wall_ns = wall_start.elapsed().as_nanos() as u64;
    stats.busy_ns = stats.wall_ns;
    ShardedRun { nodes, outcome: RunOutcome { steps, termination }, net: router.net, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;

    /// Echoes every `u64` message back, decremented, until zero.
    struct Countdown {
        received: Vec<(Time, u64)>,
    }

    impl Process<u64> for Countdown {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.received.push((ctx.now(), msg));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    /// Records `(now, delivery_seq, msg)` without replying.
    struct SeqSink {
        received: Vec<(Time, u64, u64)>,
    }

    impl Process<u64> for SeqSink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
            self.received.push((ctx.now(), ctx.delivery_seq(), msg));
        }
    }

    fn fixed(seed: u64) -> SimConfig {
        SimConfig { seed, latency: LatencyModel::Fixed(1), fifo_links: true }
    }

    fn countdowns(n: u32, sites: u32) -> Vec<(SiteId, Countdown)> {
        (0..n).map(|i| (SiteId(i % sites), Countdown { received: vec![] })).collect()
    }

    #[test]
    fn sharded_matches_network_under_fixed_latency() {
        // With Fixed latency no RNG is consumed, so the round merge and
        // the oracle's global queue produce bitwise-equal timings.
        let mut net = Network::new(fixed(7), countdowns(2, 2));
        net.inject(NodeId(0), NodeId(1), 5);
        let out = net.run_to_quiescence(1_000);
        let oracle: Vec<_> = net.into_nodes().into_iter().map(|c| c.received).collect();

        let run = run_sharded(
            countdowns(2, 2),
            &[0, 1],
            vec![(NodeId(0), NodeId(1), 5, 0)],
            fixed(7),
            Island::default(),
            1_000,
        );
        assert_eq!(run.outcome.steps, out.steps);
        assert!(run.outcome.is_quiescent());
        let got: Vec<_> = run.nodes.into_iter().map(|c| c.received).collect();
        assert_eq!(got, oracle, "fixed-latency timings match the oracle exactly");
        assert_eq!(run.net.sent_total, 6);
        assert_eq!(run.net.delivered_total, 6);
    }

    /// The island bases enter the latency hash and nothing else: a block
    /// of a merged network and the same block run alone on its island
    /// draw the same latencies, and a different island draws others.
    #[test]
    fn an_island_draws_what_its_block_of_the_merged_network_draws() {
        let config = SimConfig {
            seed: 42,
            latency: LatencyModel::Uniform { min: 1, max: 9 },
            fifo_links: true,
        };
        let ring = |base: u32| -> Vec<(NodeId, NodeId, u64, Time)> {
            (0..4).map(|i| (NodeId(base + i), NodeId(base + (i + 1) % 4), 6, 0)).collect()
        };
        // Two 4-node rings as one 8-node network, one shard per node.
        let mut injections = ring(0);
        injections.extend(ring(4));
        let merged = run_sharded(
            countdowns(8, 4),
            &[0, 1, 2, 3, 4, 5, 6, 7],
            injections,
            config,
            Island::default(),
            100_000,
        );
        assert!(merged.outcome.is_quiescent());
        let alone = |island: Island| {
            let r = run_sharded(countdowns(4, 4), &[0, 1, 2, 3], ring(0), config, island, 100_000);
            r.nodes.into_iter().map(|c| c.received).collect::<Vec<_>>()
        };
        let merged: Vec<_> = merged.nodes.into_iter().map(|c| c.received).collect();
        assert_eq!(alone(Island::default()), merged[..4]);
        assert_eq!(alone(Island { node_base: 4, nonce_base: 4 }), merged[4..]);
        assert_ne!(alone(Island { node_base: 4, nonce_base: 4 }), merged[..4]);
    }

    #[test]
    fn delivery_seqs_are_unique_and_time_monotone() {
        let nodes: Vec<(SiteId, SeqSink)> =
            (0..4).map(|i| (SiteId(i), SeqSink { received: vec![] })).collect();
        let injections: Vec<(NodeId, NodeId, u64, Time)> =
            (0..16u64).map(|i| (NodeId(0), NodeId((i % 4) as u32), i, i % 5)).collect();
        let config = SimConfig {
            seed: 3,
            latency: LatencyModel::Uniform { min: 1, max: 6 },
            fifo_links: true,
        };
        let run = run_sharded(nodes, &[0, 1, 2, 3], injections, config, Island::default(), 1_000);
        let mut all: Vec<(Time, u64)> =
            run.nodes.iter().flat_map(|s| s.received.iter().map(|&(t, q, _)| (t, q))).collect();
        assert_eq!(all.len(), 16);
        all.sort_unstable_by_key(|&(_, q)| q);
        let seqs: Vec<u64> = all.iter().map(|&(_, q)| q).collect();
        assert_eq!(seqs, (1..=16).collect::<Vec<u64>>(), "delivery sequences are dense from 1");
        let times: Vec<Time> = all.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "seq order refines time order");
        assert!(run.stats.max_round_width >= 2, "some round had several shards due");
    }

    #[test]
    fn budget_exhaustion_is_honest_and_quiescence_wins_ties() {
        /// Endless echo: only a budget can stop it.
        struct Echo;
        impl Process<u64> for Echo {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
                ctx.send(from, msg);
            }
        }
        let nodes = vec![(SiteId(0), Echo), (SiteId(1), Echo)];
        let run = run_sharded(
            nodes,
            &[0, 1],
            vec![(NodeId(0), NodeId(1), 1, 0)],
            fixed(1),
            Island::default(),
            50,
        );
        assert_eq!(run.outcome.termination, Termination::BudgetExhausted);
        assert!(run.outcome.steps >= 50);

        // A countdown that delivers exactly the budget and then goes
        // silent is Quiescent, not exhausted.
        let run = run_sharded(
            countdowns(2, 2),
            &[0, 1],
            vec![(NodeId(0), NodeId(1), 2, 0)],
            fixed(1),
            Island::default(),
            3,
        );
        assert_eq!(run.outcome.steps, 3);
        assert_eq!(run.outcome.termination, Termination::Quiescent);
    }

    /// A process that addresses a node outside its run is a wiring bug;
    /// it must say which id, not die on a slice index.
    #[test]
    #[should_panic(expected = "node id 7 is outside this run of 2 nodes")]
    fn a_send_outside_the_run_names_the_id() {
        struct Stray;
        impl Process<u64> for Stray {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
                ctx.send(NodeId(7), msg);
            }
        }
        run_sharded(
            vec![(SiteId(0), Stray), (SiteId(0), Stray)],
            &[0, 1],
            vec![(NodeId(0), NodeId(1), 1, 0)],
            fixed(0),
            Island::default(),
            10,
        );
    }

    #[test]
    fn empty_run_is_quiescent() {
        let run =
            run_sharded::<u64, Countdown>(vec![], &[], vec![], fixed(0), Island::default(), 10);
        assert_eq!(run.outcome, RunOutcome { steps: 0, termination: Termination::Quiescent });
        assert_eq!(run.stats.shards, 0);
    }
}
