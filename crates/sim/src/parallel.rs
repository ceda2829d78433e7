//! A deterministic *parallel* sharded executor — the work-stealing
//! runtime of ROADMAP item 2.
//!
//! Nodes are grouped into shards by the caller (keyed by certified
//! `ShardPlan` colocation classes, falling back to Lemma 5 site-coupling
//! classes — see `dist::parallel`). Execution proceeds in conservative
//! barrier rounds at the global minimum pending virtual time `T`: every
//! shard with a message due at `T` becomes one batch task, tasks are
//! published on a shared queue acting as a work-stealing [`Injector`]
//! (workers claim competitively; claiming a task whose nominal home is
//! another worker counts as a *steal*), each worker applies its shard's
//! whole `T`-batch of facts against the shard-local mailbox heap, and the
//! coordinator then merges the round. Because the minimum message
//! latency is 1, every send produced at `T` lands strictly after `T` —
//! the round barrier is therefore also the proof that virtual time
//! advances every round. Round planning is O(width log shards): a lazy
//! due index (a min-heap of `(head time, shard)` entries, validated
//! against the live mailbox heads on pop) replaces scanning every
//! shard, so fleets of thousands of mostly-idle shards pay only for the
//! shards that actually wake.
//!
//! # Determinism
//!
//! Workers route their own outbound traffic: latency is sampled
//! *statelessly* per send, by hashing `(seed, T, from, to, batch
//! nonce)` — all worker-count-invariant quantities — so the sampled
//! stream is a pure function of the run's inputs and no serial RNG
//! bottlenecks the merge. The per-link FIFO clamps of [`Network`] are
//! *source-shard-local*: a link's sends all originate from one shard,
//! whose batches run serially in round order, so workers apply the
//! clamp themselves with results identical to a global admission-order
//! clamp. The coordinator then admits routed sends in shard order (not
//! completion order), assigning only the global send-sequence
//! tiebreaker, and allocates disjoint, time-monotone
//! delivery-sequence ranges per round. Final node states, occurrence
//! timestamps, traffic statistics, round counts and virtual durations
//! are therefore identical for every worker count; only wall-clock
//! timings and the per-worker load split vary. The single-queue
//! [`Network`] remains the conformance oracle: `testkit::conformance`
//! audit 10 replays each parallel run against it and diffs occurrence
//! sets and final □-views (under `Fixed` latency no sampling happens at
//! all and the parallel run reproduces the oracle bitwise).
//!
//! # Quiescence and budget
//!
//! In-flight work is tracked with an atomic counter: the coordinator
//! increments it when merging sends, workers decrement it per delivery,
//! and the coordinator reads it only at round barriers, where it is
//! exact. A run that exhausts its step
//! budget with messages still pending reports
//! [`Termination::BudgetExhausted`] honestly; budget checks happen at
//! round granularity, so a run may overshoot `max_steps` by at most one
//! round's width (the same honesty contract as the tenant quantum).
//!
//! [`Network`]: crate::Network

use crate::net::{
    Ctx, LatencyModel, NodeId, Process, RunOutcome, SimConfig, SiteId, Termination, Time,
};
use crate::stats::NetStats;
use seeded::mix64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Configuration of the parallel sharded executor.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// OS worker threads. `0` or `1` runs every batch inline on the
    /// coordinator (no pool, no queue overhead — the cleanest mode for
    /// measuring per-shard batch costs).
    pub workers: usize,
    /// Virtual worker counts to model: for each `k`, the engine
    /// accumulates the *scheduled makespan* — per round, the measured
    /// per-shard batch costs are greedily (LPT) assigned to `k` virtual
    /// workers and the maximum load plus the serial merge cost is added.
    /// This equals wall-clock when each virtual worker maps to a real
    /// core, and is how core scaling is reported on hosts with fewer
    /// cores than `k`.
    pub model_workers: Vec<usize>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig { workers: 1, model_workers: Vec::new() }
    }
}

impl ParallelConfig {
    /// A pool of `workers` threads with no virtual-worker modeling.
    pub fn new(workers: usize) -> ParallelConfig {
        ParallelConfig { workers, model_workers: Vec::new() }
    }
}

/// What one worker thread did over a whole run. Wall-clock and load
/// split are scheduler-dependent: they are *excluded* from the
/// determinism guarantee (everything in [`ParallelStats`] outside
/// `per_worker`, `busy_ns`, `merge_ns`, `wall_ns` and `modeled_ns` is
/// worker-count invariant).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoad {
    /// Messages this worker delivered.
    pub delivered: u64,
    /// Nanoseconds spent executing batches.
    pub busy_ns: u64,
    /// Tasks claimed whose nominal home was another worker.
    pub steals: u64,
    /// Maximum injector depth observed at claim time (claimed task
    /// included).
    pub max_queue_depth: usize,
}

/// Aggregate statistics of one [`run_sharded`] call.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Worker threads used (1 means inline).
    pub workers: usize,
    /// Number of shards.
    pub shards: usize,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Total steals across workers.
    pub steals: u64,
    /// Widest round (most shards due at one virtual time) — the
    /// available parallelism ceiling of the run.
    pub max_round_width: usize,
    /// Total nanoseconds of batch execution across workers.
    pub busy_ns: u64,
    /// Total nanoseconds the coordinator spent merging rounds.
    pub merge_ns: u64,
    /// Wall-clock nanoseconds of the whole run.
    pub wall_ns: u64,
    /// Virtual time of the last delivery (the run's virtual duration).
    pub duration: Time,
    /// Scheduled makespan per modeled worker count (see
    /// [`ParallelConfig::model_workers`]), in the order requested.
    pub modeled_ns: Vec<(usize, u64)>,
    /// Per-worker load breakdown.
    pub per_worker: Vec<WorkerLoad>,
    /// Deliveries per shard.
    pub per_shard_delivered: Vec<u64>,
    /// Virtual time of each shard's last delivery (0 when idle).
    pub per_shard_last_time: Vec<Time>,
}

/// Result of [`run_sharded`]: nodes in their original order, the honest
/// [`RunOutcome`], traffic statistics comparable to [`Network`]'s, and
/// the parallel-runtime breakdown.
///
/// [`Network`]: crate::Network
pub struct ShardedRun<P> {
    /// The processes, indexed by their original [`NodeId`].
    pub nodes: Vec<P>,
    /// Steps delivered and honest termination.
    pub outcome: RunOutcome,
    /// Traffic statistics (sends, deliveries, latencies, per-site load).
    pub net: NetStats,
    /// Parallel-runtime statistics.
    pub stats: ParallelStats,
}

/// A message sitting in a shard's mailbox heap, ordered by
/// `(at, send_seq)` exactly like the oracle's in-flight queue.
struct Pending<M> {
    at: Time,
    send_seq: u64,
    from: NodeId,
    slot: usize,
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

/// One shard: its nodes, their global ids, its mailbox heap, and the
/// FIFO clocks of every link *sourced* here. A link `(from, to)` only
/// ever carries sends produced by `from`'s shard, and that shard's
/// batches run serially in round order — so the per-link clamp is
/// shard-local state the workers apply themselves, off the
/// coordinator's critical path, with results identical to a global
/// admission-order clamp.
struct Shard<M, P> {
    node_ids: Vec<NodeId>,
    nodes: Vec<P>,
    heap: BinaryHeap<Reverse<Pending<M>>>,
    link_clock: HashMap<u64, Time, BuildLinkHasher>,
    delivered: u64,
    last_time: Time,
}

impl<M, P> Shard<M, P> {
    fn new() -> Shard<M, P> {
        Shard {
            node_ids: Vec::new(),
            nodes: Vec::new(),
            heap: BinaryHeap::new(),
            link_clock: HashMap::default(),
            delivered: 0,
            last_time: 0,
        }
    }

    /// Apply the per-link FIFO clamp to one send sourced from this
    /// shard: it may not overtake the link's previous send.
    fn fifo_clamp<M2>(&mut self, r: &mut Routed<M2>) {
        let key = (u64::from(r.pending.from.0) << 32) | u64::from(r.to.0);
        let clock = self.link_clock.entry(key).or_insert(0);
        r.pending.at = r.pending.at.max(*clock + 1);
        *clock = r.pending.at;
    }
}

/// A round task: one due shard, moved to a worker by value.
struct Task<M, P> {
    due_ix: usize,
    shard_ix: usize,
    shard: Shard<M, P>,
    t: Time,
    seq_base: u64,
    home: usize,
}

/// A completed round task, moved back to the coordinator.
struct Done<M, P> {
    due_ix: usize,
    shard_ix: usize,
    shard: Shard<M, P>,
    outbox: Vec<Routed<M>>,
    delivered: u64,
    busy_ns: u64,
}

/// The worker pool's task queue: the coordinator publishes each round's
/// tasks through its [`Producer`], every worker claims from the front,
/// and dropping the producer closes the queue so blocked workers return.
struct Injector<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

struct Queue<T> {
    tasks: VecDeque<T>,
    closed: bool,
}

/// The publishing end of an [`Injector`]; there is exactly one.
struct Producer<'a, T>(&'a Injector<T>);

impl<T> Injector<T> {
    fn new() -> Injector<T> {
        Injector {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Every update is a single push, pop or flag store, so the queue is
    /// valid even if a holder panicked: recover the guard.
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Claim the next task and the queue depth it was claimed at (itself
    /// included), blocking while the queue is empty; `None` once the
    /// producer is gone and the queue is drained.
    fn claim(&self) -> Option<(T, usize)> {
        let mut queue = self.lock();
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some((task, queue.tasks.len() + 1));
            }
            if queue.closed {
                return None;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl<T> Producer<'_, T> {
    /// Publish one round's tasks under a single lock acquisition.
    fn publish(&self, tasks: Vec<T>) {
        let mut queue = self.0.lock();
        queue.tasks.extend(tasks);
        // Signalled with the lock held, like the close below.
        self.0.ready.notify_all();
    }
}

impl<T> Drop for Producer<'_, T> {
    fn drop(&mut self) {
        // A worker tests `closed` and then waits under the queue lock, so
        // the flag must be set and the condvar signalled while holding it:
        // signalled outside, the wake-up can fall between a worker's test
        // and its wait, and that worker sleeps forever.
        let mut queue = self.0.lock();
        queue.closed = true;
        self.0.ready.notify_all();
    }
}

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

/// A fully routed send produced by a worker: destination placement and
/// pre-clamp arrival time computed in parallel, with only the global
/// send-sequence tiebreaker and the FIFO clamp left for the
/// coordinator's [`Router::admit`].
struct Routed<M> {
    shard: usize,
    to: NodeId,
    pending: Pending<M>,
}

/// Shared read-only routing table handed to every worker: the site map,
/// each node's `(shard, slot)` placement, and the latency model.
struct RouteTable {
    config: SimConfig,
    sites: Vec<SiteId>,
    slot_of: Vec<(usize, usize)>,
}

impl RouteTable {
    /// Route one send produced at time `t`: sample latency statelessly
    /// by hashing `(seed, t, from, to, nonce)` — every input is a pure
    /// function of the run's inputs, so the stream is identical for
    /// every worker count and merge order — record the send into the
    /// caller's local statistics, and compute destination placement.
    /// `nonce` is the sender batch's send counter.
    #[allow(clippy::too_many_arguments)]
    fn route<M>(
        &self,
        t: Time,
        from: NodeId,
        to: NodeId,
        msg: M,
        extra: Time,
        nonce: u64,
        net: &mut NetStats,
    ) -> Routed<M> {
        let (sf, st) = (self.sites[from.0 as usize], self.sites[to.0 as usize]);
        let draw = |min: Time, max: Time| {
            let key = t ^ (u64::from(from.0) << 40) ^ (u64::from(to.0) << 20) ^ nonce;
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
        net.record_send(sf != st, latency);
        let (shard, slot) = self.slot_of[to.0 as usize];
        Routed { shard, to, pending: Pending { at: t + latency, send_seq: 0, from, slot, msg } }
    }
}

/// Coordinator-only merge state: the global send-sequence tiebreaker
/// and the folded traffic statistics. Admission runs in shard order, so
/// the sequence stream is worker-count invariant; everything else about
/// a send (latency, placement, FIFO clamp) was already computed on the
/// worker that produced it.
struct Router {
    net: NetStats,
    send_seq: u64,
}

impl Router {
    /// Admit one routed send: assign the global tiebreaker and hand
    /// back the destination.
    fn admit<M>(&mut self, mut r: Routed<M>) -> (usize, Pending<M>) {
        self.send_seq += 1;
        r.pending.send_seq = self.send_seq;
        (r.shard, r.pending)
    }
}

/// Deliver every message due at `t` in `shard`, in `(at, send_seq)`
/// order, routing every produced send (latency draw, destination
/// placement) right here on the worker; the coordinator's merge only
/// admits them. Delivery sequences are `seq_base + 1 ..`, 1-based
/// within the shard's disjoint range like the oracle's post-increment
/// counter.
fn run_batch<M, P: Process<M>>(
    shard: &mut Shard<M, P>,
    t: Time,
    seq_base: u64,
    route: &RouteTable,
    net: &mut NetStats,
) -> (Vec<Routed<M>>, u64) {
    let mut batched: Vec<Routed<M>> = Vec::new();
    let mut delivered = 0u64;
    let mut nonce = 0u64;
    while shard.heap.peek().is_some_and(|Reverse(p)| p.at == t) {
        let Reverse(p) = shard.heap.pop().expect("peeked entry");
        let to_id = shard.node_ids[p.slot];
        net.record_delivery(route.sites[to_id.0 as usize].0);
        delivered += 1;
        let mut outbox: Vec<(NodeId, M, Time)> = Vec::new();
        {
            let mut ctx = Ctx::manual(to_id, t, seq_base + delivered, &mut outbox);
            shard.nodes[p.slot].on_message(&mut ctx, p.from, p.msg);
        }
        for (dest, msg, extra) in outbox {
            let mut routed = route.route(t, to_id, dest, msg, extra, nonce, net);
            if route.config.fifo_links {
                shard.fifo_clamp(&mut routed);
            }
            batched.push(routed);
            nonce += 1;
        }
    }
    shard.delivered += delivered;
    if delivered > 0 {
        shard.last_time = t;
    }
    (batched, delivered)
}

/// Pop the lazy due index down to the global minimum pending time and
/// collect the shards due at it. Entries are validated against the
/// live mailbox heads: a stale entry (its shard's head moved later)
/// re-arms with the true head, duplicates collapse. Each round costs
/// O(width log |index|) instead of a scan of every shard.
fn plan_round<M, P>(
    slots: &[Option<Shard<M, P>>],
    due: &mut BinaryHeap<Reverse<(Time, usize)>>,
) -> Option<(Time, Vec<usize>)> {
    let head_of = |ix: usize| -> Option<Time> {
        slots[ix].as_ref().and_then(|s| s.heap.peek().map(|Reverse(p)| p.at))
    };
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
    let mut shards = Vec::new();
    while let Some(&Reverse((ti, ix))) = due.peek() {
        if ti != t {
            break;
        }
        due.pop();
        match head_of(ix) {
            Some(h) if h == t && !shards.contains(&ix) => shards.push(ix),
            Some(h) if h > t => due.push(Reverse((h, ix))),
            _ => {}
        }
    }
    Some((t, shards))
}

/// Greedy LPT makespan of `costs` over `k` bins: each cost, largest
/// first, goes to the least-loaded bin; the result is the maximum load.
fn lpt_makespan(costs: &[u64], k: usize) -> u64 {
    let mut sorted = costs.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins = vec![0u64; k.max(1)];
    for c in sorted {
        let min_ix = (0..bins.len()).min_by_key(|&i| bins[i]).expect("at least one bin");
        bins[min_ix] += c;
    }
    bins.into_iter().max().unwrap_or(0)
}

/// The shared coordinator loop: plan rounds, hand due shards to `exec`,
/// merge results in shard order. `exec` is either the inline runner or
/// the worker pool's dispatcher.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn drive<M, P: Process<M>>(
    slots: &mut [Option<Shard<M, P>>],
    due: &mut BinaryHeap<Reverse<(Time, usize)>>,
    router: &mut Router,
    in_flight: &AtomicU64,
    max_steps: u64,
    model: &mut [(usize, u64)],
    stats: &mut ParallelStats,
    exec: &mut dyn FnMut(Vec<Task<M, P>>) -> Vec<Done<M, P>>,
) -> (u64, Termination) {
    let mut steps = 0u64;
    let mut next_seq = 0u64;
    loop {
        // Quiescence first, budget second: delivering exactly the budget
        // and then going silent is convergence, not exhaustion.
        if in_flight.load(Ordering::SeqCst) == 0 {
            return (steps, Termination::Quiescent);
        }
        if steps >= max_steps {
            return (steps, Termination::BudgetExhausted);
        }
        let (t, round) = plan_round(slots, due).expect("in-flight messages imply a due round");
        let mut tasks = Vec::with_capacity(round.len());
        for (due_ix, &shard_ix) in round.iter().enumerate() {
            let shard = slots[shard_ix].take().expect("due shard present");
            // Disjoint per-shard delivery-seq ranges: heap length bounds
            // the batch, gaps are fine, and ranges grow with rounds so
            // sequences stay monotone with virtual time.
            let seq_base = next_seq;
            next_seq += shard.heap.len() as u64;
            tasks.push(Task { due_ix, shard_ix, shard, t, seq_base, home: shard_ix });
        }
        let mut dones = exec(tasks);
        dones.sort_unstable_by_key(|d| d.due_ix);

        let merge_start = Instant::now();
        let mut busy = Vec::with_capacity(dones.len());
        let mut round_outs = Vec::with_capacity(dones.len());
        for d in dones {
            slots[d.shard_ix] = Some(d.shard);
            steps += d.delivered;
            busy.push(d.busy_ns);
            round_outs.push(d.outbox);
        }
        // Re-arm the index for every shard that ran: its old head was
        // consumed, whatever remains is its new head.
        for &shard_ix in &round {
            let slot = slots[shard_ix].as_ref().expect("all shards restored");
            if let Some(Reverse(p)) = slot.heap.peek() {
                due.push(Reverse((p.at, shard_ix)));
            }
        }
        let mut sent = 0u64;
        for outbox in round_outs {
            for routed in outbox {
                let (shard_ix, pending) = router.admit(routed);
                let heap = &mut slots[shard_ix].as_mut().expect("all shards restored").heap;
                let lowered = match heap.peek() {
                    Some(Reverse(h)) => pending.at < h.at,
                    None => true,
                };
                if lowered {
                    due.push(Reverse((pending.at, shard_ix)));
                }
                heap.push(Reverse(pending));
                sent += 1;
            }
        }
        in_flight.fetch_add(sent, Ordering::SeqCst);
        let merge_ns = merge_start.elapsed().as_nanos() as u64;

        stats.rounds += 1;
        stats.max_round_width = stats.max_round_width.max(busy.len());
        stats.busy_ns += busy.iter().sum::<u64>();
        stats.merge_ns += merge_ns;
        for (k, acc) in model.iter_mut() {
            *acc += lpt_makespan(&busy, *k) + merge_ns;
        }
    }
}

/// Run `nodes` partitioned into shards by `shard_of` (one shard index
/// per node) until quiescence or `max_steps` deliveries, on
/// `par.workers` threads. `injections` seed the run at virtual time 0
/// with an extra delay each, exactly like [`Network::inject_after`].
///
/// Results — node states, occurrence timestamps, [`NetStats`], virtual
/// duration — are a pure function of `(config.seed, inputs)` and are
/// identical for every worker count; see the module docs for the
/// argument and for what the worker pool does.
///
/// [`Network::inject_after`]: crate::Network::inject_after
pub fn run_sharded<M, P>(
    nodes: Vec<(SiteId, P)>,
    shard_of: &[usize],
    injections: Vec<(NodeId, NodeId, M, Time)>,
    config: SimConfig,
    par: &ParallelConfig,
    max_steps: u64,
) -> ShardedRun<P>
where
    M: Send,
    P: Process<M> + Send,
{
    let wall_start = Instant::now();
    let n = nodes.len();
    assert_eq!(shard_of.len(), n, "one shard index per node");
    let shard_count = shard_of.iter().copied().max().map_or(0, |m| m + 1);
    let sites: Vec<SiteId> = nodes.iter().map(|&(s, _)| s).collect();
    let mut slot_of = vec![(0usize, 0usize); n];
    let mut slots: Vec<Option<Shard<M, P>>> =
        (0..shard_count).map(|_| Some(Shard::new())).collect();
    for (ix, (_site, p)) in nodes.into_iter().enumerate() {
        let s = shard_of[ix];
        let shard = slots[s].as_mut().expect("shard present before run");
        slot_of[ix] = (s, shard.nodes.len());
        shard.node_ids.push(NodeId(ix as u32));
        shard.nodes.push(p);
    }

    let route = RouteTable { config, sites, slot_of };
    let mut router = Router { net: NetStats::default(), send_seq: 0 };
    let in_flight = AtomicU64::new(0);
    for (nonce, (from, to, msg, extra)) in injections.into_iter().enumerate() {
        let mut routed = route.route(0, from, to, msg, extra, nonce as u64, &mut router.net);
        if config.fifo_links {
            // The clamp lives in the *source* shard, like batch sends.
            let (src, _) = route.slot_of[from.0 as usize];
            slots[src].as_mut().expect("shard present").fifo_clamp(&mut routed);
        }
        let (shard_ix, pending) = router.admit(routed);
        slots[shard_ix].as_mut().expect("shard present").heap.push(Reverse(pending));
        in_flight.fetch_add(1, Ordering::SeqCst);
    }
    // Arm the due index with every seeded mailbox.
    let mut due: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    for (ix, s) in slots.iter().enumerate() {
        if let Some(Reverse(p)) = s.as_ref().and_then(|s| s.heap.peek()) {
            due.push(Reverse((p.at, ix)));
        }
    }

    let workers = par.workers.max(1);
    let mut model: Vec<(usize, u64)> = par.model_workers.iter().map(|&k| (k, 0u64)).collect();
    let mut stats = ParallelStats { workers, shards: shard_count, ..ParallelStats::default() };

    let (steps, termination, per_worker, worker_nets) = if workers == 1 {
        let mut load = WorkerLoad::default();
        let mut net = NetStats::default();
        let mut exec = |tasks: Vec<Task<M, P>>| -> Vec<Done<M, P>> {
            let width = tasks.len();
            load.max_queue_depth = load.max_queue_depth.max(width);
            tasks
                .into_iter()
                .map(|mut task| {
                    let start = Instant::now();
                    let (outbox, delivered) =
                        run_batch(&mut task.shard, task.t, task.seq_base, &route, &mut net);
                    let busy_ns = start.elapsed().as_nanos() as u64;
                    load.busy_ns += busy_ns;
                    load.delivered += delivered;
                    in_flight.fetch_sub(delivered, Ordering::SeqCst);
                    Done {
                        due_ix: task.due_ix,
                        shard_ix: task.shard_ix,
                        shard: task.shard,
                        outbox,
                        delivered,
                        busy_ns,
                    }
                })
                .collect()
        };
        let (steps, termination) = drive(
            &mut slots,
            &mut due,
            &mut router,
            &in_flight,
            max_steps,
            &mut model,
            &mut stats,
            &mut exec,
        );
        (steps, termination, vec![load], vec![net])
    } else {
        let injector = Injector::<Task<M, P>>::new();
        let (done_tx, done_rx) = mpsc::channel::<Done<M, P>>();
        let injector_ref = &injector;
        let in_flight_ref = &in_flight;
        let route_ref = &route;
        std::thread::scope(|scope| {
            // Created before the workers: if the coordinator unwinds, its
            // drop closes the queue and the scope can still join them.
            let producer = Producer(injector_ref);
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let tx = done_tx.clone();
                handles.push(scope.spawn(move || {
                    let mut load = WorkerLoad::default();
                    let mut net = NetStats::default();
                    while let Some((mut task, depth)) = injector_ref.claim() {
                        load.max_queue_depth = load.max_queue_depth.max(depth);
                        if task.home % workers != w {
                            load.steals += 1;
                        }
                        let start = Instant::now();
                        let (outbox, delivered) =
                            run_batch(&mut task.shard, task.t, task.seq_base, route_ref, &mut net);
                        let busy_ns = start.elapsed().as_nanos() as u64;
                        load.busy_ns += busy_ns;
                        load.delivered += delivered;
                        in_flight_ref.fetch_sub(delivered, Ordering::SeqCst);
                        let done = Done {
                            due_ix: task.due_ix,
                            shard_ix: task.shard_ix,
                            shard: task.shard,
                            outbox,
                            delivered,
                            busy_ns,
                        };
                        if tx.send(done).is_err() {
                            break;
                        }
                    }
                    (load, net)
                }));
            }
            drop(done_tx);
            let mut exec = |tasks: Vec<Task<M, P>>| -> Vec<Done<M, P>> {
                let width = tasks.len();
                producer.publish(tasks);
                (0..width).map(|_| done_rx.recv().expect("worker completed task")).collect()
            };
            let (steps, termination) = drive(
                &mut slots,
                &mut due,
                &mut router,
                &in_flight,
                max_steps,
                &mut model,
                &mut stats,
                &mut exec,
            );
            drop(producer);
            let (loads, nets): (Vec<WorkerLoad>, Vec<NetStats>) =
                handles.into_iter().map(|h| h.join().expect("worker panicked")).unzip();
            (steps, termination, loads, nets)
        })
    };

    // Fold the worker-local traffic statistics once, off the per-round
    // critical path. `absorb` is commutative addition, so the total is
    // independent of how deliveries were split across workers.
    for net in &worker_nets {
        router.net.absorb(net);
    }

    debug_assert_eq!(
        in_flight.load(Ordering::SeqCst),
        slots.iter().flatten().map(|s| s.heap.len() as u64).sum::<u64>(),
        "in-flight counter agrees with mailbox depth at the barrier"
    );

    stats.steals = per_worker.iter().map(|l| l.steals).sum();
    stats.per_worker = per_worker;
    stats.per_shard_delivered =
        slots.iter().map(|s| s.as_ref().map_or(0, |s| s.delivered)).collect();
    stats.per_shard_last_time =
        slots.iter().map(|s| s.as_ref().map_or(0, |s| s.last_time)).collect();
    stats.duration = stats.per_shard_last_time.iter().copied().max().unwrap_or(0);
    stats.modeled_ns = model;
    stats.wall_ns = wall_start.elapsed().as_nanos() as u64;

    let mut out: Vec<Option<P>> = (0..n).map(|_| None).collect();
    for shard in slots.into_iter().flatten() {
        for (id, p) in shard.node_ids.into_iter().zip(shard.nodes) {
            out[id.0 as usize] = Some(p);
        }
    }
    let nodes: Vec<P> = out.into_iter().map(|p| p.expect("every node returned")).collect();

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

    #[test]
    fn sharded_matches_network_under_fixed_latency() {
        // With Fixed latency no RNG is consumed, so the parallel merge
        // and the oracle's global queue produce bitwise-equal timings.
        let mk = || {
            vec![
                (SiteId(0), Countdown { received: vec![] }),
                (SiteId(1), Countdown { received: vec![] }),
            ]
        };
        let mut net = Network::new(fixed(7), mk());
        net.inject(NodeId(0), NodeId(1), 5);
        let out = net.run_to_quiescence(1_000);
        let oracle: Vec<_> = net.into_nodes().into_iter().map(|c| c.received).collect();

        let run = run_sharded(
            mk(),
            &[0, 1],
            vec![(NodeId(0), NodeId(1), 5, 0)],
            fixed(7),
            &ParallelConfig::new(1),
            1_000,
        );
        assert_eq!(run.outcome.steps, out.steps);
        assert!(run.outcome.is_quiescent());
        let got: Vec<_> = run.nodes.into_iter().map(|c| c.received).collect();
        assert_eq!(got, oracle, "fixed-latency timings match the oracle exactly");
        assert_eq!(run.net.sent_total, 6);
        assert_eq!(run.net.delivered_total, 6);
    }

    #[test]
    fn results_are_worker_count_invariant() {
        let run = |workers: usize| {
            let nodes: Vec<(SiteId, Countdown)> =
                (0..8).map(|i| (SiteId(i % 4), Countdown { received: vec![] })).collect();
            let shard_of: Vec<usize> = (0..8).map(|i| i % 4).collect();
            let injections: Vec<(NodeId, NodeId, u64, Time)> =
                (0..8).map(|i| (NodeId(i), NodeId((i + 1) % 8), 6, 0)).collect();
            let config = SimConfig {
                seed: 42,
                latency: LatencyModel::Uniform { min: 1, max: 9 },
                fifo_links: true,
            };
            let r = run_sharded(
                nodes,
                &shard_of,
                injections,
                config,
                &ParallelConfig::new(workers),
                100_000,
            );
            let received: Vec<_> = r.nodes.into_iter().map(|c| c.received).collect();
            (
                received,
                r.outcome,
                r.stats.rounds,
                r.stats.duration,
                r.stats.per_shard_delivered.clone(),
                r.stats.per_shard_last_time.clone(),
                r.net.delivered_total,
                r.net.latency_sum,
            )
        };
        let base = run(1);
        assert_eq!(run(2), base, "2 workers change nothing observable");
        assert_eq!(run(4), base, "4 workers change nothing observable");
        assert!(base.1.is_quiescent());
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
        let run =
            run_sharded(nodes, &[0, 1, 2, 3], injections, config, &ParallelConfig::new(2), 1_000);
        let mut all: Vec<(Time, u64)> =
            run.nodes.iter().flat_map(|s| s.received.iter().map(|&(t, q, _)| (t, q))).collect();
        assert_eq!(all.len(), 16);
        all.sort_unstable_by_key(|&(_, q)| q);
        let seqs: Vec<u64> = all.iter().map(|&(_, q)| q).collect();
        let mut uniq = seqs.clone();
        uniq.dedup();
        assert_eq!(seqs, uniq, "delivery sequences are unique");
        let times: Vec<Time> = all.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "seq order refines time order");
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
            &ParallelConfig::new(2),
            50,
        );
        assert_eq!(run.outcome.termination, Termination::BudgetExhausted);
        assert!(run.outcome.steps >= 50);

        // A countdown that delivers exactly the budget and then goes
        // silent is Quiescent, not exhausted.
        let nodes = vec![
            (SiteId(0), Countdown { received: vec![] }),
            (SiteId(1), Countdown { received: vec![] }),
        ];
        let run = run_sharded(
            nodes,
            &[0, 1],
            vec![(NodeId(0), NodeId(1), 2, 0)],
            fixed(1),
            &ParallelConfig::new(1),
            3,
        );
        assert_eq!(run.outcome.steps, 3);
        assert_eq!(run.outcome.termination, Termination::Quiescent);
    }

    #[test]
    fn modeled_makespans_shrink_with_virtual_workers() {
        let nodes: Vec<(SiteId, Countdown)> =
            (0..8).map(|i| (SiteId(i), Countdown { received: vec![] })).collect();
        let shard_of: Vec<usize> = (0..8).collect();
        let injections: Vec<(NodeId, NodeId, u64, Time)> =
            (0..8).map(|i| (NodeId(i), NodeId((i + 4) % 8), 10, 0)).collect();
        let par = ParallelConfig { workers: 1, model_workers: vec![1, 2, 4, 8] };
        let run = run_sharded(nodes, &shard_of, injections, fixed(2), &par, 100_000);
        assert!(run.outcome.is_quiescent());
        assert_eq!(run.stats.modeled_ns.len(), 4);
        let ns: Vec<u64> = run.stats.modeled_ns.iter().map(|&(_, v)| v).collect();
        assert!(
            ns.windows(2).all(|w| w[0] >= w[1]),
            "LPT makespan never grows with more bins: {ns:?}"
        );
        assert!(run.stats.max_round_width >= 2, "the ring round-trips overlap");
        assert_eq!(run.stats.per_worker.len(), 1);
    }

    #[test]
    fn pool_reports_worker_loads() {
        let nodes: Vec<(SiteId, Countdown)> =
            (0..6).map(|i| (SiteId(i % 3), Countdown { received: vec![] })).collect();
        let shard_of: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let injections: Vec<(NodeId, NodeId, u64, Time)> =
            (0..6).map(|i| (NodeId(i), NodeId((i + 1) % 6), 8, 0)).collect();
        let run =
            run_sharded(nodes, &shard_of, injections, fixed(5), &ParallelConfig::new(2), 100_000);
        assert!(run.outcome.is_quiescent());
        assert_eq!(run.stats.workers, 2);
        assert_eq!(run.stats.per_worker.len(), 2);
        let delivered: u64 = run.stats.per_worker.iter().map(|l| l.delivered).sum();
        assert_eq!(delivered, run.outcome.steps);
        assert_eq!(run.stats.per_shard_delivered.iter().sum::<u64>(), run.outcome.steps);
    }

    /// The lost wake-up: a consumer that has seen the queue empty and
    /// open must not miss the close that follows. The barrier releases
    /// the consumer's claim and the producer's drop together, so over the
    /// rounds the drop lands before, after and inside the claim; a missed
    /// signal leaves a consumer asleep and the join below never returns.
    #[test]
    fn consumer_blocked_when_the_producer_drops_always_wakes() {
        use std::sync::Barrier;
        for round in 0..2_000u64 {
            let injector = Injector::<u64>::new();
            let start = Barrier::new(2);
            std::thread::scope(|scope| {
                let producer = Producer(&injector);
                // Every other round the consumer has a task to drain first.
                let sent = round % 2;
                producer.publish((0..sent).collect());
                let consumer = scope.spawn(|| {
                    start.wait();
                    std::iter::from_fn(|| injector.claim()).count() as u64
                });
                start.wait();
                drop(producer);
                assert_eq!(consumer.join().expect("consumer panicked"), sent);
            });
        }
    }

    #[test]
    fn empty_run_is_quiescent() {
        let run = run_sharded::<u64, Countdown>(
            vec![],
            &[],
            vec![],
            fixed(0),
            &ParallelConfig::default(),
            10,
        );
        assert_eq!(run.outcome, RunOutcome { steps: 0, termination: Termination::Quiescent });
        assert_eq!(run.stats.shards, 0);
    }
}
