//! The network's event queue: a calendar queue over one slab of entries.
//!
//! A ring of [`WHEEL`] tick buckets holds every message that was due less
//! than `WHEEL` ticks after the clock when it was queued; a message due
//! further out (a backed-off retransmission timer, a long fault delay)
//! waits in an overflow heap.
//! The queue pops in `(at, seq)` order — exactly the order a
//! `BinaryHeap<Reverse<InFlight>>` over every message would — because:
//!
//! - a bucket holds one tick's messages in push order, and the network
//!   stamps `seq` from a counter that grows on every push, so a bucket's
//!   FIFO order *is* its `(at, seq)` order;
//! - every queued message is due at or after the clock (`now`), and a
//!   wheel entry less than `WHEEL` ticks after it, so the first non-empty
//!   bucket in ring order from `now`'s bucket holds the earliest wheel
//!   tick;
//! - the wheel's front and the overflow heap's front are compared on
//!   `(at, seq)`, so a far message whose tick has come closer is popped in
//!   its turn, before or after the wheel's messages of the same tick.
//!
//! Entries live in one slab, linked per bucket and recycled through a
//! free list; [`Calendar::clear`] keeps the slab's buffer, so a network
//! reset between fleet instances allocates nothing.

use super::{NodeId, Time};
use obs::SpanId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticks the wheel spans: a power of two, and more than any fault-free
/// latency plus think time, so only a timer or a fault delay overflows.
pub(super) const WHEEL: usize = 512;
const MASK: usize = WHEEL - 1;
const WORDS: usize = WHEEL / 64;
/// The null link of a bucket list and of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
pub(super) struct InFlight<M> {
    pub at: Time,
    pub seq: u64,
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
    /// The `MsgSend` span of this message, when recording: the delivery
    /// record is parented under it, giving the happens-before DAG its
    /// cross-node edges.
    pub span: Option<SpanId>,
}

// Order by (at, seq) — seq breaks ties deterministically.
impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One slab entry: a queued message and the next entry of its bucket
/// (or, while free, the next free entry).
struct Slot<M> {
    item: Option<InFlight<M>>,
    next: u32,
}

/// The queue of one [`super::Network`] (see the module docs).
pub(super) struct Calendar<M> {
    slab: Vec<Slot<M>>,
    free: u32,
    /// `(head, tail)` of each tick's list, `NIL` when empty.
    buckets: Box<[(u32, u32); WHEEL]>,
    /// One bit per non-empty bucket.
    occupied: [u64; WORDS],
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<InFlight<M>>>,
}

impl<M> Calendar<M> {
    /// An empty queue whose slab holds `capacity` messages before it grows.
    pub fn with_capacity(capacity: usize) -> Calendar<M> {
        Calendar {
            slab: Vec::with_capacity(capacity),
            free: NIL,
            buckets: Box::new([(NIL, NIL); WHEEL]),
            occupied: [0; WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Messages queued.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every queued message, keeping every buffer.
    pub fn clear(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            while *word != 0 {
                self.buckets[w * 64 + word.trailing_zeros() as usize] = (NIL, NIL);
                *word &= *word - 1;
            }
        }
        self.slab.clear();
        self.free = NIL;
        self.wheel_len = 0;
        self.overflow.clear();
    }

    /// Queue `item`. `now` is the clock: `item.at` must not precede it,
    /// and `item.seq` must exceed every queued `seq`.
    pub fn push(&mut self, now: Time, item: InFlight<M>) {
        debug_assert!(item.at >= now, "a message due at {} queued at {now}", item.at);
        if item.at - now >= WHEEL as Time {
            self.overflow.push(Reverse(item));
            return;
        }
        let b = item.at as usize & MASK;
        let slot = Slot { item: Some(item), next: NIL };
        let ix = if self.free == NIL {
            self.slab.push(slot);
            (self.slab.len() - 1) as u32
        } else {
            let ix = self.free;
            self.free = self.slab[ix as usize].next;
            self.slab[ix as usize] = slot;
            ix
        };
        let (head, tail) = &mut self.buckets[b];
        if *tail == NIL {
            *head = ix;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.slab[*tail as usize].next = ix;
        }
        *tail = ix;
        self.wheel_len += 1;
    }

    /// The tick of the earliest queued message (`None` when empty).
    pub fn peek_at(&self, now: Time) -> Option<Time> {
        let wheel = self.front(now).map(|b| self.head(b).at);
        let far = self.overflow.peek().map(|Reverse(m)| m.at);
        match (wheel, far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        }
    }

    /// Remove and return the earliest queued message in `(at, seq)` order.
    pub fn pop(&mut self, now: Time) -> Option<InFlight<M>> {
        let Some(b) = self.front(now) else {
            return self.overflow.pop().map(|Reverse(m)| m);
        };
        if let Some(Reverse(far)) = self.overflow.peek() {
            if far < self.head(b) {
                return self.overflow.pop().map(|Reverse(m)| m);
            }
        }
        Some(self.pop_bucket(b))
    }

    /// The bucket holding the earliest wheel tick: the first non-empty one
    /// in ring order from `now`'s bucket.
    fn front(&self, now: Time) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = now as usize & MASK;
        let (w0, bit) = (start / 64, start % 64);
        // The start word from `now`'s bit on, the other words in ring
        // order, then the start word's low bits — the ticks just short of
        // a full turn ahead.
        let mut word = self.occupied[w0] & (!0 << bit);
        let mut w = w0;
        for _ in 0..WORDS {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w = (w + 1) % WORDS;
            word = self.occupied[w];
        }
        let low = self.occupied[w0] & !(!0 << bit);
        (low != 0).then(|| w0 * 64 + low.trailing_zeros() as usize)
    }

    fn head(&self, b: usize) -> &InFlight<M> {
        self.slab[self.buckets[b].0 as usize].item.as_ref().expect("a linked slot is full")
    }

    fn pop_bucket(&mut self, b: usize) -> InFlight<M> {
        let ix = self.buckets[b].0;
        let slot = &mut self.slab[ix as usize];
        let item = slot.item.take().expect("a linked slot is full");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = ix;
        self.buckets[b].0 = next;
        if next == NIL {
            self.buckets[b].1 = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_len -= 1;
        item
    }

    /// Every queued message as `(at, seq, from, to)`, in no particular
    /// order — for tests that hold the queue to a reference.
    #[cfg(test)]
    pub fn entries(&self) -> Vec<(Time, u64, NodeId, NodeId)> {
        let key = |m: &InFlight<M>| (m.at, m.seq, m.from, m.to);
        let mut out: Vec<_> = self.overflow.iter().map(|Reverse(m)| key(m)).collect();
        for &(head, _) in self.buckets.iter() {
            let mut ix = head;
            while ix != NIL {
                let slot = &self.slab[ix as usize];
                out.push(key(slot.item.as_ref().expect("a linked slot is full")));
                ix = slot.next;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeded::Rng;

    type Key = (Time, u64, NodeId, NodeId);

    fn item(at: Time, seq: u64, from: u32, to: u32) -> InFlight<()> {
        InFlight { at, seq, from: NodeId(from), to: NodeId(to), msg: (), span: None }
    }

    fn key(m: &InFlight<()>) -> Key {
        (m.at, m.seq, m.from, m.to)
    }

    /// Random pushes and pops, with delays from one tick to past two
    /// wheel turns and the odd clear, against a `BinaryHeap` of the same
    /// messages: equal pops, equal fronts, equal lengths, every step.
    #[test]
    fn pops_in_the_order_of_a_binary_heap() {
        for seed in 0..40 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut queue = Calendar::with_capacity(4);
            let mut reference: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
            let (mut now, mut seq) = (0, 0);
            for _ in 0..3_000 {
                match rng.random_range(0..10u32) {
                    0..=4 => {
                        let delay = match rng.random_range(0..8u32) {
                            0 => rng.random_range(WHEEL as Time - 2..=WHEEL as Time + 2),
                            1 => rng.random_range(1..=3 * WHEEL as Time),
                            _ => rng.random_range(1..=40),
                        };
                        seq += 1;
                        let m =
                            item(now + delay, seq, rng.random_range(0..4), rng.random_range(0..4));
                        reference.push(Reverse(key(&m)));
                        queue.push(now, m);
                    }
                    5..=8 => {
                        let want = reference.pop().map(|Reverse(k)| k);
                        let got = queue.pop(now).as_ref().map(key);
                        assert_eq!(got, want, "seed {seed}");
                        if let Some((at, ..)) = got {
                            now = at;
                        }
                    }
                    _ if rng.random_range(0..20u32) == 0 => {
                        queue.clear();
                        reference.clear();
                    }
                    // A clock that jumps ahead to (not past) the front —
                    // what a due restart does.
                    _ => now = reference.peek().map_or(now + 7, |Reverse(k)| k.0),
                }
                assert_eq!(
                    queue.peek_at(now),
                    reference.peek().map(|Reverse(k)| k.0),
                    "seed {seed}"
                );
                assert_eq!(queue.len(), reference.len(), "seed {seed}");
            }
        }
    }

    /// Messages of one tick leave in push order, wherever they waited: a
    /// far message pushed first is ahead of wheel messages pushed later
    /// for the same tick, and slots are recycled.
    #[test]
    fn one_tick_is_fifo_across_the_wheel_and_the_overflow() {
        let mut queue = Calendar::with_capacity(0);
        let at = WHEEL as Time + 10;
        queue.push(0, item(at, 1, 0, 1)); // overflow: a full turn out
        queue.push(0, item(5, 2, 0, 1));
        assert_eq!(queue.pop(0).map(|m| m.seq), Some(2));
        queue.push(20, item(at, 3, 1, 0)); // the wheel, same tick
        queue.push(20, item(at, 4, 1, 0));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop(20).map(|m| m.seq)).collect();
        assert_eq!(order, [1, 3, 4]);
        assert_eq!(queue.slab.len(), 2, "the popped slot was reused");
        assert_eq!(queue.len(), 0);
    }
}
