//! The write-ahead log behind crash–restart recovery: [`WalEntry`], one
//! processed message with the delivery context it was processed under,
//! and [`NodeStore`], the per-`(instance, node)` logs and transport
//! sequence counters standing in for each site's stable storage.
//! Scheduling decisions are not logged here: the one decision log is
//! the flight recording (`ExecConfig::record`).

use crate::msg::InstanceId;
use sim::Time;
use std::sync::{Arc, Mutex, MutexGuard};

/// Every holder only pushes, inserts or reads, none of which can panic
/// midway, so a poisoned lock means a bug elsewhere: say so.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("WAL lock poisoned: a thread panicked while holding it")
}

/// One write-ahead-log record: a processed (post-dedup) protocol message
/// together with the delivery context it was processed under. Replaying
/// the message under its *original* virtual time and global delivery
/// sequence is what makes recovery exact — an occurrence decided during
/// replay is rebuilt with its pre-crash `(time, seq)`, so the restarted
/// actor's re-announcement deduplicates at every subscriber instead of
/// registering as a second fact at a fabricated sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// The sending node.
    pub from: sim::NodeId,
    /// The processed payload (transport envelope already stripped).
    pub msg: crate::msg::Msg,
    /// Virtual time the message was originally processed.
    pub at: Time,
    /// Global delivery sequence it was originally processed under.
    pub delivery_seq: u64,
    /// The at-least-once envelope sequence it arrived under, when it came
    /// through the reliability layer — used to rebuild the receive-side
    /// dedup set on restart, so a peer retransmitting a pre-crash
    /// envelope is suppressed rather than re-processed.
    pub env_seq: Option<u64>,
}

/// Durable per-node write-ahead log used by crash–restart recovery: the
/// executor appends every *processed* (post-dedup) protocol message
/// before handing it to the node, and a restarting node replays its log
/// to re-derive exactly the volatile state it had built from those
/// messages. Shared via `Arc`, standing in for each site's stable
/// storage.
///
/// Logs and sequence counters are keyed by `(instance, node)`: one store
/// can back a whole multi-tenant fleet, and a node crashing with several
/// live instances replays each instance's stream under its own original
/// delivery context. Single-instance runs key everything under
/// [`InstanceId::ROOT`].
///
/// [`InstanceId::ROOT`]: crate::msg::InstanceId::ROOT
#[derive(Clone, Default)]
pub struct NodeStore {
    logs: Arc<Mutex<PerNode<Vec<WalEntry>>>>,
    seqs: Arc<Mutex<PerNode<SeqCounters>>>,
}

// Every node of a fleet holds a handle: the handle prints as one, not as
// the fleet's whole log.
impl std::fmt::Debug for NodeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStore").finish_non_exhaustive()
    }
}

/// Per-`(instance, node)` storage slices inside a [`NodeStore`].
type PerNode<T> = std::collections::BTreeMap<(InstanceId, u32), T>;

/// Latest outgoing transport sequence number per receiver.
type SeqCounters = std::collections::BTreeMap<sim::NodeId, u64>;

impl NodeStore {
    /// Fresh empty store.
    pub fn new() -> NodeStore {
        NodeStore::default()
    }

    /// Durably record the latest outgoing transport sequence number
    /// `node` (of `instance`) used towards `to`, so a restarted sender
    /// never reuses one.
    pub fn record_seq(&self, instance: InstanceId, node: u32, to: sim::NodeId, seq: u64) {
        locked(&self.seqs).entry((instance, node)).or_default().insert(to, seq);
    }

    /// The per-receiver sequence counters `node` (of `instance`) had
    /// persisted.
    pub fn seqs_of(&self, instance: InstanceId, node: u32) -> SeqCounters {
        locked(&self.seqs).get(&(instance, node)).cloned().unwrap_or_default()
    }

    /// Append one processed message to `node`'s log under `instance`.
    pub fn append(&self, instance: InstanceId, node: u32, entry: WalEntry) {
        locked(&self.logs).entry((instance, node)).or_default().push(entry);
    }

    /// Snapshot `node`'s log for `instance` in append order.
    pub fn log_of(&self, instance: InstanceId, node: u32) -> Vec<WalEntry> {
        locked(&self.logs).get(&(instance, node)).cloned().unwrap_or_default()
    }

    /// Total messages logged across all nodes and instances.
    pub fn total(&self) -> usize {
        locked(&self.logs).values().map(Vec::len).sum()
    }

    /// The instances with at least one logged entry.
    pub fn instances(&self) -> Vec<InstanceId> {
        let mut out: Vec<InstanceId> = locked(&self.logs).keys().map(|&(i, _)| i).collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::Literal;

    #[test]
    fn node_store_logs_per_node_and_shares_clones() {
        use crate::msg::Msg;
        const I: InstanceId = InstanceId::ROOT;
        let entry = |from: u32, msg: Msg, delivery_seq: u64, env_seq: Option<u64>| WalEntry {
            from: sim::NodeId(from),
            msg,
            at: delivery_seq,
            delivery_seq,
            env_seq,
        };
        let store = NodeStore::new();
        let lit = Literal::pos(event_algebra::SymbolId(1));
        store.append(I, 2, entry(0, Msg::Attempt { lit }, 4, None));
        store.clone().append(I, 2, entry(1, Msg::Granted { lit }, 6, Some(3)));
        store.append(I, 5, entry(2, Msg::Kick, 9, None));
        assert_eq!(store.total(), 3);
        let log = store.log_of(I, 2);
        assert_eq!(log.len(), 2, "append order preserved per node");
        assert_eq!(log[0], entry(0, Msg::Attempt { lit }, 4, None));
        assert_eq!(log[1], entry(1, Msg::Granted { lit }, 6, Some(3)));
        assert!(store.log_of(I, 9).is_empty());
        store.record_seq(I, 2, sim::NodeId(1), 7);
        store.record_seq(I, 2, sim::NodeId(1), 9);
        assert_eq!(store.seqs_of(I, 2).get(&sim::NodeId(1)), Some(&9), "latest wins");
        assert!(store.seqs_of(I, 3).is_empty());
    }

    #[test]
    fn node_store_keeps_instances_apart() {
        use crate::msg::Msg;
        let (a, b) = (InstanceId(1), InstanceId(2));
        let store = NodeStore::new();
        let e = WalEntry {
            from: sim::NodeId(0),
            msg: Msg::Kick,
            at: 1,
            delivery_seq: 1,
            env_seq: None,
        };
        store.append(a, 0, e.clone());
        store.append(b, 0, e);
        store.record_seq(a, 0, sim::NodeId(1), 5);
        assert_eq!(store.log_of(a, 0).len(), 1, "same node, separate logs per instance");
        assert_eq!(store.log_of(b, 0).len(), 1);
        assert!(store.seqs_of(b, 0).is_empty(), "seq counters do not bleed across instances");
        assert_eq!(store.instances(), vec![a, b]);
    }
}
