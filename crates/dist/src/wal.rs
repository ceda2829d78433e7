//! The write-ahead log behind crash–restart recovery: [`WalEntry`], one
//! processed message with the delivery context it was processed under,
//! and [`NodeStore`], where a run's per-`(instance, node)` logs are
//! published. While an instance runs, each node appends to a slice of its
//! own (`slot::NetNode`) — its stable storage, which it alone reads, on
//! restart; the slot hands every slice to the store once, when the
//! instance ends. Scheduling decisions are not logged here: the one
//! decision log is the flight recording (`ExecConfig::record`).

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

/// The write-ahead logs of a run, by `(instance, node)`: every
/// *processed* (post-dedup) protocol message a node logged before
/// handling it, in the order it did — the stream a restarting node
/// replays to re-derive exactly the volatile state it had built from
/// those messages. Shared via `Arc`: one store backs a whole
/// multi-tenant fleet, each instance's nodes publishing their slices
/// when the instance ends. Single-instance runs key everything under
/// [`InstanceId::ROOT`].
///
/// [`InstanceId::ROOT`]: crate::msg::InstanceId::ROOT
#[derive(Clone, Default)]
pub struct NodeStore {
    logs: Arc<Mutex<PerNode<Vec<WalEntry>>>>,
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

impl NodeStore {
    /// Fresh empty store.
    pub fn new() -> NodeStore {
        NodeStore::default()
    }

    /// Append one processed message to `node`'s log under `instance`.
    pub fn append(&self, instance: InstanceId, node: u32, entry: WalEntry) {
        locked(&self.logs).entry((instance, node)).or_default().push(entry);
    }

    /// Append a node's whole slice to its log under `instance`, in order,
    /// leaving `slice` empty with its buffer.
    pub fn append_all(&self, instance: InstanceId, node: u32, slice: &mut Vec<WalEntry>) {
        locked(&self.logs).entry((instance, node)).or_default().append(slice);
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
        let mut slice =
            vec![entry(3, Msg::Kick, 11, None), entry(3, Msg::Release { lit }, 12, Some(1))];
        let published = slice.clone();
        store.append_all(I, 5, &mut slice);
        assert!(slice.is_empty() && slice.capacity() >= 2, "drained, buffer kept");
        assert_eq!(store.log_of(I, 5)[1..], published[..], "a slice lands after what is there");
        assert_eq!(store.total(), 5);
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
        assert_eq!(store.log_of(a, 0).len(), 1, "same node, separate logs per instance");
        assert_eq!(store.log_of(b, 0).len(), 1);
        assert_eq!(store.instances(), vec![a, b]);
    }
}
