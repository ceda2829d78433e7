//! Guards as lazily tabulated automata.
//!
//! A dependency is a [`event_algebra::DependencyMachine`]: its residuals
//! are enumerated at compile time and an actor holds a state id. A
//! guard's reductions cannot be enumerated ahead of time — the reachable
//! set depends on the order facts arrive in and grows exponentially with
//! the guard's fan-in — but the instances of one template walk the same
//! few paths through it over and over. So each actor tabulates the reductions it performs: a guard
//! is an index into the actor's table, `(guard, □l | ◇l) → guard` is an
//! edge recorded the first time it is computed, and everything an actor
//! reads off a guard besides its conjuncts ([`GuardInfo`]) is derived
//! once, the first time it is asked for.
//!
//! The table is a cache of pure functions ([`Guard::assume_occurred`],
//! [`Guard::assume_promised`], [`temporal::status`], [`temporal::needs`]):
//! an actor with a warm table and one with a cold table compute the same
//! guards and send the same messages (`tests/protocol_unit.rs` holds them
//! to that), so it survives an instance reset and a crash–restart alike.
//! It is actor-local — no lock, no reference count — and bounded:
//! guards past [`MEMO_CAP`] are scratch entries dropped at the next
//! reset, and nothing remembers a path into them.

use event_algebra::{FxHasher, Literal, SymbolId};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use temporal::{needs, status, Fact, Guard, GuardStatus, Need};

/// How many guards an actor tabulates for good. Wide joins reach
/// exponentially many reductions over a fleet's arrival orders; past this
/// many the actor keeps computing them, it just stops remembering.
pub(crate) const MEMO_CAP: usize = 256;

/// Index of a guard in its actor's table.
pub(crate) type GuardIx = u32;

/// A guard in an actor's table, with what the actor derives from it.
#[derive(Debug, Clone)]
pub struct GuardInfo {
    /// The guard.
    pub guard: Guard,
    /// [`temporal::status`] of the guard.
    pub status: GuardStatus,
    /// What only a parked attempt needs to know, derived when one first
    /// asks: most guards an actor passes through are never evaluated.
    parked: OnceLock<Parked>,
    /// Hash of the guard's canonical form: interning filter, and (folded
    /// to 32 bits) the residual id on guard-evaluation spans.
    hash: u64,
    /// Reductions already computed from this guard: `(fact, result)`.
    edges: Vec<(u32, GuardIx)>,
}

/// See [`GuardInfo::asks`] and [`GuardInfo::cover`].
#[derive(Debug, Clone)]
struct Parked {
    asks: Vec<Need>,
    cover: Vec<SymbolId>,
}

/// The sort key of [`GuardInfo::asks`]: requests leave in literal order,
/// a promise request before a not-yet query about the same literal.
fn ask_key(need: &Need) -> (Literal, bool) {
    match *need {
        Need::Promise(l) => (l, false),
        Need::NotYetAgreement(l) => (l, true),
        Need::Occurrence(_) | Need::SequenceHead(_) => unreachable!("passive needs are not asks"),
    }
}

impl GuardInfo {
    fn of(guard: Guard) -> GuardInfo {
        let mut hasher = FxHasher::default();
        guard.hash(&mut hasher);
        GuardInfo {
            status: status(&guard),
            parked: OnceLock::new(),
            hash: hasher.finish(),
            edges: Vec::new(),
            guard,
        }
    }

    fn parked(&self) -> &Parked {
        self.parked.get_or_init(|| {
            let mut asks: Vec<Need> = needs(&self.guard)
                .into_iter()
                .flatten()
                // Occurrences and sequence heads are passive:
                // announcements discharge them.
                .filter(|n| matches!(n, Need::Promise(_) | Need::NotYetAgreement(_)))
                .collect();
            asks.sort_by_key(ask_key);
            asks.dedup();
            let constrained = self.guard.conjuncts().iter().flat_map(|c| c.constrained_symbols());
            let mut cover: Vec<SymbolId> = constrained.map(|(s, _)| s).collect();
            cover.sort_unstable();
            cover.dedup();
            Parked { asks, cover }
        })
    }

    /// The protocol requests that could unblock the guard: the
    /// [`Need::Promise`] and [`Need::NotYetAgreement`] entries of
    /// [`temporal::needs`] over all conjuncts, deduplicated, in the order
    /// the requests go out (by literal, a promise before an agreement).
    pub fn asks(&self) -> &[Need] {
        &self.parked().asks
    }

    /// The symbols the guard's conjuncts constrain, in order: what the
    /// coverage evaluation enumerates states over.
    pub fn cover(&self) -> &[SymbolId] {
        &self.parked().cover
    }

    /// 32-bit fingerprint of the guard's canonical form — the residual id
    /// recorded on guard-evaluation spans. Two evaluations in one
    /// recording with equal fingerprints saw the same residual guard; the
    /// value itself is opaque and means nothing across builds.
    pub(crate) fn fingerprint(&self) -> u32 {
        (self.hash as u32) ^ ((self.hash >> 32) as u32)
    }
}

/// One actor's table of guards. Entries 0 and 1 are the compiled guards
/// of the actor's positive and negative literal.
///
/// Copy-on-write: a clone of the actor (a slot assembled from the
/// prototype, a branch of an interleaving explorer) shares the table
/// until either side adds to it, so cloning an actor does not copy every
/// guard it ever held. Reads never touch the count, and once an actor has
/// added an entry of its own the table is its alone.
#[derive(Clone)]
pub(crate) struct GuardMemo {
    table: Arc<Vec<GuardInfo>>,
}

// A cache: what it holds depends on the instances the actor has served,
// never on the one it is serving, so it stays out of an actor's `{:?}`.
impl std::fmt::Debug for GuardMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GuardMemo")
    }
}

fn edge_key(fact: Fact) -> u32 {
    match fact {
        Fact::Occurred(l) => (l.index() as u32) << 1,
        Fact::Promised(l) => (l.index() as u32) << 1 | 1,
    }
}

impl GuardMemo {
    /// The index of the positive literal's compiled guard.
    pub(crate) const POS: GuardIx = 0;
    /// The index of the negative literal's compiled guard.
    pub(crate) const NEG: GuardIx = 1;

    pub(crate) fn new(pos: Guard, neg: Guard) -> GuardMemo {
        GuardMemo { table: Arc::new(vec![GuardInfo::of(pos), GuardInfo::of(neg)]) }
    }

    pub(crate) fn get(&self, ix: GuardIx) -> &GuardInfo {
        &self.table[ix as usize]
    }

    /// The guard `from` reduced by `fact`: a table hit from the second
    /// time on.
    pub(crate) fn reduce(&mut self, from: GuardIx, fact: Fact) -> GuardIx {
        let key = edge_key(fact);
        let info = &self.table[from as usize];
        if let Some(&(_, to)) = info.edges.iter().find(|&&(k, _)| k == key) {
            return to;
        }
        // A fact about a symbol the guard does not mention reduces it to
        // itself; say so without building a copy.
        let to = if !info.guard.mentions(fact.literal().symbol()) {
            from
        } else {
            let reduced = match fact {
                Fact::Occurred(l) => info.guard.assume_occurred(l),
                Fact::Promised(l) => info.guard.assume_promised(l),
            };
            self.intern(reduced)
        };
        // A kept guard must not remember a way into a scratch one.
        if (to as usize) < MEMO_CAP || (from as usize) >= MEMO_CAP {
            Arc::make_mut(&mut self.table)[from as usize].edges.push((key, to));
        }
        to
    }

    fn intern(&mut self, guard: Guard) -> GuardIx {
        let info = GuardInfo::of(guard);
        let found = self.table.iter().position(|g| g.hash == info.hash && g.guard == info.guard);
        found.unwrap_or_else(|| {
            Arc::make_mut(&mut self.table).push(info);
            self.table.len() - 1
        }) as GuardIx
    }

    /// Drop the scratch entries of the instance that just ended.
    pub(crate) fn reset(&mut self) {
        if self.table.len() > MEMO_CAP {
            Arc::make_mut(&mut self.table).truncate(MEMO_CAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(sym: u32) -> Literal {
        Literal::pos(SymbolId(sym))
    }

    #[test]
    fn reductions_are_tabulated_and_shared_across_paths() {
        let g = Guard::eventually(lit(1)).and(&Guard::occurred(lit(2)));
        let mut memo = GuardMemo::new(g.clone(), Guard::top());
        let a = memo.reduce(GuardMemo::POS, Fact::Occurred(lit(1)));
        assert_eq!(memo.get(a).guard, g.assume_occurred(lit(1)));
        let ab = memo.reduce(a, Fact::Occurred(lit(2)));
        let b = memo.reduce(GuardMemo::POS, Fact::Occurred(lit(2)));
        let ba = memo.reduce(b, Fact::Occurred(lit(1)));
        assert_eq!(ab, ba, "both orders reach one entry");
        assert_eq!(memo.get(ab).status, GuardStatus::EnabledNow);
        let size = memo.table.len();
        assert_eq!(memo.reduce(GuardMemo::POS, Fact::Occurred(lit(1))), a, "an edge, not a copy");
        assert_eq!(memo.reduce(GuardMemo::POS, Fact::Promised(lit(7))), GuardMemo::POS);
        assert_eq!(memo.table.len(), size);
    }

    #[test]
    fn asks_and_cover_follow_the_guard() {
        let g = Guard::eventually(lit(3)).and(&Guard::not_yet(lit(1))).or(&Guard::occurred(lit(2)));
        let info = GuardInfo::of(g);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(1)), Need::Promise(lit(3))]);
        assert_eq!(info.cover(), [SymbolId(1), SymbolId(2), SymbolId(3)]);
        assert_eq!(info.status, GuardStatus::Blocked);
    }

    /// Past the cap reductions still come out right; the scratch entries
    /// go at reset and no kept entry points at one.
    #[test]
    fn a_full_table_stops_remembering() {
        let n = 10; // 2^10 subsets of discharged conjuncts
        let wide = (0..n).fold(Guard::top(), |g, s| g.and(&Guard::occurred(lit(s))));
        let mut memo = GuardMemo::new(wide.clone(), Guard::top());
        for subset in 0..1u32 << n {
            let (mut ix, mut expect) = (GuardMemo::POS, wide.clone());
            for s in (0..n).filter(|s| subset >> s & 1 == 1) {
                ix = memo.reduce(ix, Fact::Occurred(lit(s)));
                expect = expect.assume_occurred(lit(s));
            }
            assert_eq!(memo.get(ix).guard, expect, "subset {subset:#b}");
            memo.reset();
            assert!(memo.table.len() <= MEMO_CAP);
            let kept = memo.table.len() as GuardIx;
            assert!(memo.table.iter().all(|g| g.edges.iter().all(|&(_, to)| to < kept)));
        }
        assert_eq!(memo.table.len(), MEMO_CAP);
    }
}
