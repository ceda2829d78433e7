//! Guards as lazily tabulated automata, one factor at a time.
//!
//! A dependency is a [`event_algebra::DependencyMachine`]: its residuals
//! are enumerated at compile time and an actor holds a state id. A
//! guard's reductions cannot be enumerated ahead of time — the reachable
//! set depends on the order facts arrive in — but the instances of one
//! template walk the same few paths through it over and over. So each
//! actor tabulates the reductions it performs.
//!
//! A compiled guard is a [`FactoredGuard`]: canonical factors over
//! disjoint symbols. The table has two levels:
//!
//! - *factors*: every factor guard the actor has held, each with the
//!   edges `(factor, □l | ◇l) → factor` computed from it so far;
//! - *states*: every product the actor has held, as a list of factor
//!   indices, with the edges `(state, □l | ◇l) → state`.
//!
//! A guard is an index into the state table. A warm actor pays one edge
//! lookup per fact; a cold one reduces only the factor that mentions the
//! fact's symbol — the others are untouched by it — so what it computes
//! grows with the widest factor, not with the product of all of them.
//! Everything an actor reads off a guard besides its factors
//! ([`GuardInfo`]) is combined from per-factor values, each derived once,
//! the first time it is asked for.
//!
//! The table is a cache of pure functions ([`Guard::assume_occurred`],
//! [`Guard::assume_promised`], [`temporal::status`], [`temporal::needs`]):
//! an actor with a warm table and one with a cold table compute the same
//! guards and send the same messages (`tests/protocol_unit.rs` holds them
//! to that), so it survives an instance reset and a crash–restart alike.
//! It is actor-local — no lock, no reference count — and bounded: factors
//! and states past [`MEMO_CAP`] are scratch entries dropped at the next
//! reset, and nothing kept remembers a path into them.

use event_algebra::{FxHasher, SymbolId};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use temporal::{ask_order, asks, product_status, Fact, FactoredGuard, Guard, GuardStatus, Need};

/// How many factors, and how many states, an actor tabulates for good.
/// Wide joins reach many reductions over a fleet's arrival orders; past
/// this many the actor keeps computing them, it just stops remembering.
pub(crate) const MEMO_CAP: usize = 256;

/// Index of a guard (a state: a product of factors) in its actor's table.
pub(crate) type GuardIx = u32;

/// Index of a factor in its actor's table.
type FactorIx = u32;

fn fx_hash(x: &impl Hash) -> u64 {
    let mut hasher = FxHasher::default();
    x.hash(&mut hasher);
    hasher.finish()
}

/// One factor guard in an actor's table. What only a parked attempt
/// needs to know is derived when one first asks — most guards an actor
/// passes through are never evaluated — and shared by every product the
/// factor is part of.
#[derive(Debug, Clone)]
struct Factor {
    guard: Guard,
    /// Hash of the guard's canonical form: the interning filter.
    hash: u64,
    /// [`temporal::asks`] of the guard.
    asks: OnceLock<Vec<Need>>,
    /// The symbols the guard's conjuncts constrain, in order.
    cover: OnceLock<Vec<SymbolId>>,
    /// Reductions already computed from this factor: `(fact, result)`.
    edges: Vec<(u32, FactorIx)>,
}

impl Factor {
    fn of(guard: Guard) -> Factor {
        let (asks, cover, edges) = (OnceLock::new(), OnceLock::new(), Vec::new());
        Factor { hash: fx_hash(&guard), asks, cover, edges, guard }
    }

    fn asks(&self) -> &[Need] {
        self.asks.get_or_init(|| asks(&self.guard))
    }

    fn cover(&self) -> &[SymbolId] {
        self.cover.get_or_init(|| self.guard.constrained())
    }
}

/// One product of factors in an actor's table. No factor is `⊤`, and a
/// product with a `0` factor is that factor alone (as in
/// [`FactoredGuard`]).
#[derive(Debug, Clone)]
struct State {
    /// The one factor's index when there is one; where the factor
    /// indices sit in [`Tables::lists`] when there are more.
    start: u32,
    /// How many factors.
    len: u32,
    /// ⊤ iff every factor is ⊤ (there are none), 0 iff a factor is 0.
    status: GuardStatus,
    /// The factors' hashes folded in order: a function of the factor
    /// guards, not of where this table keeps them.
    hash: u64,
    /// The most conjuncts of any factor.
    width: usize,
    /// Reductions already computed from this state: `(fact, result)`.
    edges: Vec<(u32, GuardIx)>,
}

/// Both levels of one actor's table.
#[derive(Debug, Clone)]
struct Tables {
    factors: Vec<Factor>,
    states: Vec<State>,
    /// The factor indices of every state with two or more, back to back
    /// in the order the states were added: a new state costs no
    /// allocation of its own, and an actor whose guards are one factor
    /// each never allocates it.
    lists: Vec<FactorIx>,
    /// The next state's factor indices while a reduction builds them.
    scratch: Vec<FactorIx>,
    /// States below this index are kept at a reset. It starts at
    /// [`MEMO_CAP`] and drops to the index of the first state that lists
    /// a scratch factor, so a kept state never names a dropped factor.
    kept: usize,
}

impl Tables {
    fn intern_factor(&mut self, guard: Guard) -> FactorIx {
        let factor = Factor::of(guard);
        let found =
            self.factors.iter().position(|f| f.hash == factor.hash && f.guard == factor.guard);
        found.unwrap_or_else(|| {
            self.factors.push(factor);
            self.factors.len() - 1
        }) as FactorIx
    }

    fn list<'a>(&'a self, state: &'a State) -> &'a [FactorIx] {
        match state.len {
            0 => &[],
            1 => std::slice::from_ref(&state.start),
            n => &self.lists[state.start as usize..][..n as usize],
        }
    }

    /// The state whose factors are `factors`: an existing one or a new one.
    fn intern_state(&mut self, factors: &[FactorIx]) -> GuardIx {
        let hash = factors.iter().fold(0u64, |h, &f| {
            (h.rotate_left(5) ^ self.factors[f as usize].hash).wrapping_mul(0x517C_C1B7_2722_0A95)
        });
        let same = |s: &State| s.hash == hash && self.list(s) == factors;
        if let Some(at) = self.states.iter().position(same) {
            return at as GuardIx;
        }
        let guards = || factors.iter().map(|&f| &self.factors[f as usize].guard);
        let status = product_status(guards());
        let width = guards().map(|g| g.conjuncts().len()).max().unwrap_or(1);
        let at = self.states.len();
        if factors.iter().any(|&f| f as usize >= MEMO_CAP) {
            self.kept = self.kept.min(at);
        }
        let start = match factors {
            [] => 0,
            &[only] => only,
            many => {
                self.lists.extend_from_slice(many);
                (self.lists.len() - many.len()) as u32
            }
        };
        let len = factors.len() as u32;
        self.states.push(State { start, len, status, hash, width, edges: Vec::new() });
        at as GuardIx
    }

    /// The factor `from` reduced by `fact`: a table hit from the second
    /// time on. `remember` says whether to record a new edge: a product
    /// of one factor has its own edge, and no other path into the factor
    /// is worth a second one.
    fn reduce_factor(&mut self, from: FactorIx, fact: Fact, remember: bool) -> FactorIx {
        let key = edge_key(fact);
        let factor = &self.factors[from as usize];
        if let Some(&(_, to)) = factor.edges.iter().find(|&&(k, _)| k == key) {
            return to;
        }
        let reduced = match fact {
            Fact::Occurred(l) => factor.guard.assume_occurred(l),
            Fact::Promised(l) => factor.guard.assume_promised(l),
        };
        let to = self.intern_factor(reduced);
        // A kept factor must not remember a way into a scratch one.
        if remember && ((to as usize) < MEMO_CAP || (from as usize) >= MEMO_CAP) {
            self.factors[from as usize].edges.push((key, to));
        }
        to
    }
}

/// A guard in an actor's table, with what the actor derives from it.
#[derive(Debug, Clone, Copy)]
pub struct GuardInfo<'a> {
    tables: &'a Tables,
    state: &'a State,
}

impl<'a> GuardInfo<'a> {
    /// [`temporal::status`] of the guard, from its factors': enabled now
    /// iff every factor is, dead iff some factor is.
    pub fn status(&self) -> GuardStatus {
        self.state.status
    }

    /// The factors: canonical guards over disjoint symbols.
    pub fn factors(&self) -> impl Iterator<Item = &'a Guard> + 'a {
        let tables = self.tables;
        tables.list(self.state).iter().map(move |&f| &tables.factors[f as usize].guard)
    }

    /// The factors, each with the symbols its conjuncts constrain (its
    /// share of [`GuardInfo::cover`]).
    pub fn factor_covers(&self) -> impl Iterator<Item = (&'a Guard, &'a [SymbolId])> + 'a {
        let tables = self.tables;
        tables.list(self.state).iter().map(move |&f| {
            let factor = &tables.factors[f as usize];
            (&factor.guard, factor.cover())
        })
    }

    /// Each factor's [`temporal::asks`], in [`ask_order`]; they are about
    /// disjoint symbols, so the product's asks are these merged.
    pub fn factor_asks(&self) -> impl Iterator<Item = &'a [Need]> + 'a {
        let tables = self.tables;
        tables.list(self.state).iter().map(move |&f| tables.factors[f as usize].asks())
    }

    /// The guard multiplied out (for inspection and tests; the actor
    /// reads the factors).
    pub fn guard(&self) -> Guard {
        FactoredGuard::new(self.factors().cloned().collect()).expand()
    }

    /// The most conjuncts any factor has.
    pub fn width(&self) -> usize {
        self.state.width
    }

    /// The protocol requests that could unblock the guard:
    /// [`temporal::asks`] of the product — the factors' merged — in
    /// [`ask_order`], the order the requests go out.
    pub fn asks(&self) -> Vec<Need> {
        let mut out: Vec<Need> = self.factor_asks().flatten().cloned().collect();
        out.sort_by_key(ask_order);
        out
    }

    /// The symbols the guard's conjuncts constrain, in order — the
    /// factors' merged: what the coverage evaluation is sized by.
    pub fn cover(&self) -> Vec<SymbolId> {
        let mut out: Vec<SymbolId> = self.factor_covers().flat_map(|(_, c)| c).copied().collect();
        out.sort_unstable();
        out
    }

    /// 32-bit fingerprint of the guard's canonical factors — the residual
    /// id recorded on guard-evaluation spans. Two evaluations in one
    /// recording with equal fingerprints saw the same residual guard; the
    /// value itself is opaque and means nothing across builds.
    pub(crate) fn fingerprint(&self) -> u32 {
        (self.state.hash as u32) ^ ((self.state.hash >> 32) as u32)
    }
}

/// One actor's table of guards. States 0 and 1 are the compiled guards
/// of the actor's positive and negative literal, weakened: the run time
/// schedules with the paper's "small insight" (Section 4.2), every
/// `◇(sequence)` atom a conjunction of eventualities, and the other
/// events' guards enforce the order. Every guard in the table is then
/// masks only, and the actor folds each fact in as it arrives. On the
/// shipped templates the guard reached does not depend on the arrival
/// order (`crates/guard/tests/factored_props.rs`); `Guard::canonical`'s
/// sibling merge can make it depend on it elsewhere (ROADMAP.md).
///
/// Copy-on-write: a clone of the actor (a slot assembled from the
/// prototype, a branch of an interleaving explorer) shares the table
/// until either side adds to it, so cloning an actor does not copy every
/// guard it ever held. Reads never touch the count, and once an actor has
/// added an entry of its own the table is its alone.
#[derive(Clone)]
pub(crate) struct GuardMemo {
    tables: Arc<Tables>,
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

    pub(crate) fn new(pos: &FactoredGuard, neg: &FactoredGuard) -> GuardMemo {
        // Room for the first reductions: most actors reach a state or two
        // past their compiled guards and no further.
        let initial = pos.factors().len() + neg.factors().len();
        let mut tables = Tables {
            factors: Vec::with_capacity(initial + 2),
            states: Vec::with_capacity(4),
            lists: Vec::new(),
            scratch: Vec::new(),
            kept: MEMO_CAP,
        };
        for (slot, guard) in [pos, neg].into_iter().enumerate() {
            let at = match guard.factors() {
                [] => tables.intern_state(&[]),
                [only] => {
                    let only = tables.intern_factor(only.weaken_sequences());
                    tables.intern_state(&[only])
                }
                many => {
                    let ids: Vec<FactorIx> =
                        many.iter().map(|f| tables.intern_factor(f.weaken_sequences())).collect();
                    tables.intern_state(&ids)
                }
            } as usize;
            // The two literals keep their two slots even when their
            // guards are equal.
            if at != slot {
                let twin = tables.states[at].clone();
                tables.states.push(State { edges: Vec::new(), ..twin });
            }
        }
        GuardMemo { tables: Arc::new(tables) }
    }

    pub(crate) fn get(&self, ix: GuardIx) -> GuardInfo<'_> {
        GuardInfo { tables: &self.tables, state: &self.tables.states[ix as usize] }
    }

    /// The guard `from` reduced by `fact`: a table hit from the second
    /// time on.
    pub(crate) fn reduce(&mut self, from: GuardIx, fact: Fact) -> GuardIx {
        let key = edge_key(fact);
        let state = &self.tables.states[from as usize];
        if let Some(&(_, to)) = state.edges.iter().find(|&&(k, _)| k == key) {
            return to;
        }
        // The factors mention disjoint symbols, so at most one of them
        // can change; a fact about a symbol none mentions reduces the
        // guard to itself.
        let sym = fact.literal().symbol();
        let t = &*self.tables;
        let touched = t.list(state).iter().position(|&f| t.factors[f as usize].guard.mentions(sym));
        let tables = Arc::make_mut(&mut self.tables);
        let to = match touched {
            None => from,
            Some(k) => {
                let state = &tables.states[from as usize];
                let (was, len) = (tables.list(state)[k], state.len as usize);
                let reduced = tables.reduce_factor(was, fact, len > 1);
                let guard = &tables.factors[reduced as usize].guard;
                let (dead, gone) = (guard.is_bottom(), guard.holds_now());
                if len == 1 || dead {
                    let one = [reduced];
                    tables.intern_state(if gone { &[] } else { &one })
                } else {
                    let mut next = std::mem::take(&mut tables.scratch);
                    next.clear();
                    next.extend_from_slice(tables.list(&tables.states[from as usize]));
                    if gone {
                        next.remove(k);
                    } else {
                        next[k] = reduced;
                    }
                    let to = tables.intern_state(&next);
                    tables.scratch = next;
                    to
                }
            }
        };
        // A kept state must not remember a way into a scratch one.
        let kept = tables.kept;
        if (to as usize) < kept || (from as usize) >= kept {
            tables.states[from as usize].edges.push((key, to));
        }
        to
    }

    /// Drop the scratch entries of the instance that just ended.
    pub(crate) fn reset(&mut self) {
        let t = &self.tables;
        if t.factors.len() > MEMO_CAP || t.states.len() > t.kept {
            let tables = Arc::make_mut(&mut self.tables);
            tables.factors.truncate(MEMO_CAP);
            tables.states.truncate(tables.kept);
            let pooled = tables.states.iter().filter(|s| s.len > 1);
            let end = pooled.map(|s| (s.start + s.len) as usize).max();
            tables.lists.truncate(end.unwrap_or(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::Literal;

    fn lit(sym: u32) -> Literal {
        Literal::pos(SymbolId(sym))
    }

    fn memo(pos: Guard) -> GuardMemo {
        GuardMemo::new(&pos.into(), &FactoredGuard::top())
    }

    #[test]
    fn reductions_are_tabulated_and_shared_across_paths() {
        let g = Guard::eventually(lit(1)).and(&Guard::occurred(lit(2)));
        let mut memo = memo(g.clone());
        let a = memo.reduce(GuardMemo::POS, Fact::Occurred(lit(1)));
        assert_eq!(memo.get(a).guard(), g.assume_occurred(lit(1)));
        let ab = memo.reduce(a, Fact::Occurred(lit(2)));
        let b = memo.reduce(GuardMemo::POS, Fact::Occurred(lit(2)));
        let ba = memo.reduce(b, Fact::Occurred(lit(1)));
        assert_eq!(ab, ba, "both orders reach one entry");
        assert_eq!(memo.get(ab).status(), GuardStatus::EnabledNow);
        let size = memo.tables.states.len();
        assert_eq!(memo.reduce(GuardMemo::POS, Fact::Occurred(lit(1))), a, "an edge, not a copy");
        assert_eq!(memo.reduce(GuardMemo::POS, Fact::Promised(lit(7))), GuardMemo::POS);
        assert_eq!(memo.tables.states.len(), size);
    }

    /// A fact reduces the one factor that mentions it: the others keep
    /// their table entries, and the product moves as the expanded guard
    /// would.
    #[test]
    fn a_fact_reduces_only_the_factor_it_touches() {
        let a = Guard::eventually(lit(1)).or(&Guard::occurred(lit(2)));
        let b = Guard::not_yet(lit(3)).or(&Guard::eventually(lit(4)));
        let c = Guard::occurred(lit(5)).or(&Guard::eventually(lit(6).complement()));
        let factored = FactoredGuard::new(vec![a, b, c]);
        let mut memo = GuardMemo::new(&factored, &FactoredGuard::top());
        let (mut ix, mut expect) = (GuardMemo::POS, factored.expand());
        let edges =
            |memo: &GuardMemo| -> usize { memo.tables.factors.iter().map(|f| f.edges.len()).sum() };
        for fact in [Fact::Promised(lit(4)), Fact::Occurred(lit(2)), Fact::Occurred(lit(5))] {
            let (before, visited) = (memo.tables.factors.len(), edges(&memo));
            ix = memo.reduce(ix, fact);
            expect = match fact {
                Fact::Occurred(l) => expect.assume_occurred(l),
                Fact::Promised(l) => expect.assume_promised(l),
            };
            assert_eq!(memo.get(ix).guard(), expect, "after {fact:?}");
            assert!(memo.tables.factors.len() <= before + 1, "one factor reduced");
            assert!(edges(&memo) <= visited + 1, "no other factor visited");
        }
        assert_eq!(memo.get(ix).status(), GuardStatus::EnabledNow);
        assert_eq!(memo.get(ix).factors().count(), 0);
        let dead = memo.reduce(GuardMemo::POS, Fact::Occurred(lit(6)));
        assert_eq!(memo.get(dead).status(), GuardStatus::Blocked);
        let dead = memo.reduce(dead, Fact::Occurred(lit(5).complement()));
        assert_eq!(memo.get(dead).status(), GuardStatus::Dead);
        assert!(memo.get(dead).asks().is_empty() && memo.get(dead).cover().is_empty());
    }

    #[test]
    fn asks_and_cover_follow_the_guard() {
        let g = Guard::eventually(lit(3)).and(&Guard::not_yet(lit(1))).or(&Guard::occurred(lit(2)));
        let memo = memo(g);
        let info = memo.get(GuardMemo::POS);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(1)), Need::Promise(lit(3))]);
        assert_eq!(info.cover(), [SymbolId(1), SymbolId(2), SymbolId(3)]);
        assert_eq!(info.status(), GuardStatus::Blocked);
        // Across factors: the sorted union.
        let factored = FactoredGuard::new(vec![Guard::eventually(lit(5)), Guard::not_yet(lit(2))]);
        let memo = GuardMemo::new(&factored, &FactoredGuard::top());
        let info = memo.get(GuardMemo::POS);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(2)), Need::Promise(lit(5))]);
        assert_eq!(info.cover(), [SymbolId(2), SymbolId(5)]);
    }

    /// Past the cap reductions still come out right; the scratch entries
    /// go at reset and no kept entry points at one.
    #[test]
    fn a_full_table_stops_remembering() {
        let n = 10; // 2^10 subsets of discharged conjuncts
        let wide = (0..n).fold(Guard::top(), |g, s| g.and(&Guard::occurred(lit(s))));
        let mut memo = memo(wide.clone());
        for subset in 0..1u32 << n {
            let (mut ix, mut expect) = (GuardMemo::POS, wide.clone());
            for s in (0..n).filter(|s| subset >> s & 1 == 1) {
                ix = memo.reduce(ix, Fact::Occurred(lit(s)));
                expect = expect.assume_occurred(lit(s));
            }
            assert_eq!(memo.get(ix).guard(), expect, "subset {subset:#b}");
            memo.reset();
            let t = &memo.tables;
            assert!(t.states.len() <= MEMO_CAP && t.factors.len() <= MEMO_CAP);
            let (kept, kept_factors) = (t.states.len() as GuardIx, t.factors.len() as FactorIx);
            assert!(t.states.iter().all(|g| g.edges.iter().all(|&(_, to)| to < kept)));
            assert!(t.states.iter().all(|g| t.list(g).iter().all(|&f| f < kept_factors)));
            assert!(t.factors.iter().all(|f| f.edges.iter().all(|&(_, to)| to < kept_factors)));
        }
        assert_eq!(memo.tables.states.len(), MEMO_CAP);
    }
}
