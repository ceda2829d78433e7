//! Guards as lazily tabulated functions of the facts heard, one factor at
//! a time.
//!
//! A dependency is a [`event_algebra::DependencyMachine`]: its residuals
//! are enumerated at compile time and an actor holds a state id. A guard
//! depends only on which `□`/`◇` facts about its symbols have been heard
//! (Section 4.3's proof rules), and the instances of one template hear
//! the same few fact sets over and over. So each actor tabulates its
//! guards by fact set, as it meets them.
//!
//! A compiled guard is a [`FactoredGuard`]: canonical factors over
//! disjoint symbols. An instance's guard state is one fact set per
//! factor, on that factor's symbols ([`FactSet`]), held as the index of
//! the table entry for it. An entry keeps the factor's guard at its fact
//! set ([`Guard::under`]), its status and its hash; what only a parked
//! attempt needs — its asks and cover — is derived the first time one
//! asks. A fact changes the fact set of the one factor that mentions its
//! symbol: a warm actor pays one key lookup in that factor, a cold one
//! computes that factor alone, so what it computes grows with the widest
//! factor, not with the product of all of them. Two arrival orders of
//! one fact set reach one entry by construction.
//!
//! The table is a cache of pure functions ([`Guard::under`],
//! [`temporal::status`], [`temporal::asks`]): an actor with a warm table
//! and one with a cold table compute the same guards and send the same
//! messages (`tests/protocol_unit.rs` holds them to that), so it survives
//! an instance reset and a crash–restart alike. It is actor-local — no
//! lock, no reference count — and bounded: entries past [`MEMO_CAP`] are
//! dropped at the next reset, and only the instance's own entry indices,
//! which the reset rewinds, ever point at them.

use event_algebra::{FxHasher, Literal, Polarity, SymbolId};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use temporal::{
    ask_order, asks, product_status, status, Fact, FactoredGuard, Guard, GuardStatus, Need, ST_FULL,
};

/// How many entries an actor tabulates for good. Wide joins meet many
/// fact sets over a fleet's arrival orders; past this many the actor
/// keeps computing them, it just stops remembering.
pub(crate) const MEMO_CAP: usize = 256;

/// Index of an entry in an actor's table.
pub(crate) type EntryIx = u32;

/// The end of a factor's list of entries.
const END: EntryIx = EntryIx::MAX;

/// The facts heard on one factor's symbols: four bits per symbol, at the
/// symbol's rank among the factor's, holding the knowledge states
/// ([`temporal::ST_A`] … [`temporal::ST_D`]) the facts rule out. `□l`
/// rules out every state but `l`'s occurred one and `◇l` the
/// complement's two, so a symbol's five consistent fact sets — none,
/// `◇l`, `◇l̄`, `□l`, `□l̄` (`□` implies `◇`) — are five distinct nibbles,
/// and every order of one fact set packs to one key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FactSet {
    /// A factor of at most 32 symbols.
    Inline(u128),
    /// A wider one: 16 symbols a word.
    Wide(Box<[u64]>),
}

impl FactSet {
    fn empty(width: usize) -> FactSet {
        if width <= 32 {
            FactSet::Inline(0)
        } else {
            FactSet::Wide(vec![0; width.div_ceil(16)].into())
        }
    }

    /// The states ruled out for the symbol at `rank`.
    fn ruled_out(&self, rank: usize) -> u8 {
        let nibble = match self {
            FactSet::Inline(k) => (k >> (4 * rank)) as u64,
            FactSet::Wide(w) => w[rank / 16] >> (4 * (rank % 16)),
        };
        nibble as u8 & ST_FULL
    }

    /// This set with `states` ruled out for the symbol at `rank` too.
    fn with(&self, rank: usize, states: u8) -> FactSet {
        match self {
            FactSet::Inline(k) => FactSet::Inline(k | u128::from(states) << (4 * rank)),
            FactSet::Wide(w) => {
                let mut w = w.clone();
                w[rank / 16] |= u64::from(states) << (4 * (rank % 16));
                FactSet::Wide(w)
            }
        }
    }
}

/// One fact set of one factor in an actor's table.
#[derive(Debug, Clone)]
struct Entry {
    key: FactSet,
    /// The factor's next entry, or [`END`]: a lookup walks one factor's
    /// entries only.
    next: EntryIx,
    /// The factor's compiled guard, weakened, at the fact set.
    guard: Guard,
    /// [`temporal::status`] of the guard.
    status: GuardStatus,
    /// Hash of the guard: what a fingerprint folds.
    hash: u64,
    /// [`temporal::asks`] of the guard.
    asks: OnceLock<Vec<Need>>,
    /// The symbols the guard's conjuncts constrain, in order.
    cover: OnceLock<Vec<SymbolId>>,
}

impl Entry {
    fn new(key: FactSet, guard: Guard) -> Entry {
        let mut hasher = FxHasher::default();
        guard.hash(&mut hasher);
        let (status, hash) = (status(&guard), hasher.finish());
        let (asks, cover) = (OnceLock::new(), OnceLock::new());
        Entry { key, next: END, guard, status, hash, asks, cover }
    }

    fn asks(&self) -> &[Need] {
        self.asks.get_or_init(|| asks(&self.guard))
    }

    fn cover(&self) -> &[SymbolId] {
        self.cover.get_or_init(|| self.guard.constrained())
    }
}

/// One actor's table.
#[derive(Debug, Clone)]
struct Tables {
    /// Each compiled factor's symbols, sorted, back to back, after a
    /// header of `factors + 1` bounds: factor `f`'s symbols are
    /// `syms[syms[f]..syms[f + 1]]` (a bound is held as a `SymbolId` of
    /// its position). The positive literal's factors come first. Factor
    /// `f` at the empty fact set is entry `f`.
    syms: Vec<SymbolId>,
    /// How many of the factors are the positive literal's.
    pos: usize,
    entries: Vec<Entry>,
}

impl Tables {
    fn syms(&self, factor: usize) -> &[SymbolId] {
        &self.syms[self.syms[factor].index()..self.syms[factor + 1].index()]
    }

    /// How many compiled factors the table is over.
    fn factors(&self) -> usize {
        self.syms[0].index() - 1
    }
}

/// A guard in an actor's table — one entry per factor — with what the
/// actor derives from it.
#[derive(Debug, Clone, Copy)]
pub struct GuardInfo<'a> {
    entries: &'a [Entry],
    at: &'a [EntryIx],
}

impl<'a> GuardInfo<'a> {
    fn all(self) -> impl Iterator<Item = &'a Entry> + Clone {
        self.at.iter().map(move |&e| &self.entries[e as usize])
    }

    /// The factors that still constrain, as [`FactoredGuard::new`] keeps
    /// them: none is `⊤`, and a `0` stands alone.
    fn live(self) -> impl Iterator<Item = &'a Entry> {
        let dead = self.all().find(|e| e.status == GuardStatus::Dead);
        self.all().filter(move |e| match dead {
            Some(dead) => std::ptr::eq(*e, dead),
            None => e.status != GuardStatus::EnabledNow,
        })
    }

    /// [`temporal::status`] of the guard, from its factors': enabled now
    /// iff every factor is, dead iff some factor is.
    pub fn status(&self) -> GuardStatus {
        product_status(self.all().map(|e| e.status))
    }

    /// The factors: canonical guards over disjoint symbols.
    pub fn factors(&self) -> impl Iterator<Item = &'a Guard> + 'a {
        self.live().map(|e| &e.guard)
    }

    /// The factors, each with the symbols its conjuncts constrain (its
    /// share of [`GuardInfo::cover`]).
    pub fn factor_covers(&self) -> impl Iterator<Item = (&'a Guard, &'a [SymbolId])> + 'a {
        self.live().map(|e| (&e.guard, e.cover()))
    }

    /// Each factor's [`temporal::asks`], in [`ask_order`]; they are about
    /// disjoint symbols, so the product's asks are these merged.
    pub fn factor_asks(&self) -> impl Iterator<Item = &'a [Need]> + 'a {
        self.live().map(Entry::asks)
    }

    /// The guard multiplied out (for inspection and tests; the actor
    /// reads the factors).
    pub fn guard(&self) -> Guard {
        FactoredGuard::new(self.factors().cloned().collect()).expand()
    }

    /// The most conjuncts any factor has.
    pub fn width(&self) -> usize {
        self.live().map(|e| e.guard.conjuncts().len()).max().unwrap_or(1)
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
        let hash = self
            .live()
            .fold(0u64, |h, e| (h.rotate_left(5) ^ e.hash).wrapping_mul(0x517C_C1B7_2722_0A95));
        (hash as u32) ^ ((hash >> 32) as u32)
    }
}

/// One actor's guards: its table, over the factors of the compiled
/// guards of its positive and negative literal, weakened — the run time
/// schedules with the paper's "small insight" (Section 4.2), every
/// `◇(sequence)` atom a conjunction of eventualities, and the other
/// events' guards enforce the order, so every guard in the table is masks
/// only, a function of the fact set it is keyed by — and the entry each
/// factor is at for the facts the instance has heard.
///
/// Copy-on-write: a clone of the actor (a slot assembled from the
/// prototype, a branch of an interleaving explorer) shares the table
/// until either side adds to it, so cloning an actor does not copy every
/// guard it ever held. Reads never touch the count, and once an actor has
/// added an entry of its own the table is its alone.
#[derive(Clone)]
pub(crate) struct GuardMemo {
    tables: Arc<Tables>,
    /// Each factor's entry for the facts the instance has heard: the
    /// positive literal's factors, then the negative's.
    at: Vec<EntryIx>,
    /// A literal's entries under the promises a grant would assume
    /// ([`GuardMemo::assuming`]).
    assumed: Vec<EntryIx>,
}

// The table is a cache: what it holds depends on the instances the actor
// has served, never on the one it is serving, so of the memo only the
// instance's entries are in an actor's `{:?}`.
impl std::fmt::Debug for GuardMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("GuardMemo").field(&self.at).finish()
    }
}

impl GuardMemo {
    pub(crate) fn new(pos: &FactoredGuard, neg: &FactoredGuard) -> GuardMemo {
        let compiled = pos.factors().iter().chain(neg.factors());
        let n = compiled.clone().count();
        // Sized in one go: the factors' bounds and symbols (on the
        // templates a factor spans at most four symbols), and room for a
        // few fact sets per factor.
        let mut tables = Tables {
            syms: Vec::with_capacity(n + 1 + 4 * n),
            pos: pos.factors().len(),
            entries: Vec::with_capacity(4 * n),
        };
        tables.syms.resize(n + 1, SymbolId(n as u32 + 1));
        for (f, factor) in compiled.enumerate() {
            let guard = factor.weaken_sequences();
            let start = tables.syms.len();
            guard.symbols_all(|s| {
                if let Err(at) = tables.syms[start..].binary_search(&s) {
                    tables.syms.insert(start + at, s);
                }
                true
            });
            let end = tables.syms.len();
            tables.syms[f + 1] = SymbolId(end as u32);
            tables.entries.push(Entry::new(FactSet::empty(end - start), guard));
        }
        let at = (0..n as EntryIx).collect();
        GuardMemo { tables: Arc::new(tables), at, assumed: Vec::new() }
    }

    /// The place of `pol`'s factors in [`GuardMemo::at`].
    fn span(&self, pol: Polarity) -> Range<usize> {
        match pol {
            Polarity::Pos => 0..self.tables.pos,
            Polarity::Neg => self.tables.pos..self.tables.factors(),
        }
    }

    /// The guard of `pol`'s literal.
    pub(crate) fn get(&self, pol: Polarity) -> GuardInfo<'_> {
        GuardInfo { entries: &self.tables.entries, at: &self.at[self.span(pol)] }
    }

    /// Add `fact` to the fact sets the instance has heard.
    pub(crate) fn reduce(&mut self, fact: Fact) {
        step(&mut self.tables, &mut self.at, 0, fact);
    }

    /// The guard of `pol`'s literal were `promised` promised too.
    pub(crate) fn assuming(&mut self, pol: Polarity, promised: &[Literal]) -> GuardInfo<'_> {
        let span = self.span(pol);
        self.assumed.clear();
        self.assumed.extend_from_slice(&self.at[span.clone()]);
        for &p in promised {
            step(&mut self.tables, &mut self.assumed, span.start, Fact::Promised(p));
        }
        GuardInfo { entries: &self.tables.entries, at: &self.assumed }
    }

    /// Back to the empty fact sets for the next instance, dropping the
    /// entries past the cap: only the instance that just ended pointed at
    /// them.
    pub(crate) fn reset(&mut self) {
        let keep = MEMO_CAP.max(self.tables.factors());
        if self.tables.entries.len() > keep {
            let entries = &mut Arc::make_mut(&mut self.tables).entries;
            entries.truncate(keep);
            for entry in entries.iter_mut().filter(|e| e.next as usize >= keep) {
                entry.next = END;
            }
        }
        self.at.clear();
        self.at.extend(0..self.tables.factors() as EntryIx);
    }
}

/// Add `fact` to the fact sets of the entries `at`, which are those of
/// the factors from `first` on: each factor that mentions its symbol —
/// one per literal, a literal's factors mention disjoint symbols — moves
/// to the entry for its new set, the others stay where they are. A table
/// hit from the second time on.
fn step(tables: &mut Arc<Tables>, at: &mut [EntryIx], first: usize, fact: Fact) {
    let sym = fact.literal().symbol();
    let states = ST_FULL & !fact.closure_mask();
    for (factor, ix) in (first..).zip(at) {
        let Ok(rank) = tables.syms(factor).binary_search(&sym) else { continue };
        let key = &tables.entries[*ix as usize].key;
        let had = key.ruled_out(rank);
        if had | states != had {
            let key = key.with(rank, states);
            *ix = entry(tables, factor, key);
        }
    }
}

/// The entry of `factor` at `key`: an existing one or a new one at the
/// end of the factor's list.
fn entry(tables: &mut Arc<Tables>, factor: usize, key: FactSet) -> EntryIx {
    let t = &**tables;
    let mut last = factor as EntryIx;
    loop {
        let entry = &t.entries[last as usize];
        if entry.key == key {
            return last;
        }
        if entry.next == END {
            break;
        }
        last = entry.next;
    }
    let syms = t.syms(factor);
    let rank = |s| syms.binary_search(&s).expect("its own symbol");
    let guard = t.entries[factor].guard.under(|s| ST_FULL & !key.ruled_out(rank(s)));
    let tables = Arc::make_mut(tables);
    let at = tables.entries.len() as EntryIx;
    tables.entries[last as usize].next = at;
    tables.entries.push(Entry::new(key, guard));
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(sym: u32) -> Literal {
        Literal::pos(SymbolId(sym))
    }

    /// The guards of an actor whose positive literal's compiled guard is
    /// `pos` (the negative literal's is `⊤`).
    fn memo(pos: impl Into<FactoredGuard>) -> GuardMemo {
        GuardMemo::new(&pos.into(), &FactoredGuard::top())
    }

    /// `□s` for every `s` of `syms`.
    fn all_occurred(syms: impl IntoIterator<Item = u32>) -> Guard {
        syms.into_iter().fold(Guard::top(), |g, s| g.and(&Guard::occurred(lit(s))))
    }

    /// How many entries each factor has.
    fn per_factor(memo: &GuardMemo) -> Vec<usize> {
        let t = &memo.tables;
        let next = |&e: &EntryIx| Some(t.entries[e as usize].next).filter(|&n| n != END);
        let factors = 0..t.factors() as EntryIx;
        factors.map(|f| std::iter::successors(Some(f), next).count()).collect()
    }

    #[test]
    fn two_orders_of_the_same_facts_reach_one_entry() {
        let g = Guard::eventually(lit(1)).and(&Guard::occurred(lit(2)));
        let mut memo = memo(g.clone());
        memo.reduce(Fact::Occurred(lit(1)));
        assert_eq!(memo.get(Polarity::Pos).guard(), Guard::occurred(lit(2)));
        let a = memo.at.clone();
        memo.reduce(Fact::Occurred(lit(2)));
        let ab = memo.at.clone();
        memo.reset();
        memo.reduce(Fact::Occurred(lit(2)));
        memo.reduce(Fact::Promised(lit(1)));
        memo.reduce(Fact::Occurred(lit(1)));
        assert_eq!(memo.at, ab, "both orders reach one entry");
        assert_eq!(memo.get(Polarity::Pos).status(), GuardStatus::EnabledNow);
        // A repeated fact, one implied by what was heard, and one about a
        // symbol the guard does not mention leave the entries alone.
        let size = memo.tables.entries.len();
        memo.reset();
        memo.reduce(Fact::Occurred(lit(1)));
        assert_eq!(memo.at, a, "a lookup, not a copy");
        for fact in [Fact::Occurred(lit(1)), Fact::Promised(lit(1)), Fact::Promised(lit(7))] {
            memo.reduce(fact);
            assert_eq!(memo.at, a, "after {fact:?}");
        }
        assert_eq!(memo.tables.entries.len(), size);
    }

    /// A fact moves the one factor that mentions it: the others keep
    /// their entries, no other factor's list grows, and the product is
    /// the expanded guard at the same fact set.
    #[test]
    fn a_fact_adds_an_entry_only_to_the_factor_it_touches() {
        let a = Guard::eventually(lit(1)).or(&Guard::occurred(lit(2)));
        let b = Guard::not_yet(lit(3)).or(&Guard::eventually(lit(4)));
        let c = Guard::occurred(lit(5)).or(&Guard::eventually(lit(6).complement()));
        let factored = FactoredGuard::new(vec![a, b, c]);
        let mut memo = memo(factored.clone());
        let product = factored.expand();
        let facts = [Fact::Promised(lit(4)), Fact::Occurred(lit(2)), Fact::Occurred(lit(5))];
        for (k, &fact) in facts.iter().enumerate() {
            let (before, was) = (per_factor(&memo), memo.at.clone());
            memo.reduce(fact);
            let expect = product.under(|s| {
                let about = facts[..=k].iter().filter(|f| f.literal().symbol() == s);
                about.fold(ST_FULL, |k, f| k & f.closure_mask())
            });
            assert_eq!(memo.get(Polarity::Pos).guard(), expect, "after {fact:?}");
            let touched = [1, 0, 2][k];
            for f in 0..3 {
                let grew = per_factor(&memo)[f] - before[f];
                assert_eq!(grew, usize::from(f == touched), "factor {f} after {fact:?}");
                assert_eq!(memo.at[f] == was[f], f != touched, "factor {f} after {fact:?}");
            }
        }
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.status(), GuardStatus::EnabledNow);
        assert_eq!(info.factors().count(), 0);
        memo.reset();
        memo.reduce(Fact::Occurred(lit(6)));
        assert_eq!(memo.get(Polarity::Pos).status(), GuardStatus::Blocked);
        memo.reduce(Fact::Occurred(lit(5).complement()));
        let dead = memo.get(Polarity::Pos);
        assert_eq!(dead.status(), GuardStatus::Dead);
        assert_eq!(dead.factors().collect::<Vec<_>>(), [&Guard::bottom()]);
        assert!(dead.asks().is_empty() && dead.cover().is_empty());
    }

    #[test]
    fn asks_and_cover_follow_the_guard() {
        let g = Guard::eventually(lit(3)).and(&Guard::not_yet(lit(1))).or(&Guard::occurred(lit(2)));
        let mut memo = memo(g);
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(1)), Need::Promise(lit(3))]);
        assert_eq!(info.cover(), [SymbolId(1), SymbolId(2), SymbolId(3)]);
        assert_eq!(info.status(), GuardStatus::Blocked);
        // At a fact set, and under an assumed promise: the asks and cover
        // of the guard there.
        let assumed = memo.assuming(Polarity::Pos, &[lit(3)]);
        assert_eq!(assumed.asks(), [Need::NotYetAgreement(lit(1))]);
        assert_eq!(memo.get(Polarity::Pos).cover(), [SymbolId(1), SymbolId(2), SymbolId(3)]);
        memo.reduce(Fact::Promised(lit(3)));
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(1))]);
        assert_eq!(info.cover(), [SymbolId(1), SymbolId(2)]);
        // Across factors: the sorted union.
        let factored = FactoredGuard::new(vec![Guard::eventually(lit(5)), Guard::not_yet(lit(2))]);
        let memo = self::memo(factored);
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(2)), Need::Promise(lit(5))]);
        assert_eq!(info.cover(), [SymbolId(2), SymbolId(5)]);
    }

    /// Past the cap the guards still come out right; the entries past it
    /// go at reset.
    #[test]
    fn a_full_table_stops_remembering() {
        let n = 10; // 2^10 fact sets
        let mut memo = memo(all_occurred(0..n));
        for subset in 0..1u32 << n {
            let heard = |s: &u32| subset >> s & 1 == 1;
            for s in (0..n).filter(heard) {
                memo.reduce(Fact::Occurred(lit(s)));
            }
            let guard = memo.get(Polarity::Pos).guard();
            assert_eq!(guard, all_occurred((0..n).filter(|s| !heard(s))), "{subset:#b}");
            memo.reset();
            assert!(memo.tables.entries.len() <= MEMO_CAP);
        }
        assert_eq!(memo.tables.entries.len(), MEMO_CAP);
    }

    /// A factor wider than one key word — `□s₀ ∧ … ∧ □s₃₉` — in random
    /// orders: at every prefix the guard is `□s` for each `s` not yet
    /// heard to occur (a promise leaves `□s` pending).
    #[test]
    fn a_factor_wider_than_a_key_word_is_keyed_losslessly() {
        let n = 40;
        let mut memo = memo(all_occurred(0..n));
        assert!(matches!(memo.tables.entries[0].key, FactSet::Wide(_)));
        let mut g = seeded::Gen::new(7);
        for _ in 0..20 {
            let mut facts: Vec<Fact> = (0..n)
                .map(|s| if g.flip() { Fact::Promised(lit(s)) } else { Fact::Occurred(lit(s)) })
                .collect();
            for i in (1..facts.len()).rev() {
                facts.swap(i, g.range(0..=i));
            }
            for k in 0..facts.len() {
                memo.reduce(facts[k]);
                let pending = (0..n).filter(|&s| !facts[..=k].contains(&Fact::Occurred(lit(s))));
                assert_eq!(memo.get(Polarity::Pos).guard(), all_occurred(pending));
            }
            memo.reset();
        }
    }
}
