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
//! set ([`Guard::under`]), its status and its hash; what only some
//! questions need — its asks, and whether the guard holds on every state
//! the fact set allows — is derived the first time one asks.
//!
//! The table answers the actor's two guard questions from the entries'
//! keys. "May the literal occur now?" ([`GuardMemo::enabled`]) is the
//! status where it decides, else [`Guard::covered`] (the kernel's one
//! validity test) over the states the key allows: kept in the entry for
//! a factor no hold narrows, walked again only for one that mentions a
//! symbol holding still for the literal. "May it be promised?"
//! ([`GuardMemo::grantable`]) reads the promised polarities off the keys
//! the party's promises lead to.
//!
//! A fact changes the fact set of the one factor that mentions its
//! symbol: a warm actor pays one key lookup in that factor, a cold one
//! computes that factor alone, so what it computes grows with the widest
//! factor, not with the product of all of them. Two arrival orders of
//! one fact set reach one entry by construction.
//!
//! The table is a cache of pure functions ([`Guard::under`],
//! [`temporal::status`], [`temporal::asks`], [`Guard::covered`] over the
//! states a key allows): an actor with a warm table and one with a cold
//! table compute the same guards and send the same messages
//! (`tests/protocol_unit.rs` holds them to that), so it survives an
//! instance reset and a crash–restart alike. It is actor-local — no
//! lock, no reference count — and bounded: entries past [`MEMO_CAP`] are
//! dropped at the next reset, and only the instance's own entry indices,
//! which the reset rewinds, ever point at them.

use event_algebra::{FxHasher, Literal, Polarity, SymbolId};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use temporal::{
    ask_order, asks, product_status, status, CoverScratch, Fact, FactoredGuard, Guard, GuardStatus,
    Need, ST_A, ST_B, ST_C, ST_D, ST_FULL,
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

    /// The states the facts leave `sym`, one of the factor's `syms`.
    fn allows(&self, syms: &[SymbolId], sym: SymbolId) -> u8 {
        ST_FULL & !self.ruled_out(syms.binary_search(&sym).expect("its own symbol"))
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
    /// Whether the guard holds on every state vector the key allows: `⊤`
    /// exactly, where the status is only sound.
    top: OnceLock<bool>,
}

impl Entry {
    fn new(key: FactSet, guard: Guard) -> Entry {
        let mut hasher = FxHasher::default();
        guard.hash(&mut hasher);
        let (status, hash) = (status(&guard), hasher.finish());
        Entry { key, next: END, guard, status, hash, asks: OnceLock::new(), top: OnceLock::new() }
    }

    fn asks(&self) -> &[Need] {
        self.asks.get_or_init(|| asks(&self.guard))
    }

    /// Whether the guard holds on every state its factor's `syms` may be
    /// in: what the key allows, and for a symbol of `held` only the
    /// unresolved states.
    fn enabled(&self, syms: &[SymbolId], held: &[SymbolId], cover: &mut CoverScratch) -> bool {
        let allows = |s| self.key.allows(syms, s);
        match self.status {
            GuardStatus::EnabledNow => true,
            GuardStatus::Dead => false,
            _ if held.iter().any(|s| syms.binary_search(s).is_ok()) => {
                let narrow = |s| allows(s) & if held.contains(&s) { ST_C | ST_D } else { ST_FULL };
                self.guard.covered(narrow, cover)
            }
            _ => *self.top.get_or_init(|| self.guard.covered(allows, cover)),
        }
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
    /// ([`GuardMemo::grantable`]).
    assumed: Vec<EntryIx>,
    /// The stack the coverage walks run on.
    cover: CoverScratch,
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
        GuardMemo { tables: Arc::new(tables), at, assumed: Vec::new(), cover: Default::default() }
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

    /// Add `fact` to the fact sets the instance has heard. Returns, per
    /// polarity (positive first), the most conjuncts of an entry the fact
    /// moved one of its factors to, `0` where it moved none: the only
    /// factors whose width a fact can change.
    pub(crate) fn reduce(&mut self, fact: Fact) -> [usize; 2] {
        let mut widest = [0; 2];
        let pos = self.tables.pos;
        step(&mut self.tables, &mut self.at, 0, fact, |factor, entry| {
            let w = &mut widest[usize::from(factor >= pos)];
            *w = (*w).max(entry.guard.conjuncts().len());
        });
        widest
    }

    /// Whether `pol`'s literal may occur now: every factor holds on each
    /// state its symbols may be in — what the facts heard allow, and for
    /// a symbol holding still for the literal (`held`) only the
    /// unresolved states. Sound under asynchrony (an unannounced remote
    /// occurrence is among the states allowed) and exact: the factors
    /// constrain disjoint symbols, so every state vector satisfies the
    /// product iff each factor holds on its share.
    pub(crate) fn enabled(&mut self, pol: Polarity, held: &[SymbolId]) -> bool {
        let (span, t) = (self.span(pol), &*self.tables);
        let at = &self.at[span.clone()];
        span.zip(at).all(|(f, &e)| t.entries[e as usize].enabled(t.syms(f), held, &mut self.cover))
    }

    /// Whether `pol`'s literal may be promised to the requesters of
    /// `party`: were their events all promised, every factor would have a
    /// conjunct each constraint of which is (a) implied by the final
    /// state of a promised occurrence (`□f` with `◇f` known: when `f`
    /// occurs, `□f` holds and this event follows — the paper's
    /// conditional promise, discharged by the requester's occurrence
    /// message), or (b) a not-yet-style mask, admitting both unresolved
    /// states: it holds while the symbol is unheard of and is pinned by
    /// the agreement protocol at the promised event's own occurrence. A
    /// factor that holds now has the empty conjunct.
    pub(crate) fn grantable(&mut self, pol: Polarity, party: &[Literal]) -> bool {
        let span = self.span(pol);
        self.assumed.clear();
        self.assumed.extend_from_slice(&self.at[span.clone()]);
        for &p in party {
            step(&mut self.tables, &mut self.assumed, span.start, Fact::Promised(p), |_, _| {});
        }
        let t = &*self.tables;
        span.zip(&self.assumed).all(|(f, &e)| {
            let (entry, syms) = (&t.entries[e as usize], t.syms(f));
            // What a constraint must admit: a promised symbol's occurred
            // state (its key allows the promised polarity's two), else
            // both unresolved ones.
            entry.guard.dischargeable(|s, m| {
                let can = entry.key.allows(syms, s);
                let end = if can == ST_FULL { ST_C | ST_D } else { can & (ST_A | ST_B) };
                m & end == end
            })
        })
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
/// hit from the second time on. `moved` sees each factor that moves and
/// its new entry.
fn step(
    tables: &mut Arc<Tables>,
    at: &mut [EntryIx],
    first: usize,
    fact: Fact,
    mut moved: impl FnMut(usize, &Entry),
) {
    let sym = fact.literal().symbol();
    let states = ST_FULL & !fact.closure_mask();
    for (factor, ix) in (first..).zip(at) {
        let Ok(rank) = tables.syms(factor).binary_search(&sym) else { continue };
        let key = &tables.entries[*ix as usize].key;
        let had = key.ruled_out(rank);
        if had | states != had {
            let key = key.with(rank, states);
            *ix = entry(tables, factor, key);
            moved(factor, &tables.entries[*ix as usize]);
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
    let guard = t.entries[factor].guard.under(|s| key.allows(syms, s));
    let tables = Arc::make_mut(tables);
    let at = tables.entries.len() as EntryIx;
    tables.entries[last as usize].next = at;
    tables.entries.push(Entry::new(key, guard));
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal::occurred_mask;

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
        assert!(dead.asks().is_empty());
        assert!(!memo.enabled(Polarity::Pos, &[]), "a dead guard is never enabled");
    }

    /// Symbols holding still for the literal.
    fn held(syms: &[u32]) -> Vec<SymbolId> {
        syms.iter().map(|&s| SymbolId(s)).collect()
    }

    #[test]
    fn asks_and_cover_follow_the_guard() {
        let g = Guard::eventually(lit(3)).and(&Guard::not_yet(lit(1))).or(&Guard::occurred(lit(2)));
        let mut memo = memo(g);
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(1)), Need::Promise(lit(3))]);
        assert_eq!(info.status(), GuardStatus::Blocked);
        // A hold on 1 leaves 3 open: not enabled.
        assert!(!memo.enabled(Polarity::Pos, &held(&[1])));
        // Promised to 3's requester, the event is grantable: ¬1 is left,
        // which the agreement pins.
        assert!(memo.grantable(Polarity::Pos, &[lit(3)]));
        assert!(!memo.grantable(Polarity::Pos, &[lit(2).complement()]));
        memo.reduce(Fact::Promised(lit(3)));
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(1))]);
        assert!(memo.enabled(Polarity::Pos, &held(&[1])));
        assert!(!memo.enabled(Polarity::Pos, &[]));
        // Across factors: every factor holds on its share.
        let factored = FactoredGuard::new(vec![Guard::eventually(lit(5)), Guard::not_yet(lit(2))]);
        let mut memo = self::memo(factored);
        let info = memo.get(Polarity::Pos);
        assert_eq!(info.asks(), [Need::NotYetAgreement(lit(2)), Need::Promise(lit(5))]);
        assert!(!memo.enabled(Polarity::Pos, &held(&[2])));
        memo.reduce(Fact::Promised(lit(5)));
        assert!(!memo.enabled(Polarity::Pos, &[]));
        assert!(memo.enabled(Polarity::Pos, &held(&[2])));
    }

    /// `{1:A} + {1:C, 2:ABC} + {2:ABD}`: no conjunct holds alone, so the
    /// status stays Blocked, but once `◇1` is heard every state vector
    /// left satisfies some conjunct; holds alone do not do it.
    #[test]
    fn a_union_of_conjuncts_is_enabled_where_it_covers() {
        let g = Guard::from_mask(SymbolId(1), ST_A)
            .or(&Guard::from_mask(SymbolId(1), ST_C).and_mask(SymbolId(2), ST_FULL & !ST_D))
            .or(&Guard::from_mask(SymbolId(2), ST_FULL & !ST_C));
        let mut memo = memo(g);
        assert!(!memo.enabled(Polarity::Pos, &[]));
        assert!(!memo.enabled(Polarity::Pos, &held(&[1, 2])));
        memo.reduce(Fact::Promised(lit(1)));
        assert_eq!(memo.get(Polarity::Pos).status(), GuardStatus::Blocked);
        assert!(memo.enabled(Polarity::Pos, &[]));
        assert!(memo.enabled(Polarity::Pos, &held(&[1, 2])));
        memo.reduce(Fact::Occurred(lit(2)));
        assert_eq!(memo.get(Polarity::Pos).status(), GuardStatus::EnabledNow);
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

    /// The states each choice of facts about one symbol leaves it:
    /// nothing heard, `◇l`, `◇l̄`, `□l`, `□l̄`.
    const KNOWN: [u8; 5] = [ST_FULL, ST_A | ST_C, ST_B | ST_D, ST_A, ST_B];

    /// The facts of choice `c` (an index into [`KNOWN`]) about `sym`.
    fn facts_of(sym: SymbolId, c: usize) -> Option<Fact> {
        let lit = if c % 2 == 1 { Literal::pos(sym) } else { Literal::neg(sym) };
        match c {
            0 => None,
            1 | 2 => Some(Fact::Promised(lit)),
            _ => Some(Fact::Occurred(lit)),
        }
    }

    /// Whether `guard` — masks only — holds on every state vector that
    /// gives each of `syms` a state of `can[k]`.
    fn holds_on_every_vector(guard: &Guard, syms: &[SymbolId], can: &[u8]) -> bool {
        let satisfied = |v: &[u8]| {
            let state = |s| syms.binary_search(&s).map_or(ST_FULL, |k| v[k]);
            guard
                .conjuncts()
                .iter()
                .any(|c| c.constrained_symbols().all(|(s, m)| m & state(s) != 0))
        };
        let states: Vec<Vec<u8>> = can
            .iter()
            .map(|&m| [ST_A, ST_B, ST_C, ST_D].into_iter().filter(|&s| m & s != 0).collect())
            .collect();
        let mut v = vec![0; syms.len()];
        (0..states.iter().map(Vec::len).product::<usize>()).all(|mut n| {
            for (k, states) in states.iter().enumerate() {
                v[k] = states[n % states.len()];
                n /= states.len();
            }
            satisfied(&v)
        })
    }

    /// What the grant test read before the table answered it: the guard
    /// at the fact set and the party's promises, with a promised
    /// occurrence taken from the promises heard and the party.
    fn grantable_by_promises(guard: &Guard, known: &[(SymbolId, u8)], party: &[Literal]) -> bool {
        let heard = |s| known.iter().find(|k| k.0 == s).map_or(ST_FULL, |k| k.1);
        let assumed = guard.under(|s| {
            let promised = party.iter().filter(|l| l.symbol() == s);
            promised.fold(heard(s), |k, l| k & Fact::Promised(*l).closure_mask())
        });
        let promised = known.iter().filter_map(|&(s, k)| match k {
            k if k == ST_A | ST_C => Some(Literal::pos(s)),
            k if k == ST_B | ST_D => Some(Literal::neg(s)),
            _ => None,
        });
        let promised: Vec<Literal> = promised.chain(party.iter().copied()).collect();
        assumed.dischargeable(|s, m| {
            promised.iter().any(|l| l.symbol() == s && occurred_mask(l.polarity()) & !m == 0)
                || (m & (ST_C | ST_D)) == (ST_C | ST_D)
        })
    }

    fn example(name: &str) -> constrained_events::Workflow {
        let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect(&path);
        constrained_events::WorkflowBuilder::from_spec(&src).expect(name).build()
    }

    /// Every distinct factor of the templates the factored-guard suite
    /// walks, at every fact set on its symbols and under every set of
    /// holds the actor can have (a symbol heard to occur holds still for
    /// no one): [`GuardMemo::enabled`] is `⊤` over the state vectors
    /// left, enumerated. At every fact set, [`GuardMemo::grantable`]
    /// answers as the grant test on the promises heard did, for every
    /// party of at most two requesters on the factor's symbols.
    #[test]
    fn template_factors_answer_exactly() {
        use constrained_events::models;
        let templates = [
            example("travel"),
            example("pipeline10"),
            models::diamond(3),
            models::contingency(3, false),
            models::saga(3, 3, Some(1)),
            models::saga(3, 3, None),
            models::saga(4, 3, None),
            models::saga(5, 3, None),
        ];
        // A factor over its symbols' ranks: the table is equivariant, so
        // one factor stands for every renaming of it.
        let at_ranks = |g: &Guard| {
            let syms: Vec<SymbolId> = g.symbols().into_iter().collect();
            let rank = |s| SymbolId(syms.binary_search(&s).expect("its symbol") as u32);
            let conjunct = |c: &temporal::Conjunct| {
                let masks = c.constrained_symbols();
                masks.fold(Guard::top(), |g, (s, m)| g.and_mask(rank(s), m))
            };
            g.conjuncts().iter().fold(Guard::bottom(), |g, c| g.or(&conjunct(c)))
        };
        let mut factors: Vec<Guard> = (templates.iter())
            .flat_map(|w| w.compile_guards().guards.into_values())
            .flat_map(|f| f.weaken_sequences().factors().iter().map(at_ranks).collect::<Vec<_>>())
            .collect();
        factors.sort_by_key(|g| format!("{g:?}"));
        factors.dedup();
        let (mut questions, mut grants) = (0, 0);
        for factor in &factors {
            let syms: Vec<SymbolId> = factor.symbols().into_iter().collect();
            let w = syms.len();
            assert!(w <= 4, "{factor:?} is wider than the templates' four symbols");
            let lits: Vec<Literal> =
                syms.iter().flat_map(|&s| [Literal::pos(s), Literal::neg(s)]).collect();
            let mut parties: Vec<Vec<Literal>> = vec![vec![]];
            for (i, &a) in lits.iter().enumerate() {
                parties.push(vec![a]);
                let other = lits[i + 1..].iter().filter(|b| b.symbol() != a.symbol());
                parties.extend(other.map(|&b| vec![a, b]));
            }
            let mut memo = memo(factor.clone());
            for set in 0..5usize.pow(w as u32) {
                let choice = |k: usize| set / 5usize.pow(k as u32) % 5;
                memo.reset();
                for (k, &s) in syms.iter().enumerate() {
                    facts_of(s, choice(k)).into_iter().for_each(|f| {
                        memo.reduce(f);
                    });
                }
                for holds in 0..1u32 << w {
                    let holding = |k: usize| holds >> k & 1 == 1;
                    if (0..w).any(|k| holding(k) && choice(k) >= 3) {
                        continue;
                    }
                    let held: Vec<SymbolId> =
                        (0..w).filter(|&k| holding(k)).map(|k| syms[k]).collect();
                    let can: Vec<u8> = (0..w)
                        .map(|k| KNOWN[choice(k)] & if holding(k) { ST_C | ST_D } else { ST_FULL })
                        .collect();
                    let want = holds_on_every_vector(factor, &syms, &can);
                    let at = format!("{factor:?} at {can:?} holding {held:?}");
                    assert_eq!(memo.enabled(Polarity::Pos, &held), want, "{at}");
                    questions += 1;
                }
                let known: Vec<(SymbolId, u8)> =
                    (0..w).map(|k| (syms[k], KNOWN[choice(k)])).collect();
                for party in &parties {
                    let want = grantable_by_promises(factor, &known, party);
                    let at = format!("{factor:?} at {known:?} for {party:?}");
                    assert_eq!(memo.grantable(Polarity::Pos, party), want, "{at}");
                    grants += 1;
                }
            }
        }
        assert!(factors.len() >= 10, "only {} distinct factors", factors.len());
        println!(
            "{} factors, {questions} enabled questions, {grants} grant decisions",
            factors.len()
        );
    }

    /// On random workflows of two to four symbols, at random fact sets
    /// and holds on each weakened factor: the literal is enabled iff the
    /// factor holds at every (maximal trace, index) pair the facts and
    /// holds allow (a held symbol is unresolved there), and its entry is
    /// `0` iff it holds at none.
    #[test]
    fn enabled_is_the_semantics_on_small_workflows() {
        use guard::{CompiledWorkflow, GuardScope};
        use temporal::state_on;
        use testkit::Exprs;
        testkit::check("enabled_is_the_semantics_on_small_workflows", 200, |g| {
            let syms: Vec<SymbolId> = (0..g.range(2..=4u32)).map(SymbolId).collect();
            let deps = g.workflow(&syms, 3, 3);
            let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
            let traces = event_algebra::enumerate_maximal(&syms);
            for factored in compiled.guards.values() {
                for factor in factored.weaken_sequences().factors() {
                    let own: Vec<SymbolId> = factor.symbols().into_iter().collect();
                    let mut memo = memo(factor.clone());
                    for _ in 0..4 {
                        memo.reset();
                        let choice: Vec<usize> = own.iter().map(|_| g.range(0..5usize)).collect();
                        for (&s, &c) in own.iter().zip(&choice) {
                            facts_of(s, c).into_iter().for_each(|f| {
                                memo.reduce(f);
                            });
                        }
                        let held: Vec<SymbolId> = (own.iter().zip(&choice))
                            .filter(|&(_, &c)| c < 3 && g.range(0..3u32) == 0)
                            .map(|(&s, _)| s)
                            .collect();
                        let can = |s: SymbolId| {
                            let k = own.binary_search(&s).map_or(ST_FULL, |k| KNOWN[choice[k]]);
                            k & if held.contains(&s) { ST_C | ST_D } else { ST_FULL }
                        };
                        let (mut allowed, mut holding) = (0, 0);
                        for u in &traces {
                            for i in 0..=u.len() {
                                if own.iter().all(|&s| state_on(u, i, s) & can(s) != 0) {
                                    allowed += 1;
                                    holding += usize::from(factor.eval(u, i));
                                }
                            }
                        }
                        assert!(allowed > 0, "{choice:?} holding {held:?} is consistent");
                        let at = format!("{factor:?} at {choice:?} holding {held:?}");
                        assert_eq!(memo.enabled(Polarity::Pos, &held), holding == allowed, "{at}");
                        if held.is_empty() {
                            let dead = memo.get(Polarity::Pos).status() == GuardStatus::Dead;
                            assert_eq!(dead, holding == 0, "{at}");
                        }
                    }
                }
            }
        });
    }
}
