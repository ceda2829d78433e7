//! Event actors (Sections 2 and 4.3).
//!
//! "We instantiate an active entity or actor for each event type. Each
//! actor maintains the current guard for its event and manages its
//! communications." We place one actor per *symbol* (managing the event
//! and its complement together — exactly one of them can occur, and the
//! actor is the serialization point deciding which).
//!
//! The actor:
//! - evaluates guards on [`Msg::Attempt`]s, granting, rejecting or parking:
//!   a guard is enabled when it holds on every state its symbols may
//!   still be in — what the facts heard allow, narrowed by the not-yet
//!   holds granted to the literal — which the guard table decides
//!   exactly, at any width, from its fact sets (`memo.rs`), as it decides
//!   whether a promise may be granted;
//! - reduces guards as [`Msg::Announce`]/[`Msg::PromiseGrant`] facts arrive
//!   (Section 4.3's proof rules), re-evaluating parked attempts; an
//!   occurrence is announced to every subscriber the actor has not heard
//!   decided, since only an undecided guard needs it;
//! - runs the promise protocol (Example 11) and the not-yet agreement for
//!   `¬f` guards, with symbol-id priority for deadlock freedom. A promise
//!   is asked only of a literal that can grant it before it occurs
//!   ([`Routing::early_grant`]); of any other the answer is the
//!   announcement the requester hears anyway. Once the symbol is decided,
//!   its announcement is the only answer to any request about it; a
//!   denial comes only from an undecided symbol (a dead literal's promise,
//!   or a not-yet query the symbol-priority rule refuses). A promise round
//!   stays open until it is granted, denied, answered by the
//!   announcement of either literal or ended by the requester's own
//!   decision (no timeout: a lost message is the transport's to resend).
//!   A hold ends at either party's decision: an occurrence's
//!   announcement ends it at the keeper, which subscribes to the
//!   requester and grants nothing to a query the announcement overtook,
//!   a keeper's own occurrence ends every hold it keeps, and a `Release`
//!   is sent only where no announcement follows — after a rejection, or
//!   for a grant an undecided requester no longer waits for;
//! - tracks each dependency's residual to *trigger* triggerable events
//!   that have become required (Section 3.3(b));
//! - on rejection of an attempted event, makes the complement occur
//!   (Section 3.3(c)).
//!
//! An actor is a template part (symbol, attributes, compiled guards,
//! routing) and an instance part, and only the second changes while it
//! runs: one residual state per dependency, one index per compiled guard
//! factor into the actor's table of guards by fact set (`memo.rs` — the
//! guard side of an actor is tabulated the way its dependency side is
//! compiled), flags, and a few small sorted vectors.
//! [`SymbolActor::reset`] rewinds the instance part and keeps every
//! buffer, so the actor an instance slot assembled once serves instance
//! after instance without allocating.

use crate::memo::{GuardInfo, GuardMemo};
use crate::msg::Msg;
use agent::EventAttrs;
use event_algebra::{DepTracker, Literal, Polarity, SortedMap, SortedSet, SymbolId, SymbolMap};
use guard::CompiledWorkflow;
use monitor::WorkflowMonitor;
use obs::{ObsLit, SpanId, SpanKind, Verdict};
use sim::{Ctx, NodeId, Time};
use std::sync::Arc;
use temporal::{
    ask_order, eventually_mask, mask_needs, Conjunct, Fact, FactoredGuard, Guard, GuardStatus,
    Need, ST_A, ST_B, ST_C, ST_D, ST_FULL,
};

/// Literal → trace encoding (the same packed `sym << 1 | polarity`
/// index; see [`obs::ObsLit`]).
fn olit(l: Literal) -> ObsLit {
    ObsLit(l.index() as u32)
}

/// Routing tables shared by all nodes of one execution, dense over the
/// symbol ids.
#[derive(Debug, Default, Clone)]
pub struct Routing {
    /// Actor node for each symbol.
    pub actor_of: SymbolMap<NodeId>,
    /// Agent node owning each symbol's events (absent for free events).
    pub agent_of: SymbolMap<NodeId>,
    /// Actors subscribed to each symbol's announcements, each with the
    /// symbol it owns: an announcer skips a subscriber it has heard
    /// decided.
    pub subscribers_of: SymbolMap<Vec<(NodeId, SymbolId)>>,
    /// Whether each literal's actor may grant a promise of it before it
    /// occurs, by literal index, as the build computes it from the
    /// compiled guards and the event attributes: a promise of any other
    /// literal is answered by its announcement alone, which the requester
    /// hears as a subscriber, so nobody asks for it.
    pub early_grant: Vec<bool>,
}

impl Routing {
    /// Whether `node`'s actor subscribes to `sym`'s announcements.
    pub fn subscribes(&self, sym: SymbolId, node: NodeId) -> bool {
        self.subscribers_of.get(&sym).is_some_and(|subs| subs.iter().any(|&(n, _)| n == node))
    }

    /// Whether a promise of `lit` may be granted before `lit` occurs;
    /// `true` for a literal the table does not cover.
    pub fn may_grant_early(&self, lit: Literal) -> bool {
        self.early_grant.get(lit.index()).copied().unwrap_or(true)
    }
}

/// A set of guard masks: bit `m` stands for mask `m`.
type MaskSet = u16;

/// The masks of `set`.
fn members(set: MaskSet) -> impl Iterator<Item = u8> {
    let mut rest = set;
    std::iter::from_fn(move || {
        let m = (rest != 0).then(|| rest.trailing_zeros() as u8);
        rest &= rest.wrapping_sub(1);
        m
    })
}

/// The masks for which [`mask_needs`] answers as `pick` wants.
fn asking(pick: impl Fn((Option<Polarity>, Option<Polarity>)) -> bool) -> MaskSet {
    (1..ST_FULL).filter(|&m| pick(mask_needs(m))).fold(0, |set, m| set | 1 << m)
}

/// The masks a guard may hold on a symbol at some fact set, from the
/// masks its compiled conjuncts hold on it: [`temporal::Guard::under`]
/// narrows every mask to what is known of the symbol (nothing, or a
/// promise of either literal; an occurrence decides the symbol, which
/// drops out) and drops a mask the knowledge implies or contradicts, and
/// canonicalising unites the masks of two sibling conjuncts.
fn reachable(compiled: MaskSet) -> MaskSet {
    let mut united: MaskSet = 0;
    for m in members(compiled) {
        united |= members(united).fold(1 << m, |set, u| set | 1 << (u | m));
    }
    let mut out = 0;
    for m in members(united) {
        for known in [ST_FULL, ST_A | ST_C, ST_B | ST_D] {
            let narrowed = m & known;
            if narrowed != 0 && narrowed != known {
                out |= 1 << narrowed;
            }
        }
    }
    out
}

/// Each symbol's mask in `c` once its `◇(sequence)` atoms are weakened to
/// eventualities ([`temporal::Guard::weaken_sequences`]), as the actors'
/// tables hold it; a symbol only a sequence atom names may come twice.
fn weakened_masks(c: &Conjunct, mut each: impl FnMut(SymbolId, u8)) {
    let sequenced = |s: SymbolId| {
        let on = c.seq_atoms().flatten().filter(|l| l.symbol() == s);
        on.fold(ST_FULL, |m, l| m & eventually_mask(l.polarity()))
    };
    for (s, m) in c.constrained_symbols() {
        match m & sequenced(s) {
            0 => {}
            m => each(s, m),
        }
    }
    for l in c.seq_atoms().flatten().filter(|l| c.mask(l.symbol()) == ST_FULL) {
        each(l.symbol(), sequenced(l.symbol()));
    }
}

/// Which literals may be promised before they occur, by literal index,
/// for `literals` literal indices: a least fixpoint over what every
/// guard may ask at some fact set, which over-approximates each way
/// [`SymbolActor::try_grant`] can grant. An event that is attempted,
/// unheld and enabled occurs at once, so a grant needs one of:
///
/// - `f` is triggerable (a deferred obligation);
/// - `f`'s actor is held, with `f` enabled: some guard may ask a
///   not-yet agreement on `f`'s symbol;
/// - `f` is parked on a guard [`GuardMemo::grantable`] admits. A
///   constraint it admits and coverage does not is a not-yet-style mask
///   (one [`mask_needs`] answers with an agreement), or an occurrence of
///   a symbol known or assumed promised: by the party — a requester of
///   `f` whose symbol `f`'s guard reads — or by a grant of a literal the
///   actor asked a promise of, which must itself be one that grants
///   early.
///
/// Each guard is read as the masks it may hold on each symbol
/// ([`reachable`]). A guard reads only symbols its actor subscribes to,
/// so there are at most `pairs` (actor, symbol) pairs, the subscriptions.
/// Two vectors are allocated: the masks and the answer.
pub(crate) fn early_grants(
    compiled: &CompiledWorkflow,
    pairs: usize,
    literals: usize,
    triggerable: impl Fn(Literal) -> bool,
) -> Vec<bool> {
    let agreement = asking(|(_, agree)| agree.is_some());
    let promise = [Polarity::Pos, Polarity::Neg].map(|pol| asking(|(p, _)| p == Some(pol)));
    let asks_promise = |set: MaskSet, l: Literal| set & promise[l.polarity() as usize] != 0;
    // (actor's symbol, symbol, the masks each literal of the actor may
    // hold on the symbol, positive first), sorted, one per pair. The
    // guards come in literal order, so each actor's cells are one run.
    let mut cells: Vec<(SymbolId, SymbolId, [MaskSet; 2])> = Vec::with_capacity(pairs);
    let mut run = 0;
    for (lit, guard) in &compiled.guards {
        let (a, pol) = (lit.symbol(), lit.polarity() as usize);
        if cells.get(run).is_some_and(|c| c.0 != a) {
            cells[run..].sort_unstable_by_key(|c| c.1);
            run = cells.len();
        }
        for c in guard.factors().iter().flat_map(Guard::conjuncts) {
            weakened_masks(c, |s, m| match cells[run..].iter_mut().find(|c| c.1 == s) {
                Some(cell) => cell.2[pol] |= 1 << m,
                None => {
                    let mut sets = [0; 2];
                    sets[pol] = 1 << m;
                    cells.push((a, s, sets));
                }
            });
        }
    }
    cells[run..].sort_unstable_by_key(|c| c.1);
    for cell in &mut cells {
        cell.2 = cell.2.map(reachable);
    }
    let reads = |l: Literal, s: SymbolId| {
        let at = cells.binary_search_by_key(&(l.symbol(), s), |c| (c.0, c.1));
        at.is_ok_and(|at| cells[at].2[l.polarity() as usize] != 0)
    };
    let mut early: Vec<bool> = (0..literals).map(|v| triggerable(Literal::from_index(v))).collect();
    for &(a, s, sets) in &cells {
        for (t, set) in [Literal::pos(a), Literal::neg(a)].into_iter().zip(sets) {
            if set & agreement != 0 {
                // `s` may be held; `t` may meet a not-yet-style mask.
                early[Literal::pos(s).index()] = true;
                early[Literal::neg(s).index()] = true;
                early[t.index()] = true;
            }
        }
    }
    for &(a, s, sets) in &cells {
        for l in [Literal::pos(s), Literal::neg(s)] {
            // `a` may ask `l` for a promise, and `l`'s guard may read
            // the requester's `◇`, which the grant assumes.
            let asked = asks_promise(sets[0] | sets[1], l);
            if !early[l.index()] && asked && reads(l, a) {
                early[l.index()] = true;
            }
        }
    }
    // A grant from an early granter is a fact the actor may hear.
    loop {
        let mut grew = false;
        for &(a, s, sets) in &cells {
            let granted = |l: Literal| early[l.index()] && asks_promise(sets[0] | sets[1], l);
            if granted(Literal::pos(s)) || granted(Literal::neg(s)) {
                for (t, set) in [Literal::pos(a), Literal::neg(a)].into_iter().zip(sets) {
                    if set != 0 && !early[t.index()] {
                        early[t.index()] = true;
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    early
}

/// Counters describing one actor's activity.
#[derive(Debug, Clone, Default)]
pub struct ActorStats {
    /// Attempts received.
    pub attempts: u64,
    /// Attempts granted (event occurred by acceptance).
    pub granted: u64,
    /// Attempts rejected (guard died) — the complement occurred.
    pub rejected: u64,
    /// Announcements sent.
    pub announces_out: u64,
    /// Promises granted to other events.
    pub promises_granted: u64,
    /// Promise requests sent.
    pub promises_requested: u64,
    /// Not-yet holds granted.
    pub holds_granted: u64,
    /// Guard reductions performed.
    pub reductions: u64,
    /// Triggers sent to the agent.
    pub triggers: u64,
    /// Retired, always 0: no promise round is aborted — a round stays
    /// open until it is granted or denied, and a lost request or answer
    /// is the transport's to recover. The field exists because the
    /// benchmark reads it (`dist.promise_abort_share`).
    pub promise_aborts: u64,
    /// The most conjuncts any factor of this actor's two guards had
    /// after a reduction: what a cold reduction's work grows with. A
    /// guard multiplied out shows here as the product of its factors'.
    pub widest_factor: usize,
    /// Virtual time the first attempt parked, if it ever parked.
    pub first_parked_at: Option<Time>,
}

/// Per-polarity scheduling state. Everything here describes one
/// instance; the sets are sorted vectors, so a reset keeps their buffers.
#[derive(Debug, Clone)]
pub struct LitState {
    /// Event attributes.
    pub attrs: EventAttrs,
    /// An agent has requested this event and awaits a decision.
    pub attempted: bool,
    /// The attempt was forced by the rejection of the complement
    /// (Section 3.3(c)) rather than requested by an agent.
    pub forced: bool,
    /// The guard reduced to `0`: this literal can never occur.
    pub dead: bool,
    /// The actor promised `◇lit` to some requester: the event is obligated.
    pub promised_out: bool,
    /// Promise requests currently in flight (targets).
    pub requested_promises: SortedSet<Literal>,
    /// Not-yet queries in flight (target symbols).
    pub notyet_pending: SortedSet<SymbolId>,
    /// Symbols currently holding still for us (granted not-yet).
    pub notyet_granted: SortedSet<SymbolId>,
    /// A trigger has been sent to the agent for this literal.
    pub triggered: bool,
}

impl LitState {
    fn new(attrs: EventAttrs) -> LitState {
        LitState {
            attrs,
            attempted: false,
            forced: false,
            dead: false,
            promised_out: false,
            requested_promises: SortedSet::new(),
            notyet_pending: SortedSet::new(),
            notyet_granted: SortedSet::new(),
            triggered: false,
        }
    }

    /// Back to the state [`LitState::new`] builds.
    fn reset(&mut self) {
        self.attempted = false;
        self.forced = false;
        self.dead = false;
        self.promised_out = false;
        self.requested_promises.clear();
        self.notyet_pending.clear();
        self.notyet_granted.clear();
        self.triggered = false;
    }
}

/// The actor managing one symbol's event and complement.
///
/// An actor is built once per instance slot and serves the slot's
/// instances one after another: [`SymbolActor::reset`] returns everything
/// that describes an instance to its initial value and keeps every
/// buffer, so a warm actor handles its messages without touching the
/// allocator. What is not reset is the template part (symbol, attributes,
/// routing), the monitor handle the slot arms and the guard table, which
/// is a cache.
#[derive(Debug, Clone)]
pub struct SymbolActor {
    /// The symbol this actor owns.
    pub sym: SymbolId,
    /// The occurrence, once decided: (literal, time, global sequence).
    pub occurred: Option<(Literal, Time, u64)>,
    /// Scheduling state for the positive and negative literal.
    pub pos: LitState,
    /// See [`SymbolActor::pos`].
    pub neg: LitState,
    /// Residual tracker of every dependency mentioning this symbol
    /// (`(dep index, tracker)`) — drives triggering and forced acceptance.
    pub dep_residuals: Vec<(usize, DepTracker)>,
    /// The guards: the fact sets heard on each compiled factor's
    /// symbols, and the guard at every fact set this actor has met.
    memo: GuardMemo,
    /// Occurrence facts seen, by global sequence: the order the
    /// dependency residuals are stepped in.
    facts_seen: SortedMap<u64, Literal>,
    /// Highest fact sequence the residuals have been stepped past.
    applied_up_to: u64,
    /// Requesters currently holding this symbol still.
    pub holds: SortedSet<Literal>,
    /// Promise requests that could not be decided yet (the event is not
    /// attempted, or its guard is not dischargeable under the assumption
    /// so far); re-examined whenever this actor's state advances.
    pending_requests: SortedSet<(Literal, Literal)>,
    /// Buffers for what a handler works through while it changes the
    /// sets it took them from — the requests [`SymbolActor::pursue_needs`]
    /// sends, the party of a promise round or the holds to release, the
    /// held requests being re-examined. Empty between handlers.
    asks: Vec<Need>,
    /// See [`SymbolActor::asks`].
    lits: Vec<Literal>,
    /// See [`SymbolActor::asks`].
    held: Vec<(Literal, Literal)>,
    /// Shared routing.
    pub routing: Arc<Routing>,
    /// Activity counters.
    pub stats: ActorStats,
    /// Fused monitor handle (off by default): the scheduler steps the
    /// armed monitor directly at each transition an offline replay
    /// reconstructs from trace spans — occurrences, announced facts
    /// applied, enabled guard verdicts that wait on a hold, and
    /// promise-round phases — once per fact.
    /// Costs nothing when `None`, and nothing extra when armed: no
    /// trace-event payload is constructed on this path.
    pub mon: Option<Arc<WorkflowMonitor>>,
}

impl SymbolActor {
    /// Create the actor for `sym` with compiled guards and attributes for
    /// both polarities, plus the dependencies mentioning the symbol.
    pub fn new(
        sym: SymbolId,
        pos_guard: &FactoredGuard,
        neg_guard: &FactoredGuard,
        pos_attrs: EventAttrs,
        neg_attrs: EventAttrs,
        deps: Vec<(usize, DepTracker)>,
        routing: Arc<Routing>,
    ) -> SymbolActor {
        SymbolActor {
            sym,
            occurred: None,
            pos: LitState::new(pos_attrs),
            neg: LitState::new(neg_attrs),
            dep_residuals: deps,
            memo: GuardMemo::new(pos_guard, neg_guard),
            facts_seen: SortedMap::new(),
            applied_up_to: 0,
            holds: SortedSet::new(),
            pending_requests: SortedSet::new(),
            asks: Vec::new(),
            lits: Vec::new(),
            held: Vec::new(),
            routing,
            stats: ActorStats::default(),
            mon: None,
        }
    }

    /// Forget the instance served so far: the actor is again what
    /// [`SymbolActor::new`] built, with the configuration set on it
    /// since, ready for the next instance of the same template.
    pub fn reset(&mut self) {
        self.occurred = None;
        self.pos.reset();
        self.neg.reset();
        for (_, t) in &mut self.dep_residuals {
            t.reset();
        }
        self.memo.reset();
        self.facts_seen.clear();
        self.applied_up_to = 0;
        self.holds.clear();
        self.pending_requests.clear();
        self.stats = ActorStats::default();
    }

    /// The ordered occurrence facts this actor has recorded, as
    /// `(global sequence, literal)` in sequence order — exposed so
    /// harnesses can check that no two actors diverge on what occurred
    /// (`□e`/`□ē` consistency).
    pub fn facts(&self) -> &[(u64, Literal)] {
        &self.facts_seen
    }

    /// The current (reduced) guard of `lit` with what the actor derives
    /// from it.
    pub fn guard_info(&self, lit: Literal) -> GuardInfo<'_> {
        self.memo.get(lit.polarity())
    }

    /// Add `fact` to both guards' fact sets, and count the widest factor
    /// from the ones it moved. A factor the fact left where it was had its
    /// width counted at the reduction before, and a guard with a dead
    /// factor (which stays dead) counts none, so a guard is measured whole
    /// only at the first reduction, or when a moved factor might widen
    /// the count.
    fn reduce_guards(&mut self, fact: Fact) {
        let moved = self.memo.reduce(fact);
        let counted = self.stats.widest_factor;
        for (lit, moved) in [Literal::pos(self.sym), Literal::neg(self.sym)].into_iter().zip(moved)
        {
            if counted == 0 || moved > counted {
                let width = self.guard_info(lit).width();
                self.stats.widest_factor = self.stats.widest_factor.max(width);
            }
        }
    }

    fn lit_state(&mut self, lit: Literal) -> &mut LitState {
        debug_assert_eq!(lit.symbol(), self.sym);
        match lit.polarity() {
            Polarity::Pos => &mut self.pos,
            Polarity::Neg => &mut self.neg,
        }
    }

    fn lit_state_ref(&self, lit: Literal) -> &LitState {
        match lit.polarity() {
            Polarity::Pos => &self.pos,
            Polarity::Neg => &self.neg,
        }
    }

    /// Handle one protocol message, pushing outgoing messages through
    /// `ctx`.
    pub fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Attempt { lit } => self.on_attempt(ctx, lit),
            Msg::Inform { lit } => self.on_inform(ctx, lit),
            Msg::Announce { lit, seq } => self.on_announce(ctx, lit, seq),
            Msg::PromiseRequest { lit, for_lit } => self.on_promise_request(ctx, lit, for_lit),
            Msg::PromiseGrant { lit } => self.on_promise_grant(ctx, lit),
            Msg::PromiseDeny { lit } => self.on_promise_deny(lit),
            Msg::NotYetQuery { lit, for_lit } => self.on_notyet_query(ctx, lit, for_lit),
            Msg::NotYetGrant { lit } => self.on_notyet_grant(ctx, lit),
            Msg::NotYetDeny { lit } => self.on_notyet_deny(lit),
            Msg::Release { .. } => self.on_release(ctx, from),
            other => panic!("actor for {:?} received non-actor message {other:?}", self.sym),
        }
    }

    // ----- agent-facing -----

    fn on_attempt(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        self.stats.attempts += 1;
        ctx.rec(SpanKind::Attempt { lit: olit(lit) });
        if let Some((occ, _, _)) = self.occurred {
            let reply = if occ == lit { Msg::Granted { lit } } else { Msg::Rejected { lit } };
            self.reply_agent(ctx, reply);
            return;
        }
        self.lit_state(lit).attempted = true;
        self.evaluate(ctx, lit);
        self.service_pending_requests(ctx);
    }

    fn on_inform(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        // Immediate events: the scheduler has no choice but to accept
        // (Section 3.3) — unless the symbol already resolved (duplicate
        // inform after a rejection-induced complement), which is ignored.
        if self.occurred.is_none() {
            self.occur(ctx, lit, false, None);
        }
    }

    // ----- facts -----

    fn on_announce(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal, seq: u64) {
        if self.facts_seen.insert(seq, lit).is_some() {
            return; // duplicate
        }
        ctx.rec(SpanKind::FactApplied { lit: olit(lit), seq });
        if let Some(m) = &self.mon {
            m.on_fact_applied(ctx.now(), ctx.self_id.0, olit(lit), seq);
        }
        // The announcement ends every exchange about its symbol: the
        // holds kept for it (it sends no `Release` after it occurs), the
        // queries and holds asked of it, and the promises asked of either
        // literal (no other answer to them will come).
        let sym = lit.symbol();
        self.holds.retain(|h| h.symbol() != sym);
        for st in [&mut self.pos, &mut self.neg] {
            st.notyet_granted.remove(&sym);
            st.notyet_pending.remove(&sym);
            st.requested_promises.retain(|l| l.symbol() != sym);
        }
        self.apply_facts(ctx, seq, lit);
        self.after_fact(ctx);
    }

    /// Whether this actor has heard an occurrence of `sym`.
    fn heard(&self, sym: SymbolId) -> bool {
        self.facts_seen.iter().any(|&(_, l)| l.symbol() == sym)
    }

    fn on_promise_grant(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        if !self.memo.knows_eventually(lit) {
            ctx.rec(SpanKind::PromiseCommit { lit: olit(lit) });
            if let Some(m) = &self.mon {
                m.on_promise_commit(ctx.now(), ctx.self_id.0, olit(lit));
            }
            self.reduce_guards(Fact::Promised(lit));
            self.stats.reductions += 2;
        }
        for l in [Literal::pos(self.sym), Literal::neg(self.sym)] {
            self.lit_state(l).requested_promises.remove(&lit);
        }
        self.after_fact(ctx);
    }

    fn on_promise_deny(&mut self, lit: Literal) {
        for l in [Literal::pos(self.sym), Literal::neg(self.sym)] {
            self.lit_state(l).requested_promises.remove(&lit);
        }
        // The need stays; a later fact arrival re-evaluates and may retry.
    }

    /// Fold the occurrence `lit`, just recorded under `seq`, into both
    /// guards and the dependency residuals. The guards take it in place,
    /// whatever its sequence: a guard is a function of the fact set (see
    /// `memo.rs`). The
    /// residuals of a sequence dependency do not commute, so a fact that
    /// arrives below one already applied (possible across links with
    /// independent latencies) resets them and replays the ordered log.
    fn apply_facts(&mut self, ctx: &mut Ctx<'_, Msg>, seq: u64, lit: Literal) {
        self.reduce_guards(Fact::Occurred(lit));
        self.stats.reductions += 2;
        if seq < self.applied_up_to {
            // Residual steps are not re-recorded — the replay re-derives
            // state already captured by earlier `DepStep` spans. Our own
            // occurrence, if any, is in the log too.
            for (_, t) in &mut self.dep_residuals {
                t.reset();
                for &(_, l) in self.facts_seen.iter() {
                    t.step(l);
                }
            }
            return;
        }
        self.applied_up_to = seq;
        self.step_residuals(ctx, lit);
    }

    /// Step every dependency residual past `lit`, recording each step.
    fn step_residuals(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        for (_, t) in &mut self.dep_residuals {
            t.step(lit);
        }
        if ctx.recording() {
            for (ix, t) in &self.dep_residuals {
                let (state, live) = t.obs_state();
                ctx.rec(SpanKind::DepStep { dep: *ix as u32, input: olit(lit), state, live });
            }
        }
    }

    /// After any new information: re-evaluate parked attempts, check
    /// triggering and service held promise requests.
    fn after_fact(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.occurred.is_none() {
            for lit in [Literal::pos(self.sym), Literal::neg(self.sym)] {
                if self.lit_state_ref(lit).attempted {
                    self.evaluate(ctx, lit);
                    if self.occurred.is_some() {
                        break;
                    }
                }
            }
        }
        self.check_triggering(ctx);
        self.service_pending_requests(ctx);
    }

    /// Trigger a triggerable own literal that has become *required*: every
    /// remaining satisfying completion of some dependency contains it.
    /// With an agent, the trigger is sent there (the agent performs the
    /// task action); an agent-less free event is self-attempted — the
    /// scheduler causes it directly, its guard still governing the
    /// timing.
    fn check_triggering(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.occurred.is_some() {
            return;
        }
        let agent = self.routing.agent_of.get(&self.sym).copied();
        for lit in [Literal::pos(self.sym), Literal::neg(self.sym)] {
            let st = self.lit_state_ref(lit);
            // Positives are proactively caused only when triggerable;
            // complements may be decided by the scheduler whenever the
            // positive was never attempted.
            let eligible = if lit.is_pos() {
                st.attrs.triggerable
            } else {
                !self.lit_state_ref(lit.complement()).attempted
            };
            if !eligible || st.triggered || st.attempted {
                continue;
            }
            let required = self.dep_residuals.iter().any(|(_, t)| t.requires(lit));
            if required {
                // A required *complement* with the positive unattempted
                // is decided by the scheduler directly (a proactive
                // Section 3.3(c) rejection: every satisfying completion
                // rules the event out). A required positive goes to the
                // agent when one exists; free events self-attempt.
                let force_here = agent.is_none()
                    || (!lit.is_pos() && !self.lit_state_ref(lit.complement()).attempted);
                self.lit_state(lit).triggered = true;
                self.stats.triggers += 1;
                ctx.rec(SpanKind::Triggered { lit: olit(lit) });
                if force_here {
                    let st = self.lit_state(lit);
                    st.attempted = true;
                    st.forced = true;
                    self.evaluate(ctx, lit);
                    if self.occurred.is_some() {
                        break;
                    }
                } else if let Some(agent) = agent {
                    ctx.send(agent, Msg::Trigger { lit });
                }
            }
        }
    }

    // ----- evaluation -----

    /// Whether `lit` may occur now, as its guard table decides it under
    /// the not-yet holds granted to `lit`.
    fn guard_enabled(&mut self, lit: Literal) -> bool {
        let (pos, neg) = (&self.pos.notyet_granted, &self.neg.notyet_granted);
        self.memo.enabled(lit.polarity(), if lit.is_pos() { pos } else { neg })
    }

    /// Record a guard-evaluation span: the verdict, the residual guard's
    /// fingerprint, and the ordered occurrence facts folded into the
    /// guard so far — the facts the causal-consistency audit traces back
    /// to their establishing occurrences.
    fn rec_guard_eval(
        &self,
        ctx: &mut Ctx<'_, Msg>,
        lit: Literal,
        verdict: Verdict,
    ) -> Option<SpanId> {
        if !ctx.recording() {
            return None;
        }
        let facts: Vec<obs::Fact> = self
            .facts_seen
            .iter()
            .map(|&(seq, l)| obs::Fact { seq, lit: olit(l), at: 0 })
            .collect();
        let residual = self.guard_info(lit).fingerprint();
        ctx.rec(SpanKind::GuardEval { lit: olit(lit), verdict, residual, facts })
    }

    /// Decide an attempted literal: occur, reject, or park and pursue the
    /// outstanding needs (promises / not-yet agreements).
    fn evaluate(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        if self.occurred.is_some() {
            return;
        }
        let held = !self.holds.is_empty();
        let st = self.lit_state_ref(lit);
        // Scheduler-forced literals (required complements, self-triggered
        // free events) are decided by residual acceptance — Section 3.4's
        // criterion over the dependencies this actor tracks — rather than
        // guard coverage: their occurrence was already established as
        // *required*, so the only question is the timing.
        if st.forced && !held {
            let acceptable = self.dep_residuals.iter().all(|(_, t)| t.live_after(lit));
            if acceptable {
                let span = self.rec_guard_eval(ctx, lit, Verdict::Enabled);
                self.occur(ctx, lit, true, span);
                return;
            }
        }
        match self.guard_info(lit).status() {
            GuardStatus::Dead => {
                self.rec_guard_eval(ctx, lit, Verdict::Dead);
                self.lit_state(lit).dead = true;
                self.reject(ctx, lit);
            }
            _ if self.guard_enabled(lit) => {
                let span = self.rec_guard_eval(ctx, lit, Verdict::Enabled);
                if !held {
                    self.occur(ctx, lit, true, span);
                } else if let Some(m) = &self.mon {
                    // Held: wait for Release, then re-evaluate. Only this
                    // verdict arms the fused monitor's enabled-but-unfired
                    // watch: one that occurs in the same handler would
                    // open and close it at a tick already swept.
                    m.on_guard_enabled(ctx.now(), ctx.self_id.0, olit(lit));
                }
            }
            _ => {
                self.rec_guard_eval(ctx, lit, Verdict::Parked);
                if self.stats.first_parked_at.is_none() {
                    self.stats.first_parked_at = Some(ctx.now());
                    ctx.rec(SpanKind::Parked { lit: olit(lit) });
                }
                self.pursue_needs(ctx, lit);
            }
        }
    }

    /// Send the protocol messages needed to unblock `lit`, across all
    /// conjuncts (spurious paths are suppressed at the *grant* side: a
    /// promise to an unattempted triggerable event is given only when the
    /// event is required — see [`SymbolActor::try_grant`]).
    fn pursue_needs(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        // Decide what to ask for before asking for anything: a request
        // sent changes the sets the next one is checked against.
        let mut to_send = std::mem::take(&mut self.asks);
        {
            let st = self.lit_state_ref(lit);
            let wanted = |need: &&Need| match need {
                // Skip promises already in flight, promises already
                // granted — a constraint that survives a known promise
                // (e.g. the {D} mask ◇l̄∧¬l̄) needs an agreement or an
                // occurrence, not the same promise again — and promises
                // nobody can grant before the event occurs, whose answer
                // is the announcement this actor hears anyway.
                Need::Promise(f) => {
                    !st.requested_promises.contains(f)
                        && !self.memo.knows_eventually(*f)
                        && self.routing.may_grant_early(*f)
                }
                Need::NotYetAgreement(f) => {
                    !st.notyet_pending.contains(&f.symbol())
                        && !st.notyet_granted.contains(&f.symbol())
                }
            };
            // The factors' asks, merged: they are about disjoint symbols.
            for asks in self.guard_info(lit).factor_asks() {
                to_send.extend(asks.iter().filter(wanted).cloned());
            }
            to_send.sort_by_key(ask_order);
        }
        for need in to_send.drain(..) {
            match need {
                Need::Promise(f) => {
                    let target = self.routing.actor_of[f.symbol()];
                    ctx.rec(SpanKind::PromiseOpen { lit: olit(f), for_lit: olit(lit) });
                    if let Some(m) = &self.mon {
                        m.on_promise_open(ctx.now(), ctx.self_id.0, olit(f));
                    }
                    self.lit_state(lit).requested_promises.insert(f);
                    self.stats.promises_requested += 1;
                    ctx.send(target, Msg::PromiseRequest { lit: f, for_lit: lit });
                }
                Need::NotYetAgreement(f) => {
                    let target = self.routing.actor_of[f.symbol()];
                    self.lit_state(lit).notyet_pending.insert(f.symbol());
                    ctx.send(target, Msg::NotYetQuery { lit: f, for_lit: lit });
                }
            }
        }
        self.asks = to_send;
    }

    // ----- occurrence / rejection -----

    /// The event occurs: record, notify the agent (if it asked), announce
    /// to subscribers, which ends the holds we had requested, and hold
    /// still for nobody. The occurrence span is parented under the guard
    /// evaluation that justified it (`eval_span`), falling back to the
    /// delivery for informs.
    fn occur(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        lit: Literal,
        by_acceptance: bool,
        eval_span: Option<SpanId>,
    ) {
        debug_assert!(self.occurred.is_none());
        let at = ctx.now();
        let seq = ctx.delivery_seq();
        self.occurred = Some((lit, at, seq));
        // A decided symbol holds still for nobody (only an inform occurs
        // while held), and a requester that hears this decision before it
        // occurs no longer announces to us, which is what ended a hold.
        self.holds.clear();
        let kind = SpanKind::Occurred { lit: olit(lit), seq, by_acceptance };
        match eval_span {
            Some(p) => ctx.rec_under(p, kind),
            None => ctx.rec(kind),
        };
        if let Some(m) = &self.mon {
            m.on_occurrence(at, ctx.self_id.0, olit(lit), seq);
        }
        if by_acceptance {
            self.stats.granted += 1;
        }
        // Record our own occurrence in the ordered fact log (a late
        // fact's residual replay steps it) and advance the residuals now.
        self.facts_seen.insert(seq, lit);
        self.applied_up_to = self.applied_up_to.max(seq);
        // The fused monitor took this fact with the occurrence above.
        ctx.rec(SpanKind::FactApplied { lit: olit(lit), seq });
        self.step_residuals(ctx, lit);
        let st = self.lit_state_ref(lit);
        if st.attempted && !st.forced {
            self.reply_agent(ctx, Msg::Granted { lit });
        }
        let other = lit.complement();
        let ost = self.lit_state_ref(other);
        if ost.attempted && !ost.forced {
            self.reply_agent(ctx, Msg::Rejected { lit: other });
        }
        self.announce(ctx, lit, seq);
        self.forget_requested_holds();
        self.check_triggering(ctx);
    }

    /// The guard on an attempted event died: reject it. By Section 3.3(c),
    /// rejecting an attempted event makes its complement occur — but the
    /// complement's *own* guard still governs the timing, so the
    /// complement is force-attempted through the normal machinery rather
    /// than occurring unconditionally. If both polarities are dead the
    /// workflow is jointly contradictory for this symbol and it stays
    /// unresolved (reported by the executor).
    fn reject(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        self.stats.rejected += 1;
        ctx.rec(SpanKind::Rejected { lit: olit(lit) });
        let was_forced = self.lit_state_ref(lit).forced;
        self.lit_state(lit).attempted = false;
        if !was_forced {
            self.reply_agent(ctx, Msg::Rejected { lit });
        }
        self.release_all_requested(ctx);
        let c = lit.complement();
        if self.occurred.is_none() && !self.lit_state_ref(c).dead {
            let st = self.lit_state(c);
            st.attempted = true;
            st.forced = true;
            self.evaluate(ctx, c);
        }
    }

    /// `□lit` to every subscriber not heard decided. A guard needs the
    /// fact only while its own event is undecided, and a decision is
    /// final (and logged ahead, so a restart keeps it): a subscriber
    /// whose announcement this actor has heard waits on nothing.
    fn announce(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal, seq: u64) {
        for &(node, sub) in self.routing.subscribers_of.get(&self.sym).into_iter().flatten() {
            if node != ctx.self_id && !self.heard(sub) {
                self.stats.announces_out += 1;
                ctx.send(node, Msg::Announce { lit, seq });
            }
        }
    }

    /// Forget every hold we were granted or asked for, after our
    /// occurrence: its announcement ends them at their keepers, and a
    /// keeper it skips, heard decided, ended them when it occurred. A
    /// keeper's symbol is one our guard reads, so the two share a
    /// dependency and the keeper subscribes to us.
    fn forget_requested_holds(&mut self) {
        for st in [&mut self.pos, &mut self.neg] {
            for &t in st.notyet_granted.iter().chain(st.notyet_pending.iter()) {
                let keeper = self.routing.actor_of[t];
                debug_assert!(
                    self.routing.subscribes(self.sym, keeper),
                    "keeper {} of a hold for {:?} does not subscribe to it",
                    keeper.0,
                    self.sym
                );
            }
            st.notyet_granted.clear();
            st.notyet_pending.clear();
        }
    }

    /// Release every hold we were granted or asked for (we rejected, and
    /// no announcement of ours may follow): one message per symbol, in
    /// symbol order.
    fn release_all_requested(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut held = std::mem::take(&mut self.lits);
        for st in [&mut self.pos, &mut self.neg] {
            let asked = st.notyet_granted.iter().chain(st.notyet_pending.iter());
            held.extend(asked.map(|&t| Literal::pos(t)));
            st.notyet_granted.clear();
            st.notyet_pending.clear();
        }
        held.sort_unstable();
        held.dedup();
        for lit in held.drain(..) {
            ctx.send(self.routing.actor_of[lit.symbol()], Msg::Release { lit });
        }
        self.lits = held;
    }

    fn reply_agent(&self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        if let Some(&agent) = self.routing.agent_of.get(&self.sym) {
            ctx.send(agent, msg);
        }
    }

    /// Whether our symbol is decided, in which case the occurrence's
    /// announcement, which [`SymbolActor::announce`] sent once to every
    /// subscriber not heard decided, is the only answer to `requester`'s
    /// request about it, whichever literal it asks about: a requester
    /// asks only about symbols its guard mentions, and the routing
    /// subscribes it to exactly those; one heard decided waits on
    /// nothing.
    fn answered_by_announcement(&self, requester: NodeId) -> bool {
        debug_assert!(
            self.occurred.is_none() || self.routing.subscribes(self.sym, requester),
            "node {} asked about {:?} without subscribing to it",
            requester.0,
            self.sym
        );
        self.occurred.is_some()
    }

    // ----- promise protocol (Example 11) -----

    fn on_promise_request(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal, for_lit: Literal) {
        if !self.answer_promise(ctx, lit, for_lit) {
            // Undecidable yet (e.g. the event's own attempt is still in
            // flight): hold the request and re-examine as our state
            // advances.
            self.pending_requests.insert((lit, for_lit));
        }
    }

    /// Answer `for_lit`'s request for `◇lit`, or return `false` to leave
    /// it open: a decided symbol answers by its announcement, a dead
    /// literal by a denial, and a grantable one by a grant.
    fn answer_promise(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal, for_lit: Literal) -> bool {
        let requester = self.routing.actor_of[&for_lit.symbol()];
        if self.answered_by_announcement(requester) {
            true
        } else if self.lit_state_ref(lit).dead {
            // The fused monitor closes the requester's round here.
            ctx.rec(SpanKind::PromiseDeny { lit: olit(lit), to: requester.0 });
            if let Some(m) = &self.mon {
                m.on_promise_deny(ctx.now(), requester.0, olit(lit));
            }
            ctx.send(requester, Msg::PromiseDeny { lit });
            true
        } else {
            self.try_grant(ctx, lit, for_lit)
        }
    }

    /// Grant `◇lit` to `for_lit`'s actor if we can guarantee the event:
    /// it is attempted or triggerable, and its guard — assuming the
    /// requester's eventual occurrence — is *eventually discharged*
    /// ([`GuardMemo::grantable`]).
    fn try_grant(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal, for_lit: Literal) -> bool {
        let st = self.lit_state_ref(lit);
        // An attempted event can be guaranteed outright. A triggerable
        // event can always be guaranteed: the scheduler holds the trigger
        // and the residual-driven backstop (check_triggering) fires it if
        // the obligation ever becomes *required* — so the promise is a
        // deferred obligation, and alternative disjuncts (compensation
        // tasks) do not run unless unavoidable (Section 6).
        let can_happen = st.attempted || st.attrs.triggerable;
        // Multi-party consensus (Example 11 generalized): the assumption
        // set includes *every* requester currently waiting on this
        // literal — a fork/join's two branch commits jointly assume each
        // other through the join's promise, and all grants go out
        // together as one mutual commitment.
        let mut party = std::mem::take(&mut self.lits);
        party.extend(self.pending_requests.iter().filter(|(l, _)| *l == lit).map(|&(_, f)| f));
        if let Err(at) = party.binary_search(&for_lit) {
            party.insert(at, for_lit);
        }
        let granted = can_happen && self.memo.grantable(lit.polarity(), &party);
        if granted {
            self.lit_state(lit).promised_out = true;
            for &p in &party {
                let requester = self.routing.actor_of[p.symbol()];
                self.stats.promises_granted += 1;
                ctx.rec(SpanKind::PromiseGrant { lit: olit(lit), to: requester.0 });
                ctx.send(requester, Msg::PromiseGrant { lit });
                self.pending_requests.remove(&(lit, p));
            }
        }
        party.clear();
        self.lits = party;
        granted
    }

    /// Re-examine held promise requests after any state change: drop
    /// those our announcement answers, deny those that became impossible,
    /// grant the now-grantable, keep the rest.
    fn service_pending_requests(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // A snapshot: a grant answers its whole party, and the loop still
        // visits the requests it took out from under it.
        if self.pending_requests.is_empty() {
            return;
        }
        let mut held = std::mem::take(&mut self.held);
        held.extend_from_slice(&self.pending_requests);
        for (lit, for_lit) in held.drain(..) {
            if self.answer_promise(ctx, lit, for_lit) {
                self.pending_requests.remove(&(lit, for_lit));
            }
        }
        self.held = held;
    }

    // ----- not-yet agreement -----

    fn on_notyet_query(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal, for_lit: Literal) {
        if self.heard(for_lit.symbol()) {
            // A query its sender's occurrence overtook (a retransmission):
            // the sender no longer waits for an answer, and a hold granted
            // now would outlive its announcement.
            return;
        }
        let requester = self.routing.actor_of[&for_lit.symbol()];
        if self.answered_by_announcement(requester) {
            return;
        }
        // Priority: when the two events have not-yet needs *on each
        // other* (a direct agreement cycle, e.g. a mutual-exclusion
        // specification), the smaller symbol id wins and the larger
        // requester must yield — mutual holds would deadlock. Queries
        // between unrelated events are always granted: holding still for
        // a requester we do not ourselves ¬-depend on cannot close a
        // two-cycle.
        let competing = self.pos.notyet_pending.contains(&for_lit.symbol())
            || self.neg.notyet_pending.contains(&for_lit.symbol());
        if competing && self.sym < for_lit.symbol() {
            ctx.send(requester, Msg::NotYetDeny { lit });
            return;
        }
        self.holds.insert(for_lit);
        self.stats.holds_granted += 1;
        ctx.send(requester, Msg::NotYetGrant { lit });
    }

    /// Every grant is used or ended by its receiver. A grant neither
    /// literal waits for or holds answers a query that our decision or a
    /// restart overtook. If we occurred, the granter handled the query
    /// before it heard our announcement (after it, it grants nothing),
    /// and the announcement, which reaches it as a subscriber, ends the
    /// hold: nothing to send. Otherwise the granter handled it after our
    /// `Release`, or we forgot the query when we restarted, and it is
    /// holding still for a requester that will never end the hold:
    /// release it now.
    fn on_notyet_grant(&mut self, ctx: &mut Ctx<'_, Msg>, lit: Literal) {
        let sym = lit.symbol();
        let asked =
            |st: &LitState| st.notyet_pending.contains(&sym) || st.notyet_granted.contains(&sym);
        if !asked(&self.pos) && !asked(&self.neg) {
            if self.occurred.is_none() {
                ctx.send(self.routing.actor_of[sym], Msg::Release { lit });
            }
            return;
        }
        for l in [Literal::pos(self.sym), Literal::neg(self.sym)] {
            let st = self.lit_state(l);
            if st.notyet_pending.remove(&sym) {
                st.notyet_granted.insert(sym);
            }
        }
        self.after_fact(ctx);
    }

    /// The keeper's symbol precedes ours and wants a hold from us too: we
    /// yield, and ask again on the next fact.
    fn on_notyet_deny(&mut self, lit: Literal) {
        for l in [Literal::pos(self.sym), Literal::neg(self.sym)] {
            self.lit_state(l).notyet_pending.remove(&lit.symbol());
        }
    }

    // ----- crash recovery -----

    /// Called by the executor after a crashed actor's state has been
    /// rebuilt by replaying its write-ahead log. The replay restores all
    /// volatile decision state, but anything this actor *sent* shortly
    /// before the crash may be lost along with the transport's
    /// retransmission buffer — so re-issue the durable obligations:
    ///
    /// - if our symbol resolved, re-announce the occurrence to every
    ///   subscriber not heard decided (receivers deduplicate by
    ///   occurrence sequence) and re-send the agent's
    ///   verdict (the agent ignores verdicts it is not waiting for);
    /// - otherwise, forget which promise requests and not-yet queries
    ///   were in flight (their fate is unknowable) and re-pursue from the
    ///   rebuilt guards — requests are idempotent at the granter.
    pub fn resume_after_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some((lit, _, seq)) = self.occurred {
            self.announce(ctx, lit, seq);
            let st = self.lit_state_ref(lit);
            if st.attempted && !st.forced {
                self.reply_agent(ctx, Msg::Granted { lit });
            }
            let other = lit.complement();
            let ost = self.lit_state_ref(other);
            if ost.attempted && !ost.forced {
                self.reply_agent(ctx, Msg::Rejected { lit: other });
            }
            return;
        }
        for l in [Literal::pos(self.sym), Literal::neg(self.sym)] {
            let st = self.lit_state(l);
            st.requested_promises.clear();
            st.notyet_pending.clear();
        }
        self.after_fact(ctx);
    }

    fn on_release(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId) {
        // Clear every hold whose requester lives at the releasing actor.
        let routing = &self.routing;
        self.holds.retain(|h| routing.actor_of.get(&h.symbol()) != Some(&from));
        if self.holds.is_empty() {
            self.after_fact(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal::Guard;

    #[test]
    fn lit_state_construction() {
        let g = Guard::eventually(Literal::pos(SymbolId(1)));
        let actor = SymbolActor::new(
            SymbolId(0),
            &g.clone().into(),
            &FactoredGuard::top(),
            EventAttrs::controllable(),
            EventAttrs::immediate(),
            Vec::new(),
            Arc::new(Routing::default()),
        );
        assert_eq!(actor.guard_info(Literal::pos(SymbolId(0))).guard(), g);
        assert_eq!(actor.guard_info(Literal::neg(SymbolId(0))).status(), GuardStatus::EnabledNow);
        assert!(!actor.pos.attempted);
        assert!(!actor.pos.promised_out);
    }
    // Full actor behavior is exercised through the executor integration
    // tests in `exec.rs` and `tests/` — the actor is meaningless without
    // a network around it.
}
