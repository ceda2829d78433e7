//! Announcement facts and what a guard still waits for (Section 4.3).
//!
//! When an event occurs, `□e` announcements flow to the actors of
//! dependent events; `◇e` promises flow during the consensus protocol.
//! The proof rules reduce a [`Guard`] by arriving [`Fact`]s, and they
//! depend only on which facts hold: each actor keeps the set of facts it
//! has heard on each guard factor's symbols, its guard is that factor at
//! the fact set ([`Guard::under`], tabulated per actor by `dist::memo`),
//! and it inspects the [`GuardStatus`] to decide whether to allow a
//! parked event, or the [`Need`]s to ask for.

use crate::guard_repr::{
    eventually_mask, not_yet_mask, occurred_mask, Conjunct, Guard, ST_A, ST_B, ST_C, ST_D,
};
use event_algebra::{Literal, Polarity};

/// A fact an actor can learn about another event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fact {
    /// `□l`: the event has occurred.
    Occurred(Literal),
    /// `◇l`: the event is guaranteed to occur (a promise).
    Promised(Literal),
}

impl Fact {
    /// The literal the fact is about.
    pub fn literal(self) -> Literal {
        match self {
            Fact::Occurred(l) | Fact::Promised(l) => l,
        }
    }

    /// The set of knowledge states (now or in the future) consistent with
    /// this fact.
    pub fn closure_mask(self) -> u8 {
        match self {
            Fact::Occurred(l) => occurred_mask(l.polarity()),
            Fact::Promised(l) => eventually_mask(l.polarity()),
        }
    }
}

/// The scheduling status of a guard after reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardStatus {
    /// Some conjunct is fully discharged: the event may occur now.
    EnabledNow,
    /// No conjunct is discharged, but some could still be: park.
    Blocked,
    /// Every conjunct is dead: the event may never occur.
    Dead,
}

/// Classify a (reduced) guard.
pub fn status(g: &Guard) -> GuardStatus {
    if g.holds_now() {
        GuardStatus::EnabledNow
    } else if g.is_bottom() {
        GuardStatus::Dead
    } else {
        GuardStatus::Blocked
    }
}

/// A single outstanding requirement of a blocked conjunct.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Need {
    /// Discharged by hearing `□l`.
    Occurrence(Literal),
    /// Discharged by a promise `◇l` (weaker than occurrence — preferred,
    /// because it can be granted before the event happens).
    Promise(Literal),
    /// Requires agreement that `l` has *not yet* occurred at the instant
    /// this event occurs (the `¬l` consensus of Section 4.3).
    NotYetAgreement(Literal),
    /// A residual `◇(l₁·…)` sequence: needs the head to occur first.
    SequenceHead(Literal),
}

/// For each conjunct of `g`, the facts that would discharge it — the
/// input to the promise/consensus protocol. Conjuncts are returned in
/// canonical order; an empty inner vector means the conjunct already
/// holds. A constraint may require several facts at once: the `{C}` mask
/// (`◇l ∧ ¬l`) needs a promise *and* a not-yet agreement.
pub fn needs(g: &Guard) -> Vec<Vec<Need>> {
    g.conjuncts()
        .iter()
        .map(|c| {
            let mut out = Vec::new();
            conjunct_needs(c, &mut out);
            out.sort();
            out.dedup();
            out
        })
        .collect()
}

/// The facts that would discharge one conjunct, appended to `out`
/// unsorted.
fn conjunct_needs(c: &Conjunct, out: &mut Vec<Need>) {
    for (s, m) in c.constrained_symbols() {
        let pos = Literal::pos(s);
        let neg = Literal::neg(s);
        // Choose the weakest discharging facts for the mask. An
        // exact ¬l mask uses the paper's not-yet agreement rather
        // than a promise of the complement: agreement does not
        // constrain the future of l's symbol.
        if m == not_yet_mask(Polarity::Pos) {
            out.push(Need::NotYetAgreement(pos));
        } else if m == not_yet_mask(Polarity::Neg) {
            out.push(Need::NotYetAgreement(neg));
        } else if eventually_mask(Polarity::Pos) & !m == 0 {
            out.push(Need::Promise(pos));
        } else if eventually_mask(Polarity::Neg) & !m == 0 {
            out.push(Need::Promise(neg));
        } else if occurred_mask(Polarity::Pos) & !m == 0 {
            out.push(Need::Occurrence(pos));
        } else if occurred_mask(Polarity::Neg) & !m == 0 {
            out.push(Need::Occurrence(neg));
        } else if m == ST_C {
            // ◇l ∧ ¬l: promised but not yet occurred at this
            // instant.
            out.push(Need::Promise(pos));
            out.push(Need::NotYetAgreement(pos));
        } else if m == ST_D {
            out.push(Need::Promise(neg));
            out.push(Need::NotYetAgreement(neg));
        } else if m == (ST_C | ST_D) {
            // ¬l ∧ ¬l̄: neither resolved yet at this instant.
            out.push(Need::NotYetAgreement(pos));
        } else {
            // Remaining composite masks (e.g. {A,B}): discharged
            // by an occurrence of whichever polarity the mask
            // admits as a final state.
            if m & ST_A != 0 {
                out.push(Need::Occurrence(pos));
            }
            if m & ST_B != 0 {
                out.push(Need::Occurrence(neg));
            }
        }
    }
    for seq in c.seq_atoms() {
        if let Some(&head) = seq.first() {
            out.push(Need::SequenceHead(head));
        }
    }
}

/// The order requests leave in: by literal, a promise before a not-yet
/// query about the same literal.
///
/// # Panics
///
/// On a passive need ([`Need::Occurrence`], [`Need::SequenceHead`]):
/// announcements discharge those, nobody asks for them.
pub fn ask_order(need: &Need) -> (Literal, bool) {
    match *need {
        Need::Promise(l) => (l, false),
        Need::NotYetAgreement(l) => (l, true),
        Need::Occurrence(_) | Need::SequenceHead(_) => unreachable!("passive needs are not asks"),
    }
}

/// The protocol requests that could unblock `g`: the [`Need::Promise`]
/// and [`Need::NotYetAgreement`] entries of [`needs`] over all conjuncts,
/// deduplicated, in [`ask_order`].
pub fn asks(g: &Guard) -> Vec<Need> {
    let mut out = Vec::new();
    for c in g.conjuncts() {
        conjunct_needs(c, &mut out);
    }
    // Occurrences and sequence heads are passive: announcements
    // discharge them.
    out.retain(|n| matches!(n, Need::Promise(_) | Need::NotYetAgreement(_)));
    out.sort_by_key(ask_order);
    out.dedup();
    out
}

/// The flattened, deduplicated requirements of a guard across all its
/// conjuncts — the edge set a static analyzer hangs a wait-for graph on.
/// Unlike [`needs`], which preserves the per-conjunct structure the
/// runtime protocol wants, this answers "which facts about which other
/// events does this guard mention at all".
pub fn need_edges(g: &Guard) -> Vec<Need> {
    let mut out: Vec<Need> = needs(g).into_iter().flatten().collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_algebra::SymbolTable;

    fn setup() -> (SymbolTable, Literal, Literal) {
        let mut t = SymbolTable::new();
        let e = t.event("e");
        let f = t.event("f");
        (t, e, f)
    }

    #[test]
    fn status_classification() {
        let (_, e, _) = setup();
        assert_eq!(status(&Guard::top()), GuardStatus::EnabledNow);
        assert_eq!(status(&Guard::bottom()), GuardStatus::Dead);
        assert_eq!(status(&Guard::occurred(e)), GuardStatus::Blocked);
    }

    #[test]
    fn example10_message_sequence() {
        // Guards from D< (Example 9): G(f) = ◇ē + □e. f is attempted
        // first: blocked. ē occurs, □ē arrives: enabled.
        let (_, e, _) = setup();
        let g_f = Guard::eventually(e.complement()).or(&Guard::occurred(e));
        assert_eq!(status(&g_f), GuardStatus::Blocked);
        let after = g_f.assume_occurred(e.complement());
        assert_eq!(status(&after), GuardStatus::EnabledNow);
    }

    #[test]
    fn needs_reports_weakest_discharging_facts() {
        let (_, e, f) = setup();
        // ◇f → a promise of f suffices.
        assert_eq!(needs(&Guard::eventually(f)), vec![vec![Need::Promise(f)]]);
        // □e → must hear the occurrence.
        assert_eq!(needs(&Guard::occurred(e)), vec![vec![Need::Occurrence(e)]]);
        // ¬f → not-yet agreement.
        assert_eq!(needs(&Guard::not_yet(f)), vec![vec![Need::NotYetAgreement(f)]]);
        // ◇ē + □e → two conjuncts... but they merge into one mask {A,B,D};
        // the mask is not dischargeable by a single promise, falls back to
        // reporting per the table.
        let g = Guard::eventually(e.complement()).or(&Guard::occurred(e));
        let n = needs(&g);
        assert_eq!(n.len(), g.conjuncts().len());
    }

    #[test]
    fn needs_empty_for_top() {
        assert_eq!(needs(&Guard::top()), vec![Vec::<Need>::new()]);
    }

    #[test]
    fn fact_closures() {
        let (_, e, _) = setup();
        assert_eq!(Fact::Occurred(e).closure_mask(), ST_A);
        assert_eq!(Fact::Promised(e).closure_mask(), ST_A | ST_C);
        assert_eq!(Fact::Occurred(e.complement()).closure_mask(), ST_B);
        assert_eq!(Fact::Promised(e.complement()).closure_mask(), ST_B | ST_D);
    }
}
