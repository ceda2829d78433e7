//! Announcement facts and what a guard still waits for (Section 4.3).
//!
//! When an event occurs, `□e` announcements flow to the actors of
//! dependent events; `◇e` promises flow during the consensus protocol.
//! The proof rules reduce a [`Guard`] by arriving [`Fact`]s, and they
//! depend only on which facts hold: each actor keeps the set of facts it
//! has heard on each guard factor's symbols, its guard is that factor at
//! the fact set ([`Guard::under`], tabulated per actor by `dist::memo`),
//! and it inspects the [`GuardStatus`] to decide whether to allow a
//! parked event, or the requests ([`asks`]) that could unblock it.

use crate::factored::FactoredGuard;
use crate::guard_repr::{
    eventually_mask, not_yet_mask, occurred_mask, Conjunct, Guard, ST_C, ST_D,
};
use event_algebra::{Literal, Polarity};
use std::borrow::Cow;

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

/// A protocol request that could discharge a constraint of a blocked
/// guard. A constraint an occurrence would discharge is asked for by
/// nobody: the `□l` announcement comes unasked.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Need {
    /// Discharged by a promise `◇l` (weaker than occurrence — preferred,
    /// because it can be granted before the event happens).
    Promise(Literal),
    /// Requires agreement that `l` has *not yet* occurred at the instant
    /// this event occurs (the `¬l` consensus of Section 4.3).
    NotYetAgreement(Literal),
}

/// The requests that would discharge one conjunct's constraints,
/// appended to `out` unsorted. A constraint may require several at once:
/// the `{C}` mask (`◇l ∧ ¬l`) needs a promise *and* a not-yet agreement.
fn conjunct_asks(c: &Conjunct, out: &mut Vec<Need>) {
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
        }
        // Every other mask admits an occurred state: an announcement
        // discharges it.
    }
}

/// The order requests leave in: by literal, a promise before a not-yet
/// query about the same literal.
pub fn ask_order(need: &Need) -> (Literal, bool) {
    match *need {
        Need::Promise(l) => (l, false),
        Need::NotYetAgreement(l) => (l, true),
    }
}

/// The protocol requests that could unblock `g`, over all conjuncts,
/// deduplicated, in [`ask_order`]. A guard's sequence atoms ask for
/// nothing: the actors hold weakened guards.
pub fn asks(g: &Guard) -> Vec<Need> {
    let mut out = Vec::new();
    for c in g.conjuncts() {
        conjunct_asks(c, &mut out);
    }
    out.sort_by_key(ask_order);
    out.dedup();
    out
}

/// [`asks`] of `g` multiplied out with every `◇(sequence)` atom
/// weakened — `asks(&g.weaken_sequences().expand())` — appended to `out`
/// unsorted and with repeats, read off the factors in place. The factors
/// constrain disjoint symbols, so the product asks what they ask; as in
/// [`FactoredGuard::weaken_sequences`], a factor weakened to `0` absorbs
/// the rest (nothing is asked) and one that holds now drops out.
pub fn weakened_asks_into(g: &FactoredGuard, out: &mut Vec<Need>) {
    let from = out.len();
    for factor in g.factors() {
        let weakened = match factor.has_seq_atoms() {
            true => Cow::Owned(factor.weaken_sequences()),
            false => Cow::Borrowed(factor),
        };
        if weakened.is_bottom() {
            out.truncate(from);
            return;
        }
        if !weakened.holds_now() {
            weakened.conjuncts().iter().for_each(|c| conjunct_asks(c, out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard_repr::{ST_A, ST_B, ST_FULL};
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
        let after = g_f.under(|s| if s == e.symbol() { ST_B } else { ST_FULL });
        assert_eq!(status(&after), GuardStatus::EnabledNow);
    }

    #[test]
    fn needs_reports_weakest_discharging_facts() {
        let (_, e, f) = setup();
        // ◇f → a promise of f suffices.
        assert_eq!(asks(&Guard::eventually(f)), [Need::Promise(f)]);
        // □e → the occurrence is announced unasked.
        assert_eq!(asks(&Guard::occurred(e)), []);
        // ¬f → not-yet agreement.
        assert_eq!(asks(&Guard::not_yet(f)), [Need::NotYetAgreement(f)]);
        // ◇f ∧ ¬f → both, the promise first.
        let g = Guard::eventually(f).and(&Guard::not_yet(f));
        assert_eq!(asks(&g), [Need::Promise(f), Need::NotYetAgreement(f)]);
        // ◇ē + □e merges into the one mask {A,B,D} ⊇ ◇ē: a promise of ē.
        let g = Guard::eventually(e.complement()).or(&Guard::occurred(e));
        assert_eq!(asks(&g), [Need::Promise(e.complement())]);
        // Across conjuncts: by literal.
        let g = Guard::not_yet(f).or(&Guard::eventually(e));
        assert_eq!(asks(&g), [Need::Promise(e), Need::NotYetAgreement(f)]);
    }

    #[test]
    fn needs_empty_for_top() {
        assert_eq!(asks(&Guard::top()), []);
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
