//! The temporal guard language `T` of Singh (ICDE 1996), Section 4.
//!
//! Guards are the localized conditions under which events may occur.
//! This crate provides:
//!
//! - [`TExpr`] — the syntax of `T` (`□`, `◇`, `¬` over event atoms and the
//!   algebra operators, Syntax 5–6);
//! - [`sat_at`] — the indexed semantics over maximal traces
//!   (Semantics 7–14), which regenerates the truth table of Figure 3;
//! - [`Guard`] — a canonical DNF representation over per-symbol knowledge
//!   states, on which the identities of Example 8 are decided exactly;
//!   symbolic `◇(sequence)` atoms are evaluated on traces or weakened,
//!   never reduced;
//! - [`FactoredGuard`] — a conjunction of such guards over disjoint
//!   symbols, kept as its factors (Theorems 2/4);
//! - [`Fact`], [`Guard::under`], [`status`], [`asks`] — the announcement
//!   machinery of Section 4.3: `□e` occurrence messages and `◇e`
//!   promises enter a guard only as the set of facts heard, where the
//!   proof rules read it, and a blocked guard says which promises and
//!   not-yet agreements to ask for;
//! - equivalence oracles by exhaustive trace enumeration for the theorem
//!   tests.

#![warn(missing_docs)]

mod cells;
mod equiv;
mod factored;
mod guard_repr;
mod message;
mod semantics;
mod texpr;

pub use equiv::{
    guards_equivalent, guards_equivalent_auto, texpr_symbols, texprs_equivalent,
    texprs_equivalent_auto,
};
pub use factored::{product_status, FactoredGuard};
pub use guard_repr::{
    eventually_mask, not_yet_mask, occurred_mask, state_on, Conjunct, CoverScratch, Guard, ST_A,
    ST_B, ST_C, ST_D, ST_FULL,
};
pub use message::{ask_order, asks, status, weakened_asks_into, Fact, GuardStatus, Need};
pub use semantics::{sat_at, sat_profile};
pub use texpr::{TExpr, TExprDisplay};
