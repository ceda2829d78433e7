//! The event algebra `E` of Singh (ICDE 1996): declarative intertask
//! dependencies with a trace semantics, symbolic residuation, and
//! per-dependency state machines.
//!
//! This crate is the foundation of the workspace. It provides:
//!
//! - [`SymbolTable`], [`SymbolId`], [`Literal`] — interned significant
//!   events and their complements (the alphabet `Γ`);
//! - [`Expr`] — event expressions built with `·` (sequence), `+` (choice),
//!   `|` (conjunction), `0`, `⊤` (Syntax 1–4);
//! - [`Trace`] and universe enumeration ([`enumerate_universe`],
//!   [`enumerate_maximal`]) implementing Definition 1;
//! - the trace semantics [`satisfies`] (Semantics 1–5) and denotations;
//! - normalization ([`normalize`]) into the form the residuation rules
//!   require;
//! - symbolic residuation [`residuate`] (rules R1–R8, Section 3.4) plus
//!   the model-theoretic oracle used to check Theorem 1 mechanically;
//! - [`ExprArena`] — the hash-consed interned DAG used on hot paths, with
//!   persistently memoized normalize/residuate/satisfiable (the tree
//!   functions above remain the reference oracle);
//! - [`DependencyMachine`] — the residual state machine of Figure 2,
//!   doubling as the per-dependency automaton of the centralized baseline;
//! - [`DepTracker`] — one dependency's residual followed through a run,
//!   on the machine or on the expression tree, with the triggering and
//!   acceptance questions every scheduler asks of it ([`acceptance`]);
//! - [`ProductMachine`] — budgeted reachability over the product of the
//!   per-dependency machines, the engine of the compile-time workflow
//!   analyzer (Section 6);
//! - a text [`parse_expr`] parser for dependency expressions;
//! - [`SortedSet`] / [`SortedMap`] / [`SymbolMap`] — the flat collections
//!   the runtime keeps its per-instance state and routing tables in.
//!
//! # Example
//!
//! ```
//! use event_algebra::{SymbolTable, parse_expr, residuate, satisfies, Trace};
//!
//! let mut syms = SymbolTable::new();
//! // Klein's e < f: if both occur, e precedes f.
//! let d = parse_expr("~e + ~f + e.f", &mut syms).unwrap();
//! let e = syms.event("e");
//! let f = syms.event("f");
//!
//! // ⟨e f⟩ satisfies the dependency, ⟨f e⟩ does not.
//! assert!(satisfies(&Trace::new([e, f]).unwrap(), &d));
//! assert!(!satisfies(&Trace::new([f, e]).unwrap(), &d));
//!
//! // After e the scheduler's remaining obligation is f + f̄.
//! let after_e = residuate(&d, e);
//! assert_eq!(after_e.display(&syms).to_string(), "f + ~f");
//! ```

#![warn(missing_docs)]

mod arena;
mod expr;
mod flat;
mod fxhash;
mod machine;
mod norm;
mod parse;
mod pexpr;
mod product;
mod residue;
mod semantics;
mod symbol;
mod trace;
mod tracker;

pub use arena::{ExprArena, ExprId};
pub use expr::{Expr, ExprDisplay};
pub use flat::{SortedMap, SortedSet, SymbolMap};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use machine::{DependencyMachine, StateId};
pub use norm::{is_normal, normalize};
pub use parse::{parse_expr, ParseError, MAX_NESTING};
pub use pexpr::{Binding, PEvent, PExpr, PLit, Term};
pub use product::{Classification, ProductMachine, Reach, StateBudget};
pub use residue::{
    requires, residual_oracle, residuate, residuate_trace, residuation_sound, satisfiable,
    satisfiable_avoiding, satisfiable_avoiding_all,
};
pub use semantics::{denotation, equivalent, equivalent_auto, satisfies, verdict};
pub use symbol::{Literal, Polarity, SymbolId, SymbolTable};
pub use trace::{enumerate_maximal, enumerate_universe, Trace};
pub use tracker::{acceptance, Acceptance, DepTracker};
