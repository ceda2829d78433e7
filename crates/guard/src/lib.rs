//! Guard synthesis: compiling declarative dependencies into localized
//! temporal guards on events (Section 4 of Singh, ICDE 1996).
//!
//! - [`GuardSynth`] / [`guard_of`] — Definition 2, with memoization and
//!   the Theorem-2/4 independence fast path;
//! - [`paths_to_top`], [`path_guard`], [`guard_via_paths`] — `Π(D)` and
//!   Lemma 5's path-based synthesis;
//! - [`CompiledWorkflow`] — the precompiled per-event guard table a
//!   scheduler (distributed or centralized) consumes;
//! - [`theorems`] — mechanical checks of Theorems 2/4/6 and Lemmas 3/5,
//!   used by the property-test suites.

#![warn(missing_docs)]

mod paths;
mod synth;
pub mod theorems;
mod workflow;

pub use paths::{guard_via_paths, path_guard, paths_to_top};
pub use synth::{guard_of, pairwise_disjoint, GuardSynth};
pub use workflow::{CompiledWorkflow, GuardScope};
