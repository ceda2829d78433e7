//! Baseline schedulers the paper argues against (or builds upon):
//! a centralized dependency-centric scheduler with either runtime
//! symbolic residuation (Section 3.3) or precompiled per-dependency
//! automata in the style of Attie et al. \[2\]. Both run the same
//! [`dist::WorkflowSpec`]s over the same simulated network as the
//! distributed engine, enabling the locality/scalability comparisons of
//! experiments C1, C4 and C5.

#![warn(missing_docs)]

mod central;

pub use central::{run_centralized, CNode, CentralConfig, CentralNode, Engine};
