//! The declarative workflow specification language (Sections 1 and 3).
//!
//! Workflows "of any model may be declaratively specified": this crate
//! parses a textual syntax for events (with scheduling attributes and
//! placement) and dependencies — the bare algebra operators, Klein's
//! `->` / `<` primitives \[10\], the extended-transaction macros capturing
//! ACTA \[3\] and Günthör \[8\] dependencies, and parametrized atoms `e[x]`
//! (Section 5) — and lowers them for the schedulers.

#![warn(missing_docs)]

mod ast;
mod compile;
mod parser;

pub use ast::{
    atom, atom_vars, complement, expand_macro, klein_arrow, klein_precedes, AgentDecl, DepDecl,
    EventDecl, ScriptItem, Span, WorkflowDecl,
};
pub use compile::{DepOrigin, LoweredEvent, LoweredWorkflow};
pub use parser::{parse_dependency, parse_workflow, SpecError};
