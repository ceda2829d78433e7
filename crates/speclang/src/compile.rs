//! Lowering parsed workflow declarations into executable form.

use crate::ast::{AgentDecl, Span, WorkflowDecl};
use crate::parser::{parse_workflow, SpecError};
use event_algebra::{Binding, Expr, Literal, PExpr, SymbolTable};

/// A declared event after lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredEvent {
    /// Declared name (with `::` already folded to `.`).
    pub name: String,
    /// The interned literal.
    pub literal: Literal,
    /// Scheduler may delay/permit.
    pub controllable: bool,
    /// Scheduler may proactively cause.
    pub triggerable: bool,
    /// Happens without permission.
    pub immediate: bool,
    /// Optional site placement.
    pub site: Option<u32>,
    /// Source position of the declaration (synthetic when built
    /// programmatically).
    pub span: Span,
}

/// Provenance of one lowered dependency: its declared label and source
/// position, aligned index-for-index with
/// [`LoweredWorkflow::ground_deps`] (or `templates`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DepOrigin {
    /// The `dep <label>:` name.
    pub label: Option<String>,
    /// Source position of the declaration.
    pub span: Span,
}

/// A workflow lowered to ground dependencies plus parametrized templates.
#[derive(Debug, Clone)]
pub struct LoweredWorkflow {
    /// Workflow name.
    pub name: String,
    /// The symbol table holding every ground event.
    pub table: SymbolTable,
    /// Variable-free dependencies, ready for guard synthesis.
    pub ground_deps: Vec<Expr>,
    /// Parametrized dependency templates (Section 5), for the dynamic
    /// scheduler.
    pub templates: Vec<PExpr>,
    /// Label/span provenance for each entry of `ground_deps`.
    pub dep_origins: Vec<DepOrigin>,
    /// Label/span provenance for each entry of `templates`.
    pub template_origins: Vec<DepOrigin>,
    /// Declared events.
    pub events: Vec<LoweredEvent>,
    /// Declared agents (instantiated from the agent library by the
    /// consumer — the spec language itself only records the declaration).
    pub agents: Vec<AgentDecl>,
}

impl LoweredWorkflow {
    /// Lower a parsed declaration, keeping its names and agents.
    pub fn from_decl(decl: WorkflowDecl) -> LoweredWorkflow {
        let mut table = SymbolTable::new();
        let events: Vec<LoweredEvent> = (decl.events.into_iter())
            .map(|e| LoweredEvent {
                literal: table.event(&e.name),
                name: e.name,
                controllable: e.controllable,
                triggerable: e.triggerable,
                immediate: e.immediate,
                site: e.site,
                span: e.span,
            })
            .collect();
        let mut ground_deps = Vec::new();
        let mut templates = Vec::new();
        let mut dep_origins = Vec::new();
        let mut template_origins = Vec::new();
        for d in decl.deps {
            let ground = d.is_ground();
            let origin = DepOrigin { span: d.span, label: d.label };
            if ground {
                ground_deps.push(d.body.instantiate(&Binding::new(), &mut table));
                dep_origins.push(origin);
            } else {
                templates.push(d.body);
                template_origins.push(origin);
            }
        }
        LoweredWorkflow {
            name: decl.name,
            table,
            ground_deps,
            templates,
            dep_origins,
            template_origins,
            events,
            agents: decl.agents,
        }
    }

    /// Parse and lower in one step.
    pub fn parse(src: &str) -> Result<LoweredWorkflow, SpecError> {
        Ok(LoweredWorkflow::from_decl(parse_workflow(src)?))
    }

    /// Find a lowered event by name.
    pub fn event(&self, name: &str) -> Option<&LoweredEvent> {
        self.events.iter().find(|e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowers_mixed_ground_and_parametrized() {
        let src = r#"
            workflow w {
                event a;
                event b { immediate };
                dep d1: a -> b;
                dep d2: ~f[y] + g[y];
            }
        "#;
        let w = LoweredWorkflow::parse(src).unwrap();
        assert_eq!(w.ground_deps.len(), 1);
        assert_eq!(w.templates.len(), 1);
        assert_eq!(w.events.len(), 2);
        assert!(w.event("b").unwrap().immediate);
        assert!(w.event("a").unwrap().controllable);
        assert!(w.event("zzz").is_none());
        // Declared events intern before dependency symbols.
        assert_eq!(w.table.name(w.event("a").unwrap().literal.symbol()), Some("a"));
    }

    #[test]
    fn lowered_deps_reference_declared_events() {
        let src = r#"
            workflow w {
                event e;
                event f;
                dep d: e < f;
            }
        "#;
        let w = LoweredWorkflow::parse(src).unwrap();
        let e = w.event("e").unwrap().literal;
        let f = w.event("f").unwrap().literal;
        assert!(w.ground_deps[0].mentions(e.symbol()));
        assert!(w.ground_deps[0].mentions(f.symbol()));
        // No spurious extra symbols.
        assert_eq!(w.ground_deps[0].symbols().len(), 2);
    }
}
