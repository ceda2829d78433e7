//! Shard-plan certificates: the serializable artifact of the static
//! interference analyzer (pass 4 of crate `analyze`).
//!
//! A [`ShardPlan`] partitions a workflow's events into *colocation
//! classes*: events that some dependency machine cannot transpose
//! (see [`DependencyMachine::symbols_commute`](crate::DependencyMachine::symbols_commute))
//! must share a shard, because a work-stealing runtime that schedules
//! them from different queues could realize either order and change the
//! observable outcome. Everything else may run concurrently; the plan
//! records *why* each cross-class pair is safe as a discharged proof
//! [`Obligation`] — either the pair commutes on every shared machine, or
//! the coordination protocol itself (the `□`/`◇` guard rounds of
//! Lemma 5) serializes it.
//!
//! The plan is a plain data type in the algebra crate so both the
//! analyzer (which builds it) and its readers can share it without a
//! dependency cycle. No executor reads it — every instance runs on the
//! one event loop, placed as its spec says. Its readers are `wfcheck
//! --shard-plan` (which writes it), the golden diffs, conformance audit 8
//! (transposing pairs the plan calls independent must change no
//! machine's state) and — ROADMAP item 2 — the explorer's sleep sets,
//! which take it as their independence relation.
//! Serialization is hand-rolled JSON, like every other artifact in this
//! workspace.

use crate::symbol::{SymbolId, SymbolTable};

/// One colocation class: events that must be scheduled from the same
/// shard because some dependency machine does not commute on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardClass {
    /// Dense class index within the plan.
    pub id: u32,
    /// Member events, sorted by symbol id.
    pub events: Vec<SymbolId>,
    /// Site pinned by a member's declaration, if any member declared one.
    pub site: Option<u32>,
}

/// Why a cross-class pair needs no shard-level ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObligationKind {
    /// Every dependency machine mentioning both symbols commutes on them
    /// — discharged statically by the all-states transposition check.
    Commutes,
    /// The pair is guard-coupled: the synthesized guards already exchange
    /// `□`/`◇` coordination messages that serialize the two events, so
    /// the shards themselves need no ordering.
    GuardOrdered,
}

impl ObligationKind {
    /// Stable kebab-case tag (JSON, CLI output).
    pub fn tag(self) -> &'static str {
        match self {
            ObligationKind::Commutes => "commutes",
            ObligationKind::GuardOrdered => "guard-ordered",
        }
    }
}

/// A discharged cross-class proof obligation: the pair straddles two
/// classes, shares dependency `dep`, and is safe for the stated reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// The smaller symbol of the pair.
    pub left: SymbolId,
    /// The larger symbol of the pair.
    pub right: SymbolId,
    /// Index of the witnessing dependency in the workflow's list.
    pub dep: usize,
    /// Why the pair is safe without colocation.
    pub kind: ObligationKind,
}

/// The certificate emitted by the interference analyzer: colocation
/// classes (refining the Lemma 5 site-coupling quotient), the
/// schedule-independence relation, and the discharged cross-class proof
/// obligations. Consumed by `dist::ExecConfig` to pin actor placement
/// and by the conformance auditor to drive schedule-permutation replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardPlan {
    /// Workflow name, when analyzed from a lowered specification.
    pub workflow: Option<String>,
    /// Colocation classes, each sorted; ordered by smallest member.
    pub classes: Vec<ShardClass>,
    /// Unordered symbol pairs `(a, b)` with `a < b` on which *every*
    /// shared dependency machine commutes — the pairs whose adjacent
    /// occurrences may be transposed in any trace without changing any
    /// residual. Superset of [`ShardPlan::independent`].
    pub commuting: Vec<(SymbolId, SymbolId)>,
    /// Fully independent pairs: commuting, not guard-coupled, and with
    /// disjoint write footprints — safe to schedule with no coordination
    /// at all.
    pub independent: Vec<(SymbolId, SymbolId)>,
    /// Discharged cross-class proof obligations, one per straddling pair
    /// per witnessing dependency.
    pub obligations: Vec<Obligation>,
    /// `true` when every colocation class is contained in one component
    /// of the Lemma 5 guard-coupling relation — i.e. the plan *refines*
    /// the site-coupling quotient rather than merging across it.
    pub refines_site_coupling: bool,
}

impl ShardPlan {
    /// The class containing `s`, if the symbol was analyzed.
    pub fn class_of(&self, s: SymbolId) -> Option<u32> {
        self.classes.iter().find(|c| c.events.binary_search(&s).is_ok()).map(|c| c.id)
    }

    /// `true` when both symbols were analyzed and share a class.
    pub fn colocated(&self, a: SymbolId, b: SymbolId) -> bool {
        match (self.class_of(a), self.class_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// `true` if adjacent occurrences of the two symbols may be
    /// transposed without changing any dependency residual. Symbols the
    /// analyzer never saw (unconstrained events) commute with everything.
    pub fn commutes(&self, a: SymbolId, b: SymbolId) -> bool {
        if a == b {
            return false;
        }
        if self.class_of(a).is_none() || self.class_of(b).is_none() {
            return true;
        }
        self.commuting.binary_search(&canonical(a, b)).is_ok()
    }

    /// `true` if the pair is fully independent (commuting, uncoupled,
    /// disjoint writes). Unanalyzed symbols are independent of everything.
    pub fn is_independent(&self, a: SymbolId, b: SymbolId) -> bool {
        if a == b {
            return false;
        }
        if self.class_of(a).is_none() || self.class_of(b).is_none() {
            return true;
        }
        self.independent.binary_search(&canonical(a, b)).is_ok()
    }

    /// Number of colocation classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Largest class size — 1 means the plan is maximally parallel.
    pub fn max_class_size(&self) -> usize {
        self.classes.iter().map(|c| c.events.len()).max().unwrap_or(0)
    }

    /// Render the certificate as deterministic JSON, resolving symbol
    /// names through `table`.
    pub fn to_json(&self, table: &SymbolTable) -> String {
        let name = |s: SymbolId| match table.name(s) {
            Some(n) => json_escape(n),
            None => json_escape(&format!("sym{}", s.0)),
        };
        let pair_list = |pairs: &[(SymbolId, SymbolId)]| {
            pairs
                .iter()
                .map(|&(a, b)| format!("[{},{}]", name(a), name(b)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                let events: Vec<String> = c.events.iter().map(|&s| name(s)).collect();
                let site = c.site.map_or("null".to_owned(), |s| s.to_string());
                format!("{{\"id\":{},\"events\":[{}],\"site\":{}}}", c.id, events.join(","), site)
            })
            .collect();
        let obligations: Vec<String> = self
            .obligations
            .iter()
            .map(|o| {
                format!(
                    "{{\"left\":{},\"right\":{},\"dep\":{},\"kind\":\"{}\"}}",
                    name(o.left),
                    name(o.right),
                    o.dep,
                    o.kind.tag()
                )
            })
            .collect();
        let mut fields = Vec::new();
        if let Some(w) = &self.workflow {
            fields.push(format!("\"workflow\":{}", json_escape(w)));
        }
        fields.push(format!("\"classes\":[{}]", classes.join(",")));
        fields.push(format!("\"commuting\":[{}]", pair_list(&self.commuting)));
        fields.push(format!("\"independent\":[{}]", pair_list(&self.independent)));
        fields.push(format!("\"obligations\":[{}]", obligations.join(",")));
        fields.push(format!("\"refines_site_coupling\":{}", self.refines_site_coupling));
        format!("{{{}}}", fields.join(","))
    }
}

/// Canonical (smaller, larger) ordering for unordered pairs.
pub fn canonical(a: SymbolId, b: SymbolId) -> (SymbolId, SymbolId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan2() -> ShardPlan {
        ShardPlan {
            workflow: Some("w".to_owned()),
            classes: vec![
                ShardClass { id: 0, events: vec![SymbolId(0), SymbolId(1)], site: Some(2) },
                ShardClass { id: 1, events: vec![SymbolId(2)], site: None },
            ],
            commuting: vec![(SymbolId(0), SymbolId(2)), (SymbolId(1), SymbolId(2))],
            independent: vec![(SymbolId(1), SymbolId(2))],
            obligations: vec![Obligation {
                left: SymbolId(0),
                right: SymbolId(2),
                dep: 0,
                kind: ObligationKind::Commutes,
            }],
            refines_site_coupling: true,
        }
    }

    #[test]
    fn membership_queries() {
        let p = plan2();
        assert_eq!(p.class_of(SymbolId(1)), Some(0));
        assert_eq!(p.class_of(SymbolId(9)), None);
        assert!(p.colocated(SymbolId(0), SymbolId(1)));
        assert!(!p.colocated(SymbolId(0), SymbolId(2)));
        assert!(p.commutes(SymbolId(2), SymbolId(0)), "order-insensitive");
        assert!(!p.commutes(SymbolId(0), SymbolId(1)));
        assert!(!p.commutes(SymbolId(0), SymbolId(0)), "never self-commuting");
        assert!(p.is_independent(SymbolId(1), SymbolId(2)));
        assert!(!p.is_independent(SymbolId(0), SymbolId(2)), "commuting but coupled");
        assert!(p.is_independent(SymbolId(0), SymbolId(9)), "unanalyzed symbols are free");
        assert_eq!(p.class_count(), 2);
        assert_eq!(p.max_class_size(), 2);
    }

    #[test]
    fn json_is_deterministic_and_named() {
        let mut t = SymbolTable::new();
        for n in ["a", "b", "c"] {
            t.intern(n);
        }
        let p = plan2();
        let j = p.to_json(&t);
        assert_eq!(j, p.to_json(&t));
        assert!(j.starts_with("{\"workflow\":\"w\",\"classes\":[{\"id\":0,"), "{j}");
        assert!(j.contains("\"events\":[\"a\",\"b\"],\"site\":2"), "{j}");
        assert!(j.contains("\"site\":null"), "{j}");
        assert!(j.contains("\"independent\":[[\"b\",\"c\"]]"), "{j}");
        assert!(j.contains("\"kind\":\"commutes\""), "{j}");
        assert!(j.ends_with("\"refines_site_coupling\":true}"), "{j}");
    }
}
