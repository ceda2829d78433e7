//! Pass 3: wait-for analysis over the synthesized guards.
//!
//! Each literal's guard asks for facts about other literals
//! ([`temporal::asks`]): promises (`◇l`) and not-yet agreements (`¬l`).
//! A wait for an occurrence is one-directional by construction (the
//! fact precedes the waiter), cannot close a cycle and is asked for by
//! nobody. The asks form a directed graph; a strongly connected
//! component of size ≥ 2 (or a self-loop) means the waits chase each
//! other. All-promise components are `◇`-consensus groups — the promise
//! protocol must grant them atomically (`WF020`); all-not-yet components
//! are hold-contention cycles the runtime breaks by priority (`WF021`);
//! mixed components interleave "will occur" with "has not yet occurred"
//! and can deadlock a distributed execution outright (`WF022`).
//!
//! Tarjan's algorithm (iterative) finds components of *any* length, where
//! a pairwise scan of mutual needs would only see 2-cycles. A component
//! whose literal set is the exact complement of one already reported is
//! suppressed: it is the mirror image of the same consensus group on the
//! rejecting branch.

use crate::{Ctx, Diagnostic, Report, Severity};
use event_algebra::Literal;
use std::collections::{BTreeMap, BTreeSet};
use temporal::{asks, Need};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Promise,
    NotYet,
}

pub(crate) fn run(ctx: &Ctx<'_>, report: &mut Report) {
    // Node universe: both polarities of every workflow symbol.
    let nodes: Vec<Literal> =
        ctx.compiled.symbols.iter().flat_map(|&s| [Literal::pos(s), Literal::neg(s)]).collect();
    let index: BTreeMap<Literal, usize> = nodes.iter().enumerate().map(|(i, &l)| (l, i)).collect();

    let mut adj: Vec<Vec<(usize, Wait)>> = vec![Vec::new(); nodes.len()];
    for (&lit, &from) in &index {
        let g = ctx.compiled.guard(lit).weaken_sequences();
        // Edges in `Need`'s order — every promise, then every not-yet
        // agreement — which fixes the order components are reported in.
        let mut needs = asks(&g);
        needs.sort();
        for need in needs {
            let (target, wait) = match need {
                Need::Promise(l) => (l, Wait::Promise),
                Need::NotYetAgreement(l) => (l, Wait::NotYet),
            };
            if let Some(&to) = index.get(&target) {
                if to != from {
                    adj[from].push((to, wait));
                }
            }
        }
    }

    let plain: Vec<Vec<usize>> =
        adj.iter().map(|v| v.iter().map(|&(to, _)| to).collect()).collect();
    let mut reported: BTreeSet<BTreeSet<Literal>> = BTreeSet::new();
    for comp in sccs(&plain) {
        let in_comp: BTreeSet<usize> = comp.iter().copied().collect();
        let cyclic = comp.len() > 1 || comp.iter().any(|&v| plain[v].contains(&v));
        if !cyclic {
            continue;
        }
        let members: BTreeSet<Literal> = comp.iter().map(|&v| nodes[v]).collect();
        let mirror: BTreeSet<Literal> = members.iter().map(|l| l.complement()).collect();
        if reported.contains(&mirror) {
            continue;
        }
        reported.insert(members.clone());

        let mut waits = BTreeSet::new();
        for &v in &comp {
            for &(to, w) in &adj[v] {
                if in_comp.contains(&to) {
                    waits.insert(match w {
                        Wait::Promise => 0u8,
                        Wait::NotYet => 1u8,
                    });
                }
            }
        }
        let names = members.iter().map(|&l| ctx.lit_name(l)).collect::<Vec<_>>().join(", ");
        let sites: BTreeSet<u32> = members.iter().filter_map(|l| ctx.site_of(l.symbol())).collect();
        let site_note = if sites.len() > 1 {
            format!(
                ", spanning sites {}",
                sites.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
            )
        } else {
            String::new()
        };
        let (code, severity, message) = match (waits.contains(&0), waits.contains(&1)) {
            (true, false) => (
                "WF020",
                Severity::Warning,
                format!(
                    "◇-consensus cycle among {{{names}}}{site_note}: each guard awaits a \
                     promise from the next, so the group must reach agreement jointly \
                     before any member can occur"
                ),
            ),
            (false, true) => (
                "WF021",
                Severity::Warning,
                format!(
                    "¬-hold contention cycle among {{{names}}}{site_note}: each guard \
                     requires agreement that the next has not yet occurred; the runtime \
                     must break the tie by priority"
                ),
            ),
            _ => (
                "WF022",
                Severity::Warning,
                format!(
                    "mixed ◇/¬ cycle among {{{names}}}{site_note}: promises and not-yet \
                     holds chase each other — potential distributed deadlock"
                ),
            ),
        };
        let mut d = Diagnostic::new(code, severity, message);
        let mut seen_syms = BTreeSet::new();
        for &l in &members {
            if seen_syms.insert(l.symbol()) {
                let (span, label) = ctx.event_span(l.symbol());
                d = d.with_span(span, label);
            }
        }
        report.push(d);
    }
}

/// Iterative Tarjan SCC over an adjacency list; components are returned
/// in reverse topological order.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        call.push((root, 0));
        while let Some(frame) = call.last_mut() {
            let (v, ei) = (frame.0, frame.1);
            if ei == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ei) {
                frame.1 += 1;
                if index[w] == UNSET {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::sccs;

    #[test]
    fn tarjan_finds_long_cycle_and_singletons() {
        // 0 → 1 → 2 → 0 (cycle), 3 → 0, 4 isolated.
        let adj = vec![vec![1], vec![2], vec![0], vec![0], vec![]];
        let comps = sccs(&adj);
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(comps.contains(&vec![3]));
        assert!(comps.contains(&vec![4]));
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn tarjan_separates_two_cycles() {
        // 0 ↔ 1 and 2 ↔ 3, bridged by 1 → 2.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![2]];
        let comps = sccs(&adj);
        assert!(comps.contains(&vec![0, 1]));
        assert!(comps.contains(&vec![2, 3]));
    }

    #[test]
    fn tarjan_handles_self_loop_and_empty() {
        assert!(sccs(&[]).is_empty());
        let comps = sccs(&[vec![0]]);
        assert_eq!(comps, vec![vec![0]]);
    }
}
