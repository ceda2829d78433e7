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
use std::collections::BTreeSet;
use std::fmt::Write;
use temporal::{weakened_asks_into, Need};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Promise,
    NotYet,
}

pub(crate) fn run(ctx: &Ctx<'_>, report: &mut Report) {
    // Node universe: both polarities of every workflow symbol — the
    // literals with a guard — node `Literal::index`; the other indices
    // below the last are isolated.
    let n = ctx.compiled.symbols.last().map_or(0, |s| 2 * (s.index() + 1));

    // The waits as one CSR pair: node `v`'s are `edges[start[v]..start[v + 1]]`,
    // in `Need`'s order — every promise, then every not-yet agreement —
    // which fixes the order components are reported in.
    let mut start: Vec<u32> = Vec::with_capacity(n + 1);
    start.push(0);
    let mut edges: Vec<(u32, Wait)> = Vec::with_capacity(2 * n);
    let mut needs: Vec<Need> = Vec::new();
    for v in 0..n {
        let lit = Literal::from_index(v);
        if let Some(guard) = ctx.compiled.guard_ref(lit) {
            needs.clear();
            weakened_asks_into(guard, &mut needs);
            needs.sort_unstable();
            needs.dedup();
            for need in &needs {
                let (target, wait) = match *need {
                    Need::Promise(l) => (l, Wait::Promise),
                    Need::NotYetAgreement(l) => (l, Wait::NotYet),
                };
                if target != lit {
                    edges.push((target.index() as u32, wait));
                }
            }
        }
        start.push(edges.len() as u32);
    }
    let waits = |v: u32| &edges[start[v as usize] as usize..start[v as usize + 1] as usize];

    // Self-waits are left out, so only a component of two or more nodes
    // is a cycle.
    let mut reported: Vec<Vec<Literal>> = Vec::new();
    sccs(
        n,
        |v, i| waits(v as u32).get(i).map(|&(to, _)| to as usize),
        |comp| {
            if comp.len() < 2 {
                return;
            }
            // Sorted by index, so by literal.
            let members: Vec<Literal> =
                comp.iter().map(|&v| Literal::from_index(v as usize)).collect();
            let mut mirror: Vec<Literal> = members.iter().map(|l| l.complement()).collect();
            mirror.sort_unstable();
            if reported.contains(&mirror) {
                return;
            }

            let (mut promise, mut not_yet) = (false, false);
            for &(to, wait) in comp.iter().flat_map(|&v| waits(v)) {
                if comp.binary_search(&to).is_ok() {
                    match wait {
                        Wait::Promise => promise = true,
                        Wait::NotYet => not_yet = true,
                    }
                }
            }
            let mut names = String::new();
            for (i, &l) in members.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(names, "{sep}{}", ctx.lit_name(l));
            }
            let sites: BTreeSet<u32> =
                members.iter().filter_map(|l| ctx.site_of(l.symbol())).collect();
            let site_note = if sites.len() > 1 {
                format!(
                    ", spanning sites {}",
                    sites.iter().map(u32::to_string).collect::<Vec<_>>().join(", ")
                )
            } else {
                String::new()
            };
            let (code, severity, message) = match (promise, not_yet) {
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
            // One span per symbol: its two literals are adjacent.
            let mut spans = Vec::with_capacity(members.len());
            for (i, l) in members.iter().enumerate() {
                if i == 0 || members[i - 1].symbol() != l.symbol() {
                    spans.push(ctx.event_span(l.symbol()));
                }
            }
            report.push(Diagnostic::with_spans(code, severity, message, spans));
            reported.push(members);
        },
    );
}

/// Iterative Tarjan SCC over `n` nodes, `succ(v, i)` the `i`-th
/// successor of `v`: `emit` gets every component, sorted, in reverse
/// topological order. A component is a slice of the work stack, so
/// finding one allocates nothing.
fn sccs(n: usize, succ: impl Fn(usize, usize) -> Option<usize>, mut emit: impl FnMut(&[u32])) {
    const UNSET: u32 = u32::MAX;
    // Per node: its visit index and low-link, `UNSET` until visited;
    // the index is `DONE` once its component was emitted.
    const DONE: u32 = u32::MAX - 1;
    let mut nodes: Vec<(u32, u32)> = vec![(UNSET, 0); n];
    let mut stack: Vec<u32> = Vec::with_capacity(n);
    let mut call: Vec<(usize, usize)> = Vec::with_capacity(n);
    let mut next = 0u32;
    for root in 0..n {
        if nodes[root].0 != UNSET {
            continue;
        }
        call.push((root, 0));
        while let Some(frame) = call.last_mut() {
            let (v, ei) = (frame.0, frame.1);
            if ei == 0 {
                nodes[v] = (next, next);
                next += 1;
                stack.push(v as u32);
            }
            if let Some(w) = succ(v, ei) {
                frame.1 += 1;
                match nodes[w].0 {
                    UNSET => call.push((w, 0)),
                    DONE => {}
                    // On the stack.
                    index => nodes[v].1 = nodes[v].1.min(index),
                }
            } else {
                call.pop();
                let low = nodes[v].1;
                if let Some(&(u, _)) = call.last() {
                    nodes[u].1 = nodes[u].1.min(low);
                }
                if low == nodes[v].0 {
                    let at =
                        stack.iter().rposition(|&w| w as usize == v).expect("v is on the stack");
                    let comp = &mut stack[at..];
                    comp.sort_unstable();
                    for &w in comp.iter() {
                        nodes[w as usize].0 = DONE;
                    }
                    emit(comp);
                    stack.truncate(at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    /// The components, each sorted, in the order they are found.
    fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        super::sccs(
            adj.len(),
            |v, i| adj[v].get(i).copied(),
            |comp| {
                out.push(comp.iter().map(|&v| v as usize).collect());
            },
        );
        out
    }

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
