//! Budgeted, goal-directed product reachability over dependency machines.
//!
//! The compilation phase (Section 6) must decide questions that quantify
//! over *joint* completions of a whole workflow: do the dependencies admit
//! any common satisfying trace, and can/must a given event occur in one?
//! The per-dependency [`DependencyMachine`]s collapse residuals into
//! finitely many states, so the joint questions become graph reachability
//! in the *product* of the machines:
//!
//! - a product state is one [`StateId`] per machine (interned once and
//!   shared across queries);
//! - stepping by a literal steps every machine that mentions its symbol
//!   (rule R6: the others self-loop);
//! - a trace jointly satisfies the workflow iff it drives every machine to
//!   its `⊤` state, and residuation can never leave `⊤`, so joint
//!   satisfiability is exactly reachability of the all-accepting product
//!   state;
//! - avoiding a literal `l` restricts the edge set, which decides the
//!   dead/forced quantifications: a satisfying trace *containing* `l`
//!   exists iff the all-accepting state is reachable while avoiding `l̄`.
//!
//! The product grows with interleavings that cannot matter to the
//! verdict, so a query never enumerates them blindly. It first closes
//! the forbidden set `F = {avoid}` at the root (a literal some machine
//! needs on every accepting path rules out its complement), prunes every
//! product state in which a machine is dead under `F` or two machines
//! need complementary literals, expands the remaining states best-first
//! on the summed per-machine distance to acceptance, and answers from a
//! stored witness when an earlier `Yes` already avoids the literal.
//! DESIGN.md §4b gives the soundness argument for each step.
//!
//! Product spaces can still be exponential in the number of machines, so
//! every search draws from an explicit [`StateBudget`]; on exhaustion the
//! caller receives [`Reach::Cutoff`] and is expected to surface it as a
//! diagnostic instead of hanging.

use crate::expr::Expr;
use crate::fxhash::FxHasher;
use crate::machine::{DependencyMachine, StateId};
use crate::symbol::Literal;
use std::hash::Hasher;

/// The outcome of a budgeted reachability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// A target state was reached.
    Yes,
    /// The full reachable region was explored without finding a target.
    No,
    /// The state budget ran out before the search completed.
    Cutoff,
}

impl Reach {
    /// `true` only for [`Reach::Yes`].
    pub fn found(self) -> bool {
        self == Reach::Yes
    }

    /// `true` only for [`Reach::Cutoff`].
    pub fn cutoff(self) -> bool {
        self == Reach::Cutoff
    }
}

/// A shared allowance of product states across several queries.
///
/// Every *newly interned* product state costs one unit (the initial state
/// is free); revisiting an already-interned state costs nothing.
#[derive(Debug, Clone)]
pub struct StateBudget {
    limit: usize,
    spent: usize,
}

impl StateBudget {
    /// A budget of `limit` product states.
    pub fn new(limit: usize) -> StateBudget {
        StateBudget { limit, spent: 0 }
    }

    /// States charged so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// `true` once the allowance is used up.
    pub fn exhausted(&self) -> bool {
        self.spent >= self.limit
    }

    fn charge(&mut self) -> bool {
        if self.spent >= self.limit {
            return false;
        }
        self.spent += 1;
        true
    }
}

/// The verdicts of the `2·|Σ|+1` compile-time queries: one joint
/// satisfiability query, then one avoid-query per literal of the alphabet.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Whether some trace satisfies every dependency.
    pub joint: Reach,
    /// Literals that occur in no jointly satisfying trace, sorted. A
    /// literal is *forced* (occurs in every satisfying trace) exactly when
    /// its complement is listed here. Empty unless `joint` is `Yes`.
    pub dead: Vec<Literal>,
    /// `true` when the budget cut a query short: the joint query (the
    /// per-literal queries are then skipped) or a per-literal one (`dead`
    /// is then sound but may miss entries).
    pub incomplete: bool,
}

/// Distance of a state from which no accepting state is reachable; also
/// the "absent" value of the intern and successor tables.
const NONE: u32 = u32::MAX;

#[inline]
fn has_bit(mask: &[u64], ix: usize) -> bool {
    mask[ix / 64] >> (ix % 64) & 1 == 1
}

#[inline]
fn set_bit(mask: &mut [u64], ix: usize) {
    mask[ix / 64] |= 1 << (ix % 64);
}

/// Counting sort of `items` by their key in `0..groups`: group `k` is
/// `sorted[start[k]..start[k + 1]]`, in input order.
fn grouped<T: Copy + Default>(groups: usize, items: &[(usize, T)]) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; groups + 1];
    for &(k, _) in items {
        start[k + 1] += 1;
    }
    for k in 0..groups {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut sorted = vec![T::default(); items.len()];
    for &(k, item) in items {
        sorted[fill[k] as usize] = item;
        fill[k] += 1;
    }
    (start, sorted)
}

/// One machine flattened for the search: dense transitions over its own
/// alphabet and the reverse edges the per-query tables are computed on.
#[derive(Debug, Clone)]
struct Component {
    /// Index of this machine's first state in [`Tables`].
    offset: usize,
    states: usize,
    /// Position in the union alphabet of each literal of `Γ_D`.
    global: Vec<u16>,
    /// `global` as a bitmask over the union alphabet.
    gamma: Vec<u64>,
    /// `next[s * global.len() + local]`.
    next: Vec<u32>,
    accepting: Vec<u32>,
    /// Reverse edges grouped by target: `preds[pred_start[t]..pred_start[t + 1]]`
    /// holds `(source, local literal)`; self-loops are left out.
    pred_start: Vec<u32>,
    preds: Vec<(u32, u16)>,
}

impl Component {
    fn new(m: &DependencyMachine, offset: usize, alphabet: &[Literal], words: usize) -> Component {
        let states = m.state_count();
        let global: Vec<u16> = m
            .alphabet
            .iter()
            .map(|l| alphabet.binary_search(l).expect("union alphabet covers Γ_D") as u16)
            .collect();
        let mut gamma = vec![0u64; words];
        for &g in &global {
            set_bit(&mut gamma, g as usize);
        }
        let mut next = Vec::with_capacity(states * global.len());
        let mut edges = Vec::new();
        for s in 0..states as u32 {
            for (local, &lit) in m.alphabet.iter().enumerate() {
                let t = m.step(StateId(s), lit).0;
                next.push(t);
                if t != s {
                    edges.push((t as usize, (s, local as u16)));
                }
            }
        }
        let (pred_start, preds) = grouped(states, &edges);
        Component {
            offset,
            states,
            global,
            gamma,
            next,
            accepting: (0..states as u32).filter(|&s| m.is_accepting(StateId(s))).collect(),
            pred_start,
            preds,
        }
    }

    /// Hop distance from every state to acceptance (`NONE` where it is
    /// unreachable) using no edge labeled in `forbidden` nor `skip`.
    fn depths(
        &self,
        forbidden: &[u64],
        skip: Option<u16>,
        depth: &mut [u32],
        queue: &mut Vec<u32>,
    ) {
        depth.fill(NONE);
        queue.clear();
        for &a in &self.accepting {
            depth[a as usize] = 0;
            queue.push(a);
        }
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head] as usize;
            head += 1;
            let edges = self.pred_start[t] as usize..self.pred_start[t + 1] as usize;
            for &(s, local) in &self.preds[edges] {
                if Some(local) == skip || has_bit(forbidden, self.global[local as usize] as usize) {
                    continue;
                }
                if depth[s as usize] == NONE {
                    depth[s as usize] = depth[t] + 1;
                    queue.push(s);
                }
            }
        }
    }
}

/// Per-machine-state search tables under one forbidden set, indexed by
/// `Component::offset + state`.
#[derive(Debug, Clone)]
struct Tables {
    /// Hops to the machine's accepting state, `NONE` when it is dead.
    dist: Vec<u32>,
    /// Literals (union-alphabet bitmask, `words` per state) that label an
    /// edge of *every* accepting path from the state.
    req: Vec<u64>,
}

impl Tables {
    /// Compute machine `c`'s rows under `forbidden`.
    fn fill(&mut self, c: &Component, forbidden: &[u64], scratch: &mut Scratch) {
        let words = forbidden.len();
        let rows = c.offset..c.offset + c.states;
        c.depths(forbidden, None, &mut self.dist[rows.clone()], &mut scratch.queue);
        let req = &mut self.req[rows.start * words..rows.end * words];
        req.fill(0);
        scratch.depth.resize(c.states, NONE);
        for (local, &g) in c.global.iter().enumerate() {
            if has_bit(forbidden, g as usize) {
                continue;
            }
            c.depths(forbidden, Some(local as u16), &mut scratch.depth, &mut scratch.queue);
            for s in 0..c.states {
                if self.dist[c.offset + s] != NONE && scratch.depth[s] == NONE {
                    set_bit(&mut req[s * words..(s + 1) * words], g as usize);
                }
            }
        }
    }

    /// Evaluate a product state: `None` when it is pruned (a machine is
    /// dead, or two machines need complementary literals), else the summed
    /// distance to acceptance — `0` exactly at the all-accepting state.
    fn eval(&self, components: &[Component], tuple: &[u32], acc: &mut [u64]) -> Option<u32> {
        let words = acc.len();
        acc.fill(0);
        let mut h = 0u32;
        for (c, &s) in components.iter().zip(tuple) {
            let row = c.offset + s as usize;
            let d = self.dist[row];
            if d == NONE {
                return None;
            }
            h += d;
            for (a, r) in acc.iter_mut().zip(&self.req[row * words..(row + 1) * words]) {
                *a |= r;
            }
        }
        // Positions 2k and 2k+1 of the union alphabet are complements.
        let clash = acc.iter().any(|&w| w & (w >> 1) & 0x5555_5555_5555_5555 != 0);
        (!clash).then_some(h)
    }
}

/// Reusable buffers of the table computation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    queue: Vec<u32>,
    depth: Vec<u32>,
}

/// The trace behind a `Yes` answer and its literal set.
#[derive(Debug, Clone)]
struct Witness {
    mask: Vec<u64>,
    path: Vec<Literal>,
}

/// The product of a workflow's dependency machines, with an intern table
/// and successor cache shared across reachability queries.
#[derive(Debug, Clone)]
pub struct ProductMachine {
    machines: Vec<DependencyMachine>,
    components: Vec<Component>,
    /// Union alphabet: both polarities of every mentioned symbol, sorted,
    /// so positions `2k` and `2k+1` are complements.
    alphabet: Vec<Literal>,
    /// `u64` words per literal bitmask.
    words: usize,
    /// Machines stepping on each literal, grouped by alphabet position:
    /// `touch[touch_start[g]..touch_start[g + 1]]` holds `(machine, local)`.
    touch_start: Vec<u32>,
    touch: Vec<(u32, u16)>,

    /// Interned product states, one machine-count-wide row each.
    arena: Vec<u32>,
    /// Open-addressing index over `arena` rows (`NONE` = empty slot).
    slots: Vec<u32>,
    /// Memoized edges: `succ[state * |alphabet| + g]`, `NONE` = not yet
    /// computed (or pruned by the query that computed it).
    succ: Vec<u32>,
    /// `seen[state] == epoch` marks a state handled by the running query.
    seen: Vec<u32>,
    epoch: u32,
    /// Search-tree edge into each state seen by the running query.
    parent: Vec<(u32, u16)>,
    /// Open states by summed distance.
    buckets: Vec<Vec<u32>>,

    /// Tables under the empty forbidden set, built once.
    base: Tables,
    /// Tables under the running query's forbidden set: `base` except for
    /// the rows of the machines flagged in `dirty`.
    current: Tables,
    dirty: Vec<bool>,
    forbidden: Vec<u64>,
    scratch: Scratch,
    /// Buffers: a candidate successor row, a union of `req` masks, the
    /// literals the last propagation round added to `forbidden`.
    row: Vec<u32>,
    acc: Vec<u64>,
    fresh: Vec<u64>,

    witnesses: Vec<Witness>,
    /// The witness behind the most recent `Yes`.
    last_witness: Option<usize>,
}

impl ProductMachine {
    /// Compile one machine per dependency and form their product.
    /// Structurally identical dependencies (after normalization, decided
    /// by hash-consed id equality) are compiled once and share their
    /// machine.
    pub fn compile(dependencies: &[Expr]) -> ProductMachine {
        ProductMachine::from_machines(DependencyMachine::compile_all(dependencies))
    }

    /// Form the product of already-compiled machines (the compiled
    /// workflow's machines can be reused directly). All search tables are
    /// built here, so compiling a machine for the runtime pays for none.
    pub fn from_machines(machines: Vec<DependencyMachine>) -> ProductMachine {
        let mut alphabet: Vec<Literal> = machines
            .iter()
            .flat_map(|m| m.alphabet.iter().flat_map(|&l| [l, l.complement()]))
            .collect();
        alphabet.sort();
        alphabet.dedup();
        assert!(alphabet.len() <= usize::from(u16::MAX), "alphabet positions are u16");
        let words = alphabet.len().div_ceil(64).max(1);

        let mut components = Vec::with_capacity(machines.len());
        let mut rows = 0;
        for m in &machines {
            components.push(Component::new(m, rows, &alphabet, words));
            rows += m.state_count();
        }

        let steppers: Vec<(usize, (u32, u16))> = components
            .iter()
            .enumerate()
            .flat_map(|(m, c)| {
                c.global.iter().enumerate().map(move |(l, &g)| (g as usize, (m as u32, l as u16)))
            })
            .collect();
        let (touch_start, touch) = grouped(alphabet.len(), &steppers);

        let mut base = Tables { dist: vec![NONE; rows], req: vec![0; rows * words] };
        let mut scratch = Scratch::default();
        let forbidden = vec![0u64; words];
        for c in &components {
            base.fill(c, &forbidden, &mut scratch);
        }

        let mut p = ProductMachine {
            arena: Vec::new(),
            slots: vec![NONE; 64],
            succ: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
            parent: Vec::new(),
            buckets: Vec::new(),
            current: base.clone(),
            base,
            dirty: vec![false; components.len()],
            forbidden,
            scratch,
            row: machines.iter().map(|m| m.initial.0).collect(),
            acc: vec![0; words],
            fresh: vec![0; words],
            witnesses: Vec::new(),
            last_witness: None,
            machines,
            components,
            alphabet,
            words,
            touch_start,
            touch,
        };
        let Err(slot) = p.find(&p.row) else { unreachable!("the intern table starts empty") };
        p.intern_row(slot);
        p
    }

    /// The component machines.
    pub fn machines(&self) -> &[DependencyMachine] {
        &self.machines
    }

    /// The union alphabet.
    pub fn alphabet(&self) -> &[Literal] {
        &self.alphabet
    }

    /// Number of product states interned so far (across all queries),
    /// counting the initial state.
    pub fn interned_states(&self) -> usize {
        self.seen.len()
    }

    /// The trace behind the most recent [`Reach::Yes`]: it drives every
    /// machine to acceptance and does not contain that query's `avoid`.
    pub fn witness(&self) -> Option<&[Literal]> {
        self.last_witness.map(|w| self.witnesses[w].path.as_slice())
    }

    /// Where `row` sits in the intern table: its state, or the empty slot
    /// it would take.
    fn find(&self, row: &[u32]) -> Result<u32, usize> {
        let k = self.components.len();
        let mut hasher = FxHasher::default();
        for &s in row {
            hasher.write_u32(s);
        }
        let mask = self.slots.len() - 1;
        // The multiply-xor hash disperses into the high bits.
        let mut slot = (hasher.finish() >> 32) as usize & mask;
        loop {
            match self.slots[slot] {
                NONE => return Err(slot),
                id if self.arena[id as usize * k..][..k] == *row => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Intern `self.row` at the empty `slot` [`Self::find`] returned for it.
    fn intern_row(&mut self, slot: usize) -> u32 {
        let id = self.seen.len() as u32;
        assert!(id != NONE, "product state ids are u32");
        self.arena.extend_from_slice(&self.row);
        self.slots[slot] = id;
        self.succ.resize(self.succ.len() + self.alphabet.len(), NONE);
        self.seen.push(0);
        self.parent.push((0, 0));
        if self.seen.len() * 2 > self.slots.len() {
            self.grow_slots();
        }
        id
    }

    fn grow_slots(&mut self) {
        let k = self.components.len();
        self.slots = vec![NONE; self.slots.len() * 2];
        for id in 0..self.seen.len() {
            let Err(slot) = self.find(&self.arena[id * k..][..k]) else {
                unreachable!("interned rows are distinct")
            };
            self.slots[slot] = id as u32;
        }
    }

    /// Is an all-accepting product state reachable from the initial state,
    /// optionally without ever taking an `avoid` edge?
    ///
    /// With `avoid = None` this decides joint satisfiability of the
    /// workflow. With `avoid = Some(l)` it decides whether some jointly
    /// satisfying maximal trace excludes `l` — the building block for the
    /// dead/forced quantifications (residuation removes a symbol from
    /// every residual, so untaken symbols can always be completed after
    /// acceptance without leaving `⊤`).
    pub fn reach_accepting(&mut self, avoid: Option<Literal>, budget: &mut StateBudget) -> Reach {
        // A literal outside the alphabet labels no edge.
        let avoid = avoid.and_then(|l| self.alphabet.binary_search(&l).ok());
        self.reach(avoid, budget)
    }

    /// Run the joint query and, when the workflow is satisfiable, one
    /// avoid-query per literal of the alphabet, all on one budget.
    pub fn classify(&mut self, budget: &mut StateBudget) -> Classification {
        let joint = self.reach(None, budget);
        let mut verdict = Classification { joint, dead: Vec::new(), incomplete: joint.cutoff() };
        if joint.found() {
            for g in 0..self.alphabet.len() {
                match self.reach(Some(g), budget) {
                    Reach::Yes => {}
                    // No satisfying trace avoids `g`: all contain it, so
                    // none contains its complement.
                    Reach::No => verdict.dead.push(self.alphabet[g ^ 1]),
                    Reach::Cutoff => verdict.incomplete = true,
                }
            }
            verdict.dead.sort();
        }
        verdict
    }

    fn reach(&mut self, avoid: Option<usize>, budget: &mut StateBudget) -> Reach {
        // Replaying a stored trace that lacks `avoid` answers the query.
        let reusable = |w: &Witness| avoid.is_none_or(|g| !has_bit(&w.mask, g));
        if let Some(w) = self.witnesses.iter().position(reusable) {
            self.last_witness = Some(w);
            return Reach::Yes;
        }
        match self.propagate(avoid) {
            Some(h) => self.search(h, budget),
            None => Reach::No,
        }
    }

    /// Set `forbidden` to the closure of `{avoid}` at the initial state and
    /// `current` to the tables under it. A literal some machine needs on
    /// every accepting path from its initial state must occur before its
    /// complement could, after which the complement labels only
    /// self-loops: forbidding the complement loses no accepting path.
    /// Returns the initial state's evaluation under the closure: `None`
    /// when it is pruned, so nothing accepts.
    fn propagate(&mut self, avoid: Option<usize>) -> Option<u32> {
        let k = self.components.len();
        for (m, dirty) in self.dirty.iter_mut().enumerate() {
            if std::mem::take(dirty) {
                let c = &self.components[m];
                let rows = c.offset..c.offset + c.states;
                self.current.dist[rows.clone()].copy_from_slice(&self.base.dist[rows.clone()]);
                let masks = rows.start * self.words..rows.end * self.words;
                self.current.req[masks.clone()].copy_from_slice(&self.base.req[masks]);
            }
        }
        self.forbidden.fill(0);
        self.fresh.fill(0);
        if let Some(g) = avoid {
            set_bit(&mut self.fresh, g);
        }
        loop {
            for (f, n) in self.forbidden.iter_mut().zip(&self.fresh) {
                *f |= n;
            }
            for (m, c) in self.components.iter().enumerate() {
                if c.gamma.iter().zip(&self.fresh).any(|(a, b)| a & b != 0) {
                    self.current.fill(c, &self.forbidden, &mut self.scratch);
                    self.dirty[m] = true;
                }
            }
            // Leaves the union of the initial states' required literals in `acc`.
            let h = self.current.eval(&self.components, &self.arena[..k], &mut self.acc)?;
            // fresh = complements of the required literals, minus forbidden.
            let mut grew = false;
            for ((n, &a), &f) in self.fresh.iter_mut().zip(&self.acc).zip(&self.forbidden) {
                let (even, odd) = (a & 0x5555_5555_5555_5555, a & 0xAAAA_AAAA_AAAA_AAAA);
                *n = (even << 1 | odd >> 1) & !f;
                grew |= *n != 0;
            }
            if !grew {
                return Some(h);
            }
        }
    }

    /// Best-first search from the initial state (at summed distance `h`)
    /// over the states `current` does not prune, skipping `forbidden`
    /// edges. The order is a heuristic only: every unpruned reachable
    /// state is expanded before the answer is `No`.
    fn search(&mut self, h: u32, budget: &mut StateBudget) -> Reach {
        let k = self.components.len();
        let width = self.alphabet.len();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        for b in &mut self.buckets {
            b.clear();
        }
        self.seen[0] = self.epoch;
        if h == 0 {
            return self.found(0);
        }
        self.open(h, 0);
        let mut lowest = h as usize;
        let mut cutoff = false;
        loop {
            while lowest < self.buckets.len() && self.buckets[lowest].is_empty() {
                lowest += 1;
            }
            let Some(pid) = self.buckets.get_mut(lowest).and_then(Vec::pop) else {
                return if cutoff { Reach::Cutoff } else { Reach::No };
            };
            for g in 0..width {
                if has_bit(&self.forbidden, g) {
                    continue;
                }
                let edge = pid as usize * width + g;
                // A fresh edge is evaluated before its target is interned,
                // so a pruned target costs no budget.
                let (nid, fresh_h) = match self.succ[edge] {
                    NONE => {
                        self.row.clear();
                        self.row.extend_from_slice(&self.arena[pid as usize * k..][..k]);
                        let mut moved = false;
                        let steppers =
                            self.touch_start[g] as usize..self.touch_start[g + 1] as usize;
                        for &(m, local) in &self.touch[steppers] {
                            let c = &self.components[m as usize];
                            let s = self.row[m as usize];
                            let t = c.next[s as usize * c.global.len() + local as usize];
                            moved |= t != s;
                            self.row[m as usize] = t;
                        }
                        if !moved {
                            self.succ[edge] = pid;
                            continue;
                        }
                        let Some(h) = self.current.eval(&self.components, &self.row, &mut self.acc)
                        else {
                            continue;
                        };
                        let nid = match self.find(&self.row) {
                            Ok(id) => id,
                            Err(slot) => {
                                if !budget.charge() {
                                    cutoff = true;
                                    continue;
                                }
                                self.intern_row(slot)
                            }
                        };
                        self.succ[edge] = nid;
                        (nid, Some(h))
                    }
                    nid => (nid, None),
                };
                if self.seen[nid as usize] == self.epoch {
                    continue;
                }
                self.seen[nid as usize] = self.epoch;
                let tuple = &self.arena[nid as usize * k..][..k];
                let Some(h) =
                    fresh_h.or_else(|| self.current.eval(&self.components, tuple, &mut self.acc))
                else {
                    continue;
                };
                self.parent[nid as usize] = (pid, g as u16);
                if h == 0 {
                    return self.found(nid);
                }
                self.open(h, nid);
                lowest = lowest.min(h as usize);
            }
        }
    }

    fn open(&mut self, h: u32, id: u32) {
        if self.buckets.len() <= h as usize {
            self.buckets.resize_with(h as usize + 1, Vec::new);
        }
        self.buckets[h as usize].push(id);
    }

    /// Record the search-tree path into the accepting state `id`.
    fn found(&mut self, mut id: u32) -> Reach {
        let mut witness = Witness { mask: vec![0; self.words], path: Vec::new() };
        while id != 0 {
            let (from, g) = self.parent[id as usize];
            set_bit(&mut witness.mask, g as usize);
            witness.path.push(self.alphabet[g as usize]);
            id = from;
        }
        witness.path.reverse();
        self.last_witness = Some(self.witnesses.len());
        self.witnesses.push(witness);
        Reach::Yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;
    use crate::symbol::SymbolTable;

    fn deps(srcs: &[&str]) -> (SymbolTable, Vec<Expr>) {
        let mut t = SymbolTable::new();
        let ds = srcs.iter().map(|s| parse_expr(s, &mut t).unwrap()).collect();
        (t, ds)
    }

    #[test]
    fn joint_satisfiability_by_reachability() {
        let (_, ds) = deps(&["e.f", "f.e"]);
        let mut p = ProductMachine::compile(&ds);
        let mut b = StateBudget::new(10_000);
        assert_eq!(p.reach_accepting(None, &mut b), Reach::No);

        let (_, ds) = deps(&["~e + f", "~f + e"]);
        let mut p = ProductMachine::compile(&ds);
        assert_eq!(p.reach_accepting(None, &mut b), Reach::Yes);
    }

    #[test]
    fn avoiding_decides_dead_and_forced() {
        let (mut t, ds) = deps(&["~e", "f"]);
        let e = t.event("e");
        let f = t.event("f");
        let mut p = ProductMachine::compile(&ds);
        let mut b = StateBudget::new(10_000);
        // No satisfying trace contains e (avoiding ē fails): e is dead.
        assert_eq!(p.reach_accepting(Some(e.complement()), &mut b), Reach::No);
        // Every satisfying trace contains f (avoiding f fails): f forced.
        assert_eq!(p.reach_accepting(Some(f), &mut b), Reach::No);
        // Both were decided at the root, without a search.
        assert_eq!((b.spent(), p.witness()), (0, None));
        // Some satisfying trace avoids f̄.
        assert_eq!(p.reach_accepting(Some(f.complement()), &mut b), Reach::Yes);
        let mut witness = p.witness().unwrap().to_vec();
        witness.sort();
        assert_eq!(witness, vec![e.complement(), f]);
        let verdict = p.classify(&mut b);
        assert_eq!(verdict.joint, Reach::Yes);
        assert_eq!(verdict.dead, vec![e, f.complement()]);
        assert!(!verdict.incomplete);
    }

    #[test]
    fn budget_cutoff_is_reported() {
        let (_, ds) = deps(&["~e1 + e2", "~e2 + e3", "~e3 + e4"]);
        let mut p = ProductMachine::compile(&ds);
        let mut b = StateBudget::new(2);
        assert_eq!(
            p.reach_accepting(Some(Literal::pos(crate::symbol::SymbolId(0))), &mut b),
            Reach::Cutoff
        );
        assert!(b.exhausted());
        // The classification stops at a cut-off joint query.
        let verdict = p.classify(&mut b);
        assert_eq!(verdict.joint, Reach::Cutoff);
        assert!(verdict.incomplete && verdict.dead.is_empty());
    }

    #[test]
    fn intern_table_is_shared_across_queries() {
        let (mut t, ds) = deps(&["~e + f", "~f + e"]);
        let e = t.event("e");
        let mut p = ProductMachine::compile(&ds);
        let mut b = StateBudget::new(10_000);
        let _ = p.reach_accepting(None, &mut b);
        let after_first = b.spent();
        // A second query over the same region pays nothing new.
        let _ = p.reach_accepting(None, &mut b);
        assert_eq!(b.spent(), after_first);
        // A restricted query can only intern states the first also saw.
        let _ = p.reach_accepting(Some(e), &mut b);
        assert_eq!(b.spent(), after_first);
    }

    #[test]
    fn interning_survives_table_growth_and_wide_products() {
        // Twelve arrows: more product states than the initial slot table
        // holds, each twelve machines wide.
        let srcs: Vec<String> = (0..12).map(|i| format!("~e{i} + e{}", i + 1)).collect();
        let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let (_, ds) = deps(&srcs);
        let mut p = ProductMachine::compile(&ds);
        let mut b = StateBudget::new(100_000);
        let verdict = p.classify(&mut b);
        assert_eq!(verdict.joint, Reach::Yes);
        assert!(verdict.dead.is_empty() && !verdict.incomplete);
        assert!(p.interned_states() > 64, "{}", p.interned_states());
        assert_eq!(p.interned_states(), b.spent() + 1);
        let k = p.components.len();
        let mut rows: Vec<&[u32]> = p.arena.chunks(k).collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), p.interned_states(), "every interned row is distinct");
    }

    #[test]
    fn duplicate_dependencies_share_a_machine() {
        // compile() dedups structurally identical dependencies; the
        // product over duplicates must still answer like the naive build.
        let (_, ds) = deps(&["~e + f", "~e + f", "~f + e"]);
        let mut deduped = ProductMachine::compile(&ds);
        let mut naive = ProductMachine::from_machines(
            ds.iter().map(DependencyMachine::compile_tree_reference).collect(),
        );
        assert_eq!(deduped.machines().len(), 3);
        let mut b1 = StateBudget::new(10_000);
        let mut b2 = StateBudget::new(10_000);
        assert_eq!(deduped.reach_accepting(None, &mut b1), naive.reach_accepting(None, &mut b2));
    }

    #[test]
    fn agrees_with_brute_force_on_small_workflows() {
        use crate::semantics::satisfies;
        use crate::trace::enumerate_maximal;
        let cases: &[&[&str]] = &[
            &["e.f", "f.e"],
            &["~e + f", "~f + e"],
            &["~e", "f"],
            &["e1 | e2.e1 | (e0 + ~e0)", "~e3.~e2"],
            &["~e + ~f + e.f", "~f + ~e + f.e"],
        ];
        for srcs in cases {
            let (_, ds) = deps(srcs);
            let mut syms: Vec<_> = ds.iter().flat_map(|d| d.symbols()).collect();
            syms.sort();
            syms.dedup();
            let brute = enumerate_maximal(&syms).iter().any(|u| ds.iter().all(|d| satisfies(u, d)));
            let mut p = ProductMachine::compile(&ds);
            let mut b = StateBudget::new(100_000);
            assert_eq!(p.reach_accepting(None, &mut b).found(), brute, "{srcs:?}");
        }
    }

    #[test]
    fn empty_product_accepts_at_once() {
        let mut p = ProductMachine::compile(&[]);
        let mut b = StateBudget::new(0);
        assert_eq!(p.reach_accepting(None, &mut b), Reach::Yes);
        assert_eq!(p.witness(), Some(&[][..]));
        assert_eq!(b.spent(), 0);
    }
}
