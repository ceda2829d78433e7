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
//! A workflow is written from a few dependency shapes, so the search
//! works by shape too. Machines of one shape
//! ([`DependencyMachine::same_shape`]) share one flattened copy of its
//! transitions, reverse edges and accepting states; a component is only
//! its binding, the union-alphabet positions of its literals. A machine's
//! search tables under a forbidden set depend only on its shape and on
//! the forbidden literals of its own alphabet, so each (shape, forbidden
//! set) pair is filled once per product, as the queries meet it, and
//! copied into the place of every component that needs it. All tables,
//! witnesses and search state live in a few pooled vectors.
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

/// One machine shape flattened for the search, shared by every component
/// of that shape: its transitions, reverse edges and accepting states lie
/// in the pools of [`Shapes`].
#[derive(Debug, Clone, Copy)]
struct Shape {
    states: u32,
    /// `|Γ|` of the shape: the width of a transition row.
    width: u32,
    /// `u64` words of a mask over the shape's own alphabet.
    words: u32,
    /// The shape's transitions: `next[next_at + s * width + local]`.
    next_at: u32,
    /// The shape's `states + 1` reverse-edge bounds start at
    /// `pred_start[pred_at]`; they index `preds` directly.
    pred_at: u32,
    /// `accepting[accept.0..accept.1]`.
    accept: (u32, u32),
    /// The memo entry of the shape's tables under no forbidden literal.
    base: u32,
}

/// The shapes of a product's machines, their tables pooled.
#[derive(Debug, Clone, Default)]
struct Shapes {
    list: Vec<Shape>,
    /// Transitions, `width` per state, self-loops (R6) included.
    next: Vec<u32>,
    /// Reverse edges grouped by target: `preds[pred_start[pred_at + t]..
    /// pred_start[pred_at + t + 1]]` holds `(source, local literal)`;
    /// self-loops are left out.
    pred_start: Vec<u32>,
    preds: Vec<(u32, u16)>,
    accepting: Vec<u32>,
}

impl Shapes {
    /// Empty pools with room for every machine of `machines` to be a
    /// shape of its own.
    fn with_room(machines: &[DependencyMachine]) -> Shapes {
        let states: usize = machines.iter().map(DependencyMachine::state_count).sum();
        let cells: usize = machines.iter().map(|m| m.state_count() * m.alphabet.len()).sum();
        Shapes {
            list: Vec::with_capacity(machines.len()),
            next: Vec::with_capacity(cells),
            pred_start: Vec::with_capacity(states + machines.len()),
            preds: Vec::with_capacity(cells),
            accepting: Vec::with_capacity(states),
        }
    }

    /// Flatten `m`'s shape into the pools.
    fn push(&mut self, m: &DependencyMachine) {
        let (n, width) = (m.state_count(), m.alphabet.len());
        let next_at = self.next.len();
        self.next.extend(m.transitions().iter().map(|t| t.0));
        // Counting sort of the moves by target, in place: count, sum,
        // place while advancing each target's cursor, shift back.
        let first = self.preds.len() as u32;
        let pred_at = self.pred_start.len();
        self.pred_start.resize(pred_at + n + 1, 0);
        let next = &self.next[next_at..];
        let moves = || {
            (next.iter().enumerate())
                .map(move |(at, &t)| (at / width, at % width, t as usize))
                .filter(|&(s, _, t)| s != t)
        };
        let starts = &mut self.pred_start[pred_at..];
        for (_, _, t) in moves() {
            starts[t + 1] += 1;
        }
        starts[0] = first;
        for t in 0..n {
            starts[t + 1] += starts[t];
        }
        self.preds.resize(starts[n] as usize, (0, 0));
        for (s, local, t) in moves() {
            self.preds[starts[t] as usize] = (s as u32, local as u16);
            starts[t] += 1;
        }
        // Each target's cursor ended on the next one's start.
        starts.copy_within(0..n, 1);
        starts[0] = first;
        let accept_at = self.accepting.len() as u32;
        self.accepting.extend((0..n as u32).filter(|&s| m.is_accepting(StateId(s))));
        self.list.push(Shape {
            states: n as u32,
            width: width as u32,
            words: width.div_ceil(64).max(1) as u32,
            next_at: next_at as u32,
            pred_at: pred_at as u32,
            accept: (accept_at, self.accepting.len() as u32),
            base: NONE,
        });
    }

    /// Hop distance from every state of `shape` to acceptance (`NONE`
    /// where it is unreachable) using no edge labeled in `forbidden` (a
    /// mask over the shape's alphabet) nor `skip`.
    fn depths(
        &self,
        shape: &Shape,
        forbidden: &[u64],
        skip: Option<u16>,
        depth: &mut [u32],
        queue: &mut Vec<u32>,
    ) {
        depth.fill(NONE);
        queue.clear();
        for &a in &self.accepting[shape.accept.0 as usize..shape.accept.1 as usize] {
            depth[a as usize] = 0;
            queue.push(a);
        }
        let bounds = &self.pred_start[shape.pred_at as usize..];
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head] as usize;
            head += 1;
            for &(s, local) in &self.preds[bounds[t] as usize..bounds[t + 1] as usize] {
                if Some(local) == skip || has_bit(forbidden, local as usize) {
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

/// One machine of the product: its shape and its binding into the union
/// alphabet.
#[derive(Debug, Clone, Copy)]
struct Component {
    shape: u32,
    /// Index of this machine's first state in [`Tables`].
    offset: u32,
    /// `global[global_at..global_at + width]`: the position in the union
    /// alphabet of each literal of `Γ_D`; `gamma[m * words..]` holds the
    /// same positions as a bitmask.
    global_at: u32,
    /// The shape's, copied for the search's steps.
    next_at: u32,
    width: u32,
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
    /// `u64` words per `req` row.
    words: usize,
}

impl Tables {
    /// Write `tables`' rows into component `c`'s place, the required
    /// literals moved from the shape's alphabet to the union alphabet.
    fn place(
        &mut self,
        c: &Component,
        shape: &Shape,
        tables: &Filled,
        memo: &Memo,
        global: &[u16],
    ) {
        let words = self.words;
        let (n, local_words) = (shape.states as usize, shape.words as usize);
        let rows = c.offset as usize..c.offset as usize + n;
        self.dist[rows.clone()].copy_from_slice(&memo.dist[tables.dist_at as usize..][..n]);
        let req = &mut self.req[rows.start * words..rows.end * words];
        req.fill(0);
        let local = &memo.req[tables.req_at as usize..][..n * local_words];
        let global = &global[c.global_at as usize..][..shape.width as usize];
        for (row, masks) in req.chunks_exact_mut(words).zip(local.chunks_exact(local_words)) {
            for (w, &mask) in masks.iter().enumerate() {
                let mut bits = mask;
                while bits != 0 {
                    set_bit(row, global[w * 64 + bits.trailing_zeros() as usize] as usize);
                    bits &= bits - 1;
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
            let row = c.offset as usize + s as usize;
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

/// One shape's search tables under one forbidden set of its literals.
#[derive(Debug, Clone, Copy)]
struct Filled {
    shape: u32,
    /// The forbidden set, a mask over the shape's alphabet:
    /// `keys[key_at..key_at + words]`.
    key_at: u32,
    /// `dist[dist_at..dist_at + states]`.
    dist_at: u32,
    /// `req[req_at..req_at + states * words]`: per state, the literals
    /// that label an edge of every accepting path, as a mask over the
    /// shape's alphabet.
    req_at: u32,
}

/// The tables of every (shape, forbidden set) pair the queries met, each
/// filled once: a machine's tables depend on nothing else.
#[derive(Debug, Clone, Default)]
struct Memo {
    filled: Vec<Filled>,
    keys: Vec<u64>,
    dist: Vec<u32>,
    req: Vec<u64>,
}

/// Forbidden sets per shape the memo has room for before it first grows.
const INITIAL_FILLS: usize = 8;

impl Memo {
    /// An empty memo with room for [`INITIAL_FILLS`] entries per shape.
    fn with_room(shapes: &Shapes) -> Memo {
        let room =
            |per: fn(&Shape) -> usize| INITIAL_FILLS * shapes.list.iter().map(per).sum::<usize>();
        Memo {
            filled: Vec::with_capacity(INITIAL_FILLS * shapes.list.len()),
            keys: Vec::with_capacity(room(|sh| sh.words as usize)),
            dist: Vec::with_capacity(room(|sh| sh.states as usize)),
            req: Vec::with_capacity(room(|sh| (sh.states * sh.words) as usize)),
        }
    }

    /// The entry of `shape` under `forbidden` (a mask over its alphabet),
    /// filled on first use.
    fn get(
        &mut self,
        shapes: &Shapes,
        shape: u32,
        forbidden: &[u64],
        scratch: &mut Scratch,
    ) -> u32 {
        let known = self.filled.iter().position(|f| {
            f.shape == shape && self.keys[f.key_at as usize..][..forbidden.len()] == *forbidden
        });
        if let Some(ix) = known {
            return ix as u32;
        }
        let sh = &shapes.list[shape as usize];
        let (n, words) = (sh.states as usize, sh.words as usize);
        let entry = Filled {
            shape,
            key_at: self.keys.len() as u32,
            dist_at: self.dist.len() as u32,
            req_at: self.req.len() as u32,
        };
        self.keys.extend_from_slice(forbidden);
        self.dist.resize(self.dist.len() + n, NONE);
        let dist = &mut self.dist[entry.dist_at as usize..];
        shapes.depths(sh, forbidden, None, dist, &mut scratch.queue);
        self.req.resize(self.req.len() + n * words, 0);
        let req = &mut self.req[entry.req_at as usize..];
        scratch.depth.resize(n, NONE);
        for local in 0..sh.width as usize {
            if has_bit(forbidden, local) {
                continue;
            }
            shapes.depths(
                sh,
                forbidden,
                Some(local as u16),
                &mut scratch.depth,
                &mut scratch.queue,
            );
            for s in 0..n {
                if dist[s] != NONE && scratch.depth[s] == NONE {
                    set_bit(&mut req[s * words..(s + 1) * words], local);
                }
            }
        }
        self.filled.push(entry);
        (self.filled.len() - 1) as u32
    }
}

/// Reusable buffers of the table computation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    queue: Vec<u32>,
    depth: Vec<u32>,
}

/// What the running query knows of an interned product state.
#[derive(Debug, Clone, Copy, Default)]
struct Visit {
    /// `seen == epoch` marks a state handled by the running query.
    seen: u32,
    /// The search-tree edge into the state: its source and literal.
    parent: u32,
    via: u16,
    /// The state opened before this one at the same summed distance.
    below: u32,
}

/// The product of a workflow's dependency machines, with an intern table
/// and successor cache shared across reachability queries.
#[derive(Debug, Clone)]
pub struct ProductMachine {
    machines: Vec<DependencyMachine>,
    shapes: Shapes,
    components: Vec<Component>,
    /// The components' union-alphabet positions, pooled.
    global: Vec<u16>,
    /// `global` as bitmasks, `words` per component.
    gamma: Vec<u64>,
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
    /// One entry per interned state.
    visits: Vec<Visit>,
    epoch: u32,
    /// Open states by summed distance: `open[h]` is the last one opened
    /// at `h`, and each one's `below` the one opened before it (`NONE`
    /// ends the stack).
    open: Vec<u32>,

    /// Every (shape, forbidden set) pair's tables met so far.
    memo: Memo,
    /// Tables under the running query's forbidden set: component `m`'s
    /// rows are memo entry `held[m]`'s.
    current: Tables,
    held: Vec<u32>,
    forbidden: Vec<u64>,
    scratch: Scratch,
    /// Buffers: a candidate successor row, a union of `req` masks, the
    /// literals the last propagation round added to `forbidden`, a
    /// forbidden set over one shape's alphabet.
    row: Vec<u32>,
    acc: Vec<u64>,
    fresh: Vec<u64>,
    key: Vec<u64>,

    /// The traces behind `Yes` answers: witness `w`'s literal set is
    /// `witness_mask[w * words..]`, its path ends at `witness_end[w]` in
    /// `witness_path` and starts where the one before ends.
    witness_mask: Vec<u64>,
    witness_path: Vec<Literal>,
    witness_end: Vec<u32>,
    /// The witness behind the most recent `Yes`.
    last_witness: Option<usize>,
}

/// Product states the search tables are sized for before they first grow.
const INITIAL_STATES: usize = 64;

impl ProductMachine {
    /// Compile one machine per dependency and form their product.
    /// Structurally identical dependencies (after normalization, decided
    /// by hash-consed id equality) are compiled once and share their
    /// machine.
    pub fn compile(dependencies: &[Expr]) -> ProductMachine {
        ProductMachine::from_machines(DependencyMachine::compile_all(dependencies))
    }

    /// Form the product of already-compiled machines (the compiled
    /// workflow's machines can be reused directly). Machines of one shape
    /// ([`DependencyMachine::same_shape`]) share one flattened copy of it;
    /// a machine's search tables are filled once per shape and forbidden
    /// set, as the queries meet them, so compiling a machine for the
    /// runtime pays for none.
    pub fn from_machines(machines: Vec<DependencyMachine>) -> ProductMachine {
        let literals: usize = machines.iter().map(|m| m.alphabet.len()).sum();
        let mut alphabet: Vec<Literal> = Vec::with_capacity(2 * literals);
        for m in &machines {
            alphabet.extend(m.alphabet.iter().flat_map(|&l| [l, l.complement()]));
        }
        alphabet.sort_unstable();
        alphabet.dedup();
        assert!(alphabet.len() <= usize::from(u16::MAX), "alphabet positions are u16");
        let words = alphabet.len().div_ceil(64).max(1);

        let mut shapes = Shapes::with_room(&machines);
        let mut components: Vec<Component> = Vec::with_capacity(machines.len());
        let mut global = Vec::with_capacity(literals);
        let mut gamma = vec![0u64; machines.len() * words];
        let mut rows = 0;
        for (ix, m) in machines.iter().enumerate() {
            let shape = match machines[..ix].iter().position(|o| o.same_shape(m)) {
                Some(o) => components[o].shape,
                None => {
                    shapes.push(m);
                    shapes.list.len() as u32 - 1
                }
            };
            let c = Component {
                shape,
                offset: rows as u32,
                global_at: global.len() as u32,
                next_at: shapes.list[shape as usize].next_at,
                width: m.alphabet.len() as u32,
            };
            for &l in &m.alphabet {
                let g = alphabet.binary_search(&l).expect("union alphabet covers Γ_D");
                global.push(g as u16);
                set_bit(&mut gamma[ix * words..(ix + 1) * words], g);
            }
            components.push(c);
            rows += m.state_count();
        }

        // The steppers of each literal, by the same in-place counting
        // sort as the reverse edges: machine order, then local order.
        let mut touch_start = vec![0u32; alphabet.len() + 1];
        for &g in &global {
            touch_start[g as usize + 1] += 1;
        }
        for g in 0..alphabet.len() {
            touch_start[g + 1] += touch_start[g];
        }
        let mut touch = vec![(0u32, 0u16); global.len()];
        for (m, c) in components.iter().enumerate() {
            let locals = &global[c.global_at as usize..][..c.width as usize];
            for (local, &g) in locals.iter().enumerate() {
                touch[touch_start[g as usize] as usize] = (m as u32, local as u16);
                touch_start[g as usize] += 1;
            }
        }
        touch_start.copy_within(0..alphabet.len(), 1);
        touch_start[0] = 0;

        let mut memo = Memo::with_room(&shapes);
        let mut scratch = Scratch::default();
        let mut key = Vec::new();
        for ix in 0..shapes.list.len() {
            key.clear();
            key.resize(shapes.list[ix].words as usize, 0);
            shapes.list[ix].base = memo.get(&shapes, ix as u32, &key, &mut scratch);
        }
        let mut current = Tables { dist: vec![NONE; rows], req: vec![0; rows * words], words };
        let mut held = Vec::with_capacity(components.len());
        for c in &components {
            let shape = &shapes.list[c.shape as usize];
            current.place(c, shape, &memo.filled[shape.base as usize], &memo, &global);
            held.push(shape.base);
        }

        let width = alphabet.len();
        let mut p = ProductMachine {
            arena: Vec::with_capacity(INITIAL_STATES * machines.len()),
            slots: vec![NONE; INITIAL_STATES],
            succ: Vec::with_capacity(INITIAL_STATES * width),
            visits: Vec::with_capacity(INITIAL_STATES),
            epoch: 0,
            open: Vec::with_capacity(INITIAL_STATES),
            memo,
            current,
            held,
            forbidden: vec![0; words],
            scratch,
            row: machines.iter().map(|m| m.initial.0).collect(),
            acc: vec![0; words],
            fresh: vec![0; words],
            key,
            // At most one witness per query, one query per literal and
            // the joint one; a path takes each symbol at most once.
            witness_mask: Vec::with_capacity((width + 1) * words),
            witness_path: Vec::with_capacity(2 * width),
            witness_end: Vec::with_capacity(width + 1),
            last_witness: None,
            machines,
            shapes,
            components,
            global,
            gamma,
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
        self.visits.len()
    }

    /// The trace behind the most recent [`Reach::Yes`]: it drives every
    /// machine to acceptance and does not contain that query's `avoid`.
    pub fn witness(&self) -> Option<&[Literal]> {
        self.last_witness.map(|w| {
            let start = w.checked_sub(1).map_or(0, |before| self.witness_end[before] as usize);
            &self.witness_path[start..self.witness_end[w] as usize]
        })
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
        let id = self.visits.len() as u32;
        assert!(id != NONE, "product state ids are u32");
        self.arena.extend_from_slice(&self.row);
        self.slots[slot] = id;
        self.succ.resize(self.succ.len() + self.alphabet.len(), NONE);
        self.visits.push(Visit::default());
        if self.visits.len() * 2 > self.slots.len() {
            self.grow_slots();
        }
        id
    }

    fn grow_slots(&mut self) {
        let k = self.components.len();
        self.slots = vec![NONE; self.slots.len() * 2];
        for id in 0..self.visits.len() {
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
        let words = self.words;
        let masks = self.witness_mask.chunks_exact(words);
        if let Some(w) = masks.clone().position(|mask| avoid.is_none_or(|g| !has_bit(mask, g))) {
            self.last_witness = Some(w);
            return Reach::Yes;
        }
        match self.propagate(avoid) {
            Some(h) => self.search(h, budget),
            None => Reach::No,
        }
    }

    /// Give component `m` the rows of its shape under the forbidden
    /// literals of its alphabet.
    fn restrict(&mut self, m: usize) {
        let c = self.components[m];
        let shape = &self.shapes.list[c.shape as usize];
        self.key.clear();
        self.key.resize(shape.words as usize, 0);
        let locals = &self.global[c.global_at as usize..][..c.width as usize];
        for (local, &g) in locals.iter().enumerate() {
            if has_bit(&self.forbidden, g as usize) {
                set_bit(&mut self.key, local);
            }
        }
        let entry = self.memo.get(&self.shapes, c.shape, &self.key, &mut self.scratch);
        self.settle(m, entry);
    }

    /// Component `m`'s rows become memo entry `entry`'s.
    fn settle(&mut self, m: usize, entry: u32) {
        if self.held[m] != entry {
            let c = &self.components[m];
            let (filled, shape) =
                (&self.memo.filled[entry as usize], &self.shapes.list[c.shape as usize]);
            self.current.place(c, shape, filled, &self.memo, &self.global);
            self.held[m] = entry;
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
        let (k, words) = (self.components.len(), self.words);
        for m in 0..k {
            let base = self.shapes.list[self.components[m].shape as usize].base;
            self.settle(m, base);
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
            for m in 0..k {
                let gamma = &self.gamma[m * words..(m + 1) * words];
                if gamma.iter().zip(&self.fresh).any(|(a, b)| a & b != 0) {
                    self.restrict(m);
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
            self.visits.iter_mut().for_each(|v| v.seen = 0);
            self.epoch = 1;
        }
        self.open.fill(NONE);
        self.visits[0].seen = self.epoch;
        if h == 0 {
            return self.found(0);
        }
        self.push_open(h, 0);
        let mut lowest = h as usize;
        let mut cutoff = false;
        loop {
            while lowest < self.open.len() && self.open[lowest] == NONE {
                lowest += 1;
            }
            let Some(&pid) = self.open.get(lowest) else {
                return if cutoff { Reach::Cutoff } else { Reach::No };
            };
            self.open[lowest] = self.visits[pid as usize].below;
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
                            let t = self.shapes.next
                                [(c.next_at + s * c.width + u32::from(local)) as usize];
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
                if self.visits[nid as usize].seen == self.epoch {
                    continue;
                }
                self.visits[nid as usize].seen = self.epoch;
                let tuple = &self.arena[nid as usize * k..][..k];
                let Some(h) =
                    fresh_h.or_else(|| self.current.eval(&self.components, tuple, &mut self.acc))
                else {
                    continue;
                };
                let visit = &mut self.visits[nid as usize];
                (visit.parent, visit.via) = (pid, g as u16);
                if h == 0 {
                    return self.found(nid);
                }
                self.push_open(h, nid);
                lowest = lowest.min(h as usize);
            }
        }
    }

    fn push_open(&mut self, h: u32, id: u32) {
        if self.open.len() <= h as usize {
            self.open.resize(h as usize + 1, NONE);
        }
        self.visits[id as usize].below = self.open[h as usize];
        self.open[h as usize] = id;
    }

    /// Record the search-tree path into the accepting state `id`.
    fn found(&mut self, mut id: u32) -> Reach {
        let start = self.witness_path.len();
        let mask = self.witness_mask.len();
        self.witness_mask.resize(mask + self.words, 0);
        while id != 0 {
            let Visit { parent, via, .. } = self.visits[id as usize];
            set_bit(&mut self.witness_mask[mask..], via as usize);
            self.witness_path.push(self.alphabet[via as usize]);
            id = parent;
        }
        self.witness_path[start..].reverse();
        self.witness_end.push(self.witness_path.len() as u32);
        self.last_witness = Some(self.witness_end.len() - 1);
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
    fn machines_of_one_shape_share_its_tables() {
        // Nine arrows of one shape and a sequence of another: two shapes,
        // every table filled once per shape and forbidden set.
        let mut srcs: Vec<String> = (0..9).map(|i| format!("~e{i} + e{}", i + 1)).collect();
        srcs.push("e0.e9".to_owned());
        let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let (_, ds) = deps(&srcs);
        let mut p = ProductMachine::compile(&ds);
        assert_eq!(p.shapes.list.len(), 2);
        assert!(p.components[..9].iter().all(|c| c.shape == 0) && p.components[9].shape == 1);
        let verdict = p.classify(&mut StateBudget::new(10_000));
        assert_eq!(verdict.joint, Reach::Yes);
        let key = |f: &Filled| {
            let words = p.shapes.list[f.shape as usize].words as usize;
            (f.shape, &p.memo.keys[f.key_at as usize..][..words])
        };
        let mut keys: Vec<_> = p.memo.filled.iter().map(key).collect();
        let filled = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), filled, "a (shape, forbidden set) pair is filled once");
        // Each component holds its shape's rows under its own forbidden
        // literals: the last query's.
        for (m, c) in p.components.iter().enumerate() {
            let f = &p.memo.filled[p.held[m] as usize];
            assert_eq!(f.shape, c.shape);
            let locals = &p.global[c.global_at as usize..][..c.width as usize];
            for (local, &g) in locals.iter().enumerate() {
                let forbidden = has_bit(&p.forbidden, g as usize);
                assert_eq!(has_bit(&p.memo.keys[f.key_at as usize..], local), forbidden);
            }
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
