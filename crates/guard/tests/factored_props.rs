//! Factored guards against the multiplied-out guard they stand for.
//!
//! A compiled guard is a [`FactoredGuard`]: canonical factors over
//! disjoint symbols, never multiplied out at run time. The actors read
//! each factor at the facts heard on its symbols and everything else off
//! per-factor values. That is sound only if, at every fact set, the
//! factors expand to the product at that fact set — conjunct for
//! conjunct, since the actors read conjuncts and `canonical`'s merge
//! order is part of a guard's value — and every derived answer agrees
//! with the one computed on that guard. Both are walked here: random
//! dependencies sharing one literal, and every multi-factor literal of
//! the benchmark's templates and the sagas up to `saga(5)`.

use constrained_events::{models, Workflow, WorkflowBuilder};
use event_algebra::{enumerate_maximal, Expr, Literal, Polarity, SymbolId, Trace};
use guard::{guard_of, CompiledWorkflow, GuardScope};
use std::sync::atomic::{AtomicUsize, Ordering};
use temporal::{
    ask_order, asks, eventually_mask, occurred_mask, product_status, state_on, status,
    CoverScratch, Fact, FactoredGuard, Guard, GuardStatus, Need, ST_A, ST_B, ST_C, ST_D, ST_FULL,
};
use testkit::{check, Exprs, Gen};

/// What the actors' promise-grant test accepts of a constraint `(s, m)`
/// given the promises `assumed`: an assumed occurrence implies it, or it
/// admits both unresolved states.
fn grantable(assumed: &[Literal]) -> impl Fn(SymbolId, u8) -> bool + '_ {
    move |s, m| {
        assumed.iter().any(|l| l.symbol() == s && occurred_mask(l.polarity()) & !m == 0)
            || (m & (ST_C | ST_D)) == (ST_C | ST_D)
    }
}

/// A random possible-state set for each symbol: usually one or two
/// states, sometimes all four, now and then none.
fn possible_sets(g: &mut Gen, syms: &[SymbolId]) -> Vec<(SymbolId, u8)> {
    let states = [ST_A, ST_B, ST_C, ST_D];
    let pick = |g: &mut Gen| states[g.range(0..4usize)];
    syms.iter()
        .map(|&s| {
            let m = match g.range(0..10u32) {
                0 => 0,
                1 => ST_FULL,
                2..=5 => pick(g),
                _ => pick(g) | pick(g),
            };
            (s, m)
        })
        .collect()
}

/// A random maximal trace over `syms`: every symbol resolved one way, in
/// a random order.
fn random_maximal(g: &mut Gen, syms: &[SymbolId]) -> Trace {
    let mut lits: Vec<Literal> =
        syms.iter().map(|&s| if g.flip() { Literal::pos(s) } else { Literal::neg(s) }).collect();
    for i in (1..lits.len()).rev() {
        lits.swap(i, g.range(0..=i));
    }
    Trace::new(lits).expect("distinct symbols")
}

/// Everything the actors and the monitor read off `factored`, combined
/// from per-factor values the way they combine them, equals what the
/// product code read off `product`.
fn assert_agrees(g: &mut Gen, factored: &FactoredGuard, product: &Guard, at: &str) {
    let factors = factored.factors();
    assert_eq!(factored.expand(), *product, "expansion {at}");
    assert_eq!(product_status(factors.iter().map(status)), status(product), "status {at}");
    // Asks: the factors', merged.
    let mut merged: Vec<Need> = factors.iter().flat_map(asks).collect();
    merged.sort_by_key(ask_order);
    assert_eq!(merged, asks(product), "asks {at}");

    // Coverage, as `guard_enabled` decides it — every factor covers its
    // share — for random possible sets small enough to enumerate on the
    // product.
    let cover: Vec<SymbolId> = product.symbols().into_iter().collect();
    let mut scratch = CoverScratch::default();
    for _ in 0..4 {
        let sets = possible_sets(g, &cover);
        let combos: u32 = sets.iter().map(|(_, m)| m.count_ones().max(1)).product();
        if cover.len() > 12 || combos > 1 << 12 {
            break;
        }
        let possible = |s: SymbolId| sets.iter().find(|&&(t, _)| t == s).map_or(ST_FULL, |p| p.1);
        let reference = product.holds_now() || product.covered(possible, &mut scratch);
        let by_factor = factors.iter().all(|f| f.covered(possible, &mut scratch));
        assert_eq!(by_factor, reference, "coverage {at} under {sets:?}");
    }

    // The grant test under random promised literals: every factor has a
    // dischargeable conjunct.
    let symbols: Vec<SymbolId> = product.symbols().into_iter().collect();
    for _ in 0..3 {
        let assumed: Vec<Literal> = (0..g.range(0..=3usize))
            .filter(|_| !symbols.is_empty())
            .map(|_| g.literal(&symbols))
            .collect();
        let reference = product.holds_now() || product.dischargeable(grantable(&assumed));
        let by_factor = factors.iter().all(|f| f.dischargeable(grantable(&assumed)));
        assert_eq!(by_factor, reference, "grant {at}");
    }

    // `eval` on every maximal trace over the guard's symbols (a random
    // few past four symbols), at every index.
    let traces: Vec<Trace> = if symbols.len() <= 4 {
        enumerate_maximal(&symbols)
    } else {
        (0..6).map(|_| random_maximal(g, &symbols)).collect()
    };
    for u in &traces {
        for i in 0..=u.len() {
            assert_eq!(factored.eval(u, i), product.eval(u, i), "eval {at} on {u} at {i}");
        }
    }
    assert!(factored.symbols_all(|s| symbols.contains(&s)), "symbols {at}");
}

/// A random fact sequence over `syms`: each symbol resolves one way,
/// possibly promised first, and the facts arrive interleaved.
fn fact_sequence(g: &mut Gen, syms: &[SymbolId]) -> Vec<Fact> {
    let mut per_symbol: Vec<Vec<Fact>> = Vec::new();
    for &s in syms {
        if g.range(0..5u32) == 0 {
            continue; // never heard of
        }
        let l = if g.flip() { Literal::pos(s) } else { Literal::neg(s) };
        per_symbol.push(match g.range(0..3u32) {
            0 => vec![Fact::Promised(l)],
            1 => vec![Fact::Promised(l), Fact::Occurred(l)],
            _ => vec![Fact::Occurred(l)],
        });
    }
    let mut out = Vec::new();
    while !per_symbol.is_empty() {
        let k = g.range(0..per_symbol.len());
        out.push(per_symbol[k].remove(0));
        if per_symbol[k].is_empty() {
            per_symbol.swap_remove(k);
        }
    }
    out
}

/// What the facts `seen` leave each symbol: the intersection of their
/// [closures](Fact::closure_mask).
fn known(seen: &[Fact]) -> impl Fn(SymbolId) -> u8 + '_ {
    move |s| {
        let about = seen.iter().filter(|f| f.literal().symbol() == s);
        about.fold(ST_FULL, |k, f| k & f.closure_mask())
    }
}

/// The factored guard and the product side by side: the faithful ones
/// as they are (facts never reduce a `◇(sequence)` atom), then the
/// weakened ones at every prefix of a random fact sequence — each factor
/// at the facts on its symbols, the product at all of them.
fn walk(g: &mut Gen, factored: &FactoredGuard, product: &Guard, name: &str) {
    assert_agrees(g, factored, product, &format!("{name} at the start"));
    let (factored, product) = (factored.weaken_sequences(), product.weaken_sequences());
    assert_agrees(g, &factored, &product, &format!("{name} weakened"));
    let syms: Vec<SymbolId> = product.symbols().into_iter().collect();
    let facts = fact_sequence(g, &syms);
    for n in 1..=facts.len() {
        let seen = &facts[..n];
        let at = format!("{name} after {seen:?}");
        assert_agrees(g, &at_fact_set(&factored, seen), &product.under(known(seen)), &at);
    }
}

/// `lit`'s guard as one factor per dependency mentioning it, merged
/// until no two share a symbol: the factoring before the compile
/// multiplies its one-conjunct factors into wider ones, so every factor
/// boundary a product can have is walked.
fn per_dependency_factors(deps: &[Expr], lit: Literal) -> FactoredGuard {
    let mut factors: Vec<Guard> =
        deps.iter().filter(|d| d.mentions(lit.symbol())).map(|d| guard_of(d, lit)).collect();
    'merge: loop {
        for i in 0..factors.len() {
            let mine = factors[i].symbols();
            if let Some(j) =
                (i + 1..factors.len()).find(|&j| !factors[j].symbols_all(|s| !mine.contains(&s)))
            {
                let other = factors.remove(j);
                factors[i] = factors[i].and(&other);
                continue 'merge;
            }
        }
        break FactoredGuard::new(factors);
    }
}

/// Multi-factor literals met by [`random_factor_lists_reduce_like_their_product`].
static MULTI: AtomicUsize = AtomicUsize::new(0);

/// Two or three random dependencies over a universe of seven symbols,
/// each mentioning symbol 0: its literals' guards have a factor per
/// dependency, merged where two share another symbol.
#[test]
fn random_factor_lists_reduce_like_their_product() {
    check("random_factor_lists_reduce_like_their_product", 400, |g| {
        let universe: Vec<SymbolId> = (0..7).map(SymbolId).collect();
        let n = g.range(2..=3usize);
        // Each dependency draws one or two symbols of its own; now and
        // then it also takes one another dependency may have.
        let mut pool: Vec<SymbolId> = universe[1..].to_vec();
        let deps: Vec<Expr> = (0..n)
            .map(|_| {
                let mut syms = vec![universe[0]];
                for _ in 0..g.range(1..=2usize) {
                    if !pool.is_empty() {
                        syms.push(pool.swap_remove(g.range(0..pool.len())));
                    }
                }
                if syms.len() == 1 || g.range(0..4u32) == 0 {
                    let s = universe[g.range(1..universe.len())];
                    if !syms.contains(&s) {
                        syms.push(s);
                    }
                }
                loop {
                    let d = g.dependency(&syms, 3);
                    if d.mentions(universe[0]) {
                        return d;
                    }
                }
            })
            .collect();
        let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        for lit in [Literal::pos(universe[0]), Literal::neg(universe[0])] {
            let product = deps.iter().fold(Guard::top(), |acc, d| acc.and(&guard_of(d, lit)));
            let compiled = compiled.guard_ref(lit).expect("every dependency mentions it");
            walk(g, compiled, &product, &format!("compiled {lit} of {deps:?}"));
            let raw = per_dependency_factors(&deps, lit);
            if raw.factors().len() > 1 {
                MULTI.fetch_add(1, Ordering::Relaxed);
            }
            walk(g, &raw, &product, &format!("{lit} of {deps:?}"));
        }
    });
    let multi = MULTI.load(Ordering::Relaxed);
    assert!(multi >= 100, "only {multi} of 800 literals had two factors or more");
}

fn example(name: &str) -> Workflow {
    let path = format!("{}/../../examples/specs/{name}.wf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect(&path);
    WorkflowBuilder::from_spec(&src).expect(name).build()
}

/// The shipped templates and the sagas up to `saga(5)`, each with how
/// many walks its literals get: `saga(5)`'s products run to 1 296
/// conjuncts, so it gets fewer.
fn templates() -> [(&'static str, Workflow, u64); 8] {
    [
        ("travel", example("travel"), 8),
        ("pipeline10", example("pipeline10"), 8),
        ("diamond(3)", models::diamond(3), 8),
        ("contingency(3, false)", models::contingency(3, false), 8),
        ("saga(3, 3, Some(1))", models::saga(3, 3, Some(1)), 8),
        ("saga(3, 3, None)", models::saga(3, 3, None), 8),
        ("saga(4, 3, None)", models::saga(4, 3, None), 3),
        ("saga(5, 3, None)", models::saga(5, 3, None), 1),
    ]
}

/// Every literal of the eight templates with two per-dependency factors
/// or more, walked from its expanded guard — as those factors, and as the
/// compiled factors where the compile kept more than one.
#[test]
fn template_factor_lists_reduce_like_their_product() {
    let mut multi = 0;
    for (name, workflow, walks) in templates() {
        let compiled = workflow.compile_guards();
        for (&lit, factored) in &compiled.guards {
            let raw = per_dependency_factors(&workflow.spec.dependencies, lit);
            if raw.factors().len() < 2 {
                continue;
            }
            multi += 1;
            let product = factored.expand();
            assert_eq!(raw.expand(), product, "{name}: {lit}");
            for seed in 0..walks {
                let mut g = Gen::new(seed);
                let at = format!("{name}: {lit}, walk {seed}");
                walk(&mut g, &raw, &product, &at);
                if factored.factors().len() > 1 {
                    walk(&mut g, factored, &product, &format!("compiled {at}"));
                }
            }
        }
    }
    assert!(multi >= 50, "only {multi} multi-factor literals");
}

/// No constraint of `guard` is one a fact in `seen` already decides: a
/// mask containing the fact's [closure](Fact::closure_mask) holds, and
/// one disjoint from it fails, whatever comes next.
fn assert_nothing_decided_is_kept(guard: &FactoredGuard, seen: &[Fact], at: &str) {
    for fact in seen {
        let (sym, closure) = (fact.literal().symbol(), fact.closure_mask());
        let cells = guard.factors().iter().flat_map(Guard::conjuncts);
        for (s, m) in cells.flat_map(|c| c.constrained_symbols()) {
            let decided = s == sym && (m & closure == closure || m & closure == 0);
            assert!(!decided, "{at}: {guard:?} keeps ({s:?}, {m:#06b}) after {fact:?}");
        }
    }
}

/// `weakened` at the fact set `seen`, factor by factor ([`Guard::under`]):
/// the guard an actor's table holds for it.
fn at_fact_set(weakened: &FactoredGuard, seen: &[Fact]) -> FactoredGuard {
    FactoredGuard::new(weakened.factors().iter().map(|f| f.under(known(seen))).collect())
}

/// A random maximal trace over `syms` that the facts `seen` allow from
/// the index it returns on: the occurred literals first, in a random
/// order, then every other symbol — promised ones the promised way,
/// unheard ones either way — in a random order.
fn consistent_trace(g: &mut Gen, syms: &[SymbolId], seen: &[Fact]) -> (Trace, usize) {
    let (mut occurred, mut later) = (Vec::new(), Vec::new());
    for &s in syms {
        let heard = seen.iter().filter(|f| f.literal().symbol() == s);
        let (mut lit, mut occ) = (if g.flip() { Literal::pos(s) } else { Literal::neg(s) }, false);
        for f in heard {
            lit = f.literal();
            occ |= matches!(f, Fact::Occurred(_));
        }
        if occ { &mut occurred } else { &mut later }.push(lit);
    }
    for part in [&mut occurred, &mut later] {
        for i in (1..part.len()).rev() {
            part.swap(i, g.range(0..=i));
        }
    }
    let from = occurred.len();
    occurred.extend(later);
    (Trace::new(occurred).expect("distinct symbols"), from)
}

/// An actor's guard is a function of the facts it has heard, so no
/// arrival order can move it: what is left to hold on the shipped
/// templates is that the function is right. At every prefix of random
/// fact sequences, the weakened guard at the fact set keeps no
/// constraint a fact it has seen decides, and on random maximal traces
/// the facts allow it agrees with the weakened guard at every index they
/// allow. The fact sets counted are those that arrived out of the order
/// a late announcement replays them in (the occurrences in sequence
/// order, then the promises), where the fact-at-a-time reductions once
/// disagreed with themselves. Each walk draws the occurrences' sequence
/// order on its own.
#[test]
fn template_reductions_do_not_depend_on_fact_order() {
    const WALKS: u64 = 64;
    let mut reordered = 0;
    for (name, workflow, _) in templates() {
        let compiled = workflow.compile_guards();
        for (&lit, factored) in &compiled.guards {
            let weakened = factored.weaken_sequences();
            let syms: Vec<SymbolId> = weakened.symbols().into_iter().collect();
            for seed in 0..WALKS {
                let mut g = Gen::new(seed);
                let arrival = fact_sequence(&mut g, &syms);
                let occurrences = arrival.iter().filter(|f| matches!(f, Fact::Occurred(_)));
                let mut by_seq: Vec<Literal> = occurrences.map(|f| f.literal()).collect();
                for i in (1..by_seq.len()).rev() {
                    by_seq.swap(i, g.range(0..=i));
                }
                for n in 1..=arrival.len() {
                    let seen = &arrival[..n];
                    let at = format!("{name}: {lit}, walk {seed}, after {seen:?}");
                    let mut replay = seen.to_vec();
                    replay.sort_by_key(|f| match f {
                        Fact::Occurred(l) => (0, by_seq.iter().position(|o| o == l)),
                        Fact::Promised(l) => (1, Some(l.index())),
                    });
                    reordered += usize::from(replay != seen);

                    let guard = at_fact_set(&weakened, seen);
                    assert_nothing_decided_is_kept(&guard, seen, &at);
                    for _ in 0..2 {
                        let (u, from) = consistent_trace(&mut g, &syms, seen);
                        for i in from..=u.len() {
                            let want = weakened.eval(&u, i);
                            assert_eq!(guard.eval(&u, i), want, "{at} on {u} at {i}");
                        }
                    }
                }
            }
        }
    }
    assert!(reordered >= 5_000, "only {reordered} fact sets came in out of replay order");
}

/// Blocked fact sets that [`fact_set_status_is_sound`] found the
/// semantics already decides, and all Blocked ones it met.
static DECIDED: AtomicUsize = AtomicUsize::new(0);
static BLOCKED: AtomicUsize = AtomicUsize::new(0);

/// The status of a guard at a fact set is sound: on random workflows of
/// two to four symbols, at random consistent fact sets on each weakened
/// factor, `EnabledNow` means the factor holds at every (maximal trace,
/// index) pair consistent with the facts, `Dead` that it holds at none.
/// At every such pair the guard at the fact set and the factor agree. A
/// Blocked status can still be one the semantics decides (`⊤` covered by
/// a union of conjuncts, no single one); how often is printed, not
/// pinned.
#[test]
fn fact_set_status_is_sound() {
    check("fact_set_status_is_sound", 300, |g| {
        let syms: Vec<SymbolId> = (0..g.range(2..=4u32)).map(SymbolId).collect();
        let deps = g.workflow(&syms, 3, 3);
        let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
        let traces = enumerate_maximal(&syms);
        for factored in compiled.guards.values() {
            for factor in factored.weaken_sequences().factors() {
                let own: Vec<SymbolId> = factor.symbols().into_iter().collect();
                for _ in 0..4 {
                    // Each symbol: nothing heard, ◇l, ◇l̄, □l or □l̄.
                    let known: Vec<u8> = (own.iter())
                        .map(|_| match g.range(0..5u32) {
                            0 => ST_FULL,
                            1 => eventually_mask(Polarity::Pos),
                            2 => eventually_mask(Polarity::Neg),
                            3 => ST_A,
                            _ => ST_B,
                        })
                        .collect();
                    let known_of =
                        |s| own.iter().position(|&t| t == s).map_or(ST_FULL, |k| known[k]);
                    let guard = factor.under(known_of);
                    let (mut consistent, mut holding) = (0, 0);
                    for u in &traces {
                        for i in 0..=u.len() {
                            if own.iter().any(|&s| state_on(u, i, s) & known_of(s) == 0) {
                                continue;
                            }
                            let holds = factor.eval(u, i);
                            assert_eq!(
                                guard.eval(u, i),
                                holds,
                                "{factor:?} under {known:?} on {u} at {i}"
                            );
                            consistent += 1;
                            holding += usize::from(holds);
                        }
                    }
                    assert!(consistent > 0, "{known:?} is consistent");
                    let at = format!("{factor:?} under {known:?}: {guard:?}");
                    match status(&guard) {
                        GuardStatus::EnabledNow => assert_eq!(holding, consistent, "{at}"),
                        GuardStatus::Dead => assert_eq!(holding, 0, "{at}"),
                        GuardStatus::Blocked => {
                            BLOCKED.fetch_add(1, Ordering::Relaxed);
                            if holding == 0 || holding == consistent {
                                DECIDED.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
        }
    });
    let (decided, blocked) = (DECIDED.load(Ordering::Relaxed), BLOCKED.load(Ordering::Relaxed));
    println!("{decided} of {blocked} Blocked fact sets are decided by the semantics");
}
