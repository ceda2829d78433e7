//! Protocol-level unit tests: hand-built actors on a minimal network,
//! driving individual messages and asserting the exact protocol behavior
//! (grant/park/announce/promise/hold), independent of the executor's
//! compilation pipeline.

use agent::EventAttrs;
use dist::{DepTracker, Msg, Node, Routing, SymbolActor};
use event_algebra::{parse_expr, DependencyMachine, Expr, Literal, SymbolId, SymbolTable};
use guard::{CompiledWorkflow, GuardScope};
use sim::{Ctx, LatencyModel, Network, NodeId, SimConfig, SiteId};
use std::cell::RefCell;
use std::sync::Arc;
use temporal::{FactoredGuard, Guard, GuardStatus};

fn fixed_net(nodes: Vec<(SiteId, Node)>) -> Network<Msg, Node> {
    Network::new(SimConfig { seed: 1, latency: LatencyModel::Fixed(1) }, nodes)
}

fn actor_node(
    sym: u32,
    pos_guard: Guard,
    attrs: EventAttrs,
    deps: Vec<(usize, DepTracker)>,
    routing: &Arc<Routing>,
) -> Node {
    Node::Actor(SymbolActor::new(
        SymbolId(sym),
        &pos_guard.into(),
        &FactoredGuard::top(),
        attrs,
        EventAttrs::immediate(),
        deps,
        Arc::clone(routing),
    ))
}

fn occurred(net: &Network<Msg, Node>, node: NodeId) -> Option<Literal> {
    match net.node(node) {
        Node::Actor(a) => a.occurred.map(|(l, _, _)| l),
        _ => None,
    }
}

#[test]
fn top_guard_attempt_occurs_and_announces() {
    let e = SymbolId(0);
    let f = SymbolId(1);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.actor_of.insert(f, NodeId(1));
    // f's actor subscribes to e's announcements.
    routing.subscribers_of.insert(e, vec![(NodeId(1), f)]);
    routing.subscribers_of.insert(f, vec![]);
    let routing = Arc::new(routing);
    // f's guard: □e — parked until e's announcement arrives.
    let mut net = fixed_net(vec![
        (SiteId(0), actor_node(0, Guard::top(), EventAttrs::controllable(), vec![], &routing)),
        (
            SiteId(1),
            actor_node(
                1,
                Guard::occurred(Literal::pos(e)),
                EventAttrs::controllable(),
                vec![],
                &routing,
            ),
        ),
    ]);
    // Attempt f first: parks.
    net.inject(NodeId(1), NodeId(1), Msg::Attempt { lit: Literal::pos(f) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(1)), None, "f must park on []e");
    // Attempt e: occurs, announcement releases f.
    net.inject(NodeId(0), NodeId(0), Msg::Attempt { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(0)), Some(Literal::pos(e)));
    assert_eq!(occurred(&net, NodeId(1)), Some(Literal::pos(f)));
}

#[test]
fn inform_bypasses_guards() {
    let e = SymbolId(0);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.subscribers_of.insert(e, vec![]);
    let routing = Arc::new(routing);
    // Guard 0 — yet an Inform (immediate event, e.g. abort) must pass.
    let mut net = fixed_net(vec![(
        SiteId(0),
        actor_node(0, Guard::bottom(), EventAttrs::immediate(), vec![], &routing),
    )]);
    net.inject(NodeId(0), NodeId(0), Msg::Inform { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(0)), Some(Literal::pos(e)));
}

#[test]
fn duplicate_informs_are_idempotent() {
    let e = SymbolId(0);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.subscribers_of.insert(e, vec![]);
    let routing = Arc::new(routing);
    let mut net = fixed_net(vec![(
        SiteId(0),
        actor_node(0, Guard::top(), EventAttrs::immediate(), vec![], &routing),
    )]);
    net.inject(NodeId(0), NodeId(0), Msg::Inform { lit: Literal::pos(e) });
    net.inject(NodeId(0), NodeId(0), Msg::Inform { lit: Literal::neg(e) });
    net.run_to_quiescence(100);
    // First inform wins; the conflicting one is ignored.
    assert_eq!(occurred(&net, NodeId(0)), Some(Literal::pos(e)));
}

#[test]
fn promise_flow_between_two_actors() {
    // e's guard: ◇f. f's guard: ⊤ but f is only attempted later.
    let e = SymbolId(0);
    let f = SymbolId(1);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.actor_of.insert(f, NodeId(1));
    routing.subscribers_of.insert(e, vec![(NodeId(1), f)]);
    routing.subscribers_of.insert(f, vec![(NodeId(0), e)]);
    let routing = Arc::new(routing);
    let mut net = fixed_net(vec![
        (
            SiteId(0),
            actor_node(
                0,
                Guard::eventually(Literal::pos(f)),
                EventAttrs::controllable(),
                vec![],
                &routing,
            ),
        ),
        (SiteId(1), actor_node(1, Guard::top(), EventAttrs::controllable(), vec![], &routing)),
    ]);
    // e attempts; its promise request reaches f's actor, which cannot
    // grant yet (f not attempted, not triggerable): request held pending.
    net.inject(NodeId(0), NodeId(0), Msg::Attempt { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(0)), None, "e waits for the promise");
    // f attempts: grantable now; the held request is serviced, e proceeds.
    net.inject(NodeId(1), NodeId(1), Msg::Attempt { lit: Literal::pos(f) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(1)), Some(Literal::pos(f)));
    assert_eq!(occurred(&net, NodeId(0)), Some(Literal::pos(e)));
}

#[test]
fn not_yet_agreement_holds_and_releases() {
    // e's guard: ¬f (Example 9.6's G(D<, e)).
    let e = SymbolId(0);
    let f = SymbolId(1);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.actor_of.insert(f, NodeId(1));
    routing.subscribers_of.insert(e, vec![(NodeId(1), f)]);
    routing.subscribers_of.insert(f, vec![(NodeId(0), e)]);
    let routing = Arc::new(routing);
    let mut net = fixed_net(vec![
        (
            SiteId(0),
            actor_node(
                0,
                Guard::not_yet(Literal::pos(f)),
                EventAttrs::controllable(),
                vec![],
                &routing,
            ),
        ),
        (SiteId(1), actor_node(1, Guard::top(), EventAttrs::controllable(), vec![], &routing)),
    ]);
    net.inject(NodeId(0), NodeId(0), Msg::Attempt { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    // e got the agreement and occurred; f was held during the window.
    assert_eq!(occurred(&net, NodeId(0)), Some(Literal::pos(e)));
    let Node::Actor(fa) = net.node(NodeId(1)) else { unreachable!() };
    assert!(fa.holds.is_empty(), "hold ended by e's announcement");
    assert!(fa.stats.holds_granted >= 1);
    // f can still occur afterwards.
    net.inject(NodeId(1), NodeId(1), Msg::Attempt { lit: Literal::pos(f) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(1)), Some(Literal::pos(f)));
}

/// An occurrence ends the holds it asked for through its announcement:
/// the requester sends no `Release`, the keeper drops the hold when the
/// announcement arrives and grants nothing to a query it hears after it
/// (a retransmission the announcement overtook), and a grant that
/// crosses the requester's occurrence is answered by nothing.
#[test]
fn an_occurrence_ends_its_holds_through_its_announcement() {
    let (e, f) = (SymbolId(0), SymbolId(1));
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.actor_of.insert(f, NodeId(1));
    routing.subscribers_of.insert(e, vec![(NodeId(1), f)]);
    routing.subscribers_of.insert(f, vec![(NodeId(0), e)]);
    let routing = Arc::new(routing);
    let actor = |sym: SymbolId, guard: Guard| {
        let (pos, neg) = (EventAttrs::controllable(), EventAttrs::immediate());
        let top = FactoredGuard::top();
        SymbolActor::new(sym, &guard.into(), &top, pos, neg, vec![], Arc::clone(&routing))
    };
    let (mut requester, mut keeper) =
        (actor(e, Guard::not_yet(Literal::pos(f))), actor(f, Guard::top()));
    // Each actor's node is its symbol's id.
    let deliver = |actor: &mut SymbolActor, from: u32, msg: Msg| {
        let mut out = Vec::new();
        actor.handle(&mut Ctx::manual(NodeId(actor.sym.0), 10, 7, &mut out), NodeId(from), msg);
        out
    };
    let query = Msg::NotYetQuery { lit: Literal::pos(f), for_lit: Literal::pos(e) };
    let grant = Msg::NotYetGrant { lit: Literal::pos(f) };
    assert_eq!(
        deliver(&mut requester, 0, Msg::Attempt { lit: Literal::pos(e) }),
        [(NodeId(1), query.clone(), 0)]
    );
    assert_eq!(deliver(&mut keeper, 0, query.clone()), [(NodeId(0), grant.clone(), 0)]);
    assert_eq!(keeper.holds.to_vec(), [Literal::pos(e)]);

    let announce = Msg::Announce { lit: Literal::pos(e), seq: 7 };
    assert_eq!(deliver(&mut requester, 1, grant.clone()), [(NodeId(1), announce.clone(), 0)]);
    assert_eq!(requester.occurred.map(|(l, _, _)| l), Some(Literal::pos(e)));
    assert_eq!(deliver(&mut keeper, 0, announce), []);
    assert!(keeper.holds.is_empty(), "the announcement ends the hold");

    assert_eq!(deliver(&mut keeper, 0, query), [], "a query its requester's occurrence overtook");
    assert!(keeper.holds.is_empty());
    assert_eq!(deliver(&mut requester, 1, grant), [], "a grant that crossed the occurrence");
}

/// A decided symbol holds still for nobody, and nobody announces to it:
/// the keeper `f`, holding still for `e`, is informed and occurs, which
/// ends the hold at once. `e` hears `□f` before it decides (here `f`
/// kills `e`'s guard `¬f`, so `ē` occurs), and its announcement skips
/// `f`'s actor, which would have been what ended the hold.
#[test]
fn a_decided_symbol_holds_still_for_nobody() {
    let (e, f) = (SymbolId(0), SymbolId(1));
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.actor_of.insert(f, NodeId(1));
    routing.subscribers_of.insert(e, vec![(NodeId(1), f)]);
    routing.subscribers_of.insert(f, vec![(NodeId(0), e)]);
    let routing = Arc::new(routing);
    let actor = |sym: SymbolId, guard: Guard| {
        let (pos, neg) = (EventAttrs::controllable(), EventAttrs::immediate());
        let top = FactoredGuard::top();
        SymbolActor::new(sym, &guard.into(), &top, pos, neg, vec![], Arc::clone(&routing))
    };
    let (mut requester, mut keeper) =
        (actor(e, Guard::not_yet(Literal::pos(f))), actor(f, Guard::top()));
    // Each actor's node is its symbol's id; `seq` numbers the delivery.
    let deliver = |actor: &mut SymbolActor, from: u32, seq: u64, msg: Msg| {
        let mut out = Vec::new();
        actor.handle(&mut Ctx::manual(NodeId(actor.sym.0), 10, seq, &mut out), NodeId(from), msg);
        out
    };
    let query = Msg::NotYetQuery { lit: Literal::pos(f), for_lit: Literal::pos(e) };
    deliver(&mut requester, 0, 1, Msg::Attempt { lit: Literal::pos(e) });
    deliver(&mut keeper, 0, 2, query);
    assert_eq!(keeper.holds.to_vec(), [Literal::pos(e)]);

    let announce = Msg::Announce { lit: Literal::pos(f), seq: 3 };
    let informed = deliver(&mut keeper, 1, 3, Msg::Inform { lit: Literal::pos(f) });
    assert_eq!(informed, [(NodeId(0), announce.clone(), 0)], "e is undecided: told");
    assert!(keeper.holds.is_empty(), "the keeper's occurrence ends the hold");

    assert_eq!(deliver(&mut requester, 1, 4, announce), [], "f is heard decided: not told");
    assert_eq!(requester.occurred.map(|(l, _, _)| l), Some(Literal::neg(e)));
    assert!(keeper.holds.is_empty());
}

/// A parked literal asks a promise only of a literal that may grant one
/// before it occurs, and a decided symbol answers it by its announcement
/// alone. `e`'s guard `◇f ∧ (◇g ∧ ¬g)` asks `f` for a promise, `g` for a
/// promise and a not-yet agreement; `f` cannot grant early, so only `g`
/// is asked. `g` has already occurred: it answers neither request, so
/// `e` asks nothing more, and `□g`, when it arrives, decides `e`'s guard
/// and ends both exchanges.
#[test]
fn a_promise_is_asked_only_where_it_can_come_early() {
    use temporal::ST_C;
    let (e, f, g) = (SymbolId(0), SymbolId(1), SymbolId(2));
    let mut routing = Routing::default();
    for s in 0..3 {
        routing.actor_of.insert(SymbolId(s), NodeId(s));
    }
    routing.subscribers_of.insert(e, vec![]);
    routing.subscribers_of.insert(g, vec![(NodeId(0), e)]);
    routing.early_grant = vec![true; 6];
    routing.early_grant[Literal::pos(f).index()] = false;
    let routing = Arc::new(routing);
    let guard = Guard::eventually(Literal::pos(f)).and(&Guard::from_mask(g, ST_C));
    let actor = |sym: SymbolId, guard: Guard| {
        let (pos, neg) = (EventAttrs::controllable(), EventAttrs::immediate());
        let top = FactoredGuard::top();
        SymbolActor::new(sym, &guard.into(), &top, pos, neg, vec![], Arc::clone(&routing))
    };
    let (mut requester, mut keeper) = (actor(e, guard), actor(g, Guard::top()));
    // Each actor's node is its symbol's id.
    let deliver = |actor: &mut SymbolActor, from: u32, msg: Msg| {
        let mut out = Vec::new();
        actor.handle(&mut Ctx::manual(NodeId(actor.sym.0), 10, 1, &mut out), NodeId(from), msg);
        out.into_iter().map(|(to, msg, _)| (to, msg)).collect::<Vec<_>>()
    };
    let (g_lit, e_lit) = (Literal::pos(g), Literal::pos(e));
    let announce = Msg::Announce { lit: g_lit, seq: 1 };
    let occurs = deliver(&mut keeper, 2, Msg::Attempt { lit: g_lit });
    assert_eq!(occurs, [(NodeId(0), announce.clone())]);

    let promise = Msg::PromiseRequest { lit: g_lit, for_lit: e_lit };
    let query = Msg::NotYetQuery { lit: g_lit, for_lit: e_lit };
    let asked = deliver(&mut requester, 0, Msg::Attempt { lit: e_lit });
    assert_eq!(asked, [(NodeId(2), promise), (NodeId(2), query)]);
    // Whatever the decided keeper answers reaches the requester before
    // the announcement does: nothing, so nothing is asked again.
    let mut answers = Vec::new();
    for (_, msg) in asked {
        answers.extend(deliver(&mut keeper, 0, msg));
    }
    assert_eq!(answers, [], "a decided keeper answers by its announcement");
    let asked_again: Vec<_> =
        answers.into_iter().flat_map(|(_, msg)| deliver(&mut requester, 2, msg)).collect();
    assert_eq!(asked_again, []);

    assert_eq!(deliver(&mut requester, 2, announce), []);
    assert_eq!(requester.occurred.map(|(l, _, _)| l), Some(e_lit.complement()), "□g kills ◇g∧¬g");
    assert!(requester.pos.requested_promises.is_empty(), "the announcement ends the round");
    assert!(requester.pos.notyet_pending.is_empty(), "and the query");
}

/// Every `NotYetGrant` is used or released by its receiver: a grant
/// nobody asked for (the query it answers was overtaken by the
/// requester's own `Release`) goes straight back as a `Release` and
/// changes nothing; a grant awaited becomes a hold; a second grant for a
/// hold already had is absorbed.
#[test]
fn a_not_yet_grant_is_used_or_released() {
    let (e, f, g) = (SymbolId(0), SymbolId(1), SymbolId(2));
    let mut routing = Routing::default();
    for s in 0..3 {
        routing.actor_of.insert(SymbolId(s), NodeId(s));
    }
    routing.subscribers_of.insert(e, vec![]);
    // e's guard ¬f ∧ □g: the agreement alone does not let e occur.
    let guard = Guard::not_yet(Literal::pos(f)).and(&Guard::occurred(Literal::pos(g)));
    let mut actor = SymbolActor::new(
        e,
        &guard.into(),
        &FactoredGuard::top(),
        EventAttrs::controllable(),
        EventAttrs::immediate(),
        vec![],
        Arc::new(routing),
    );
    let deliver = |actor: &mut SymbolActor, from: u32, msg: Msg| {
        let mut out = Vec::new();
        actor.handle(&mut Ctx::manual(NodeId(0), 10, 1, &mut out), NodeId(from), msg);
        out
    };
    let grant = Msg::NotYetGrant { lit: Literal::pos(f) };
    let asks = |a: &SymbolActor| (a.pos.notyet_pending.to_vec(), a.pos.notyet_granted.to_vec());

    let out = deliver(&mut actor, 1, grant.clone());
    assert_eq!(out, vec![(NodeId(1), Msg::Release { lit: Literal::pos(f) }, 0)], "orphan grant");
    assert_eq!(asks(&actor), (vec![], vec![]));
    assert_eq!((actor.occurred, actor.pos.attempted), (None, false));

    let out = deliver(&mut actor, 0, Msg::Attempt { lit: Literal::pos(e) });
    let query = Msg::NotYetQuery { lit: Literal::pos(f), for_lit: Literal::pos(e) };
    assert_eq!(out, vec![(NodeId(1), query, 0)]);
    assert_eq!(asks(&actor), (vec![f], vec![]));

    assert_eq!(deliver(&mut actor, 1, grant.clone()), vec![], "awaited grant");
    assert_eq!(asks(&actor), (vec![], vec![f]));

    assert_eq!(deliver(&mut actor, 1, grant), vec![], "grant for a hold already had");
    assert_eq!(asks(&actor), (vec![], vec![f]));
    assert_eq!(actor.occurred, None);
}

/// A query and a promise request put to a decided symbol are answered
/// by its announcement, which decides the requester's guard at once.
/// `e`'s guard `{f:A} + {f:C, z:ABC} + {z:ABD}` asks `f` for a promise
/// and a not-yet agreement (and `z` for promises of either literal);
/// `f` has occurred, so its actor sends nothing
/// more, and `□f`, which reaches `e` as a subscriber of `f`, lets `e`
/// occur and ends both exchanges.
#[test]
fn the_announcement_decides_the_guard() {
    use temporal::{ST_A, ST_B, ST_C, ST_D};
    let (e, f, z) = (SymbolId(0), SymbolId(1), SymbolId(2));
    let mut routing = Routing::default();
    for s in 0..3 {
        routing.actor_of.insert(SymbolId(s), NodeId(s));
    }
    routing.subscribers_of.insert(e, vec![]);
    routing.subscribers_of.insert(f, vec![(NodeId(0), e)]);
    let guard = Guard::from_mask(f, ST_A)
        .or(&Guard::from_mask(f, ST_C).and(&Guard::from_mask(z, ST_A | ST_B | ST_C)))
        .or(&Guard::from_mask(z, ST_A | ST_B | ST_D));
    let mut actor = SymbolActor::new(
        e,
        &guard.into(),
        &FactoredGuard::top(),
        EventAttrs::controllable(),
        EventAttrs::immediate(),
        vec![],
        Arc::new(routing),
    );
    let mut deliver = |from: u32, msg: Msg| {
        let mut out = Vec::new();
        actor.handle(&mut Ctx::manual(NodeId(0), 10, 1, &mut out), NodeId(from), msg);
        out.into_iter().map(|(to, msg, _)| (to, msg)).collect::<Vec<_>>()
    };
    let (e_lit, f_lit) = (Literal::pos(e), Literal::pos(f));
    let asked = deliver(0, Msg::Attempt { lit: e_lit });
    let promise = Msg::PromiseRequest { lit: f_lit, for_lit: e_lit };
    let query = Msg::NotYetQuery { lit: f_lit, for_lit: e_lit };
    assert_eq!(asked[..2], [(NodeId(1), promise), (NodeId(1), query)], "e parks and asks");
    assert_eq!(deliver(1, Msg::Announce { lit: f_lit, seq: 3 }), []);
    assert_eq!(actor.occurred.map(|(l, _, _)| l), Some(e_lit));
    assert!(!actor.pos.requested_promises.iter().any(|l| l.symbol() == f));
    assert!(actor.pos.notyet_pending.is_empty());
}

/// The symbol-priority yield, the one not-yet denial: `a` and `b` each
/// ask a not-yet agreement of the other. The smaller symbol `a` denies
/// `b`'s query, the larger `b` holds still for `a`'s, and the denied `b`
/// asks again only when its next fact arrives.
#[test]
fn the_smaller_symbol_denies_and_the_larger_holds() {
    let (a, b, c) = (SymbolId(0), SymbolId(1), SymbolId(2));
    let mut routing = Routing::default();
    for s in 0..3 {
        routing.actor_of.insert(SymbolId(s), NodeId(s));
    }
    routing.subscribers_of.insert(a, vec![(NodeId(1), b)]);
    routing.subscribers_of.insert(b, vec![(NodeId(0), a)]);
    routing.subscribers_of.insert(c, vec![(NodeId(1), b)]);
    let routing = Arc::new(routing);
    let actor = |sym: SymbolId, guard: Guard| {
        let (pos, neg) = (EventAttrs::controllable(), EventAttrs::immediate());
        let top = FactoredGuard::top();
        SymbolActor::new(sym, &guard.into(), &top, pos, neg, vec![], Arc::clone(&routing))
    };
    let (a_lit, b_lit, c_lit) = (Literal::pos(a), Literal::pos(b), Literal::pos(c));
    // `b` also waits for `c` to be decided, either way: a fact that
    // leaves its agreement on `a` still wanted.
    let decided = Guard::occurred(c_lit).or(&Guard::occurred(c_lit.complement()));
    let (mut first, mut second) =
        (actor(a, Guard::not_yet(b_lit)), actor(b, Guard::not_yet(a_lit).and(&decided)));
    let deliver = |actor: &mut SymbolActor, from: u32, msg: Msg| {
        let mut out = Vec::new();
        actor.handle(&mut Ctx::manual(NodeId(actor.sym.0), 10, 1, &mut out), NodeId(from), msg);
        out.into_iter().map(|(to, msg, _)| (to, msg)).collect::<Vec<_>>()
    };
    let a_asks = Msg::NotYetQuery { lit: b_lit, for_lit: a_lit };
    let b_asks = Msg::NotYetQuery { lit: a_lit, for_lit: b_lit };
    assert_eq!(deliver(&mut first, 0, Msg::Attempt { lit: a_lit }), [(NodeId(1), a_asks.clone())]);
    assert_eq!(deliver(&mut second, 1, Msg::Attempt { lit: b_lit }), [(NodeId(0), b_asks.clone())]);

    let deny = Msg::NotYetDeny { lit: a_lit };
    assert_eq!(deliver(&mut first, 1, b_asks.clone()), [(NodeId(1), deny.clone())]);
    assert!(first.holds.is_empty(), "the smaller symbol does not hold still");
    let grant = Msg::NotYetGrant { lit: b_lit };
    assert_eq!(deliver(&mut second, 0, a_asks), [(NodeId(0), grant)]);
    assert_eq!(second.holds.to_vec(), [a_lit], "the larger symbol holds still");

    assert_eq!(deliver(&mut second, 0, deny), [], "the denied actor yields");
    assert!(second.pos.notyet_pending.is_empty());
    let fact = Msg::Announce { lit: c_lit, seq: 5 };
    let again = deliver(&mut second, 2, fact);
    assert_eq!(again, [(NodeId(0), b_asks)], "and asks again on its next fact");
    assert_eq!(second.occurred, None);
}

#[test]
fn rejection_forces_complement_through_its_guard() {
    // e's guard: 0 (can never occur). Attempting e rejects it and the
    // complement occurs (Section 3.3(c)).
    let e = SymbolId(0);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.subscribers_of.insert(e, vec![]);
    let routing = Arc::new(routing);
    let mut net = fixed_net(vec![(
        SiteId(0),
        actor_node(0, Guard::bottom(), EventAttrs::controllable(), vec![], &routing),
    )]);
    net.inject(NodeId(0), NodeId(0), Msg::Attempt { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    assert_eq!(occurred(&net, NodeId(0)), Some(Literal::neg(e)));
    let Node::Actor(a) = net.node(NodeId(0)) else { unreachable!() };
    assert_eq!(a.stats.rejected, 1);
}

#[test]
fn attempt_after_occurrence_is_idempotent() {
    let e = SymbolId(0);
    let mut routing = Routing::default();
    routing.actor_of.insert(e, NodeId(0));
    routing.subscribers_of.insert(e, vec![]);
    let routing = Arc::new(routing);
    let mut net = fixed_net(vec![(
        SiteId(0),
        actor_node(0, Guard::top(), EventAttrs::controllable(), vec![], &routing),
    )]);
    net.inject(NodeId(0), NodeId(0), Msg::Attempt { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    let Node::Actor(a) = net.node(NodeId(0)) else { unreachable!() };
    let (l1, t1, s1) = a.occurred.unwrap();
    net.inject(NodeId(0), NodeId(0), Msg::Attempt { lit: Literal::pos(e) });
    net.run_to_quiescence(100);
    let Node::Actor(a) = net.node(NodeId(0)) else { unreachable!() };
    assert_eq!(a.occurred.unwrap(), (l1, t1, s1), "occurrence is immutable");
    assert_eq!(a.stats.attempts, 2);
    assert_eq!(a.stats.granted, 1);
}

/// A sequence dependency's residual does not commute: `a·b·c` stepped by
/// `b` then `a` is violated, by `a` then `b` it waits for `c`. An actor
/// that hears `□b` (seq 20) before `□a` (seq 10) replays its residuals
/// in sequence order and ends where in-order delivery does.
#[test]
fn a_late_announcement_replays_the_residuals_in_sequence_order() {
    let (a, b, c) = (Literal::pos(SymbolId(0)), Literal::pos(SymbolId(1)), SymbolId(2));
    let mut routing = Routing::default();
    routing.actor_of.insert(c, NodeId(0));
    routing.subscribers_of.insert(c, vec![]);
    let routing = Arc::new(routing);
    let machine = DependencyMachine::compile(&Expr::seq([
        Expr::lit(a),
        Expr::lit(b),
        Expr::lit(Literal::pos(c)),
    ]));
    let stepped = |order: [Literal; 2]| {
        let mut t = DepTracker::compiled(machine.clone());
        order.into_iter().for_each(|l| t.step(l));
        t.obs_state()
    };
    let in_order = stepped([a, b]);
    assert_ne!(in_order, stepped([b, a]), "the steps do not commute");

    let deps = vec![(0, DepTracker::compiled(machine))];
    let mut net = fixed_net(vec![(
        SiteId(0),
        actor_node(2, Guard::top(), EventAttrs::controllable(), deps, &routing),
    )]);
    net.inject(NodeId(0), NodeId(0), Msg::Announce { lit: b, seq: 20 });
    net.run_to_quiescence(100);
    net.inject(NodeId(0), NodeId(0), Msg::Announce { lit: a, seq: 10 });
    net.run_to_quiescence(100);
    let Node::Actor(actor) = net.node(NodeId(0)) else { unreachable!() };
    assert_eq!(actor.facts(), [(10, a), (20, b)]);
    assert_eq!(actor.dep_residuals[0].1.obs_state(), in_order);
    assert!(actor.dep_residuals[0].1.requires(Literal::pos(c)), "c is still to come");
}

/// The fact-order reproducer: `e0`…`e4` and three dependencies under
/// which literal `~e2`'s weakened compiled guard is one factor of eleven
/// conjuncts. Its symbols and `e2`'s two compiled guards.
fn fact_order_reproducer() -> (Vec<Literal>, FactoredGuard, FactoredGuard) {
    let mut table = SymbolTable::new();
    let e: Vec<Literal> = (0..5).map(|i| table.event(&format!("e{i}"))).collect();
    let deps: Vec<Expr> = ["~e2 + ~e4.~e0.e1 + e0 | e3 | ~e4", "~e2.~e1 + ~e3.~e1.e0", "e1"]
        .iter()
        .map(|d| parse_expr(d, &mut table).expect("parses"))
        .collect();
    let compiled = CompiledWorkflow::compile(&deps, GuardScope::Mentioning);
    let guard = |l: Literal| compiled.guard_ref(l).expect("a dependency mentions e2").clone();
    let (pos, neg) = (guard(e[2]), guard(e[2].complement()));
    (e, pos, neg)
}

/// The reproducer's facts, `◇~e1, □~e3, □e0`, in two orders. When the
/// actors reduced a guard one fact at a time, `~e2` ended Blocked on the
/// promise `◇~e1` it already held in the first order and `⊤` in the
/// second. A guard is now the function of the fact set: both orders
/// reach one guard, and it is enabled.
#[test]
fn two_orders_of_one_fact_set_reach_one_guard() {
    let (e, pos, neg) = fact_order_reproducer();
    let weakened = neg.weaken_sequences();
    assert_eq!(weakened.factors().len(), 1);
    assert_eq!(weakened.factors()[0].conjuncts().len(), 11);
    let mut routing = Routing::default();
    for (i, l) in e.iter().enumerate() {
        routing.actor_of.insert(l.symbol(), NodeId(i as u32));
    }
    let routing = Arc::new(routing);
    let promise = Msg::PromiseGrant { lit: e[1].complement() };
    let announce = |lit: Literal, seq: u64| Msg::Announce { lit, seq };
    let (e3, e0) = (announce(e[3].complement(), 30), announce(e[0], 40));
    let orders = [[promise.clone(), e3.clone(), e0.clone()], [e3, e0, promise]];
    let guards = orders.map(|order| {
        let mut actor = SymbolActor::new(
            e[2].symbol(),
            &pos,
            &neg,
            EventAttrs::controllable(),
            EventAttrs::controllable(),
            vec![],
            Arc::clone(&routing),
        );
        for (step, msg) in order.iter().enumerate() {
            let mut out = Vec::new();
            let mut ctx = Ctx::manual(NodeId(2), 100 + step as u64, 1_000 + step as u64, &mut out);
            actor.handle(&mut ctx, NodeId(0), msg.clone());
        }
        let info = actor.guard_info(e[2].complement());
        assert_eq!(info.status(), GuardStatus::EnabledNow, "after {order:?}");
        info.guard()
    });
    assert_eq!(guards[0], guards[1]);
}

/// MEMO TRANSPARENCY: an actor's guard table is a cache of pure
/// functions. Random fact and promise sequences — announcements in and
/// out of sequence order, promises, priority not-yet denials, the
/// actor's own attempt, promise requests against it — drive one actor
/// that has served every earlier case (reset in between, table warm) and
/// one built for the case (table cold). After every message both hold
/// the same guards with the same derived status, asks and coverage
/// symbols, those are what `temporal` derives from the guard directly,
/// and both sent the same messages. The `◇(e1·e2·e3)` case is weakened
/// on entry, as every actor's guard is. After the last message a third
/// actor, fed the same messages in another order, holds the same guards.
/// The last case is the fact-order reproducer's `~e2` guard, its symbols
/// renamed into this test's.
#[test]
fn a_warm_guard_table_changes_nothing() {
    const OTHERS: u32 = 5;
    let own = SymbolId(0);
    let (pos, neg) = (|s: u32| Literal::pos(SymbolId(s)), |s: u32| Literal::neg(SymbolId(s)));
    let mut routing = Routing::default();
    for s in 0..=OTHERS {
        routing.actor_of.insert(SymbolId(s), NodeId(s));
    }
    routing.subscribers_of.insert(own, (1..=OTHERS).map(|s| (NodeId(s), SymbolId(s))).collect());
    let routing = Arc::new(routing);
    let seq3 = Expr::seq([Expr::lit(pos(1)), Expr::lit(pos(2)), Expr::lit(pos(3))]);
    let guards = [
        Guard::eventually(pos(1))
            .and(&Guard::occurred(pos(2)))
            .and(&Guard::not_yet(pos(3)))
            .or(&Guard::eventually(neg(1)).and(&Guard::eventually(pos(4)))),
        Guard::eventually_expr(&seq3).or(&Guard::occurred(neg(4))),
        (1..=OTHERS).fold(Guard::top(), |g, s| g.and(&Guard::eventually(pos(s)))),
    ]
    .map(FactoredGuard::from);
    // Three factors, as a compiled guard on a join keeps them: a fact
    // reduces only the one that mentions it.
    let factored = FactoredGuard::new(vec![
        Guard::eventually(pos(1)).or(&Guard::occurred(neg(2)).and(&Guard::not_yet(pos(1)))),
        Guard::not_yet(pos(3)).or(&Guard::eventually(neg(4))),
        Guard::occurred(pos(5)).or(&Guard::eventually(neg(5))),
    ]);
    let (_, _, reproducer) = fact_order_reproducer();
    let binding: Vec<SymbolId> = (1..=OTHERS).map(SymbolId).collect();
    let reproducer =
        FactoredGuard::new(reproducer.factors().iter().map(|f| f.rebind(&binding)).collect());
    let guards: Vec<FactoredGuard> = guards.into_iter().chain([factored, reproducer]).collect();
    let build = |guard: &FactoredGuard| {
        SymbolActor::new(
            own,
            guard,
            &Guard::occurred(neg(1)).or(&Guard::not_yet(pos(2))).into(),
            EventAttrs::controllable(),
            EventAttrs::immediate(),
            vec![],
            Arc::clone(&routing),
        )
    };
    let warm: Vec<RefCell<SymbolActor>> = guards.iter().map(|g| RefCell::new(build(g))).collect();

    testkit::check("a_warm_guard_table_changes_nothing", 200, |g| {
        let which = g.range(0..guards.len());
        let mut warm = warm[which].borrow_mut();
        warm.reset();
        let mut cold = build(&guards[which]);

        // Every other symbol resolves one way, under a sequence number of
        // its own (ties broken by symbol: an actor takes a second
        // announcement under one number for a duplicate); a promise of
        // that polarity may come first; the messages arrive in any order.
        let mut msgs = vec![Msg::Attempt { lit: pos(0) }];
        for s in 1..=OTHERS {
            let lit = if g.flip() { pos(s) } else { neg(s) };
            let seq = 8 * (10 * u64::from(s) + g.range(0..40u64)) + u64::from(s);
            if g.flip() {
                msgs.push(Msg::Announce { lit, seq });
            }
            match g.range(0..4u32) {
                0 => msgs.push(Msg::PromiseGrant { lit }),
                1 => msgs.push(Msg::NotYetDeny { lit }),
                2 => msgs.push(Msg::PromiseRequest { lit: pos(0), for_lit: lit }),
                _ => {}
            }
        }
        for i in (1..msgs.len()).rev() {
            msgs.swap(i, g.range(0..=i));
        }
        let mut reordered = msgs.clone();
        for i in (1..reordered.len()).rev() {
            reordered.swap(i, g.range(0..=i));
        }

        for (step, msg) in msgs.into_iter().enumerate() {
            let (now, delivery) = (100 + step as u64, 1_000 + step as u64);
            let (mut warm_out, mut cold_out) = (Vec::new(), Vec::new());
            warm.handle(
                &mut Ctx::manual(NodeId(0), now, delivery, &mut warm_out),
                NodeId(1),
                msg.clone(),
            );
            cold.handle(
                &mut Ctx::manual(NodeId(0), now, delivery, &mut cold_out),
                NodeId(1),
                msg.clone(),
            );
            assert_eq!(warm_out, cold_out, "after {msg:?}");
            assert_eq!(warm.occurred, cold.occurred, "after {msg:?}");
            for lit in [pos(0), neg(0)] {
                let (w, c) = (warm.guard_info(lit), cold.guard_info(lit));
                let guard = w.guard();
                assert_eq!(guard, c.guard(), "{lit:?} after {msg:?}");
                assert_eq!((w.status(), w.asks()), (c.status(), c.asks()));
                assert_eq!(w.status(), temporal::status(&guard));
                assert_eq!(w.asks(), temporal::asks(&guard), "{lit:?} after {msg:?}");
            }
        }

        let mut third = build(&guards[which]);
        for (step, msg) in reordered.into_iter().enumerate() {
            let (now, delivery) = (100 + step as u64, 1_000 + step as u64);
            third.handle(
                &mut Ctx::manual(NodeId(0), now, delivery, &mut Vec::new()),
                NodeId(1),
                msg,
            );
        }
        for lit in [pos(0), neg(0)] {
            assert_eq!(third.guard_info(lit).guard(), warm.guard_info(lit).guard(), "{lit:?}");
        }
    });
}
