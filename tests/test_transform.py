import json
import math

import networkx as nx
import numpy as np
import pytest

import make_golden
from conftest import (DYADIC_SEEDS, assert_completion_order, assert_rows_equal, component_sets, diamond_chain_doc,
                      dyadic_chain_doc, reduce_to_psi, ring_chain_doc, successors)
from railcheck import cli, transform
from railcheck.model import ModelError, mc_row, parse_model
from railcheck.numerics import SingularMatrixError, max_reach, prob0_states, solve_linear
from railcheck.oracle import brute_force_max_reach
from railcheck.props import Atom, sat_states
from railcheck.scheduling import Scheduler, extract_max_scheduler, induced_mc
from railcheck.transform import acyclic_reduce, make_absorbing, scc_decompose, scc_io, scc_reach


def test_make_absorbing(m0, m0_trap):
    m = make_absorbing(m0, {3, 4})
    assert mc_row(m, 3) == ((3, 1.0),)
    assert mc_row(m, 4) == ((4, 1.0),)
    assert m.actions[:3] == m0.actions[:3]
    # only the target is pinned: s2, s4 and the trap cannot reach it and
    # keep their rows, and the component pass marks them dead; s2's loop
    # leaves for s4, but only the live loop on s1 lists an output
    t = make_absorbing(m0_trap, {3})
    assert mc_row(t, 3) == ((3, 1.0),)
    assert [t.actions[s] for s in (0, 1, 2, 4, 5)] == [m0_trap.actions[s] for s in (0, 1, 2, 4, 5)]
    comps = scc_io(t, scc_decompose(t, {3}))
    assert {s for s in range(t.num_states) if not comps.live[comps.of[s]]} == {2, 4, 5}
    assert comps.outputs.tolist() == [3] and comps.output_at[comps.of[1] + 1] == 1


def test_make_absorbing_rejects_mdp(mdp2):
    with pytest.raises(ModelError):
        make_absorbing(mdp2, {3})


def _nx_partition(m):
    g = nx.DiGraph()
    g.add_nodes_from(range(m.num_states))
    for s in range(m.num_states):
        g.add_edges_from((s, t) for t in successors(m, s))
    return {frozenset(c) for c in nx.strongly_connected_components(g)}


def test_scc_decompose_matches_networkx(m0, big1, fig5, mc_corpus, dag_corpus, mdp_corpus, mdp2):
    models = [m0, big1, fig5] + [entry[0] for entry in mc_corpus + dag_corpus]
    # the absorbing chains of the schedulers policy iteration settles on
    models += [extract_max_scheduler(m, sat_states(m, Atom("psi")))[1].origin for m in mdp_corpus]
    for m in models:
        comps = scc_decompose(m, ())
        # ids are positional and ordered by smallest member
        members = [mem for mem, _, _ in component_sets(comps)]
        assert set(members) == _nx_partition(m)
        for mem, big in zip(members, comps.nontrivial.tolist()):
            assert big == any(t in mem for s in mem for t in successors(m, s))
        assert_completion_order(m, comps)
    with pytest.raises(ModelError):
        scc_decompose(mdp2, ())


def test_live_components_are_the_states_that_reach_the_target(mc_corpus, dag_corpus, mdp_corpus):
    # The flag Tarjan sets as each component completes is the complement
    # of the backward closure of the targets, on the chain and on its
    # absorbing version alike, for no target, one, and several.
    rng = np.random.default_rng(3131)
    chains = [m for m, _, _, _ in mc_corpus + dag_corpus]
    for m in mdp_corpus:  # the first distribution everywhere, a random policy and the best one
        chains.append(induced_mc(m, Scheduler((0,) * m.num_states)))
        chains.append(induced_mc(m, Scheduler(tuple(int(rng.integers(len(d))) for d in m.actions))))
        chains.append(extract_max_scheduler(m, sat_states(m, Atom("psi")))[1].origin)
    chains += [parse_model(json.dumps(dyadic_chain_doc(seed))) for seed in DYADIC_SEEDS]
    dead_seen = live_seen = 0
    for m in chains:
        n = m.num_states
        psi = sat_states(m, Atom("psi"))
        some = rng.choice(n, int(rng.integers(2, max(3, n // 3))), replace=False).tolist()
        for targets in (set(), psi, {int(rng.integers(n))}, set(some)):
            for mc in (m, make_absorbing(m, targets)):
                comps = scc_decompose(mc, targets)
                dead = {s for s in range(n) if not comps.live[comps.of[s]]}
                assert dead == prob0_states(m, targets)
                dead_seen += len(dead)
                live_seen += n - len(dead)
    assert dead_seen > 1000 and live_seen > 1000


def test_no_dead_component_is_solved(mc_corpus, tmp_path, monkeypatch):
    # scc_reach solves the live components with outputs only. On the
    # one-state-per-row cut of an MDP whose states form one component,
    # with the target on a state nothing enters, that component is dead:
    # no block reaches solve_linear, and the check holds at value 0.
    for _, _, red, _ in mc_corpus:
        assert all(red.comps.live[ids].all() for ids, _, _, _ in red.stacks)
    calls = []

    def counted(q, r):
        calls.append(len(q))
        return solve_linear(q, r)

    monkeypatch.setattr(transform, "solve_linear", counted)
    gen = make_golden.load_gen()
    doc = gen.big_ec_mdp(np.random.default_rng(1), 2000)
    doc["transitions"] = {s: dists[-1:] for s, dists in doc["transitions"].items()}
    doc["states"].append("far")
    doc["transitions"]["far"] = [{doc["states"][0]: 1.0}]
    doc["labels"]["far"] = ["psi"]
    path = tmp_path / "one_scc.json"
    path.write_text(json.dumps(doc))
    code, report = cli.run_check(str(path), "P<=0.5 [ F psi ]")
    assert (code, report["max_prob"], calls) == (0, 0.0, [])
    code, report = cli.run_check(str(path), "P<=0.5 [ F goal ]")
    assert code == 1 and calls and max(calls) > 1000


def _by_members(comps):
    return {mem: (ins, outs) for mem, ins, outs in component_sets(comps)}


def test_fig5_components(fig5):
    big = {mem for mem, _, _ in component_sets(scc_decompose(fig5, ())) if len(mem) > 1}
    assert big == {frozenset({1, 3, 4, 7}), frozenset({5, 6, 8})}


def test_fig5_io(fig5):
    by_members = _by_members(scc_io(fig5, scc_decompose(fig5, range(fig5.num_states))))
    assert by_members[frozenset({1, 3, 4, 7})] == (frozenset({1}), frozenset({9, 10}))
    assert by_members[frozenset({5, 6, 8})] == (frozenset({5, 6}), frozenset({11, 14}))


def test_initial_state_counts_as_input():
    doc = {
        "states": ["s0", "s1", "g"],
        "initial": "s0",
        "labels": {"g": ["psi"]},
        "transitions": {
            "s0": [{"s1": 1.0}],
            "s1": [{"s0": 0.5, "g": 0.5}],
            "g": [{"g": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    ins, _ = _by_members(scc_io(m, scc_decompose(m, ())))[frozenset({0, 1})]
    assert 0 in ins


def escapes_of(stacks):
    """Each solved component's (members, outputs, escape), read off the
    stacks scc_reach returns, by id."""
    return {
        c: (mem.tolist(), outs.tolist(), escape)
        for ids, members, outputs, escapes in stacks
        for c, mem, outs, escape in zip(ids.tolist(), members, outputs, escapes)
    }


def input_rows(comps, stacks):
    """Each solved input's escape distribution: outputs ascending, zero
    entries dropped. The reference the reduced chain's input rows are
    checked against."""
    rows = {}
    for mem, outs, escape in escapes_of(stacks).values():
        assert mem == sorted(mem) and outs == sorted(outs)
        for u, row in zip(mem, escape.tolist()):
            if comps.is_input[u]:
                rows[u] = tuple([(t, p) for t, p in zip(outs, row) if p > 0.0])
    return rows


def test_scc_reach_values(m0, big1):
    m = make_absorbing(m0, {3, 4})
    comps = scc_io(m, scc_decompose(m, {3, 4}))
    stacks = scc_reach(m, comps)
    # the self loops {1} and {2} share a shape; the targets have no outputs
    assert [ids.tolist() for ids, _, _, _ in stacks] == [[1, 2]]
    assert input_rows(comps, stacks) == {1: ((3, 1.0),), 2: ((4, 1.0),)}
    b = make_absorbing(big1, {3})
    comps = scc_io(b, scc_decompose(b, {3}))
    stacks = scc_reach(b, comps)
    ((ids, members, outputs, escapes),) = stacks
    assert ids.tolist() == [comps.of[1]] and members.tolist() == [[1, 2]] and outputs.tolist() == [[3]]
    assert input_rows(comps, stacks) == {1: ((3, 1.0),)}
    assert escapes.tolist() == [[[1.0], [1.0]]]


def test_reduced_rows_equal_the_tuple_construction(mc_corpus, dag_corpus):
    # The reduced chain as acyclic_reduce built it tuple by tuple: a
    # solved input carries its escape row, a kept state of a trivial
    # component its source row, every other state a Dirac self loop.
    rng = np.random.default_rng(905)
    chains = [(red.origin, psi) for _, psi, red, _ in mc_corpus + dag_corpus]
    for rings in (1, 3, 40):
        m = parse_model(json.dumps(ring_chain_doc(rng, rings)))
        chains.append((make_absorbing(m, {m.num_states - 2}), {m.num_states - 2}))
    for _ in range(10):
        m = parse_model(json.dumps(_sticky_rings_doc(rng, int(rng.integers(2, 6)), [0] * 5)))
        chains.append((m, {m.names.index("goal")}))
    solved = 0
    for mc, psi in chains:
        red = acyclic_reduce(mc, psi)
        rows = input_rows(red.comps, red.stacks)
        kept = set()
        nontrivial = red.comps.nontrivial.tolist()
        for (members, inputs, _), big in zip(component_sets(red.comps), nontrivial):
            kept |= inputs if big else members
        actions = tuple(
            (rows[s],) if s in rows
            else mc.actions[s] if s in kept and not nontrivial[red.scc_of[s]]
            else (((s, 1.0),),)
            for s in range(mc.num_states)
        )
        assert_rows_equal(red.chain.rows, actions)
        assert red.kept == kept
        solved += len(rows)
    assert solved > 300


def _sticky_rings_doc(rng, k, sticky):
    # One ring of k states per entry of `sticky`, in a row: ring i is
    # m[0] -> m[1] -> ... -> m[j], where m[j] loops on itself and returns
    # to m[0], and m[0] -> m[j + 1] -> ... -> m[0]. m[0] also leaves, for
    # the next ring's m[0] (the last ring for goal) and for a trap, split
    # at random. With sticky[i] = j > 0, m[0] leaves and enters m[j + 1]
    # with 1e-200 and m[j] returns with 1e-200, so all of m[j]'s exit mass
    # underflows and its block fails at pivot j exactly; with 0, those are
    # 0.25 at a random j.
    names = [f"s{i}" for i in range(len(sticky) * k)] + ["goal", "trap"]
    trans = {"goal": [{"goal": 1.0}], "trap": [{"trap": 1.0}]}
    for i, j in enumerate(sticky):
        m = names[i * k : (i + 1) * k]
        tiny = 1e-200 if j else 0.25
        j = j or int(rng.integers(1, k))
        far = [m[j + 1]] if j + 1 < k else []
        out = names[(i + 1) * k] if i + 1 < len(sticky) else "goal"
        w = float(rng.uniform(0.2, 0.8))
        trans[m[0]] = [
            {m[1]: 1.0 - tiny * (1 + len(far)), out: tiny * w, "trap": tiny * (1 - w), **{t: tiny for t in far}}
        ]
        for a, b in zip(m[1:j], m[2 : j + 1]):
            trans[a] = [{b: 1.0}]
        trans[m[j]] = [{m[j]: 1.0 - tiny, m[0]: tiny}]
        for a, b in zip(m[j + 1 :], m[j + 2 :] + [m[0]]):
            trans[a] = [{b: 1.0}]
    return {"states": names, "initial": "s0", "labels": {"goal": ["psi"]}, "transitions": trans}


def _alone(comps, c):
    """comps with the outputs of component c only: scc_reach solves c alone."""
    a, b = comps.output_at[c : c + 2]
    output_at = np.zeros(len(comps.output_at), dtype=np.int64)
    output_at[c + 1 :] = b - a
    return comps._replace(outputs=comps.outputs[a:b], output_at=output_at)


@pytest.mark.parametrize("stack_floats", [None, 100, 1])
def test_scc_reach_batch_matches_each_component_alone(stack_floats, monkeypatch):
    # the rings share one shape, so scc_reach solves them stacked (one
    # stack, stacks of 2-12, or every ring alone): each escape keeps the
    # bytes of its lone solve, and the singular ring with the lowest id
    # decides the error, whatever pivot a later one fails at
    if stack_floats is not None:
        monkeypatch.setattr(transform, "_STACK_FLOATS", stack_floats)
    rng = np.random.default_rng(814)
    decided_by_id = 0
    for trial in range(40):
        k = int(rng.integers(2, 7))
        sticky = [int(rng.integers(1, k)) if trial % 2 and rng.random() < 0.5 else 0 for _ in range(8)]
        m = parse_model(json.dumps(_sticky_rings_doc(rng, k, sticky)))
        goal = {m.names.index("goal")}
        mc = make_absorbing(m, goal)
        alone = {}
        comps = scc_io(mc, scc_decompose(mc, goal))
        for c, (members, _, outputs) in enumerate(component_sets(comps)):
            if comps.nontrivial[c] and outputs:
                assert len(members) == k and len(outputs) == 2
                try:
                    ((ids, _, _, (escape,)),) = scc_reach(mc, _alone(comps, c))
                    assert ids.tolist() == [c]
                    alone[c] = escape
                except SingularMatrixError as err:
                    alone[c] = err.pivot
        failed = [j for j in sticky if j]
        assert [p for p in alone.values() if isinstance(p, int)] == failed
        if failed:
            with pytest.raises(SingularMatrixError) as err:
                acyclic_reduce(mc, goal)
            assert err.value.pivot == failed[0]
            decided_by_id += min(failed) != failed[0]
        else:
            solved = escapes_of(acyclic_reduce(mc, goal).stacks)
            assert solved.keys() == alone.keys()
            assert all(solved[c][2].tobytes() == x.tobytes() for c, x in alone.items())
    assert decided_by_id >= 5


def test_scc_reach_stacks_small_blocks_only(monkeypatch):
    # eight 4-state rings share one stack; two 130-state rings are
    # solved alone, in 2-D, so each keeps its zero-multiplier row skip
    shapes = []

    def spy(q, r):
        shapes.append(q.shape)
        return solve_linear(q, r)

    monkeypatch.setattr(transform, "solve_linear", spy)
    rng = np.random.default_rng(815)
    for k, rings, expected in ((4, 8, [(4, 8, 4)]), (130, 2, [(130, 130)] * 2)):
        shapes.clear()
        m = parse_model(json.dumps(_sticky_rings_doc(rng, k, [0] * rings)))
        goal = {m.names.index("goal")}
        acyclic_reduce(make_absorbing(m, goal), goal)
        assert shapes == expected


def test_reduce_m0(m0):
    red, psi = reduce_to_psi(m0)
    assert red.kept == frozenset({0, 1, 2, 3, 4})
    c = red.chain
    assert mc_row(c, 0) == ((1, 0.4), (2, 0.6))
    assert mc_row(c, 1) == ((3, 1.0),)
    assert mc_row(c, 2) == ((4, 1.0),)
    assert mc_row(c, 3) == ((3, 1.0),)
    assert red.scc_of[1] != red.scc_of[0]
    assert red.origin.names == m0.names


def test_reduce_big1(big1):
    red, psi = reduce_to_psi(big1)
    # the component {t, a} collapses onto its input t
    assert 1 in red.kept and 2 not in red.kept
    assert mc_row(red.chain, 1) == ((3, 1.0),)
    assert mc_row(red.chain, 2) == ((2, 1.0),)


def _reversed(m):
    """m with its states listed last to first: the corpora's initial state
    is state 0, where a search over the states in index order starts too."""
    n = m.num_states
    return parse_model(json.dumps({
        "states": list(m.names[::-1]),
        "initial": m.names[m.initial],
        "labels": {m.names[s]: sorted(m.labels[s]) for s in range(n) if m.labels[s]},
        "transitions": {m.names[s]: [{m.names[t]: p for t, p in d} for d in m.actions[s]] for s in range(n)},
    }))


def _reached(m):
    """The states m's initial state reaches."""
    reached, stack = {m.initial}, [m.initial]
    while stack:
        for t in successors(m, stack.pop()) - reached:
            reached.add(t)
            stack.append(t)
    return reached


def _reductions(mc_corpus, dag_corpus, mdp_corpus):
    """The corpora's reductions, policy iteration's last for an MDP, each
    also with the states reversed, and those of seeded ring and diamond
    chains."""
    for m, _, _, _ in mc_corpus + dag_corpus:
        yield reduce_to_psi(m)[0]
        yield reduce_to_psi(_reversed(m))[0]
    for m in mdp_corpus:
        for m in (m, _reversed(m)):
            yield extract_max_scheduler(m, sat_states(m, Atom("psi")))[1]
    rng = np.random.default_rng(2323)
    for rings in (1, 2, 5, 30):
        yield reduce_to_psi(parse_model(json.dumps(ring_chain_doc(rng, rings))))[0]
    for spread in (None, 0):
        for levels in (1, 4, 40):
            yield reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, spread))))[0]


def test_order_is_a_post_order_of_the_kept_states(mc_corpus, dag_corpus, mdp_corpus):
    # Every kept state once and no dropped one; each after its successors
    # in the reduced chain, its own self loop aside; and every state the
    # initial state reaches at or before it. The states up to the initial
    # state, which the rail stream's first pass walks, are the kept states
    # of the components it reaches in the source chain, but for the other
    # inputs of its own.
    count = 0
    for red in _reductions(mc_corpus, dag_corpus, mdp_corpus):
        order = red.order
        assert len(order) == len(red.kept) and set(order) == red.kept
        at = {s: i for i, s in enumerate(order)}
        for s in order:
            assert all(at[t] < at[s] for t, _ in mc_row(red.chain, s) if t != s)
        s0 = red.chain.initial
        assert all(at[s] <= at[s0] for s in _reached(red.chain))
        comps = {red.scc_of[s] for s in _reached(red.origin)} - {red.scc_of[s0]}
        assert set(order[: at[s0] + 1]) == {s for s in red.kept if red.scc_of[s] in comps} | {s0}
        count += 1
    assert count == 2 * (200 + 40 + 100) + 4 + 6


def test_reduction_is_acyclic(mc_corpus):
    for m, psi, red, rails in mc_corpus[:30]:
        comps = scc_decompose(red.chain, psi)
        for (members, _, _), big in zip(component_sets(comps), comps.nontrivial.tolist()):
            if big:
                (s,) = members
                assert mc_row(red.chain, s) == ((s, 1.0),)


def test_reduction_rows_are_distributions(mc_corpus):
    for m, psi, red, rails in mc_corpus[:30]:
        for s in red.kept:
            row = mc_row(red.chain, s)
            assert abs(math.fsum(p for _, p in row) - 1.0) <= 1e-9
            assert all(p > 0 for _, p in row)
            assert [t for t, _ in row] == sorted(t for t, _ in row)


def test_reduction_preserves_reachability(m0, big1, fig5):
    for m in (m0, big1, fig5):
        red, psi = reduce_to_psi(m)
        reduced = max_reach(red, psi)[red.chain.initial]
        assert abs(reduced - brute_force_max_reach(m, psi)) <= 1e-7


def test_reduce_rejects_mdp(mdp2):
    with pytest.raises(ModelError):
        acyclic_reduce(mdp2, {3})
