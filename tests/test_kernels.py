"""Array kernels of the pre-processing and scc-analysis stages, checked
against independent computations on seeded random models."""

import json
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from conftest import (FIXTURES, assert_completion_order, assert_rows_equal, component_sets, corpus_docs,
                      reference_actions)
from railcheck import scheduling
from railcheck.model import ROW_SUM_TOL, parse_model
from railcheck.numerics import max_reach
from railcheck.oracle import brute_force_max_reach
from railcheck.scheduling import IMPROVE_TOL, Scheduler, extract_max_scheduler, induced_mc
from railcheck.transform import acyclic_reduce, make_absorbing, scc_decompose, scc_io

RING_SEED = 901
GRAPH_SEED = 902


def _ring_chain_doc(rng):
    """Rings of 1 to 4 states in breadth-first order, each member moving
    along its ring or on to a later ring, the goal or the sink."""
    sizes = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(3, 12)))]
    starts = np.cumsum([0] + sizes)
    n = int(starts[-1]) + 2
    goal, sink = n - 2, n - 1
    names = ["r%d" % s for s in range(n)]
    rows = {}
    for i, size in enumerate(sizes):
        start = int(starts[i])
        exits = [int(x) for x in starts[i + 1 : -1]] + [goal, sink]
        for k in range(size):
            row = {start + (k + 1) % size: float(rng.uniform(0.3, 0.8))}
            picks = rng.choice(len(exits), size=min(len(exits), 2), replace=False)
            w = rng.uniform(0.2, 1.0, len(picks))
            w = (1.0 - row[start + (k + 1) % size]) * w / w.sum()
            for t, p in zip(picks, w):
                row[exits[int(t)]] = row.get(exits[int(t)], 0.0) + float(p)
            rows[names[start + k]] = [{names[t]: p for t, p in row.items()}]
    rows[names[goal]] = [{names[goal]: 1.0}]
    rows[names[sink]] = [{names[sink]: 1.0}]
    return {
        "states": names,
        "initial": names[0],
        "labels": {names[goal]: ["psi"]},
        "transitions": rows,
    }


def _exact_reach(m, goal: int) -> np.ndarray:
    """Absorption probabilities by one dense solve over the states that
    can reach the goal (networkx ancestors), the goal itself excluded."""
    g = nx.DiGraph()
    g.add_nodes_from(range(m.num_states))
    p = np.zeros((m.num_states, m.num_states))
    for s, (row,) in enumerate(m.actions):
        for t, q in row:
            g.add_edge(s, t)
            p[s, t] += q
    maybe = sorted(nx.ancestors(g, goal) - {goal})
    x = np.zeros(m.num_states)
    x[goal] = 1.0
    if maybe:
        a = np.eye(len(maybe)) - p[np.ix_(maybe, maybe)]
        x[maybe] = np.linalg.solve(a, p[maybe, goal])
    return x


@pytest.mark.parametrize("i", range(20))
def test_max_reach_matches_solve_on_ring_chains(i):
    doc = _ring_chain_doc(np.random.default_rng([RING_SEED, i]))
    by_order = []
    # breadth-first numbering, then the same chain numbered in reverse
    for states in (doc["states"], doc["states"][::-1]):
        m = parse_model(json.dumps(dict(doc, states=states)))
        goal = m.names.index(next(iter(doc["labels"])))
        got = max_reach(acyclic_reduce(make_absorbing(m, {goal}), {goal}), {goal})
        assert np.max(np.abs(got - _exact_reach(m, goal))) <= 1e-8
        by_order.append({m.names[s]: got[s] for s in range(m.num_states)})
    for name, v in by_order[0].items():
        assert abs(v - by_order[1][name]) <= 1e-8


def test_max_reach_matches_brute_force_on_mdps(mdp_corpus):
    # the policy-iteration value, and the value of the chain its scheduler
    # induces, both against the best of all schedulers
    for m in mdp_corpus:
        psi = {m.num_states - 2}
        sched, _, values = extract_max_scheduler(m, psi)
        exact = brute_force_max_reach(m, psi)
        assert abs(values[m.initial] - exact) <= 1e-7
        assert abs(brute_force_max_reach(induced_mc(m, sched), psi) - exact) <= 1e-7


def _random_graph_doc(rng):
    # Unrestricted edges, so components of every size and self loops occur.
    n = int(rng.integers(4, 30))
    names = ["g%d" % s for s in range(n)]
    rows = {}
    for s in range(n):
        k = int(rng.integers(1, 4))
        picks = sorted(int(t) for t in rng.choice(n, size=k, replace=False))
        w = rng.uniform(0.1, 1.0, k)
        rows[names[s]] = [{names[t]: float(p) for t, p in zip(picks, w / w.sum())}]
    return {
        "states": names,
        "initial": names[int(rng.integers(0, n))],
        "transitions": rows,
    }


@pytest.mark.parametrize("i", range(40))
def test_scc_io_matches_networkx_condensation(i):
    m = parse_model(json.dumps(_random_graph_doc(np.random.default_rng([GRAPH_SEED, i]))))
    g = nx.DiGraph()
    g.add_nodes_from(range(m.num_states))
    g.add_edges_from((s, t) for s, (row,) in enumerate(m.actions) for t, _ in row)
    cond = nx.condensation(g)
    comp = cond.graph["mapping"]
    expected = {}
    for c in cond.nodes:
        members = frozenset(cond.nodes[c]["members"])
        if len(members) == 1 and not any(g.has_edge(s, s) for s in members):
            continue
        ins = {t for s, t in g.edges if comp[t] == c and comp[s] != c}
        if m.initial in members:
            ins.add(m.initial)
        outs = {t for s, t in g.edges if comp[s] == c and comp[t] != c}
        expected[members] = (frozenset(ins), frozenset(outs))
    comps = scc_io(m, scc_decompose(m, range(m.num_states)))  # every component live, so with outputs
    table = component_sets(comps)
    assert {members for members, _, _ in table} == {frozenset(cond.nodes[c]["members"]) for c in cond.nodes}
    got = {members: (ins, outs) for (members, ins, outs), big in zip(table, comps.nontrivial) if big}
    assert got == expected
    # a trivial component has neither inputs nor outputs
    assert all(ins == outs == frozenset() for (_, ins, outs), big in zip(table, comps.nontrivial) if not big)
    assert_completion_order(m, comps)


def _assert_rows_match(m, actions):
    assert_rows_equal(m.rows, actions)
    assert m.rows.source.tolist() == [
        s for s, dists in enumerate(actions) for dist in dists for _ in dist
    ]
    # the list form: each array's tolist(), converted once and then kept
    rows = m.rows
    for name, array in (("dist_list", rows.dist_at), ("entry_list", rows.entry_at),
                        ("succ_list", rows.succ), ("prob_list", rows.prob)):
        assert getattr(rows, name) == array.tolist()
        assert getattr(rows, name) is getattr(rows, name)


def _dead_end_doc(rng):
    # Some states lead only to a trap region that cannot reach the goal,
    # and some goal and trap rows are not Dirac self loops, so that
    # make_absorbing rewrites rows instead of keeping the chain's.
    n = int(rng.integers(5, 14))
    names = ["d%d" % s for s in range(n)]
    rows = {}
    for s in range(n):
        picks = sorted({int(t) for t in rng.choice(n, size=int(rng.integers(1, 4)))})
        w = rng.uniform(0.1, 1.0, len(picks))
        rows[names[s]] = [{names[t]: float(p) for t, p in zip(picks, w / w.sum())}]
    labels = {names[-1]: ["psi"]}
    return {"states": names, "initial": names[0], "labels": labels, "transitions": rows}


def _scrambled_doc(rng):
    # A chain or an MDP with its states named out of index order and its
    # transitions, and each distribution's entries, in random order. A
    # Dirac step is written as 1.0, as the integer 1, or overshooting 1
    # within the tolerance, which the parser stores as 1.
    n = int(rng.integers(3, 12))
    names = ["x%d" % s for s in rng.permutation(n)]
    mdp = rng.random() < 0.5
    rows = {}
    for s in rng.permutation(n):
        acts = []
        for _ in range(int(rng.integers(1, 4)) if mdp else 1):
            picks = rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)
            if len(picks) == 1:
                w = [(1.0, 1, 1.0 + float(rng.uniform(0.0, 1.0)) * ROW_SUM_TOL)[int(rng.integers(3))]]
            else:
                w = rng.uniform(0.1, 1.0, len(picks))
                w = (w / w.sum()).tolist()
            acts.append({names[t]: p for t, p in zip(picks, w)})
        rows[names[s]] = acts
    return {"states": names, "initial": names[0], "labels": {names[-1]: ["psi"]}, "transitions": rows}


def test_rows_equal_flattened_actions(mc_corpus, mdp_corpus, dag_corpus):
    # The arrays every layer reads: a parsed model's against its document,
    # flattened entry by entry in conftest.reference_actions, and those of
    # every model the pipeline derives, against its tuples.
    rng = np.random.default_rng(903)
    dead_ends = [_dead_end_doc(rng) for _ in range(60)]
    docs = corpus_docs() + dead_ends + [_scrambled_doc(rng) for _ in range(60)]
    docs += [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    unsorted = 0
    for doc in docs:
        m = parse_model(json.dumps(doc))
        expected = reference_actions(doc)
        _assert_rows_match(m, expected)
        assert m.actions == expected  # the tuples built from the rows
        dists = [dist for dists in doc["transitions"].values() for dist in dists]
        unsorted += any(list(dist) != sorted(dist, key=m.names.index) for dist in dists)
    assert unsorted >= 30
    chains = [m for m, _, _, _ in mc_corpus + dag_corpus]
    chains += [parse_model(json.dumps(doc)) for doc in dead_ends]
    rewritten = 0
    for m in chains:
        psi = {s for s in range(m.num_states) if "psi" in m.labels[s]}
        absorbing = make_absorbing(m, psi)
        _assert_rows_match(absorbing, absorbing.actions)
        rewritten += absorbing.rows is not m.rows
        red = acyclic_reduce(absorbing, psi)
        _assert_rows_match(red.chain, red.chain.actions)  # actions built from the rows
    assert rewritten > 0
    for m in mdp_corpus:
        for _ in range(3):
            choice = tuple(int(rng.integers(len(dists))) for dists in m.actions)
            chain = induced_mc(m, Scheduler(choice))
            _assert_rows_match(chain, tuple((m.actions[s][k],) for s, k in enumerate(choice)))
            _assert_rows_match(chain, chain.actions)


def _leaving_value(s, dist, x):
    # The value of taking dist at s until it leaves s, as policy
    # improvement defines it: the entries other than a self loop, summed
    # left to right (builtin sum compensates from Python 3.12 on), over
    # their mass, also summed left to right; 0 without mass.
    gain = mass = 0.0
    for t, p in dist:
        if t != s:
            gain += p * x[t]
            mass += p
    return gain / mass if mass else 0.0


def _scalar_improvement(m, target, x, choice):
    choice = list(choice)
    improved = False
    for s, dists in enumerate(m.actions):
        if len(dists) == 1 or s in target:
            continue
        q = [_leaving_value(s, dist, x) for dist in dists]
        top = max(range(len(q)), key=q.__getitem__)
        if q[top] > x[s] + IMPROVE_TOL:
            choice[s] = top
            improved = True
    return choice, improved


def _tied_mdp_doc(rng):
    # Distributions that keep their state with 1 - 10^-U(1, 11), Dirac
    # steps, and copies of earlier distributions, so that actions of equal
    # value occur; the last two states are the goal and a sink.
    n = int(rng.integers(4, 9))
    names = ["q%d" % s for s in range(n)]
    rows = {}
    for s in range(n - 2):
        acts = []
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.integers(4)
            if kind == 0 and acts:
                acts.append(dict(acts[int(rng.integers(len(acts)))]))
                continue
            if kind == 1:
                acts.append({names[int(rng.integers(n))]: 1.0})
                continue
            others = [t for t in range(n) if t != s]
            picks = rng.choice(others, size=int(rng.integers(1, 4)), replace=False)
            w = rng.uniform(0.2, 1.0, len(picks))
            e = float(10.0 ** -rng.uniform(1, 11)) if kind == 2 else 1.0
            dist = {names[int(t)]: float(p) for t, p in zip(picks, e * w / w.sum())}
            if kind == 2:
                dist[names[s]] = 1.0 - e
            acts.append(dist)
        rows[names[s]] = acts
    for t in names[-2:]:
        rows[t] = [{t: 1.0}]
    labels = {names[-2]: ["psi"]}
    return {"states": names, "initial": names[0], "labels": labels, "transitions": rows}


def test_improvement_step_matches_scalar_reference(mdp_corpus, monkeypatch):
    # Every round of policy iteration, and rounds on values drawn from a
    # few levels so that many actions tie exactly, against the scalar
    # step: the same choices and the same verdict on improvement.
    rng = np.random.default_rng(904)
    models = list(mdp_corpus) + [parse_model(json.dumps(_tied_mdp_doc(rng))) for _ in range(150)]
    seen = {"rounds": 0, "improved": 0, "ties": 0}

    class Checked(scheduling._Improvement):
        def __init__(self, m, target):
            super().__init__(m, target)
            self.m, self.target = m, target

        def __call__(self, values, choice):
            x = values.tolist()
            want = _scalar_improvement(self.m, self.target, x, choice.tolist())
            # every distribution's value on leaving, to the byte
            assert self.leaving(values).tolist() == [
                _leaving_value(s, dist, x) for s in self.states.tolist() for dist in self.m.actions[s]
            ]
            improved = super().__call__(values, choice)
            assert (choice.tolist(), improved) == want
            seen["rounds"] += 1
            seen["improved"] += improved
            return improved

    monkeypatch.setattr(scheduling, "_Improvement", Checked)
    for m in models:
        goal = {m.num_states - 2}
        extract_max_scheduler(m, goal)
        step = Checked(m, goal)
        for _ in range(3):
            x = rng.choice([0.0, 0.25, 0.5, 1.0], size=m.num_states)
            seen["ties"] += sum(
                len({_leaving_value(s, d, x.tolist()) for d in dists}) < len(dists)
                for s, dists in enumerate(m.actions)
            )
            step(x, np.array([int(rng.integers(len(d))) for d in m.actions]))
    assert seen["rounds"] > 1000 and seen["improved"] > 500 and seen["ties"] > 500, seen


def test_improvement_step_memory_follows_the_entries():
    # 1000 states with two actions each, and one reset action spread over
    # every state: the step's arrays grow with the 4000 or so entries, not
    # with the widest distribution times the states.
    n = 1000
    names = ["q%d" % s for s in range(n)]
    rows = {t: [{t: 1.0}] for t in names[-2:]}
    for s in range(n - 2):
        rows[names[s]] = [{names[s + 1]: 1.0}, {names[-2]: 0.25, names[-1]: 0.75}]
    rows[names[0]].append({t: 1.0 / n for t in names})
    doc = {"states": names, "initial": names[0], "labels": {names[-2]: ["psi"]}, "transitions": rows}
    m = parse_model(json.dumps(doc))
    m.rows  # built before the trace starts
    goal = {n - 2}
    values = np.random.default_rng(5).uniform(size=n)
    choice = np.zeros(n, dtype=np.int64)
    tracemalloc.start()
    try:
        improved = scheduling._Improvement(m, goal)(values, choice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert (choice.tolist(), improved) == _scalar_improvement(m, goal, values.tolist(), [0] * n)
