"""Array kernels of the pre-processing and scc-analysis stages, checked
against independent computations on seeded random models."""

import json

import networkx as nx
import numpy as np
import pytest

from railcheck.model import parse_model
from railcheck.numerics import max_reach
from railcheck.oracle import brute_force_max_reach
from railcheck.transform import scc_decompose, scc_io

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
        got = max_reach(m, {goal})
        assert np.max(np.abs(got - _exact_reach(m, goal))) <= 1e-8
        by_order.append({m.names[s]: got[s] for s in range(m.num_states)})
    for name, v in by_order[0].items():
        assert abs(v - by_order[1][name]) <= 1e-8


def test_max_reach_matches_brute_force_on_mdps(mdp_corpus):
    for m in mdp_corpus:
        psi = {m.num_states - 2}
        got = max_reach(m, psi)[m.initial]
        assert abs(got - brute_force_max_reach(m, psi)) <= 1e-7


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
    infos = scc_io(m, scc_decompose(m))
    got = {info.members: (info.inputs, info.outputs) for info in infos if info.nontrivial}
    assert got == expected
