import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import dense_chain_doc, reduce_to_psi
from railcheck import oracle
from railcheck.model import mc_row, parse_model
from railcheck.oracle import (
    OracleLimitError,
    brute_force_max_reach,
    enumerate_freach,
    first_hits,
    monte_carlo_classify,
)
from railcheck.props import Atom, sat_states
from railcheck.scheduling import extract_max_scheduler
from railcheck.search import ranked_rails

M0_TABLE = [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.006, 0.00594, 0.0058806]


def test_enumerate_m0_table(m0):
    paths, undecided = enumerate_freach(m0, {3, 4}, 10)
    for got, want in zip(paths, M0_TABLE):
        assert got[1] == pytest.approx(want, abs=1e-12)
    # ranked by probability, heaviest first
    probs = [p for _, p in paths]
    assert probs == sorted(probs, reverse=True)
    # abandoned paths hold exactly max_len states: one hop off the
    # initial state plus max_len - 2 moves inside a loop
    assert undecided == pytest.approx(
        0.4 * 0.5 ** 8 + 0.6 * 0.99 ** 8, abs=1e-15
    )


def test_enumerate_counts_states_not_steps(m0):
    paths, _ = enumerate_freach(m0, {3, 4}, 2)
    assert paths == []
    paths, _ = enumerate_freach(m0, {3, 4}, 3)
    assert [p for p, _ in paths] == [(0, 1, 3), (0, 2, 4)]


def test_enumerate_stops_at_first_target_hit(m0):
    paths, _ = enumerate_freach(m0, {3, 4}, 12)
    for path, _ in paths:
        assert path[-1] in {3, 4}
        assert all(s not in {3, 4} for s in path[:-1])
    # prefix freedom comes with that
    seqs = [p for p, _ in paths]
    for a in seqs:
        for b in seqs:
            if a != b:
                assert a != b[: len(a)]


def test_enumerate_big1(big1):
    paths, undecided = enumerate_freach(big1, {3}, 4)
    assert paths == [((0, 1, 3), 0.5)]
    assert undecided == 0.5


def test_enumerate_mass_conservation(mc_corpus):
    for m, psi, red, rails in mc_corpus[:15]:
        paths, undecided = enumerate_freach(m, psi, 14)
        total = math.fsum(p for _, p in paths)
        assert total <= 1.0 + 1e-12
        assert undecided >= 0.0
        reach = math.fsum(mass for _, mass in rails)
        assert total - 1e-12 <= reach <= total + undecided + 1e-12


def _residual_mass(mc, targets, max_len):
    # the tail bound as enumerate_freach summed it before first_hits did
    live = oracle._can_reach([mc_row(mc, s) for s in range(mc.num_states)], targets)
    if mc.initial not in live or mc.initial in targets:
        return 0.0
    if max_len < 1:
        return 1.0
    alive = {mc.initial: 1.0}
    for _ in range(max_len - 1):
        step = {}
        for s, mass in alive.items():
            for t, p in mc_row(mc, s):
                if t in live and t not in targets:
                    step[t] = step.get(t, 0.0) + mass * p
        alive = step
        if not alive:
            break
    return math.fsum(alive.values())


def test_first_hits_counts_and_sums_the_listed_paths(m0, big1, fig5, m0_trap, mdp2, mc_corpus, dag_corpus):
    chains = [(m, sat_states(m, Atom("psi"))) for m in (m0, big1, fig5, m0_trap)]
    chains.append((extract_max_scheduler(mdp2, {3})[1].origin, {3}))
    chains += [(m, psi) for m, psi, _, _ in mc_corpus + dag_corpus]
    for seed in range(20):
        n = 5 + seed % 3
        chains.append((parse_model(json.dumps(dense_chain_doc(np.random.default_rng(seed), n, 2))), {n - 1}))
    for m, psi in chains:
        for max_len in range(1, 15):
            listed, tail = enumerate_freach(m, psi, max_len)
            count, mass, tail_now = first_hits(m, psi, max_len)
            want = math.fsum(p for _, p in listed)
            assert count == len(listed)
            assert abs(mass - want) <= (max_len + 1) * 2.0 ** -53 * want
            assert tail_now == tail == _residual_mass(m, psi, max_len)


def test_first_hits_edges(m0):
    # the initial state is a target: one path of one state, from L = 1 on
    for max_len in (0, 1, 5):
        listed, tail = enumerate_freach(m0, {0, 3}, max_len)
        assert first_hits(m0, {0, 3}, max_len) == (len(listed), float(len(listed)), tail)
        assert tail == 0.0 and len(listed) == (max_len >= 1)
    # the initial state cannot reach the target: no path and no tail
    stuck = parse_model(json.dumps({
        "states": ["x", "y", "g"], "initial": "x", "labels": {"g": ["psi"]},
        "transitions": {"x": [{"y": 1.0}], "y": [{"y": 1.0}], "g": [{"g": 1.0}]},
    }))
    assert first_hits(stuck, {2}, 20) == (0, 0.0, 0.0)
    assert enumerate_freach(stuck, {2}, 20) == ([], 0.0)
    # L = 0 lists nothing and leaves the whole mass to the tail
    assert first_hits(m0, {3, 4}, 0) == (0, 0.0, 1.0)
    assert enumerate_freach(m0, {3, 4}, 0) == ([], 1.0)


def test_brute_force_mdp2(mdp2):
    assert brute_force_max_reach(mdp2, {3}) == 0.8


def test_brute_force_on_chain(m0):
    assert brute_force_max_reach(m0, {3, 4}) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_indifferent_actions():
    doc = {
        "states": ["x", "g"],
        "initial": "x",
        "labels": {"g": ["psi"]},
        "transitions": {
            "x": [{"g": 1.0}, {"x": 0.5, "g": 0.5}],
            "g": [{"g": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    assert brute_force_max_reach(m, {1}) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_refuses_huge_scheduler_spaces():
    n = 19
    names = ["b%d" % i for i in range(n)]
    rows = {
        names[i]: [{names[i + 1]: 1.0}, {names[0]: 1.0}] for i in range(n - 2)
    }
    rows[names[n - 2]] = [{names[n - 1]: 1.0}]
    rows[names[n - 1]] = [{names[n - 1]: 1.0}]
    doc = {
        "states": names,
        "initial": names[0],
        "labels": {names[n - 1]: ["psi"]},
        "transitions": rows,
    }
    m = parse_model(json.dumps(doc))
    with pytest.raises(OracleLimitError, match="scheduler space"):
        brute_force_max_reach(m, {n - 1})


def test_classify_big1(big1):
    red, psi = reduce_to_psi(big1)
    run = monte_carlo_classify(red.origin, red, [(0, 1, 3)], 10000, seed=5)
    assert run.count == 10000
    assert run.classified == {(0, 1, 3): 10000}
    assert run.unclassified == 0
    assert run.seed == 5


def test_classify_m0(m0):
    red, psi = reduce_to_psi(m0)
    rails = [(0, 2, 4), (0, 1, 3)]
    run = monte_carlo_classify(red.origin, red, rails, 10000, seed=11)
    assert sum(run.classified.values()) + run.unclassified == 10000
    assert run.unclassified == 0
    for rail, mass in zip(rails, (0.6, 0.4)):
        freq = run.classified[rail] / run.count
        assert abs(freq - mass) <= 4 * math.sqrt(mass * (1 - mass) / run.count)


def test_classify_sees_the_trap(m0_trap):
    red, psi = reduce_to_psi(m0_trap)
    rails = [(0, 2, 4), (0, 1, 3)]
    run = monte_carlo_classify(red.origin, red, rails, 10000, seed=12)
    assert run.unclassified > 0
    assert abs(run.unclassified / run.count - 0.2) <= 4 * math.sqrt(0.2 * 0.8 / run.count)


def test_classify_is_deterministic(m0):
    red, psi = reduce_to_psi(m0)
    rails = [(0, 2, 4), (0, 1, 3)]
    a = monte_carlo_classify(red.origin, red, rails, 2000, seed=7)
    b = monte_carlo_classify(red.origin, red, rails, 2000, seed=7)
    assert a.classified == b.classified
    assert a.unclassified == b.unclassified


def _replay(mc, red, rails, n, seed):
    """monte_carlo_classify with scalar draws: runs are counted per
    (state, footprint) while the footprint is a prefix of a given rail,
    and the groups split their counts in sorted (state, prefix number)
    order, one row position at a time: entry j takes a binomial share of
    what its earlier entries left, at p_j over the row's mass from j on,
    and the last entry takes the rest."""
    rows = [mc_row(mc, s) for s in range(mc.num_states)]
    absorbing = [len(row) == 1 and row[0][0] == s for s, row in enumerate(rows)]
    shares = []
    for row in rows:
        tail, share = 0.0, []
        for _, p in reversed(row):
            tail += p
            share.append(min(p / tail, 1.0))
        shares.append(share[::-1])
    number = {(mc.initial,): 0}  # rail prefixes, numbered in order of first appearance
    for rail in rails:
        if rail[0] == mc.initial:
            for k in range(2, len(rail) + 1):
                number.setdefault(tuple(rail[:k]), len(number))
    rng = np.random.default_rng(seed)
    ended = Counter()
    groups = Counter()
    if absorbing[mc.initial]:
        ended[(mc.initial,)] = n
    else:
        groups[(mc.initial, (mc.initial,))] = n
    steps = 0
    while groups and steps < oracle.SAMPLE_STEP_LIMIT:
        steps += 1
        order = sorted(groups, key=lambda g: (g[0], number[g[1]]))
        left = {g: groups[g] for g in order}
        split = {g: [] for g in order}
        for j in range(max(len(rows[s]) for s, _ in order) - 1):
            for g in order:
                if len(rows[g[0]]) - 1 > j:
                    drawn = int(rng.binomial(left[g], shares[g[0]][j]))
                    split[g].append(drawn)
                    left[g] -= drawn
        groups = Counter()
        for s, foot in order:
            for (t, _), runs in zip(rows[s], split[(s, foot)] + [left[(s, foot)]]):
                ahead = foot + (t,) if red.scc_of[t] != red.scc_of[s] else foot
                if runs == 0 or ahead not in number:
                    continue  # off every rail: unclassified whatever comes next
                if absorbing[t]:
                    ended[ahead] += runs
                else:
                    groups[(t, ahead)] += runs
    classified = {tuple(rail): ended[tuple(rail)] for rail in rails}
    return classified, n - sum(classified.values())


def _assert_replayed(mc, red, rails, n, seed):
    run = monte_carlo_classify(mc, red, rails, n, seed)
    classified, unclassified = _replay(mc, red, rails, n, seed)
    assert run.classified == classified
    assert list(run.classified) == list(classified)
    assert run.unclassified == unclassified


def _mdp_induced(m):
    psi = {m.num_states - 2}
    _, red, _ = extract_max_scheduler(m, psi)
    return red, [rail for rail, *_ in ranked_rails(red, psi)]


def test_sampler_matches_replay_on_corpora(mc_corpus, dag_corpus, mdp_corpus):
    cases = [(red, [r for r, _ in rails]) for _, _, red, rails in mc_corpus + dag_corpus]
    cases += [_mdp_induced(m) for m in mdp_corpus]
    for i, (red, rails) in enumerate(cases):
        _assert_replayed(red.origin, red, rails, 300, seed=[9000, i])
        # with every other rail, runs leave the tree on the way while others
        # still move inside it: a dropped run that went on drawing would
        # shift the others' draws
        _assert_replayed(red.origin, red, rails[::2], 300, seed=[9001, i])


def test_sampler_matches_replay_on_edge_cases(m0, m0_trap, fig5, monkeypatch):
    red, _ = reduce_to_psi(m0)
    rails = [(0, 2, 4), (0, 1, 3)]
    _assert_replayed(red.origin, red, [], 500, seed=1)
    _assert_replayed(red.origin, red, [(0, 1, 3)], 500, seed=2)  # partial list
    _assert_replayed(red.origin, red, rails + [(1, 3), (0, 1)], 500, seed=3)
    red_trap, _ = reduce_to_psi(m0_trap)
    _assert_replayed(red_trap.origin, red_trap, rails, 500, seed=4)
    red5, psi5 = reduce_to_psi(fig5)
    _assert_replayed(red5.origin, red5, [r for r, *_ in ranked_rails(red5, psi5)], 500, seed=5)
    # rows of 1 to 40 successors: up to 39 row positions draw in a step
    red_wide, psi_wide = reduce_to_psi(parse_model(json.dumps(_wide_chain_doc(np.random.default_rng(40)))))
    wide_rails = [r for r, *_ in ranked_rails(red_wide, psi_wide)]
    _assert_replayed(red_wide.origin, red_wide, wide_rails, 2000, seed=9)
    _assert_replayed(red.origin, red, rails, 1, seed=10)  # one run
    # every live run is absorbed on the same step, so none is left to step
    red_flat, psi_flat = reduce_to_psi(parse_model(json.dumps(_layered_doc(np.random.default_rng(41)))))
    flat_rails = [r for r, *_ in ranked_rails(red_flat, psi_flat)]
    _assert_replayed(red_flat.origin, red_flat, flat_rails, 500, seed=11)
    _assert_replayed(red_flat.origin, red_flat, flat_rails[1:], 500, seed=12)
    monkeypatch.setattr(oracle, "SAMPLE_STEP_LIMIT", 2)
    _assert_replayed(red5.origin, red5, [r for r, *_ in ranked_rails(red5, psi5)], 500, seed=6)
    _assert_replayed(red.origin, red, rails, 500, seed=7)


def _wide_chain_doc(rng, n=50):
    # states 0..n-1 and three absorbing ones, two of them psi; every row
    # of several successors leads to one of those too, and a one-successor
    # row moves forward, so every cycle can end. The rows have 1 to 40
    # successors, 40 at least once.
    names = ["w%d" % s for s in range(n)] + ["goal", "also", "trap"]
    sizes = rng.integers(1, 41, n)
    sizes[int(rng.integers(n))] = 40
    rows = {s: [{s: 1.0}] for s in names[n:]}
    for s, size in enumerate(sizes.tolist()):
        if size == 1:
            targets = [int(rng.integers(s + 1, n + 3))]
        else:
            end = n + int(rng.integers(3))
            targets = [end] + rng.choice([t for t in range(n + 3) if t != end], size - 1, replace=False).tolist()
        w = rng.uniform(0.2, 1.0, size)
        rows[names[s]] = [{names[t]: float(p) for t, p in zip(targets, w / w.sum())}]
    return {"states": names, "initial": names[0], "labels": {"goal": ["psi"], "also": ["psi"]},
            "transitions": rows}


def _layered_doc(rng, width=4, depth=3):
    # every path takes depth + 1 steps from the initial state to an
    # absorbing state of the last layer, half of which carry psi
    layers = [["init"]] + [["l%d_%d" % (i, j) for j in range(width)] for i in range(depth + 1)]
    rows = {s: [{s: 1.0}] for s in layers[-1]}
    for here, below in zip(layers, layers[1:]):
        for s in here:
            picks = rng.choice(width, int(rng.integers(1, width + 1)), replace=False)
            w = rng.uniform(0.2, 1.0, len(picks))
            rows[s] = [{below[int(j)]: float(p) for j, p in zip(picks, w / w.sum())}]
    return {"states": [s for layer in layers for s in layer], "initial": "init",
            "labels": {s: ["psi"] for s in layers[-1][::2]}, "transitions": rows}


def test_sampler_on_an_absorbing_initial_state():
    doc = {
        "states": ["g", "x"],
        "initial": "g",
        "labels": {"g": ["psi"]},
        "transitions": {"g": [{"g": 1.0}], "x": [{"g": 1.0}]},
    }
    red, _ = reduce_to_psi(parse_model(json.dumps(doc)))
    for rails in ([(0,)], [], [(0,), (1, 0)]):
        _assert_replayed(red.origin, red, rails, 100, seed=8)
    run = monte_carlo_classify(red.origin, red, [(0,)], 100, seed=8)
    assert run.classified == {(0,): 100} and run.unclassified == 0


def test_sampler_memory_does_not_grow_with_the_runs(mc_corpus):
    # numpy reports its buffers to tracemalloc: a step holds arrays of
    # the live (state, node) groups and their row entries, never one
    # entry per run
    _, _, red, rails = mc_corpus[0]
    n = 10 ** 12
    tracemalloc.start()
    try:
        run = monte_carlo_classify(red.origin, red, [r for r, _ in rails], n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(run.classified.values()) + run.unclassified == n
    assert peak <= 10 ** 6


CROSS_CHECK_SCRIPT = """
import sys
import numpy as np
from railcheck import oracle
from railcheck.model import parse_model
from railcheck.transform import acyclic_reduce, make_absorbing
m = parse_model(open(sys.argv[1]).read())
red = acyclic_reduce(make_absorbing(m, {3, 4}))
oracle._RailTrie.step = lambda self, nodes, states: np.full_like(nodes, -1)
try:
    oracle.monte_carlo_classify(red.origin, red, [(0, 2, 4), (0, 1, 3)], 100, 1)
except AssertionError as err:
    print("caught:", err)
"""


def test_cross_check_survives_python_O(m0_path):
    # a trie that loses every run must be caught, asserts stripped or not
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CROSS_CHECK_SCRIPT, str(m0_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.startswith("caught: the rail trie places a path in None")
