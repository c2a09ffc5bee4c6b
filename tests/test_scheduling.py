import json

import numpy as np

from railcheck import scheduling
from railcheck.model import is_markov_chain, mc_row, parse_model
from railcheck.oracle import brute_force_max_reach
from railcheck.scheduling import extract_max_scheduler, induced_mc


def test_mdp2_scheduler(mdp2):
    sched, red, values = extract_max_scheduler(mdp2, {3})
    assert sched.choice == (1, 0, 0, 0, 0)
    chain = induced_mc(mdp2, sched)
    assert is_markov_chain(chain)
    assert chain.names == mdp2.names
    assert mc_row(chain, 0) == ((2, 1.0),)
    assert abs(values[0] - 0.8) <= 1e-10
    assert abs(brute_force_max_reach(chain, {3}) - 0.8) <= 1e-10
    # the reduction returned is the one of the final policy's chain
    assert red.origin.actions[0] == chain.actions[0]


def test_chain_passes_through(m0):
    sched, _, _ = extract_max_scheduler(m0, {3, 4})
    assert sched.choice == (0, 0, 0, 0, 0)
    assert induced_mc(m0, sched).actions == m0.actions


def test_value_preserving_loop_is_left():
    # Staying put at e0 preserves the optimal value forever without ever
    # reaching the goal; the extracted scheduler must take the exit.
    doc = {
        "states": ["e0", "e1", "goal", "sink"],
        "initial": "e0",
        "labels": {"goal": ["psi"]},
        "transitions": {
            "e0": [{"e0": 1.0}, {"goal": 0.5, "e1": 0.5}],
            "e1": [{"e0": 1.0}],
            "goal": [{"goal": 1.0}],
            "sink": [{"sink": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    sched, _, _ = extract_max_scheduler(m, {2})
    assert sched.choice == (1, 0, 0, 0)
    value = brute_force_max_reach(induced_mc(m, sched), {2})
    assert abs(value - 1.0) <= 1e-7


def test_ties_take_lowest_action_index():
    doc = {
        "states": ["t0", "goal", "sink"],
        "initial": "t0",
        "labels": {"goal": ["psi"]},
        "transitions": {
            "t0": [{"goal": 0.5, "sink": 0.5}, {"sink": 0.5, "goal": 0.5}],
            "goal": [{"goal": 1.0}],
            "sink": [{"sink": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    assert extract_max_scheduler(m, {1})[0].choice[0] == 0


def test_unreachable_target_defaults_to_first_action(mdp2):
    sched, _, _ = extract_max_scheduler(mdp2, set())
    assert sched.choice == (0, 0, 0, 0, 0)


def _near_one_doc(rng):
    # Every distribution keeps its state with probability 1 - e, e from
    # 1e-1 down to 1e-11, and spreads e over one or two other states; the
    # last two states are the goal and a sink.
    n = int(rng.integers(4, 8))
    names = ["q%d" % s for s in range(n)]
    rows = {}
    for s in range(n - 2):
        rows[names[s]] = []
        for _ in range(int(rng.integers(1, 4))):
            e = float(10.0 ** -rng.uniform(1, 11))
            others = [t for t in range(n) if t != s]
            picks = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
            w = rng.uniform(0.2, 1.0, len(picks))
            dist = {names[int(t)]: float(p) for t, p in zip(picks, e * w / w.sum())}
            dist[names[s]] = 1.0 - e
            rows[names[s]].append(dist)
    for t in names[-2:]:
        rows[t] = [{t: 1.0}]
    return {"states": names, "initial": names[0], "labels": {names[-2]: ["psi"]}, "transitions": rows}


def _without_self_loops(doc):
    # A self loop only delays: each distribution renormalized over its
    # other targets reaches the goal with the same probability.
    rows = {}
    for s, dists in doc["transitions"].items():
        rows[s] = []
        for dist in dists:
            out = {t: p for t, p in dist.items() if t != s}
            rows[s].append({t: p / sum(out.values()) for t, p in out.items()} if out else dist)
    return dict(doc, transitions=rows)


def test_policy_iteration_on_near_one_loops(monkeypatch):
    # A gain in one step is the gain on leaving times the tiny chance to
    # leave, so it is compared on leaving; rounding error near ties makes
    # a few of these searches cycle, and they must end all the same.
    real, rounds = scheduling.max_reach, [0]

    def counting(*args):
        rounds[0] += 1
        assert rounds[0] <= 50, "policy iteration does not end"
        return real(*args)

    monkeypatch.setattr(scheduling, "max_reach", counting)
    rng = np.random.default_rng(6060)
    for _ in range(200):
        doc = _near_one_doc(rng)
        m = parse_model(json.dumps(doc))
        goal = m.num_states - 2
        rounds[0] = 0
        _, _, values = extract_max_scheduler(m, {goal})
        exact = brute_force_max_reach(parse_model(json.dumps(_without_self_loops(doc))), {goal})
        assert abs(values[m.initial] - exact) <= 1e-12
