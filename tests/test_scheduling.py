import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import line_mdp_doc
from railcheck import scheduling
from railcheck.cli import run_check
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


def _line_optimum(doc):
    # Backward along the line, each state the better of its two actions,
    # exactly over the stored floats. Each value is kept as an integer n
    # over 2**e, as every float is one: Fraction's gcd and cross products
    # on the 10**5-bit terms of k = 2000 take a second per line.
    value = {"goal": (1, 0), "trap": (0, 0)}
    for s in reversed(doc["states"][:-2]):
        sums = []
        for dist in doc["transitions"][s]:
            terms = [(n * value[t][0], d.bit_length() - 1 + value[t][1])
                     for t, (n, d) in ((t, p.as_integer_ratio()) for t, p in dist.items())]
            e = max(f for _, f in terms)
            sums.append((sum(n << (e - f) for n, f in terms), e))
        e = max(f for _, f in sums)
        value[s] = max((n << (e - f), e) for n, f in sums)
    n, e = value[doc["initial"]]
    return Fraction(n, 1 << e)


_BELOW_IMPROVE_TOL = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a switch must gain more than IMPROVE_TOL = 1e-10, absolute, so policy "
    "iteration keeps action 0 everywhere and misses the maximum",
)


@pytest.mark.parametrize("k", [1, 3, 100, 2000])
@pytest.mark.parametrize(
    "delta, end",
    [pytest.param(d, False, marks=_BELOW_IMPROVE_TOL) for d in (1e-13, 5e-11, 9e-11)]
    + [(2e-10, False), (1e-9, False)]
    + [pytest.param(d, True, marks=_BELOW_IMPROVE_TOL) for d in (1e-13, 5e-11, 9e-11, 2e-10)]
    + [(1e-9, True)],
)
def test_line_mdp_exit_and_value(tmp_path, k, delta, end):
    # Every action 1 adds delta to the chance of the goal, so the maximum
    # lies above the bound, which action 0 everywhere attains, and every
    # check is violated.
    doc = line_mdp_doc(k, delta, end)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    bound = Fraction(1, 2) if end else Fraction(0)
    exact = _line_optimum(doc)
    assert exact > bound
    code, report = run_check(str(path), "P<=%s [ F psi ]" % ("0.5" if end else "0"))
    assert code == 1, report["max_prob"]
    assert abs(Fraction(report["max_prob"]) - exact) <= exact * Fraction(1e-12)
