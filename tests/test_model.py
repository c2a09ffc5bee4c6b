import json
import math

import numpy as np
import pytest

from railcheck.cli import run_check
from railcheck.model import (
    ROW_SUM_TOL,
    ModelError,
    cylinder_prob,
    dirac,
    is_markov_chain,
    mc_row,
    names_of_path,
    parse_model,
    successors,
)


def test_parse_m0_shape(m0):
    assert m0.num_states == 5
    assert m0.names == ("s0", "s1", "s2", "s3", "s4")
    assert m0.initial == 0
    assert is_markov_chain(m0)
    assert m0.labels[3] == frozenset({"psi"})
    assert m0.labels[4] == frozenset({"psi"})


def test_rows_and_lookups(m0):
    assert mc_row(m0, 0) == ((1, 0.4), (2, 0.6))
    assert dict(mc_row(m0, 1))[1] == 0.5
    assert 3 not in dict(mc_row(m0, 0))
    assert successors(m0, 0) == {1, 2}
    assert successors(m0, 3) == {3}
    assert dirac(3) == ((3, 1.0),)


def test_mdp_is_not_a_chain(mdp2):
    assert not is_markov_chain(mdp2)
    assert len(mdp2.actions[0]) == 2
    with pytest.raises(ModelError):
        mc_row(mdp2, 0)


def test_cylinder_prob(m0, mdp2):
    assert cylinder_prob(m0, (0,)) == 1.0
    assert cylinder_prob(m0, (0, 2, 4)) == pytest.approx(0.006, abs=1e-15)
    assert cylinder_prob(m0, (0, 1, 1, 3)) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ModelError, match="empty path"):
        cylinder_prob(m0, ())
    with pytest.raises(ModelError, match="no transition"):
        cylinder_prob(m0, (0, 3))
    with pytest.raises(ModelError, match="Markov chains only"):
        cylinder_prob(mdp2, (0, 1))


def test_path_name_round_trip(m0):
    assert names_of_path(m0, (0, 2, 4)) == ["s0", "s2", "s4"]


def _doc(**over):
    doc = {
        "states": ["a", "b"],
        "initial": "a",
        "transitions": {"a": [{"b": 1.0}], "b": [{"b": 1.0}]},
    }
    doc.update(over)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "doc,message",
    [
        (_doc(states=["a", "a"]), "unique"),
        (_doc(initial="c"), "initial state 'c'"),
        (_doc(transitions={"a": [{"c": 1.0}], "b": [{"b": 1.0}]}), "unknown state 'c'"),
        (_doc(transitions={"b": [{"b": 1.0}]}), "non-empty array"),
        (_doc(transitions={"a": [], "b": [{"b": 1.0}]}), "non-empty array"),
        (_doc(transitions={"a": [{}], "b": [{"b": 1.0}]}), "non-empty object"),
        (_doc(transitions={"a": [{"a": -0.5, "b": 1.5}], "b": [{"b": 1.0}]}), "out of range"),
        (_doc(transitions={"a": [{"a": 0.5, "b": 0.4}], "b": [{"b": 1.0}]}), "sums to 0.9"),
        (_doc(labels={"c": ["x"]}), "unknown state 'c'"),
        ("[]", "JSON object"),
    ],
)
def test_parse_rejects_bad_documents(doc, message):
    with pytest.raises(ModelError, match=message):
        parse_model(doc)


def test_parse_reports_json_position():
    with pytest.raises(ModelError, match=r"line 1, column"):
        parse_model('{"states": ["a"],}')


def test_row_sum_tolerance():
    off = 1.0 - 5e-10  # within the default tolerance
    doc = json.dumps({
        "states": ["a"],
        "initial": "a",
        "transitions": {"a": [{"a": off}]},
    })
    m = parse_model(doc)
    assert dict(mc_row(m, 0))[0] == off
    with pytest.raises(ModelError, match="sums to"):
        parse_model(doc, tol=1e-12)
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(ModelError, match="tolerance"):
            parse_model(doc, tol=tol)


def _merged_weights_doc(rng):
    # A short line of states, each row merging two normalized weights for
    # its one successor, as a generator that adds up duplicate targets
    # does; the sum can round to 1.0000000000000002.
    n = int(rng.integers(2, 6))
    names = ["x%d" % s for s in range(n)]
    rows = {names[-1]: [{names[-1]: 1.0}]}
    for s in range(n - 1):
        w = rng.uniform(0.2, 1.0, 2)
        w = w / w.sum()
        rows[names[s]] = [{names[s + 1]: float(w[0]) + float(w[1])}]
    return {"states": names, "initial": names[0], "labels": {names[-1]: ["psi"]}, "transitions": rows}


def test_probability_rounded_above_one_is_stored_as_one(tmp_path):
    # Stored as read, such a row would give the line's one rail a mass
    # above 1, and P<=1 would be reported violated.
    rng = np.random.default_rng(4242)
    above_one = 0
    for _ in range(200):
        doc = _merged_weights_doc(rng)
        mass = 1.0
        for s in range(len(doc["states"]) - 1):
            (row,) = doc["transitions"][doc["states"][s]]
            mass *= row[doc["states"][s + 1]]
        above_one += mass > 1.0
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(doc))
        m = parse_model(path.read_text())
        assert all(0.0 < p <= 1.0 for (row,) in m.actions for _, p in row)
        code, report = run_check(str(path), "P<=1 [ F psi ]")
        assert code == 0, report
    assert above_one > 0
    doc = {"states": ["a"], "initial": "a", "transitions": {"a": [{"a": 1.0 + 2 * ROW_SUM_TOL}]}}
    with pytest.raises(ModelError, match="out of range"):
        parse_model(json.dumps(doc))


def _over_one_doc(rng):
    # A line of states, each row merging pairs of normalized weights onto
    # the next state and one or two absorbing targets, then overshooting 1
    # by up to ROW_SUM_TOL, which parsing accepts; the last state splits
    # between targets only. Every run ends in a target.
    n = int(rng.integers(1, 5))
    names = ["x%d" % s for s in range(n)] + ["t%d" % j for j in range(2 * n)]
    rows = {}
    for s in range(n):
        outs = ([names[s + 1]] if s + 1 < n else []) + names[n + 2 * s : n + 2 * s + 2]
        parts = rng.uniform(0.2, 1.0, 2 * len(outs))
        parts = parts / parts.sum()
        w = (parts[0::2] + parts[1::2]) * (1.0 + float(rng.uniform(0.0, 1.0)) * ROW_SUM_TOL)
        rows[names[s]] = [{t: float(p) for t, p in zip(outs, w)}]
    for t in names[n:]:
        rows[t] = [{t: 1.0}]
    return {"states": names, "initial": names[0], "labels": {t: ["psi"] for t in names[n:]}, "transitions": rows}


def test_rows_summing_above_one_never_break_a_bound_of_one(tmp_path):
    # The rails' masses sum to just above 1, but a probability cannot:
    # P<=1 holds and P<1 is violated, both with max_prob and total_mass 1.
    rng = np.random.default_rng(4343)
    path = tmp_path / "over.json"
    for _ in range(200):
        path.write_text(json.dumps(_over_one_doc(rng)))
        code, report = run_check(str(path), "P<=1 [ F psi ]")
        assert code == 0 and report["verdict"] == "holds", report
        assert report["max_prob"] == 1.0 and report["total_mass"] == 1.0
        code, report = run_check(str(path), "P<1 [ F psi ]")
        assert code == 1 and report["verdict"] == "violated", report
        assert report["max_prob"] == 1.0 and report["total_mass"] == 1.0
