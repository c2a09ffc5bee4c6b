import copy
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import assert_rows_equal, corpus_docs, reference_actions, successors
from railcheck.cli import run_check
from railcheck.model import (
    ROW_SUM_TOL,
    ModelError,
    cylinder_mass,
    cylinder_prob,
    is_markov_chain,
    mc_row,
    names_of_path,
    parse_model,
    split_mass,
    split_masses,
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


def _cylinder_reference(m, path):
    """cylinder_mass one step at a time, right to left, each row read by
    mc_row, which rejects a state with several distributions."""
    frac, exp = 0.5, 1
    for s, t in reversed(list(zip(path, path[1:]))):
        p = dict(mc_row(m, s)).get(t, 0.0)
        if not p > 0.0:
            raise ModelError(f"no transition {m.names[s]} -> {m.names[t]}")
        pm, pe = math.frexp(p)
        frac, k = math.frexp(pm * frac)
        exp += pe + k
    return split_mass(frac, exp)


def test_cylinder_mass_matches_a_step_by_step_reference(mc_corpus, mdp_corpus):
    # random walks with a wrong step now and then, on chains and MDPs: the
    # same mass, or the same error, the rightmost faulty step's
    rng = np.random.default_rng(2121)
    faults = Counter()
    for m in [m for m, _, _, _ in mc_corpus[:50]] + mdp_corpus[:50]:
        for _ in range(10):
            path = [int(rng.integers(m.num_states))]
            for _ in range(int(rng.integers(0, 8))):
                if rng.random() < 0.15:
                    path.append(int(rng.integers(m.num_states)))
                else:
                    dists = m.actions[path[-1]]
                    targets = [t for t, _ in dists[int(rng.integers(len(dists)))]]
                    path.append(targets[int(rng.integers(len(targets)))])
            try:
                want = _cylinder_reference(m, path)
            except ModelError as err:
                faults[str(err).split()[0]] += 1
                with pytest.raises(ModelError) as got:
                    cylinder_mass(m, tuple(path))
                assert str(got.value) == str(err)
            else:
                assert cylinder_mass(m, tuple(path)) == want
    assert faults["no"] > 0 and faults["state"] > 0
    # both faults on one path: the rightmost raises
    doc = {"states": ["a", "b", "c"], "initial": "a",
           "transitions": {"a": [{"b": 1.0}], "b": [{"c": 1.0}, {"a": 1.0}], "c": [{"c": 1.0}]}}
    m = parse_model(json.dumps(doc))
    with pytest.raises(ModelError, match="no transition c -> a"):
        cylinder_mass(m, (1, 2, 0))
    with pytest.raises(ModelError, match="'b' has 2 distributions"):
        cylinder_mass(m, (2, 1, 2))


def test_split_masses_is_split_mass_elementwise():
    # around the least normal exponent, the least subnormal's and below,
    # and in the normal range: the same floats to the bit, the same ints
    rng = np.random.default_rng(2424)
    exps = [-1021, -1022, -1023, -1074, -1075, -1800, -1020, -500, -1, 0, 1]
    fracs = np.concatenate([[0.5, np.nextafter(1.0, 0.0)], rng.uniform(0.5, 1.0, 30)])
    frac = np.tile(fracs, len(exps))
    exp = np.repeat(np.array(exps, dtype=np.int64), len(fracs))
    mass, mass_exp = split_masses(frac, exp)
    want = [split_mass(f, e) for f, e in zip(frac.tolist(), exp.tolist())]
    assert [(m.hex(), e) for m, e in zip(mass.tolist(), mass_exp.tolist())] == [(m.hex(), e) for m, e in want]
    assert all(type(e) is int for e in mass_exp.tolist())


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
        (_doc(initial=["a"]), "'initial' must be a state name"),
        (_doc(initial={"a": 1}), "'initial' must be a state name"),
        (_doc(initial=None), "'initial' must be a state name"),
        (_doc(labels=[]), "'labels' must be an object"),
        (_doc(labels=""), "'labels' must be an object"),
        (_doc(labels=0), "'labels' must be an object"),
        (_doc(labels=False), "'labels' must be an object"),
        (_doc(labels=None), "'labels' must be an object"),
        ("[]", "JSON object"),
    ],
)
def test_parse_rejects_bad_documents(doc, message):
    with pytest.raises(ModelError, match=message):
        parse_model(doc)


# values that are no probability: no number, or out of range for the
# default tolerance (json writes NaN and the infinities as literals it reads)
_BAD_VALUES = [True, False, "0.5", None, [0.5], {"p": 0.5}, math.nan, math.inf, -math.inf,
               0, 0.0, -0.0, -0.25, 1.0 + 2 * ROW_SUM_TOL, 2, 10**400, -(10**400)]


def _break(rng, doc):
    # One fault at a random place of a model document, in place.
    trans = doc["transitions"]
    name = list(trans)[int(rng.integers(len(trans)))]
    dists = trans[name]
    if not isinstance(dists, list) or not dists or not all(isinstance(d, dict) and d for d in dists):
        return  # a fault already sits here
    k = int(rng.integers(len(dists)))
    dist = dists[k]
    target = list(dist)[int(rng.integers(len(dist)))]
    kind = int(rng.integers(8))
    if kind == 0:  # a value that is no probability
        dist[target] = _BAD_VALUES[int(rng.integers(len(_BAD_VALUES)))]
    elif kind == 1:  # an unknown target, in place of a known one or added last
        if rng.random() < 0.5:
            dists[k] = {("nowhere" if t == target else t): p for t, p in dist.items()}
        else:
            dist["nowhere"] = 0.5
    elif kind == 2 and type(dist[target]) is float:  # a sum off by twice the tolerance
        dist[target] += (1 if rng.random() < 0.5 else -1) * 2 * ROW_SUM_TOL
    elif kind == 3:  # an empty or non-object distribution
        dists[k] = [{}, [], None, 0.5, "x", [dist]][int(rng.integers(6))]
    elif kind == 4:  # an empty or non-list array of distributions
        trans[name] = [[], {}, None, "x", dist][int(rng.integers(5))]
    elif kind == 5:  # no array at all
        del trans[name]
    elif kind == 6:  # an array for an undeclared state
        trans["ghost"] = [{name: 1.0}]
    else:  # a probability rounded above 1 but within the tolerance: no fault
        dists[k] = {target: 1.0 + ROW_SUM_TOL / 2}


_MESSAGES = ("transitions given for unknown state", "needs a non-empty array", "must be a non-empty object",
             "targets unknown state", "must be a number", "out of range", "sums to")


def test_parse_matches_the_reference_on_broken_documents():
    # Corpus documents with one to three faults, parsed at four tolerances:
    # parse_model must name the first fault that the sequential reference
    # (conftest.reference_actions) meets, with its exact message, and read
    # every document that the reference reads to the same rows.
    rng = np.random.default_rng(4444)
    docs = corpus_docs()
    kinds = Counter()
    for i in range(1200):
        doc = copy.deepcopy(docs[int(rng.integers(len(docs)))])
        for _ in range(int(rng.integers(1, 4))):
            _break(rng, doc)
        text = json.dumps(doc)
        tol = (ROW_SUM_TOL, ROW_SUM_TOL, 0.0, 0.5)[i % 4]
        try:
            expected = reference_actions(json.loads(text), tol)
        except ModelError as err:
            with pytest.raises(ModelError) as got:
                parse_model(text, tol)
            assert str(got.value) == str(err), text
            kinds[next(k for k in _MESSAGES if k in str(err))] += 1
        else:
            assert_rows_equal(parse_model(text, tol).rows, expected)
            kinds["read"] += 1
    assert min(kinds[k] for k in _MESSAGES + ("read",)) >= 20, kinds


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
    assert m.labels == (frozenset(),)  # a missing labels field means none
    with pytest.raises(ModelError, match="sums to"):
        parse_model(doc, tol=1e-12)
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(ModelError, match="tolerance"):
            parse_model(doc, tol=tol)


def _near_edge_doc(rng, tol):
    # States with one or two distributions of 1 to 8 entries. A third of
    # them sum to within a few ulps either side of 1 - tol or 1 + tol: the
    # last entry makes up the rest of such a sum, the others share
    # (k-1)/k of it. The others are multiples of 1/64 that sum to 1.
    n = int(rng.integers(2, 9))
    names = ["q%d" % s for s in range(n)]
    rows = {}
    for name in names:
        rows[name] = []
        for _ in range(int(rng.integers(1, 3))):
            k = int(rng.integers(1, n + 1))
            if rng.random() < 1 / 3:
                edge = 1.0 + tol if rng.random() < 0.5 else 1.0 - tol
                total = edge + int(rng.integers(-4, 5)) * math.ulp(edge)
                w = rng.uniform(0.5, 1.0, k - 1)
                head = (w / w.sum() * total * (k - 1) / k).tolist()
                values = head + [total - math.fsum(head)]
            else:
                cuts = np.sort(rng.choice(np.arange(1, 64), size=k - 1, replace=False))
                values = (np.diff(np.concatenate(([0], cuts, [64]))) / 64).tolist()
            targets = rng.choice(names, size=k, replace=False).tolist()
            rows[name].append(dict(zip(targets, values)))
    return {"states": names, "initial": names[0], "transitions": rows}


@pytest.mark.parametrize("tol", [0.0, ROW_SUM_TOL, 0.5])
def test_parse_matches_the_reference_at_the_tolerance_edges(tol):
    # Float sums so close to 1 ± tol that rounding decides: parse_model,
    # which adds each distribution up in floats first, must read and
    # reject what the reference reads and rejects, with its messages.
    rng = np.random.default_rng(4545)
    kinds = Counter()
    for _ in range(400):
        doc = _near_edge_doc(rng, tol)
        text = json.dumps(doc)
        try:
            expected = reference_actions(json.loads(text), tol)
        except ModelError as err:
            with pytest.raises(ModelError) as got:
                parse_model(text, tol)
            assert str(got.value) == str(err), text
            kinds["sums to" if "sums to" in str(err) else "out of range"] += 1
        else:
            assert_rows_equal(parse_model(text, tol).rows, expected)
            kinds["read"] += 1
    assert kinds["read"] >= 20 and kinds["sums to"] >= 20, kinds


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
