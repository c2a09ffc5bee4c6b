import json
import math

import pytest

from conftest import reduce_to_psi
from railcheck import search
from railcheck.model import cylinder_prob, parse_model
from railcheck.oracle import enumerate_freach
from railcheck.props import Atom, PropertySpec, parse_property
from railcheck.rails import representant
from railcheck.search import (
    SearchLimitError,
    most_indicative,
    ranked_rails,
)
from railcheck.transform import acyclic_reduce, make_absorbing


def test_ranked_rails_m0(m0):
    red, psi = reduce_to_psi(m0)
    assert list(ranked_rails(red, psi)) == [((0, 2, 4), 0.6), ((0, 1, 3), 0.4)]


def test_ranked_rails_big1(big1):
    red, psi = reduce_to_psi(big1)
    assert list(ranked_rails(red, psi)) == [((0, 1, 3), 1.0)]


def test_ranked_rails_fig5(fig5):
    red, psi = reduce_to_psi(fig5)
    got = list(ranked_rails(red, psi))
    assert [rail for rail, _ in got] == [
        (0, 1, 9, 12),
        (0, 1, 10, 13),
        (0, 2, 5, 11, 14),
        (0, 2, 5, 14),
        (0, 2, 6, 11, 14),
        (0, 2, 6, 14),
    ]
    masses = [mass for _, mass in got]
    assert masses[0] == pytest.approx(1 / 3, abs=1e-12)
    assert masses[1] == pytest.approx(1 / 6, abs=1e-12)
    assert masses[2:] == [0.125, 0.125, 0.125, 0.125]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)


def test_ranked_rails_complete_and_ordered(mc_corpus):
    # the stream must produce exactly the reachable target paths of the
    # reduced chain, heaviest first; brute-force enumeration is the oracle
    for m, psi, red, rails in mc_corpus[:20]:
        expected, undecided = enumerate_freach(red.chain, psi, red.chain.num_states)
        assert undecided == 0.0
        got = list(ranked_rails(red, psi))
        assert {rail for rail, _ in got} == {path for path, _ in expected}
        masses = [mass for _, mass in got]
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))
        by_rail = dict(got)
        for path, prob in expected:
            assert by_rail[path] == pytest.approx(prob, abs=1e-12)


def test_equal_mass_rails_come_in_state_order():
    doc = {
        "states": ["d0", "da", "db", "dt"],
        "initial": "d0",
        "labels": {"dt": ["psi"]},
        "transitions": {
            "d0": [{"da": 0.5, "db": 0.5}],
            "da": [{"dt": 1.0}],
            "db": [{"dt": 1.0}],
            "dt": [{"dt": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    red, psi = reduce_to_psi(m)
    assert [rail for rail, _ in ranked_rails(red, psi)] == [(0, 1, 3), (0, 2, 3)]


def test_near_ties_fall_back_to_state_order():
    # masses differ by 1e-13, inside the tie window, so the state order
    # decides even though the first rail is marginally lighter
    doc = {
        "states": ["n0", "na", "nb", "nt"],
        "initial": "n0",
        "labels": {"nt": ["psi"]},
        "transitions": {
            "n0": [{"na": 0.49999999999995, "nb": 0.50000000000005}],
            "na": [{"nt": 1.0}],
            "nb": [{"nt": 1.0}],
            "nt": [{"nt": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    red, psi = reduce_to_psi(m)
    assert [rail for rail, _ in ranked_rails(red, psi)] == [(0, 1, 3), (0, 2, 3)]


def test_most_indicative_m0(m0):
    red, psi = reduce_to_psi(m0)
    out = most_indicative(red, parse_property("P<=0.5 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert [w.rail for w in out.witnesses] == [(0, 2, 4)]
    assert out.witnesses[0].mass == 0.6
    assert out.witnesses[0].representant == (0, 2, 4)
    assert out.total_mass == 0.6

    out = most_indicative(red, parse_property("P<1 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert [w.rail for w in out.witnesses] == [(0, 2, 4), (0, 1, 3)]
    assert out.total_mass == pytest.approx(1.0, abs=1e-9)

    out = most_indicative(red, parse_property("P<=0.99999 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert len(out.witnesses) == 2


def test_most_indicative_holds(m0):
    # only s3 counts; the stream exhausts below the bound and reports
    # what it accumulated
    red = acyclic_reduce(make_absorbing(m0, {3}))
    out = most_indicative(red, parse_property("P<=0.5 [ F x ]"), {3})
    assert out.verdict == "holds"
    assert [w.rail for w in out.witnesses] == [(0, 1, 3)]
    assert out.total_mass == 0.4


def test_strict_zero_bound_is_trivially_violated(m0):
    red, psi = reduce_to_psi(m0)
    out = most_indicative(red, parse_property("P<0 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert out.witnesses == []
    assert out.total_mass == 0.0


def test_strict_versus_weak_at_the_boundary(m0):
    red, psi = reduce_to_psi(m0)
    strict = most_indicative(red, parse_property("P<0.6 [ F psi ]"), psi)
    assert strict.verdict == "violated"
    assert len(strict.witnesses) == 1
    weak = most_indicative(red, parse_property("P<=0.6 [ F psi ]"), psi)
    assert weak.verdict == "violated"
    assert len(weak.witnesses) == 2



def test_running_sum_is_exact_at_the_boundary(dag_corpus, mc_corpus):
    # A threshold equal to the exact sum of the first k masses: the strict
    # bound is met by those k rails, the weak one needs one more.
    checked = 0
    for _, psi, red, rails in dag_corpus + mc_corpus:
        masses = [mass for _, mass in rails]
        for k in range(3, len(masses)):
            threshold = math.fsum(masses[:k])
            strict = most_indicative(red, PropertySpec("<", threshold, Atom("psi")), psi)
            weak = most_indicative(red, PropertySpec("<=", threshold, Atom("psi")), psi)
            assert len(strict.witnesses) == k
            assert len(weak.witnesses) == k + 1
            for out in (strict, weak):
                assert out.verdict == "violated"
                assert out.total_mass == math.fsum(w.mass for w in out.witnesses)
            checked += 1
    assert checked >= 10

def test_representant_shortcut_is_exact(dag_corpus, mc_corpus, monkeypatch):
    # Every rail is streamed. A rail with no nontrivial input before its
    # last state skips `representant`; its witness must still equal what
    # `representant` returns, float for float.
    calls = []

    def counted(red, rail):
        calls.append(rail)
        return representant(red, rail)

    monkeypatch.setattr(search, "representant", counted)
    shortcut = 0
    for _, psi, red, rails in dag_corpus + mc_corpus:
        before = len(calls)
        out = most_indicative(red, PropertySpec("<=", 1.0, Atom("psi")), psi)
        assert [(w.rail, w.mass) for w in out.witnesses] == rails
        for w in out.witnesses:
            assert (w.representant, w.representant_prob) == representant(red, w.rail)
            assert w.representant_prob == cylinder_prob(red.origin, w.representant)
        shortcut += len(out.witnesses) - (len(calls) - before)
    assert calls and shortcut > 0


def test_witness_cap(m0):
    red, psi = reduce_to_psi(m0)
    with pytest.raises(SearchLimitError, match="after 1 witnesses"):
        most_indicative(red, parse_property("P<=0.7 [ F psi ]"), psi, max_witnesses=1)
    # a violation inside the cap is unaffected
    out = most_indicative(red, parse_property("P<=0.5 [ F psi ]"), psi, max_witnesses=1)
    assert out.verdict == "violated"


def test_unreachable_target():
    doc = {
        "states": ["u0", "u1"],
        "initial": "u0",
        "labels": {"u1": ["psi"]},
        "transitions": {"u0": [{"u0": 1.0}], "u1": [{"u1": 1.0}]},
    }
    m = parse_model(json.dumps(doc))
    red, psi = reduce_to_psi(m)
    assert list(ranked_rails(red, psi)) == []
    out = most_indicative(red, parse_property("P<=0.3 [ F psi ]"), psi)
    assert out.verdict == "holds"
    assert out.witnesses == []
