import json

import pytest

from railcheck.model import (
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
    assert m0.index_of("s2") == 2
    with pytest.raises(ModelError, match="unknown state name"):
        m0.index_of("zz")


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
