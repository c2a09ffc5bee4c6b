import numpy as np
import pytest

from railcheck.props import (
    And,
    Atom,
    Not,
    Or,
    PropertyError,
    PropertySpec,
    format_property,
    parse_property,
    sat_states,
)


def test_parse_basic():
    spec = parse_property("P<=0.5 [ F psi ]")
    assert spec.bound == "<="
    assert spec.threshold == 0.5
    assert spec.target == Atom("psi")


def test_parse_strict_bound():
    spec = parse_property("P<1 [ F psi ]")
    assert spec.bound == "<"
    assert spec.threshold == 1.0


def test_whitespace_is_free():
    assert parse_property("P<=0.5[F psi]") == parse_property("  P<=0.5  [ F  psi ]  ")


def test_precedence():
    spec = parse_property("P<=0.1 [ F a & b | !c ]")
    assert spec.target == Or(And(Atom("a"), Atom("b")), Not(Atom("c")))


def test_parentheses():
    spec = parse_property("P<=0.1 [ F a & (b | !c) ]")
    assert spec.target == And(Atom("a"), Or(Atom("b"), Not(Atom("c"))))


def test_left_associativity():
    spec = parse_property("P<=0.1 [ F a & b & c ]")
    assert spec.target == And(And(Atom("a"), Atom("b")), Atom("c"))


def test_threshold_round_trip_with_exponents():
    # format_property writes repr(threshold), which takes an exponent
    # below 1e-4; parse_property must read every such text back
    rng = np.random.default_rng(1515)
    thresholds = [float(10.0 ** -rng.uniform(0, 320)) for _ in range(200)] + [5e-324, 0.00001]
    for threshold in thresholds:
        spec = PropertySpec("<=", threshold, Atom("psi"))
        assert parse_property(format_property(spec)) == spec
    assert parse_property("P<2.5E-3 [ F psi ]").threshold == 0.0025
    assert parse_property("P<=5e-324 [ F psi ]").threshold == 5e-324


def test_format_round_trip():
    for text in (
        "P<=0.5 [ F psi ]",
        "P<0.25 [ F a | b ]",
        "P<=0.1 [ F a & b | !c ]",
        "P<=0.25 [ F !(a | b) & c ]",
        "P<=1e-05 [ F psi ]",
        "P<=5e-324 [ F psi ]",
    ):
        spec = parse_property(text)
        assert format_property(spec) == text
        assert parse_property(format_property(spec)) == spec


@pytest.mark.parametrize(
    "text,message",
    [
        ("P>=0.5 [ F psi ]", "lower-bounded"),
        ("P>0.5 [ F psi ]", "lower-bounded"),
        ("P<=1.5 [ F psi ]", r"outside \[0, 1\]"),
        ("Q<=0.5 [ F psi ]", "expected 'P' at position 0"),
        ("P<=0.5 F psi ]", r"expected '\[' at position 7"),
        ("P<=0.5 [ F psi", r"expected '\]' at position 14"),
        ("P<=0.5 [ F ]", "expected an identifier at position 11"),
        ("P<=0.5 [ F psi ] x", "trailing input at position 17"),
        ("P<=0.5 [ F (a & ]", "expected an identifier at position 16"),
        ("P<=1e-05 F psi ]", r"expected '\[' at position 9"),
        ("P<=5e-324 F psi ]", r"expected '\[' at position 10"),
        ("P<=1e400 [ F psi ]", r"threshold inf outside \[0, 1\]"),
    ],
)
def test_parse_rejects(text, message):
    with pytest.raises(PropertyError, match=message):
        parse_property(text)


def test_sat_states(m0):
    assert sat_states(m0, Atom("psi")) == {3, 4}
    assert sat_states(m0, Not(Atom("psi"))) == {0, 1, 2}
    assert sat_states(m0, Atom("absent")) == set()
    assert sat_states(m0, Or(Atom("psi"), Atom("absent"))) == {3, 4}
    assert sat_states(m0, And(Atom("psi"), Atom("absent"))) == set()


def test_sat_states_multiple_atoms(mdp2):
    assert sat_states(mdp2, Atom("goal")) == {3}
    assert sat_states(mdp2, Or(Atom("goal"), Atom("fail"))) == {3, 4}
