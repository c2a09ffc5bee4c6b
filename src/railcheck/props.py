"""Property grammar: upper-bounded reachability over propositional targets.

Accepted shape: ``P<=p [ F formula ]`` or ``P<p [ F formula ]`` with p a
decimal in [0, 1], with or without an exponent (``1e-05``). Formulas are
built from atoms with ``!``, ``&``, ``|`` and parentheses; precedence !
over & over |, binary operators associate to the left. Atoms are
arbitrary identifiers; a state satisfies an atom iff the atom appears
among its labels, so unknown atoms are simply false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Set, Union

from .model import Model


class PropertyError(ValueError):
    """Syntax or range error in a property string."""


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "StateFormula"


@dataclass(frozen=True)
class And:
    left: "StateFormula"
    right: "StateFormula"


@dataclass(frozen=True)
class Or:
    left: "StateFormula"
    right: "StateFormula"


StateFormula = Union[Atom, Not, And, Or]


@dataclass(frozen=True)
class PropertySpec:
    bound: str  # "<=" or "<"
    threshold: float
    target: StateFormula


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, msg: str):
        raise PropertyError(f"{msg} at position {self.pos}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.fail(f"expected {literal!r}")
        self.pos += len(literal)

    def ident(self) -> str:
        self.skip_ws()
        match = _IDENT.match(self.text, self.pos)
        if not match:
            self.fail("expected an identifier")
        self.pos = match.end()
        return match.group()

    def number(self) -> float:
        self.skip_ws()
        match = _NUMBER.match(self.text, self.pos)
        if not match:
            self.fail("expected a decimal number")
        self.pos = match.end()
        return float(match.group())


def parse_property(text: str) -> PropertySpec:
    """Parse a property string into a PropertySpec."""
    p = _Parser(text)
    p.take("P")
    p.skip_ws()
    if p.text.startswith(">=", p.pos) or p.text.startswith(">", p.pos):
        raise PropertyError(
            "lower-bounded properties are not supported; negate the target and "
            "check the dual upper-bounded property instead"
        )
    if p.text.startswith("<=", p.pos):
        bound = "<="
        p.pos += 2
    elif p.text.startswith("<", p.pos):
        bound = "<"
        p.pos += 1
    else:
        p.fail("expected '<=' or '<'")
    threshold = p.number()
    if not 0.0 <= threshold <= 1.0:
        raise PropertyError(f"threshold {threshold!r} outside [0, 1]")
    p.take("[")
    p.skip_ws()
    if p.ident() != "F":
        p.fail("expected the reachability operator 'F'")
    target = _parse_or(p)
    p.take("]")
    p.skip_ws()
    if p.pos != len(p.text):
        p.fail("trailing input")
    return PropertySpec(bound=bound, threshold=threshold, target=target)


def _parse_or(p: _Parser) -> StateFormula:
    left = _parse_and(p)
    while p.peek() == "|":
        p.take("|")
        left = Or(left, _parse_and(p))
    return left


def _parse_and(p: _Parser) -> StateFormula:
    left = _parse_unary(p)
    while p.peek() == "&":
        p.take("&")
        left = And(left, _parse_unary(p))
    return left


def _parse_unary(p: _Parser) -> StateFormula:
    c = p.peek()
    if c == "!":
        p.take("!")
        return Not(_parse_unary(p))
    if c == "(":
        p.take("(")
        inner = _parse_or(p)
        p.take(")")
        return inner
    return Atom(p.ident())


def format_property(spec: PropertySpec) -> str:
    """Canonical rendering; parse_property(format_property(s)) == s."""
    return f"P{spec.bound}{spec.threshold!r} [ F {_format(spec.target, 0)} ]"


def _format(f: StateFormula, ctx: int) -> str:
    # ctx: 0 inside |, 1 inside &, 2 inside !
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _format(f.operand, 2)
    if isinstance(f, And):
        body = f"{_format(f.left, 1)} & {_format(f.right, 2)}"
        return f"({body})" if ctx > 1 else body
    body = f"{_format(f.left, 0)} | {_format(f.right, 1)}"
    return f"({body})" if ctx > 0 else body


def sat_states(m: Model, formula: StateFormula) -> Set[int]:
    """States whose label set satisfies the formula."""
    return {s for s in range(m.num_states) if _holds(m.labels[s], formula)}


def _holds(labels, f) -> bool:
    if isinstance(f, Atom):
        return f.name in labels
    if isinstance(f, Not):
        return not _holds(labels, f.operand)
    if isinstance(f, And):
        return _holds(labels, f.left) and _holds(labels, f.right)
    if isinstance(f, Or):
        return _holds(labels, f.left) or _holds(labels, f.right)
    raise TypeError(f"not a state formula: {f!r}")
