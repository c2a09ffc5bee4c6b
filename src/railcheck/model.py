"""Explicit-state Markov chains and MDPs.

Models are parsed from a JSON document and validated once; afterwards they
are immutable. State names are mapped to dense integer indices at parse
time (document order of the ``states`` array); every algorithm works on
indices and only parsing and reporting deal in display names.

A model holds its transition relation in two forms, each built from the
other on first use and then kept: `actions`, per state a tuple of sparse
distributions, which names, reports and tests read, and `rows`, the same
entries as flat arrays, which every layer of the pipeline reads.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

ROW_SUM_TOL = 1e-9

# A distribution is a sparse row: ((target, probability), ...) sorted by
# target index, entries strictly positive, summing to 1 within tolerance.
Distribution = Tuple[Tuple[int, float], ...]
FinitePath = Tuple[int, ...]


class ModelError(ValueError):
    """Malformed model document or misuse of a model value."""


@dataclass(frozen=True, eq=False)
class Rows:
    """A transition relation as flat arrays. State s's distributions are
    dist_at[s]:dist_at[s + 1], and distribution d's entries are
    entry_at[d]:entry_at[d + 1] of succ (targets, ascending) and prob. In
    a Markov chain distribution s is state s's row."""

    dist_at: np.ndarray
    entry_at: np.ndarray
    succ: np.ndarray
    prob: np.ndarray

    @classmethod
    def of(cls, actions: Sequence[Sequence[Distribution]]) -> "Rows":
        dists = list(itertools.chain.from_iterable(actions))
        succ, prob = zip(*itertools.chain.from_iterable(dists))
        return cls(
            offsets(np.fromiter(map(len, actions), np.int64, len(actions))),
            offsets(np.fromiter(map(len, dists), np.int64, len(dists))),
            np.array(succ, dtype=np.int64),
            np.array(prob, dtype=np.float64),
        )

    @property
    def num_dists(self) -> int:
        return len(self.entry_at) - 1

    @cached_property
    def source(self) -> np.ndarray:
        """The state each entry leaves."""
        bounds = self.entry_at[self.dist_at]  # each state's first entry, and the end
        return np.arange(len(bounds) - 1).repeat(bounds[1:] - bounds[:-1])

    def row(self, s: int) -> List[Tuple[int, float]]:
        """Distribution s's entries as (target, probability) pairs; in a
        chain, state s's row."""
        a, b = self.entry_at[s : s + 2].tolist()
        return list(zip(self.succ[a:b].tolist(), self.prob[a:b].tolist()))

    def actions(self) -> Tuple[Tuple[Distribution, ...], ...]:
        entries = list(zip(self.succ.tolist(), self.prob.tolist()))
        singles = list(zip(entries))  # each entry as a distribution of its own
        at = self.entry_at.tolist()
        dists = [singles[a] if b - a == 1 else tuple(entries[a:b]) for a, b in zip(at, at[1:])]
        if self.num_dists == len(self.dist_at) - 1:  # a chain
            return tuple(zip(dists))
        bounds = self.dist_at.tolist()
        return tuple([tuple(dists[a:b]) for a, b in zip(bounds, bounds[1:])])


def offsets(lens: np.ndarray) -> np.ndarray:
    """0, lens[0], lens[0] + lens[1], ...: where each of the concatenated
    ranges of these lengths starts, and the end."""
    at = np.zeros(len(lens) + 1, dtype=np.int64)
    lens.cumsum(out=at[1:])
    return at


def ranges(starts: np.ndarray, lens: np.ndarray, at: Optional[np.ndarray] = None) -> np.ndarray:
    """starts[0], ..., starts[0] + lens[0] - 1, starts[1], ...: the
    concatenated index ranges; at is offsets(lens), if at hand."""
    if at is None:
        at = offsets(lens)
    return (starts - at[:-1]).repeat(lens) + np.arange(at[-1])


def chain_rows(starts: np.ndarray, lens: np.ndarray, succ: np.ndarray, prob: np.ndarray) -> Rows:
    """The rows of a Markov chain whose state s copies the lens[s]
    entries of succ and prob from starts[s] on."""
    at = offsets(lens)
    idx = ranges(starts, lens, at)
    return Rows(np.arange(len(lens) + 1), at, succ[idx], prob[idx])


class Model:
    """A Markov chain or MDP. Give `actions`, `rows` or both; a form
    not given is built from the other on first use."""

    __slots__ = ("names", "initial", "labels", "actions", "rows")

    def __init__(
        self,
        names: Tuple[str, ...],
        initial: int,
        labels: Tuple[FrozenSet[str], ...],
        actions: Optional[Tuple[Tuple[Distribution, ...], ...]] = None,
        rows: Optional[Rows] = None,
    ):
        if actions is None and rows is None:
            raise ModelError("a model needs its actions or its rows")
        self.names = names
        self.initial = initial
        self.labels = labels
        if actions is not None:
            self.actions = actions
        if rows is not None:
            self.rows = rows

    def __getattr__(self, name: str):
        # reached only for a form not set yet
        if name == "actions":
            self.actions = self.rows.actions()
            return self.actions
        if name == "rows":
            self.rows = Rows.of(self.actions)
            return self.rows
        raise AttributeError(name)

    @property
    def num_states(self) -> int:
        return len(self.names)


def dirac(state: int) -> Distribution:
    return ((state, 1.0),)


def is_markov_chain(m: Model) -> bool:
    """True iff every state carries exactly one distribution: every state
    has one at least, so iff there are as many as states."""
    return m.rows.num_dists == m.num_states


def mc_row(m: Model, s: int) -> Distribution:
    dists = m.actions[s]
    _require_one(m, s, len(dists))
    return dists[0]


def _require_one(m: Model, s: int, count: int) -> None:
    if count != 1:
        raise ModelError(
            f"state {m.names[s]!r} has {count} distributions: one-step and"
            " cylinder probabilities are defined for Markov chains only"
        )


def successors(m: Model, s: int) -> Set[int]:
    """Support of the successor relation under any distribution of s."""
    return {t for dist in m.actions[s] for t, _ in dist}


def split_mass(frac: float, exp: int) -> Tuple[float, int]:
    """frac·2**exp as (float, 0) in the normal float range, else as (frac, exp)."""
    return (math.ldexp(frac, exp), 0) if exp > -1022 else (frac, exp)


def cylinder_mass(m: Model, path: Sequence[int]) -> Tuple[float, int]:
    """Measure of the cone of all infinite extensions of a finite path,
    i.e. the product of one-step probabilities along it, right to left in
    mantissa and exponent as the rail stream takes it, so it is rounded
    once and cannot underflow; returned as `split_mass` gives it. Each
    step scans its source's row in place, so the cost is the summed row
    length along the path; a state on the path with several
    distributions is rejected, as `mc_row` rejects it."""
    if not path:
        raise ModelError("empty path has no cylinder")
    rows = m.rows
    frac, exp = 0.5, 1
    for s, t in reversed(list(zip(path, path[1:]))):
        d, e = rows.dist_at[s : s + 2].tolist()
        _require_one(m, s, e - d)
        for target, p in rows.row(d):
            if target == t and p > 0.0:
                pm, pe = math.frexp(p)
                frac, k = math.frexp(pm * frac)
                exp += pe + k
                break
        else:
            raise ModelError(f"no transition {m.names[s]} -> {m.names[t]}")
    return split_mass(frac, exp)


def cylinder_prob(m: Model, path: Sequence[int]) -> float:
    """`cylinder_mass` as one float, 0.0 below the float range."""
    return math.ldexp(*cylinder_mass(m, path))


def parse_model(text: str, tol: float = ROW_SUM_TOL) -> Model:
    """Parse and validate a JSON model document.

    The document carries ``states`` (array of unique names), ``initial``,
    optional ``labels`` (state to array of atoms) and ``transitions``
    (state to non-empty array of distributions; Markov chains use arrays
    of length one). Absorbing states must spell out their Dirac self loop.
    `tol` bounds how far a row sum may stray from 1.
    """
    if not 0.0 <= tol < math.inf:
        raise ModelError(f"row-sum tolerance {tol!r} must be finite and non-negative")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelError(
            f"syntax error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    for key in ("states", "initial", "transitions"):
        if key not in doc:
            raise ModelError(f"missing field {key!r}")

    names = doc["states"]
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(x, str) for x in names)
    ):
        raise ModelError("'states' must be a non-empty array of strings")
    if len(set(names)) != len(names):
        raise ModelError("state names must be unique")
    index = {name: i for i, name in enumerate(names)}

    if not isinstance(doc["initial"], str):
        raise ModelError("'initial' must be a state name")
    if doc["initial"] not in index:
        raise ModelError(f"initial state {doc['initial']!r} is not a declared state")

    labels: List[FrozenSet[str]] = [frozenset()] * len(names)
    label_doc = doc.get("labels", {})
    if not isinstance(label_doc, dict):
        raise ModelError("'labels' must be an object")
    for name, atoms in label_doc.items():
        if name not in index:
            raise ModelError(f"labels given for unknown state {name!r}")
        if not isinstance(atoms, list) or not all(isinstance(x, str) for x in atoms):
            raise ModelError(f"labels of state {name!r} must be an array of strings")
        labels[index[name]] = frozenset(atoms)

    trans = doc["transitions"]
    if not isinstance(trans, dict):
        raise ModelError("'transitions' must be an object")
    for name in trans:
        if name not in index:
            raise ModelError(f"transitions given for unknown state {name!r}")
    actions: List[Tuple[Distribution, ...]] = []
    for name in names:
        rows = trans.get(name)
        if not isinstance(rows, list) or not rows:
            raise ModelError(f"state {name!r} needs a non-empty array of distributions")
        actions.append(
            tuple(_parse_distribution(name, k, row, index, tol) for k, row in enumerate(rows))
        )

    return Model(
        names=tuple(names),
        initial=index[doc["initial"]],
        labels=tuple(labels),
        actions=tuple(actions),
    )


def _parse_distribution(state, k, row, index, tol) -> Distribution:
    if not isinstance(row, dict) or not row:
        raise ModelError(f"state {state!r} distribution {k} must be a non-empty object")
    entries = []
    for target, p in row.items():
        if target not in index:
            raise ModelError(
                f"state {state!r} distribution {k} targets unknown state {target!r}"
            )
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ModelError(
                f"state {state!r} distribution {k}: probability of {target!r} must be a number"
            )
        try:
            p = float(p)
        except OverflowError:  # an integer beyond the float range
            p = math.inf if p > 0 else -math.inf
        if not 0.0 < p <= 1.0 + tol:  # also false for the NaN that json reads
            raise ModelError(
                f"state {state!r} distribution {k}: probability {p!r} of {target!r} out of range"
            )
        # a probability may overshoot 1 by rounding, as a row sum may; a
        # stored value above 1 would let a rail's mass exceed 1
        entries.append((index[target], min(p, 1.0)))
    total = math.fsum(p for _, p in entries)
    if abs(total - 1.0) > tol:
        raise ModelError(f"state {state!r} distribution {k} sums to {total!r}, expected 1")
    entries.sort()
    return tuple(entries)


def names_of_path(m: Model, path: Sequence[int]) -> List[str]:
    return list(map(m.names.__getitem__, path))
