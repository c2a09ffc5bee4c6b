"""Explicit-state Markov chains and MDPs.

Models are parsed from a JSON document and validated once; afterwards they
are immutable. State names are mapped to dense integer indices at parse
time (document order of the ``states`` array); every algorithm works on
indices and only parsing and reporting deal in display names.

A model holds its transition relation as `rows`, flat arrays that the
parser builds and every layer of the pipeline reads. `actions`, per state
a tuple of sparse distributions, is derived from them on first read, for
the oracles, the component table and the tests.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

ROW_SUM_TOL = 1e-9

# A distribution is a sparse row: ((target, probability), ...) sorted by
# target index, entries strictly positive, summing to 1 within tolerance.
Distribution = Tuple[Tuple[int, float], ...]
FinitePath = Tuple[int, ...]
WeightedPath = Tuple[FinitePath, Tuple[float, ...]]  # a path and its step probabilities


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

    @property
    def num_dists(self) -> int:
        return len(self.entry_at) - 1

    @cached_property
    def source(self) -> np.ndarray:
        """The state each entry leaves."""
        bounds = self.entry_at[self.dist_at]  # each state's first entry, and the end
        return np.arange(len(bounds) - 1).repeat(bounds[1:] - bounds[:-1])

    # The list form of each array, converted on its first read and kept
    # with the rows, for the loops that walk rows entry by entry.
    dist_list = cached_property(lambda self: self.dist_at.tolist())
    entry_list = cached_property(lambda self: self.entry_at.tolist())
    succ_list = cached_property(lambda self: self.succ.tolist())
    prob_list = cached_property(lambda self: self.prob.tolist())

    def row(self, s: int) -> List[Tuple[int, float]]:
        """Distribution s's entries as (target, probability) pairs: in a chain, state s's row."""
        a, b = self.entry_list[s : s + 2]
        return list(zip(self.succ_list[a:b], self.prob_list[a:b]))

    def actions(self) -> Tuple[Tuple[Distribution, ...], ...]:
        entries = list(zip(self.succ_list, self.prob_list))
        singles = list(zip(entries))  # each entry as a distribution of its own
        at = self.entry_list
        dists = [singles[a] if b - a == 1 else tuple(entries[a:b]) for a, b in zip(at, at[1:])]
        if self.num_dists == len(self.dist_at) - 1:  # a chain
            return tuple(zip(dists))
        return tuple([tuple(dists[a:b]) for a, b in zip(self.dist_list, self.dist_list[1:])])


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
    """A Markov chain or MDP over its `rows`."""

    def __init__(self, names: Tuple[str, ...], initial: int, labels: Tuple[FrozenSet[str], ...], rows: Rows):
        self.names = names
        self.initial = initial
        self.labels = labels
        self.rows = rows

    @cached_property
    def actions(self) -> Tuple[Tuple[Distribution, ...], ...]:
        """Per state a tuple of distributions, built from the rows on first read."""
        return self.rows.actions()

    @property
    def num_states(self) -> int:
        return len(self.names)


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


def split_mass(frac: float, exp: int) -> Tuple[float, int]:
    """frac·2**exp as (float, 0) in the normal float range, else as (frac, exp)."""
    return (math.ldexp(frac, exp), 0) if exp > -1022 else (frac, exp)


def split_masses(frac: np.ndarray, exp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`split_mass` elementwise, on arrays of fractions and int exponents."""
    normal = exp > -1022
    return np.where(normal, np.ldexp(frac, np.where(normal, exp, 0)), frac), np.where(normal, 0, exp)


def step_prob(m: Model, s: int, t: int) -> float:
    """The probability of the step from s to t, read off s's row; a state
    with several distributions is rejected, as `mc_row` rejects it."""
    rows, d = m.rows, s  # in a chain, distribution s is state s's row
    if rows.num_dists != m.num_states:
        d, e = rows.dist_list[s : s + 2]
        _require_one(m, s, e - d)
    for target, p in rows.row(d):
        if target == t and p > 0.0:
            return p
    raise ModelError(f"no transition {m.names[s]} -> {m.names[t]}")


def product_mass(probs: Iterable[float]) -> Tuple[float, int]:
    """The product of a path's step probabilities, given and multiplied
    right to left in mantissa and exponent, as the rail stream takes it,
    so it is rounded once and cannot underflow; as `split_mass` gives it."""
    frac, exp = 0.5, 1
    for p in probs:
        pm, pe = math.frexp(p)
        frac, k = math.frexp(pm * frac)
        exp += pe + k
    return split_mass(frac, exp)


def cylinder_mass(m: Model, path: Sequence[int]) -> Tuple[float, int]:
    """Measure of the cone of all infinite extensions of a finite path:
    the `product_mass` of its steps, each read by `step_prob` as the
    product takes it, so the rightmost faulty step raises."""
    if not path:
        raise ModelError("empty path has no cylinder")
    return product_mass(step_prob(m, s, t) for s, t in reversed(list(zip(path, path[1:]))))


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

    rows = _parse_rows(names, index, trans, tol)
    return Model(names=tuple(names), initial=index[doc["initial"]], labels=tuple(labels), rows=rows)


def _parse_rows(names, index, trans, tol) -> Rows:
    """The transitions as rows, each distribution sorted by target, from a
    fixed number of passes over the flattened entries. A fault raises
    ModelError for the first offending item in document order: each
    state's array, then each of its distributions in turn (the object,
    its entries' targets, types and ranges in entry order, then its sum)."""
    arrays = list(map(trans.get, names))
    n = _first_bad(arrays, list)
    dist_at = list(itertools.accumulate(map(len, arrays[:n]), initial=0))
    dists = list(itertools.chain.from_iterable(arrays[:n]))
    d = _first_bad(dists, dict)
    lens = list(map(len, dists[:d]))
    entry_at = list(itertools.accumulate(lens, initial=0))
    targets = list(itertools.chain.from_iterable(dists[:d]))
    values = list(itertools.chain.from_iterable(map(dict.values, dists[:d])))
    succ = list(map(index.get, targets))
    e = succ.index(None) if None in succ else len(succ)  # the first faulty entry
    if not {int, float}.issuperset(map(type, values)):  # json reads true as a bool: no number
        e = min(e, next(i for i, p in enumerate(values) if type(p) not in (int, float)))
    try:
        prob = np.array(values[:e], dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        prob = np.array(list(map(_as_float, values[:e])), dtype=np.float64)
    # both are false for the NaN that json reads
    if e and not (0.0 < prob.min() and prob.max() <= 1.0 + tol):
        e = next(i for i, p in enumerate(prob.tolist()) if not 0.0 < p <= 1.0 + tol)
    e_dist = bisect_right(entry_at, e) - 1  # d if no entry is faulty

    def where(k: int) -> str:
        s = bisect_right(dist_at, k) - 1
        return f"state {names[s]!r} distribution {k - dist_at[s]}"

    # a probability may overshoot 1 by rounding, as a row sum may; a
    # stored value above 1 would let a rail's mass exceed 1
    np.minimum(prob, 1.0, out=prob)
    bounds = np.array(entry_at, dtype=np.int64)
    if e_dist:
        # Float sums screen the exact ones. The float sum s of k <= K
        # entries in (0, 1], added in any order, lies within K·2**-52·s of
        # the correctly rounded sum that math.fsum gives, so s·(1 ± K·2**-50),
        # each rounded, bracket that, and x - 1 rounds monotonically: where
        # both brackets lie within tol of 1, so does the exact sum. The
        # largest and the smallest s bound all brackets; past them, only
        # the sums whose brackets stray take math.fsum.
        sums = np.add.reduceat(prob[: entry_at[e_dist]], bounds[:e_dist]).tolist()
        slack = max(lens) * 2.0**-50
        up, down = 1.0 + slack, 1.0 - slack
        if max(sums) * up - 1.0 > tol or 1.0 - min(sums) * down > tol:
            flat = prob.tolist()
            for k, s in enumerate(sums):
                if s * up - 1.0 > tol or 1.0 - s * down > tol:
                    total = math.fsum(flat[entry_at[k] : entry_at[k + 1]])
                    if abs(total - 1.0) > tol:
                        raise ModelError(f"{where(k)} sums to {total!r}, expected 1")
    if e < len(values):
        target = targets[e]
        if succ[e] is None:
            raise ModelError(f"{where(e_dist)} targets unknown state {target!r}")
        if type(values[e]) not in (int, float):
            raise ModelError(f"{where(e_dist)}: probability of {target!r} must be a number")
        raise ModelError(f"{where(e_dist)}: probability {_as_float(values[e])!r} of {target!r} out of range")
    if d < len(dists):
        raise ModelError(f"{where(d)} must be a non-empty object")
    if n < len(names):
        raise ModelError(f"state {names[n]!r} needs a non-empty array of distributions")
    # one sort key per entry: its distribution, then its target
    succ = np.array(succ, dtype=np.int64)
    order = np.argsort(np.arange(0, d * n, n).repeat(lens) + succ, kind="stable")
    return Rows(np.array(dist_at, dtype=np.int64), bounds, succ[order], prob[order])


def _first_bad(items: list, kind: type) -> int:
    """The index of the first item that is not a non-empty `kind`, or len(items)."""
    if set(map(type, items)) <= {kind} and all(items):
        return len(items)
    return next(i for i, x in enumerate(items) if type(x) is not kind or not x)


def _as_float(p) -> float:
    try:
        return float(p)
    except OverflowError:  # an integer beyond the float range
        return math.inf if p > 0 else -math.inf


def names_of_path(m: Model, path: Sequence[int]) -> List[str]:
    return list(map(m.names.__getitem__, path))
