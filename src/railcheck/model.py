"""Explicit-state Markov chains and MDPs.

Models are parsed from a JSON document and validated once; afterwards they
are immutable. State names are mapped to dense integer indices at parse
time (document order of the ``states`` array); every algorithm works on
indices and only parsing and reporting deal in display names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set, Tuple

ROW_SUM_TOL = 1e-9

# A distribution is a sparse row: ((target, probability), ...) sorted by
# target index, entries strictly positive, summing to 1 within tolerance.
Distribution = Tuple[Tuple[int, float], ...]
FinitePath = Tuple[int, ...]


class ModelError(ValueError):
    """Malformed model document or misuse of a model value."""


@dataclass(frozen=True)
class Model:
    names: Tuple[str, ...]
    initial: int
    labels: Tuple[FrozenSet[str], ...]
    actions: Tuple[Tuple[Distribution, ...], ...]

    @property
    def num_states(self) -> int:
        return len(self.names)


def dirac(state: int) -> Distribution:
    return ((state, 1.0),)


def is_markov_chain(m: Model) -> bool:
    """True iff every state carries exactly one distribution."""
    return all(len(dists) == 1 for dists in m.actions)


def mc_row(m: Model, s: int) -> Distribution:
    dists = m.actions[s]
    if len(dists) != 1:
        raise ModelError(
            f"state {m.names[s]!r} has {len(dists)} distributions: one-step and"
            " cylinder probabilities are defined for Markov chains only"
        )
    return dists[0]


def successors(m: Model, s: int) -> Set[int]:
    """Support of the successor relation under any distribution of s."""
    return {t for dist in m.actions[s] for t, _ in dist}


def cylinder_prob(m: Model, path: Sequence[int]) -> float:
    """Measure of the cone of all infinite extensions of a finite path,
    i.e. the product of one-step probabilities along it, left to right.

    Each step scans its source's row in place, so the cost is the summed
    row length along the path; `mc_row` rejects a state on the path with
    several distributions."""
    if not path:
        raise ModelError("empty path has no cylinder")
    prob = 1.0
    for s, t in zip(path, path[1:]):
        for target, p in mc_row(m, s):
            if target == t and p > 0.0:
                prob *= p
                break
        else:
            raise ModelError(f"no transition {m.names[s]} -> {m.names[t]}")
    return prob


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

    if doc["initial"] not in index:
        raise ModelError(f"initial state {doc['initial']!r} is not a declared state")

    labels: List[FrozenSet[str]] = [frozenset()] * len(names)
    label_doc = doc.get("labels") or {}
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
        p = float(p)
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
    return [m.names[s] for s in path]
