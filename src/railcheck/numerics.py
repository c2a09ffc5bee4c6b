"""Linear solving, probability-zero analysis, and reachability values
read off an acyclic reduction.

`solve_linear` eliminates on a dense array but updates only the rows whose
multiplier is nonzero: a zero multiplier would subtract signed zeros,
which change no nonzero entry, so on the blocks `transform.scc_reach`
builds the result is the dense loop's bit for bit."""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, List, Set

import numpy as np

from .model import Model, mc_row

if TYPE_CHECKING:
    from .transform import AcyclicReduction

_PIVOT_TOL = 1e-13


class SingularMatrixError(ArithmeticError):
    def __init__(self, pivot: int):
        super().__init__(f"matrix is singular at pivot {pivot}")
        self.pivot = pivot


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b is an n x m matrix of stacked right-hand-side columns, all solved
    with one factorization of a; x has the same shape as b.

    Step k pivots on the first largest |entry| of column k at or below the
    diagonal, raises `SingularMatrixError(k)` if that is at most
    `_PIVOT_TOL` times max(1, largest |entry| of a), and subtracts
    multiplier times pivot row from each lower row whose multiplier is
    nonzero. Rows with a zero multiplier, and column k below the diagonal,
    which nothing reads again, are left alone, so the work is that of the
    entries elimination changes. For finite a and b without a -0.0 entry
    (which a zero-multiplier update could turn into +0.0), x is
    bit-identical to the dense loop that updates every lower row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"right-hand side must be {n} stacked columns, got {b.shape}")
    aug = np.hstack((a, b))
    tol = _PIVOT_TOL * max(1.0, float(np.max(np.abs(a)))) if n else 0.0
    for k in range(n):
        p = k + int(np.abs(aug[k:, k]).argmax())
        if abs(aug[p, k]) <= tol:
            raise SingularMatrixError(k)
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        below = aug[k + 1 :]
        rows = below[:, k].nonzero()[0]
        if rows.size:
            below[rows, k + 1 :] -= (below[rows, k] / aug[k, k])[:, None] * aug[k, k + 1 :]
    x = np.zeros(b.shape)
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] - aug[k, k + 1 : n] @ x[k + 1 :]) / aug[k, k]
    return x


def prob0_states(m: Model, target: Iterable[int]) -> Set[int]:
    """States whose maximal probability of reaching the target is zero.

    Pure graph computation: backward closure of the target under the
    successor relation (any distribution counts), then the complement.
    """
    target = set(target)
    n = m.num_states
    preds: List[List[int]] = [[] for _ in range(n)]
    for s in range(n):
        for dist in m.actions[s]:
            for t, _ in dist:
                preds[t].append(s)
    reach = set(target)
    stack = list(target)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s not in reach:
                reach.add(s)
                stack.append(s)
    return set(range(n)) - reach


def max_reach(red: "AcyclicReduction", target: Iterable[int]) -> np.ndarray:
    """Probability of reaching the target from every state of the chain
    that `red` reduces, whose target states are absorbing.

    One backward pass over the components in reverse topological order
    (ascending `rank`): a target is 1, and every other kept state sums its
    reduced-chain row times its successors' values, so a Dirac self loop
    that is no target stays 0. A member the reduction drops gets its
    escape row times the outputs' values. Rows may sum to 1 plus the parse
    tolerance, so each value is capped at 1.
    """
    target = set(target)
    chain, kept = red.chain, red.kept
    x = [1.0 if s in target else 0.0 for s in range(chain.num_states)]
    for info in sorted(red.sccs, key=attrgetter("rank")):
        if info.escape is not None:
            outs = [x[t] for t in sorted(info.outputs)]
            for s, v in zip(sorted(info.members), (info.escape @ outs).tolist()):
                if s not in kept:
                    x[s] = min(v, 1.0)
        for s in info.members & kept:
            if s not in target:
                x[s] = min(math.fsum([p * x[t] for t, p in mc_row(chain, s)]), 1.0)
    return np.array(x)
