"""Dense linear solving, probability-zero analysis, and value iteration."""

from __future__ import annotations

from typing import Iterable, List, Set

import numpy as np

from .model import Model

VI_TOL = 1e-10
VI_MAX_ITER = 10 ** 6
_PIVOT_TOL = 1e-13


class SingularMatrixError(ArithmeticError):
    def __init__(self, pivot: int):
        super().__init__(f"matrix is singular at pivot {pivot}")
        self.pivot = pivot


class ConvergenceError(ArithmeticError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no fixed point within {iterations} iterations, residual {residual:.3e}"
        )
        self.residual = residual
        self.iterations = iterations


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b is an n x m matrix of stacked right-hand-side columns, all solved
    with one factorization of a; x has the same shape as b.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"right-hand side must be {n} stacked columns, got {b.shape}")
    aug = np.hstack((a, b))
    scale = max(1.0, float(np.max(np.abs(a)))) if n else 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) <= _PIVOT_TOL * scale:
            raise SingularMatrixError(k)
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k:] -= np.outer(factors, aug[k, k:])
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


def max_reach(m: Model, target: Iterable[int]) -> np.ndarray:
    """Maximal reachability probabilities, one entry per state.

    Target states are pinned to 1, probability-zero states to 0, and the
    rest is iterated to the least fixed point of the one-step maximum,
    until one sweep moves no value by VI_TOL or more; after VI_MAX_ITER
    sweeps without that, ConvergenceError is raised. The empty target
    gives the all-zero vector.
    """
    n = m.num_states
    target = set(target)
    x = np.zeros(n)
    if not target:
        return x
    x[list(target)] = 1.0
    zero = prob0_states(m, target)
    free = [s for s in range(n) if s not in target and s not in zero]
    if not free:
        return x
    # The free states' distributions, flattened: distribution k covers
    # entries row_start[k]..row_start[k+1] and free state i covers
    # distributions state_start[i]..state_start[i+1].
    targets, probs, row_start, state_start = [], [], [], []
    for s in free:
        state_start.append(len(row_start))
        for dist in m.actions[s]:
            row_start.append(len(targets))
            for t, p in dist:
                targets.append(t)
                probs.append(p)
    free, targets, probs = np.array(free), np.array(targets), np.array(probs)
    row_start, state_start = np.array(row_start), np.array(state_start)
    delta = 0.0
    for _ in range(VI_MAX_ITER):
        # One Jacobi sweep over every free state at once; from 0 the
        # iterates rise monotonically to the least fixed point.
        values = np.add.reduceat(probs * x[targets], row_start)
        best = np.maximum.reduceat(values, state_start)
        delta = float(np.max(np.abs(best - x[free])))
        x[free] = best
        if delta < VI_TOL:
            return np.clip(x, 0.0, 1.0)
    raise ConvergenceError(delta, VI_MAX_ITER)
