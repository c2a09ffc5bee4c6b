"""Component escape solving, probability-zero analysis, and reachability
values read off an acyclic reduction."""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, List, Set

import numpy as np

from .model import Model, mc_row

if TYPE_CHECKING:
    from .transform import AcyclicReduction


class SingularMatrixError(ArithmeticError):
    def __init__(self, pivot: int):
        super().__init__(f"matrix is singular at pivot {pivot}")
        self.pivot = pivot


def solve_linear(q, r) -> np.ndarray:
    """Escape probabilities of a component by state reduction (Grassmann,
    Taksar & Heyman): x = (I - q)^-1 r, each row a distribution over the
    exit columns of r.

    q holds the members' in-block probabilities and r their exit columns.
    The diagonal of q is never read, because a self loop only delays.
    Members are eliminated in index order: member k's exit mass is the sum
    of its entries right of column k, and every lower row with a nonzero
    entry in column k gets that entry / exit mass times row k. No step
    subtracts, so no digits cancel. Raises `SingularMatrixError(k)` if
    member k's exit mass is not positive, which a component with an exit
    reaches only by underflow.
    """
    aug = np.hstack((q, r))
    n = aug.shape[0]
    exits = np.zeros(n)
    for k in range(n):
        exits[k] = aug[k, k + 1 :].sum()
        if not exits[k] > 0.0:
            raise SingularMatrixError(k)
        below = aug[k + 1 :]
        rows = below[:, k].nonzero()[0]
        if rows.size:
            below[rows, k + 1 :] += (below[rows, k] / exits[k])[:, None] * aug[k, k + 1 :]
    x = np.zeros((n, aug.shape[1] - n))
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] + aug[k, k + 1 : n] @ x[k + 1 :]) / exits[k]
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
