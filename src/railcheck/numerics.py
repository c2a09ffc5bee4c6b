"""Component escape solving, reachability values read off an acyclic
reduction, and the probability-zero states by backward closure."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Set

import numpy as np

from .model import Model

if TYPE_CHECKING:
    from .transform import AcyclicReduction


class SingularMatrixError(ArithmeticError):
    def __init__(self, pivot: int, block: int = 0):
        super().__init__(f"matrix is singular at pivot {pivot}")
        self.pivot = pivot
        self.block = block  # position in a stack of blocks


def solve_linear(q, r) -> np.ndarray:
    """Escape probabilities of a component by state reduction (Grassmann,
    Taksar & Heyman): x = (I - q)^-1 r, each row a distribution over the
    exit columns of r.

    q (n, n) holds the members' in-block probabilities and r (n, m) their
    exit columns. A stack of B blocks of one shape is passed members
    first, q (n, B, n) and r (n, B, m), and solved by the same loop: every
    block sees the operations, in the order, that it sees solved alone,
    so each block's x keeps its bytes. The diagonal of q is never read,
    because a self loop only delays. Members are eliminated in index
    order: member k's exit mass is the sum of its entries right of column
    k, and every lower row with a nonzero entry in column k (in any block
    of a stack) gets that entry / exit mass times row k. No step
    subtracts, so no digits cancel. Raises `SingularMatrixError(k, b)` if
    member k of block b has no positive exit mass, which a component with
    an exit reaches only by underflow; b is the first such block, and k
    the pivot it fails at alone.
    """
    aug = np.concatenate((q, r), axis=-1)
    n = len(aug)
    exits = np.zeros(aug.shape[:-1])
    # Back-substitution runs blocks first: each block's product then reads
    # the strides a lone block's does (BLAS sums a strided vector in
    # another order), and a stack's row k is B rows of one, which matmul
    # stacks.
    by_block = np.zeros(aug.shape[1:-1] + (n, aug.shape[-1] - n))
    x = by_block.swapaxes(0, -2)
    lead, out, pivots = aug, x, exits
    if aug.ndim == 3:
        lead, out, pivots = aug[:, :, None], x[:, :, None], exits[:, :, None, None]
    # A failed pivot divides by zero and poisons only its own block; the
    # check after the loop finds it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            exits[k] = aug[k, ..., k + 1 :].sum(axis=-1)
            below = aug[k + 1 :]
            hit = below[..., k]
            rows = (hit if hit.ndim == 1 else hit.any(axis=1)).nonzero()[0]
            if rows.size:
                factors = (below[rows, ..., k] / exits[k])[..., None]
                below[rows, ..., k + 1 :] += factors * aug[k, ..., k + 1 :]
        for k in range(n - 1, -1, -1):
            tail = lead[k, ..., k + 1 : n] @ by_block[..., k + 1 :, :]
            out[k] = (lead[k, ..., n:] + tail) / pivots[k]
        ok = exits > 0.0
    if not ok.all():
        failed = ~ok.reshape(n, -1)
        block = int(failed.any(axis=0).argmax())
        raise SingularMatrixError(int(failed[:, block].argmax()), block)
    return x


def prob0_states(m: Model, target: Iterable[int]) -> Set[int]:
    """States whose maximal probability of reaching the target is zero.

    Pure graph computation: backward closure of the target under the
    successor relation (any distribution counts), then the complement.
    The predecessors come from one stable sort of the entries by target.
    The pipeline reads these states off `transform.scc_decompose` instead.
    """
    rows = m.rows
    n = m.num_states
    order = rows.succ.argsort(kind="stable")
    preds = rows.source[order].tolist()
    at = rows.succ[order].searchsorted(np.arange(n + 1)).tolist()
    reach = [False] * n
    stack = list(set(target))
    for t in stack:
        reach[t] = True
    while stack:
        t = stack.pop()
        for s in preds[at[t] : at[t + 1]]:
            if not reach[s]:
                reach[s] = True
                stack.append(s)
    return {s for s, hit in enumerate(reach) if not hit}


def max_reach(red: "AcyclicReduction", target: Iterable[int]) -> np.ndarray:
    """Probability of reaching the target from every state of the chain
    that `red` reduces, whose target states are absorbing: policy
    iteration's evaluation of a policy. (A check reads the initial
    state's value off the rail search's first pass, which sums the kept
    states' rows the same way.)

    One backward pass over the kept states in `red.order`, successors
    first: a target is 1, and every other kept state sums its
    reduced-chain row times its successors' values, so a Dirac self loop
    that is no target stays 0, and so does every state of a dead
    component. Every output is kept, so a member the reduction drops then
    gets its escape row times the outputs' values.
    Rows may sum to 1 plus the parse tolerance, so each value is capped
    at 1.
    """
    target = set(target)
    rows = red.chain.rows
    x = [1.0 if s in target else 0.0 for s in range(red.chain.num_states)]
    for s in red.order:
        if s not in target:  # a chain: distribution s is state s's row
            x[s] = min(math.fsum([p * x[t] for t, p in rows.row(s)]), 1.0)
    x = np.array(x)
    for _, members, outputs, escapes in red.stacks:
        dropped = ~red.comps.is_input[members]
        for drop, member, output, escape in zip(dropped, members, outputs, escapes):
            x[member[drop]] = np.minimum((escape @ x[output])[drop], 1.0)
    return x
