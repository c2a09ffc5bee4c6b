"""Maximizing schedulers by policy iteration, and their induced chains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set, Tuple

import numpy as np

from .model import Model, chain_rows, offsets, ranges
from .numerics import max_reach
from .transform import AcyclicReduction, acyclic_reduce, make_absorbing

# A switch must gain more than this. Actions of equal value inside an end
# component evaluate to values a few ulps apart, and switching on that
# float noise alone could make the policies cycle.
IMPROVE_TOL = 1e-10


@dataclass(frozen=True)
class Scheduler:
    choice: Tuple[int, ...]  # state index to distribution index


def extract_max_scheduler(
    m: Model, target: Iterable[int]
) -> Tuple[Scheduler, AcyclicReduction, np.ndarray]:
    """Deterministic memoryless scheduler attaining the maximal
    reachability probability at every state, by Howard's policy iteration.

    Starting from the first distribution everywhere, each policy is
    evaluated on the acyclic reduction of its induced absorbing chain;
    then every state switches to its first best distribution, by the value
    it has on leaving the state, where that beats the state's own value by
    more than IMPROVE_TOL. A policy no switch improves is, up to
    IMPROVE_TOL, a fixed point of the one-step maximum that a scheduler
    attains, so its values are the least one: the maximal probabilities.

    Exact values rise with every round. Rounding error near a tie can
    still lead a switch astray, and later rounds undo it; should a policy
    come back, the policies cycle on that error, and the one whose values
    sum highest is final. No policy is evaluated twice, so the search
    ends. Returns the final scheduler, the reduction that evaluated it,
    which the search then explains, and its values.
    """
    target = set(target)
    improve = _Improvement(m, target)
    choice = np.zeros(m.num_states, dtype=np.int64)
    seen = set()
    best = None
    while True:
        sched = Scheduler(choice=tuple(choice.tolist()))
        if sched.choice in seen:
            return best
        seen.add(sched.choice)
        red = acyclic_reduce(make_absorbing(induced_mc(m, sched), target))
        values = max_reach(red, target)
        if best is None or values.sum() > best[2].sum():
            best = sched, red, values
        if not improve(values, choice):
            return sched, red, values


class _Improvement:
    """One improvement step over every distribution at once.

    A state with one distribution, or in the target, never switches. Each
    distribution of the others is valued on leaving its state: its entries
    other than a self loop, p times the successor's value, summed left to
    right and divided by their mass, summed left to right too, or 0
    without mass. A self loop only delays, and left in, a loop of
    1 - 1e-11 would scale every gain down below IMPROVE_TOL. np.bincount
    adds each distribution's flat entries, self loops set to 0, in entry
    order from 0.0: the left-to-right sums. A state's best distribution is
    its first maximal one.
    """

    def __init__(self, m: Model, target: Set[int]):
        rows = m.rows
        count = rows.dist_at[1:] - rows.dist_at[:-1]
        free = count > 1
        free[list(target)] = False
        self.states = free.nonzero()[0]
        self.count = count[self.states]
        first = offsets(self.count)
        self.first = first[:-1]  # where each state's distributions start in the flat order
        dist = ranges(rows.dist_at[self.states], self.count, first)
        self.size = len(dist)
        lo = rows.entry_at[dist]
        lens = rows.entry_at[dist + 1] - lo
        entry = ranges(lo, lens, offsets(lens))
        self.owner = np.arange(self.size).repeat(lens)  # each entry's distribution
        self.succ = rows.succ[entry]
        self.prob = np.where(self.succ == rows.source[entry], 0.0, rows.prob[entry])
        mass = np.bincount(self.owner, self.prob, self.size)
        self.mass = np.where(mass > 0.0, mass, 1.0)  # no mass: a gain of 0, over 1

    def leaving(self, values: np.ndarray) -> np.ndarray:
        """Each distribution's value on leaving its state, state by state."""
        return np.bincount(self.owner, self.prob * values[self.succ], self.size) / self.mass

    def __call__(self, values: np.ndarray, choice: np.ndarray) -> bool:
        """Switch every state whose first best distribution beats its
        value by more than IMPROVE_TOL; True iff one did."""
        if not self.states.size:
            return False
        q = self.leaving(values)
        top = np.maximum.reduceat(q, self.first)
        hits = (q == top.repeat(self.count)).nonzero()[0]
        best = hits[hits.searchsorted(self.first)] - self.first
        better = top > values[self.states] + IMPROVE_TOL
        choice[self.states[better]] = best[better]
        return bool(better.any())


def induced_mc(m: Model, sched: Scheduler) -> Model:
    """The Markov chain obtained by fixing one distribution per state.

    Names, labels and the initial state carry over unchanged.
    """
    if len(sched.choice) != m.num_states:
        raise ValueError("scheduler does not cover every state")
    rows = m.rows
    dist = rows.dist_at[:-1] + np.array(sched.choice, dtype=np.int64)
    lo = rows.entry_at[dist]
    return Model(
        names=m.names, initial=m.initial, labels=m.labels,
        rows=chain_rows(lo, rows.entry_at[dist + 1] - lo, rows.succ, rows.prob),
    )
