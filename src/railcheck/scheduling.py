"""Maximizing schedulers by policy iteration, and their induced chains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from .model import Distribution, Model
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
    choice = [0] * m.num_states
    seen = set()
    best = None
    while True:
        sched = Scheduler(choice=tuple(choice))
        if sched.choice in seen:
            return best
        seen.add(sched.choice)
        red = acyclic_reduce(make_absorbing(induced_mc(m, sched), target))
        values = max_reach(red, target)
        if best is None or values.sum() > best[2].sum():
            best = sched, red, values
        x = values.tolist()
        improved = False
        for s, dists in enumerate(m.actions):
            if len(dists) == 1 or s in target:
                continue
            q = [_leaving_value(s, dist, x) for dist in dists]
            top = max(range(len(q)), key=q.__getitem__)
            if q[top] > x[s] + IMPROVE_TOL:
                choice[s] = top
                improved = True
        if not improved:
            return sched, red, values


def _leaving_value(s: int, dist: Distribution, x: List[float]) -> float:
    # The value of taking dist at s until it leaves s: a self loop only
    # delays, and left in, a loop of 1 - 1e-11 would scale every gain down
    # below IMPROVE_TOL.
    out = [(t, p) for t, p in dist if t != s]
    mass = sum(p for _, p in out)
    return sum(p * x[t] for t, p in out) / mass if mass else 0.0


def induced_mc(m: Model, sched: Scheduler) -> Model:
    """The Markov chain obtained by fixing one distribution per state.

    Names, labels and the initial state carry over unchanged.
    """
    if len(sched.choice) != m.num_states:
        raise ValueError("scheduler does not cover every state")
    actions = tuple((m.actions[s][sched.choice[s]],) for s in range(m.num_states))
    return Model(names=m.names, initial=m.initial, labels=m.labels, actions=actions)
