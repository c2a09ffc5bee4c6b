"""Maximizing schedulers and their induced chains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .model import Model
from .numerics import prob0_states

OPT_TOL = 1e-7


class SchedulerError(ArithmeticError):
    """No optimal distribution leads towards the settled states, so the
    given values are not the maximal reachability probabilities."""


@dataclass(frozen=True)
class Scheduler:
    choice: Tuple[int, ...]  # state index to distribution index


def extract_max_scheduler(m: Model, target: Iterable[int], values: np.ndarray) -> Scheduler:
    """Deterministic memoryless scheduler attaining the maximal
    reachability probability at every state.

    A one-step optimal choice is not enough on its own: inside an end
    component a value-preserving loop can be optimal yet never reach the
    target. States are therefore settled outward from the target, each
    receiving the lowest-index optimal distribution that moves with
    positive probability into the settled region; the induced chain then
    reaches the absorbing boundary almost surely and realizes the values.
    ``values`` is the ``max_reach`` vector for this target, which every
    caller already holds; where no optimal distribution makes progress,
    they are not maximal and SchedulerError is raised.
    """
    target = set(target)
    zero = prob0_states(m, target)
    n = m.num_states
    choice = [0] * n
    settled = target | zero
    pending = [s for s in range(n) if s not in settled]
    while pending:
        remaining = []
        progressed = False
        for s in pending:
            picked = None
            for k, dist in enumerate(m.actions[s]):
                value = sum(p * values[t] for t, p in dist)
                if abs(value - values[s]) <= OPT_TOL and any(t in settled for t, _ in dist):
                    picked = k
                    break
            if picked is None:
                remaining.append(s)
            else:
                choice[s] = picked
                settled.add(s)
                progressed = True
        if not progressed:
            raise SchedulerError(
                f"no optimal distribution makes progress at {len(pending)} states"
            )
        pending = remaining
    return Scheduler(choice=tuple(choice))


def induced_mc(m: Model, sched: Scheduler) -> Model:
    """The Markov chain obtained by fixing one distribution per state.

    Names, labels and the initial state carry over unchanged.
    """
    if len(sched.choice) != m.num_states:
        raise ValueError("scheduler does not cover every state")
    actions = tuple((m.actions[s][sched.choice[s]],) for s in range(m.num_states))
    return Model(names=m.names, initial=m.initial, labels=m.labels, actions=actions)
