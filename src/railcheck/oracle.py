"""Independent baselines: exhaustive path enumeration, brute-force
scheduler search, and seeded Monte Carlo classification.

These routines deliberately avoid the pipeline's own machinery:
reachability is recomputed with numpy's solver, graph closures are local,
and sampled paths are classified by their component footprint rather than
by replaying the search. They exist to cross-check the pipeline, so any
shared code path would make the check circular.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .model import FinitePath, Model, mc_row
from .rails import generator_member
from .transform import AcyclicReduction

RNG_ALGORITHM = "pcg64"
SAMPLE_STEP_LIMIT = 10 ** 5
SCHEDULER_LIMIT = 10 ** 5


class OracleLimitError(RuntimeError):
    """The instance is too large for exhaustive treatment."""


def enumerate_freach(
    mc: Model, targets: Iterable[int], max_len: int
) -> Tuple[List[Tuple[FinitePath, float]], float]:
    """All paths from the initial state hitting the target set exactly
    once, at their last state, with at most max_len states.

    Returns the paths with their cylinder probabilities, heaviest first
    (ties by state sequence), plus a bound on the mass of target-hitting
    paths longer than max_len: the probability of still wandering among
    live non-target states when the cap is reached.
    """
    targets = set(targets)
    found: List[Tuple[FinitePath, float]] = []
    if max_len >= 1:
        stack: List[Tuple[FinitePath, float]] = [((mc.initial,), 1.0)]
        while stack:
            path, prob = stack.pop()
            if path[-1] in targets:
                found.append((path, prob))
                continue
            if len(path) == max_len:
                continue
            for t, p in mc_row(mc, path[-1]):
                stack.append((path + (t,), prob * p))
    found.sort(key=lambda item: (-item[1], item[0]))
    return found, _residual_mass(mc, targets, max_len)


def _can_reach(mc: Model, targets: Set[int]) -> Set[int]:
    preds: Dict[int, List[int]] = {}
    for s in range(mc.num_states):
        for t, _ in mc_row(mc, s):
            preds.setdefault(t, []).append(s)
    seen = set(targets)
    stack = list(targets)
    while stack:
        t = stack.pop()
        for s in preds.get(t, ()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def _residual_mass(mc: Model, targets: Set[int], max_len: int) -> float:
    live = _can_reach(mc, targets)
    if mc.initial not in live or mc.initial in targets:
        return 0.0
    if max_len < 1:
        return 1.0
    alive = {mc.initial: 1.0}
    for _ in range(max_len - 1):
        step: Dict[int, float] = {}
        for s, mass in alive.items():
            for t, p in mc_row(mc, s):
                if t in live and t not in targets:
                    step[t] = step.get(t, 0.0) + mass * p
        alive = step
        if not alive:
            break
    return math.fsum(alive.values())


def brute_force_max_reach(m: Model, targets: Iterable[int]) -> float:
    """Exact maximum over every deterministic memoryless scheduler.

    Each induced chain is solved exactly with numpy's solver; feasible
    only while the scheduler space stays at most SCHEDULER_LIMIT.
    """
    targets = set(targets)
    if m.initial in targets:
        return 1.0
    counts = [len(dists) for dists in m.actions]
    total = 1
    for c in counts:
        total *= c
        if total > SCHEDULER_LIMIT:
            raise OracleLimitError(
                f"scheduler space exceeds {SCHEDULER_LIMIT}, state space too large"
            )
    best = 0.0
    for assignment in itertools.product(*(range(c) for c in counts)):
        value = _chain_reach(m, assignment, targets)
        if value > best:
            best = value
    return best


def _chain_reach(m: Model, assignment: Sequence[int], targets: Set[int]) -> float:
    rows = [m.actions[s][assignment[s]] for s in range(m.num_states)]
    preds: Dict[int, List[int]] = {}
    for s, row in enumerate(rows):
        for t, _ in row:
            preds.setdefault(t, []).append(s)
    alive = set(targets)
    stack = list(targets)
    while stack:
        t = stack.pop()
        for s in preds.get(t, ()):
            if s not in alive:
                alive.add(s)
                stack.append(s)
    if m.initial not in alive:
        return 0.0
    free = sorted(alive - targets)
    pos = {s: i for i, s in enumerate(free)}
    a = np.eye(len(free))
    b = np.zeros(len(free))
    for s in free:
        for t, p in rows[s]:
            if t in targets:
                b[pos[s]] += p
            elif t in pos:
                a[pos[s], pos[t]] -= p
    x = np.linalg.solve(a, b)
    return float(x[pos[m.initial]])


@dataclass
class SampleRun:
    seed: int
    count: int
    classified: Dict[FinitePath, int]
    unclassified: int


def _footprint(red: AcyclicReduction, path: Sequence[int]) -> FinitePath:
    # Keep the states that open a new component block. Components are
    # never re-entered, so this is each nontrivial component's first visit
    # plus every trivial-component state, and it spells the unique rail
    # the path generates.
    scc_of = red.scc_of
    out = [path[0]]
    for prev, cur in zip(path, path[1:]):
        if scc_of[cur] != scc_of[prev]:
            out.append(cur)
    return tuple(out)


def monte_carlo_classify(
    mc: Model, red: AcyclicReduction, rails: Iterable[FinitePath], n: int, seed: int
) -> SampleRun:
    """Simulate n runs of the absorbing chain and sort them into torrents.

    Sampling is vectorized; each run keeps only its component footprint,
    which determines the one rail it can generate. Runs absorbed outside
    the given rails, or still alive after SAMPLE_STEP_LIMIT steps, count
    as unclassified. A deterministic subsample is re-simulated path by
    path and checked against generator_member directly, asserting that no
    path ever matches two rails.
    """
    rails = [tuple(r) for r in rails]
    rail_set = set(rails)
    n_states = mc.num_states
    scc_of = np.array(red.scc_of, dtype=np.int64)
    rows = [mc_row(mc, s) for s in range(n_states)]
    succs = [np.array([t for t, _ in row], dtype=np.int64) for row in rows]
    cums = [np.cumsum([p for _, p in row]) for row in rows]
    absorbing = np.array(
        [len(row) == 1 and row[0][0] == s for s, row in enumerate(rows)]
    )
    rng = np.random.default_rng(seed)
    cur = np.full(n, mc.initial, dtype=np.int64)
    foot = np.full((n, len(red.sccs) + 1), -1, dtype=np.int64)
    foot[:, 0] = mc.initial
    flen = np.ones(n, dtype=np.int64)
    active = ~absorbing[cur]
    steps = 0
    while active.any() and steps < SAMPLE_STEP_LIMIT:
        steps += 1
        moving = np.flatnonzero(active)
        states = cur[moving]
        for s in np.unique(states):
            sel = moving[states == s]
            draws = rng.random(sel.size)
            picks = np.searchsorted(cums[s], draws, side="right")
            nxt = succs[s][np.minimum(picks, len(succs[s]) - 1)]
            cur[sel] = nxt
            hopped = scc_of[nxt] != scc_of[s]
            if hopped.any():
                rows_sel = sel[hopped]
                foot[rows_sel, flen[rows_sel]] = nxt[hopped]
                flen[rows_sel] += 1
            active[sel] = ~absorbing[nxt]
    unclassified = int(active.sum())
    classified = {rail: 0 for rail in rails}
    done = np.flatnonzero(~active)
    width = flen.max(initial=1)  # columns past the longest footprint are padding
    for row, cnt in Counter(map(tuple, foot[done, :width].tolist())).items():
        rail = tuple(x for x in row if x >= 0)
        if rail in rail_set:
            classified[rail] += cnt
        else:
            unclassified += cnt
    _cross_check(mc, red, rails, seed, absorbing=[bool(x) for x in absorbing])
    return SampleRun(seed=seed, count=n, classified=classified, unclassified=unclassified)


def _cross_check(mc, red, rails, seed, absorbing):
    # Replays 64 runs from a derived seed step by step and confronts the
    # footprint shortcut with the membership predicate itself.
    rng = np.random.default_rng([seed, 1])
    rail_set = set(rails)
    for _ in range(64):
        path = [mc.initial]
        while not absorbing[path[-1]] and len(path) < SAMPLE_STEP_LIMIT:
            row = mc_row(mc, path[-1])
            draw = rng.random()
            acc = 0.0
            nxt = row[-1][0]
            for t, p in row:
                acc += p
                if draw < acc:
                    nxt = t
                    break
            path.append(nxt)
        if not absorbing[path[-1]]:
            continue
        matches = [rail for rail in rails if generator_member(red, rail, path)]
        assert len(matches) <= 1, "a path generated two distinct torrents"
        foot = _footprint(red, path)
        if foot in rail_set:
            assert matches == [foot]
        else:
            assert not matches
