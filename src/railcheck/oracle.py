"""Independent baselines: the mass of the paths that first hit the target
within a step bound, in one forward pass, brute-force scheduler search,
and seeded Monte Carlo classification. `enumerate_freach` lists those
paths one by one, as a reference for the tests.

These routines deliberately avoid the pipeline's own machinery:
reachability is recomputed with numpy's solver, graph closures are local,
and sampled runs are classified by their component footprint, looked up
in a prefix tree of the given rails, rather than by replaying the search.
They share only `mc_row` and `generator_member` with the pipeline, because
any further shared code path would make the check circular.

The sampler's counts are a function of the seed and of numpy's
`Generator.binomial`: runs are simulated as counts per (state, rail
prefix) group, and at every step each group splits its count over its
row by binomial draws, in a fixed order (see monte_carlo_classify). The
same seed gives the same counts for a given numpy version, and the memory
a call takes does not grow with the number of runs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .model import FinitePath, Model, mc_row
from .rails import generator_member
from .transform import AcyclicReduction

RNG_ALGORITHM = "pcg64"
SAMPLE_STEP_LIMIT = 10 ** 5
SCHEDULER_LIMIT = 10 ** 5
_DRAW_BLOCK = 1024  # uniforms the cross-check draws at a time


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
    return found, first_hits(mc, targets, max_len)[2]


def first_hits(mc: Model, targets: Iterable[int], max_len: int) -> Tuple[int, float, float]:
    """enumerate_freach's path count, the fsum of its path probabilities
    and its tail bound, in one forward pass that lists no path: step i
    carries, per last state, the mass and the number of the paths of i + 1
    live states that have not hit the target yet."""
    targets = set(targets)
    if mc.initial in targets:
        return int(max_len >= 1), float(max_len >= 1), 0.0
    rows = [mc_row(mc, s) for s in range(mc.num_states)]
    live = _can_reach(rows, targets)
    if mc.initial not in live:
        return 0, 0.0, 0.0
    alive, ways = {mc.initial: 1.0}, {mc.initial: 1}
    count, hits = 0, []
    for _ in range(max_len - 1):
        step, ahead = {}, {}
        for s, mass in alive.items():
            n = ways[s]
            for t, p in rows[s]:
                if t in targets:
                    count += n
                    hits.append(mass * p)
                elif t in live:
                    step[t] = step.get(t, 0.0) + mass * p
                    ahead[t] = ahead.get(t, 0) + n
        alive, ways = step, ahead
        if not alive:
            break
    return count, math.fsum(hits), math.fsum(alive.values())


def _can_reach(rows: Sequence[Sequence[Tuple[int, float]]], targets: Set[int]) -> Set[int]:
    preds: Dict[int, List[int]] = {}
    for s, row in enumerate(rows):
        for t, _ in row:
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
    alive = _can_reach(rows, targets)
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


class _RailTrie:
    """Prefix tree of the rails that start at the initial state.

    Node 0 is (initial,), and every other node is one state longer than
    its parent. The edge to a child is keyed node * n_states + state, with
    the keys sorted so that a whole array of nodes looks up its children
    in one searchsorted; a last key above all others, with child -1, stands
    for "no such child". `rail_of` maps a node that spells a given rail
    to it.
    """

    def __init__(self, initial: int, n_states: int, rails: Sequence[FinitePath]):
        self.n_states = n_states
        edges: Dict[Tuple[int, int], int] = {}
        self.rail_of: Dict[int, FinitePath] = {}
        for rail in rails:
            if rail[0] != initial:
                continue
            node = 0
            for s in rail[1:]:
                node = edges.setdefault((node, s), len(edges) + 1)
            self.rail_of[node] = rail
        self.size = len(edges) + 1
        keys = [u * n_states + s for u, s in edges] + [np.iinfo(np.int64).max]
        order = np.argsort(keys)
        self.keys = np.array(keys, dtype=np.int64)[order]
        self.child = np.array(list(edges.values()) + [-1], dtype=np.int64)[order]

    def step(self, nodes: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The child of each node along the state at the same position;
        -1 where there is none, or where the node is already -1 (its key
        is negative)."""
        keys = nodes * self.n_states + states
        pos = np.searchsorted(self.keys, keys)
        return np.where(self.keys[pos] == keys, self.child[pos], -1)


def monte_carlo_classify(
    mc: Model, red: AcyclicReduction, rails: Iterable[FinitePath], n: int, seed: int
) -> SampleRun:
    """Simulate n runs of the absorbing chain and sort them into torrents.

    A run's footprint keeps the states that open a new component block:
    components are never re-entered, so that is each nontrivial
    component's first visit plus every trivial-component state, and it
    spells the one rail the run can generate. Each run walks a prefix tree
    of the given rails along its footprint as it moves and counts for the
    rail it spells when it is absorbed. Runs absorbed anywhere else, or
    still alive after SAMPLE_STEP_LIMIT steps, count as unclassified.

    What happens to a run next depends only on its current state and its
    trie node, so the runs are simulated as counts per (state, node)
    group, which have the same law as the runs one by one. The groups are
    kept in ascending (state, node) order. At every step each group splits
    its count over its row's entries in row order: entry j gets
    Binomial(remaining, p_j / (p_j + ... + p_last)), clipped to 1, and the
    last entry gets the rest. The draws are one `rng.binomial` per row
    position, over the groups whose row has an entry there before its
    last, in group order; the counts are a function of the seed and of
    numpy's `Generator.binomial`. Runs that leave the tree are unclassified
    whatever they do next and are dropped at once; absorbed runs count for
    their node; the others merge into the next step's groups. A step costs
    O(groups x row length), whatever n is. A deterministic subsample is
    then re-simulated path by path and checked against generator_member.
    """
    rails = [tuple(r) for r in rails]
    n_states = mc.num_states
    scc_of = red.comps.of
    rows = [mc_row(mc, s) for s in range(n_states)]
    lens = np.array([len(row) for row in rows], dtype=np.int64)
    first = np.cumsum(lens) - lens
    succ = np.array([t for row in rows for t, _ in row], dtype=np.int64)
    # p_j over the row's mass from entry j on, summed from the row's end
    tails = [np.cumsum([p for _, p in reversed(row)])[::-1] for row in rows]
    probs = np.array([p for row in rows for _, p in row])
    share = np.minimum(probs / np.concatenate(tails), 1.0)
    absorbing = np.array(
        [len(row) == 1 and row[0][0] == s for s, row in enumerate(rows)]
    )
    hops = scc_of[succ] != np.repeat(scc_of, lens)  # per edge
    ends_at = absorbing[succ]  # per edge
    trie = _RailTrie(mc.initial, n_states, rails)
    rng = np.random.default_rng(seed)
    counts = np.zeros(trie.size, dtype=np.int64)  # absorbed runs per trie node
    state = np.array([mc.initial], dtype=np.int64)
    node = np.zeros(1, dtype=np.int64)
    count = np.array([n], dtype=np.int64)
    if absorbing[mc.initial]:
        counts[0], count = n, count[:0]
    steps = 0
    while count.size and steps < SAMPLE_STEP_LIMIT:
        steps += 1
        width = lens[state]
        at = np.cumsum(width) - width  # each group's first slot in `split`
        split = np.empty(at[-1] + width[-1], dtype=np.int64)
        left = count.copy()
        live = np.arange(count.size)
        for j in range(int(width.max()) - 1):
            live = live[width[live] > j + 1]
            drawn = rng.binomial(left[live], share[first[state[live]] + j])
            split[at[live] + j] = drawn
            left[live] -= drawn
        split[at + width - 1] = left
        taken = np.flatnonzero(split)
        group = np.repeat(np.arange(count.size), width)[taken]
        edge = first[state[group]] + taken - at[group]
        nxt, into, many = succ[edge], node[group], split[taken]
        hop = np.flatnonzero(hops[edge])
        into[hop] = trie.step(into[hop], nxt[hop])
        on = into >= 0
        done = on & ends_at[edge]
        # exact: every partial sum is a whole number of runs, at most n < 2**53
        counts += np.bincount(into[done], weights=many[done], minlength=trie.size).astype(np.int64)
        stay = on & ~done
        keys, merged = np.unique(nxt[stay] * trie.size + into[stay], return_inverse=True)
        state, node = np.divmod(keys, trie.size)
        count = np.bincount(merged, weights=many[stay]).astype(np.int64)
    classified = {rail: 0 for rail in rails}
    for where, rail in trie.rail_of.items():
        classified[rail] = int(counts[where])
    unclassified = n - sum(classified.values())
    _cross_check(mc, red, rails, seed, rows, absorbing.tolist(), trie)
    return SampleRun(seed=seed, count=n, classified=classified, unclassified=unclassified)


def _cross_check(mc, red, rails, seed, rows, absorbing, trie) -> None:
    # Replays 64 runs from a derived seed step by step and confronts the
    # trie lookup with the membership predicate itself, for the rails a
    # run from the initial state can count for. A step takes the first
    # entry whose running row sum exceeds a uniform draw, the last if none
    # does, by bisection in the row's running sums; the draws come in
    # blocks, in the order single draws would. It raises rather than
    # asserts, so that python -O keeps it.
    rng = np.random.default_rng([seed, 1])
    sums = [list(itertools.accumulate(p for _, p in row)) for row in rows]
    # a draw no running sum exceeds, rounding short of 1, takes the last entry
    succ = [[t for t, _ in row] + [row[-1][0]] for row in rows]
    scc_of = red.scc_of
    draws: List[float] = []
    paths, hops = [], []  # hops: the states that enter a new component
    for _ in range(64):
        s = mc.initial
        path, hop, c = [s], [], scc_of[s]
        for _ in range(SAMPLE_STEP_LIMIT - 1):
            if absorbing[s]:
                break
            if not draws:
                draws = rng.random(_DRAW_BLOCK).tolist()[::-1]
            s = succ[s][bisect_right(sums[s], draws.pop())]
            path.append(s)
            if scc_of[s] != c:
                hop.append(s)
                c = scc_of[s]
        if absorbing[s]:
            paths.append(path)
            hops.append(hop)
    # the paths walk the trie in lockstep, one component hop at a time
    node = np.zeros(len(paths), dtype=np.int64)
    for depth in range(max(map(len, hops), default=0)):
        at = [i for i, hop in enumerate(hops) if len(hop) > depth]
        node[at] = trie.step(node[at], np.array([hops[i][depth] for i in at], dtype=np.int64))
    distinct = [rail for rail in dict.fromkeys(rails) if rail[0] == mc.initial]
    for path, at in zip(paths, node.tolist()):
        matches = [rail for rail in distinct if generator_member(red, rail, path)]
        if len(matches) > 1:
            raise AssertionError("a path generated two distinct torrents")
        found = trie.rail_of.get(at)
        if matches != ([] if found is None else [found]):
            raise AssertionError(
                f"the rail trie places a path in {found}, membership in {matches}"
            )
