"""Torrent relations over an acyclic reduction.

A rail is a finite path of the reduced chain. Its torrent is the set of
source-chain paths that follow the rail state by state outside nontrivial
components: the match of each rail state is forced to the path's first
entry into that state's component (once a component is left it can never
be re-entered), and between two matches the path must keep moving inside
the component it last matched. Membership therefore falls to a single
left-to-right scan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import FinitePath, cylinder_mass, cylinder_prob, offsets, ranges
from .transform import AcyclicReduction


# (span, succ, prob): state u's row is the entries of succ and prob in span[u]
_Gathered = Tuple[Dict[int, Tuple[int, int]], List[int], List[float]]


class Witness(NamedTuple):
    rail: FinitePath
    mass: float
    mass_exp: int  # the mass is mass·2**mass_exp, see model.split_mass
    representant: FinitePath
    representant_prob: float
    representant_prob_exp: int


def _match_end(red: AcyclicReduction, rail: FinitePath, rho: FinitePath) -> Optional[int]:
    """Position of the final rail match in rho, or None if rho does not
    behave as the rail prescribes."""
    if not rail or not rho:
        raise ValueError("paths must be non-empty")
    scc_of = red.scc_of
    seen = set()
    pos = 0
    n = len(rho)
    first = scc_of[rail[0]]
    while pos < n and scc_of[rho[pos]] != first:
        seen.add(scc_of[rho[pos]])
        pos += 1
    if pos == n or rho[pos] != rail[0]:
        return None
    seen.add(first)
    for i in range(1, len(rail)):
        prev = scc_of[rail[i - 1]]
        pos += 1
        while pos < n and scc_of[rho[pos]] == prev:
            pos += 1
        if pos == n or rho[pos] != rail[i]:
            return None
        cur = scc_of[rail[i]]
        if cur in seen:  # the component was visited before this match
            return None
        seen.add(cur)
    return pos


def behaves_as(red: AcyclicReduction, rail: Sequence[int], rho: Sequence[int]) -> bool:
    """Does the source-chain path rho follow the rail?"""
    return _match_end(red, tuple(rail), tuple(rho)) is not None


def generator_member(red: AcyclicReduction, rail: Sequence[int], rho: Sequence[int]) -> bool:
    """Does rho follow the rail with the final match on its last state?

    Generators are exactly the paths whose cones make up the torrent;
    they carry its measure without overlap.
    """
    rho = tuple(rho)
    return _match_end(red, tuple(rail), rho) == len(rho) - 1


def rail_mass(red: AcyclicReduction, rail: Sequence[int]) -> float:
    """Probability mass of the rail's torrent: the product of reduced-chain
    step probabilities along the rail, right to left, in O(rail length)."""
    return cylinder_prob(red.chain, tuple(rail))


def representant(red: AcyclicReduction, rail: Sequence[int]) -> Tuple[FinitePath, float, int]:
    """Highest-probability generator of the rail's torrent, with its
    probability as `model.cylinder_mass` gives it.

    Steps out of a nontrivial component are expanded to the best path
    through the component in the source chain; steps between trivial
    states are copied verbatim. Segment optima concatenate to the global
    optimum because generators factor over the rail's steps. The rows of
    the members of every component the rail leaves are gathered at once.
    """
    rail = tuple(rail)
    comps = [red.sccs[red.scc_of[u]] for u in rail[:-1]]
    rows = _gather_rows(red.origin, [info.members for info in comps if info.nontrivial])
    path: List[int] = [rail[0]]
    for u, t, info in zip(rail, rail[1:], comps):
        if info.nontrivial:
            path.extend(_best_escape(rows, info.members, u, t)[1:])
        else:
            path.append(t)
    full = tuple(path)
    return (full, *cylinder_mass(red.origin, full))


def _gather_rows(mc, groups: List[FrozenSet[int]]) -> _Gathered:
    """The rows of the states in groups, read off the chain's arrays in
    one gather: state u's row is the entries of succ and prob in span[u]."""
    states = np.fromiter(itertools.chain.from_iterable(groups), np.int64, sum(map(len, groups)))
    entry_at = mc.rows.entry_at  # a chain: distribution u is state u's row
    lo = entry_at[states]
    lens = entry_at[states + 1] - lo
    at = offsets(lens)
    entry = ranges(lo, lens, at)
    at = at.tolist()
    span = dict(zip(states.tolist(), zip(at, at[1:])))
    return span, mc.rows.succ[entry].tolist(), mc.rows.prob[entry].tolist()


def _best_escape(rows: _Gathered, members: FrozenSet[int], src: int, dst: int) -> FinitePath:
    """Highest-probability path from src to dst whose intermediate states
    stay inside the component; ties resolved by the lexicographically
    smallest state index sequence. rows holds every member's row, as
    `_gather_rows` gives it."""
    span, succ, prob = rows
    heap: List[Tuple[float, FinitePath]] = [(0.0, (src,))]
    settled = set()
    while heap:
        weight, path = heapq.heappop(heap)
        u = path[-1]
        if u == dst:
            return path
        if u in settled:
            continue
        settled.add(u)
        a, b = span[u]
        for t, p in zip(succ[a:b], prob[a:b]):
            if (t in members or t == dst) and t not in settled:
                heapq.heappush(heap, (weight - math.log(p), path + (t,)))
    raise ValueError(f"no path from {src} to {dst} inside the component")
