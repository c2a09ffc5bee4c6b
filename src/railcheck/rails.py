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
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .model import FinitePath, Rows, WeightedPath, cylinder_prob, product_mass, step_prob
from .transform import AcyclicReduction


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
    optimum because generators factor over the rail's steps. A crossing,
    from a component's input to the output the rail takes next, is
    searched once per reduction: its path and step probabilities are kept
    in the reduction's `crossings`. The first faulty step raises.
    """
    rail, origin, scc_of = tuple(rail), red.origin, red.scc_of
    full, probs = [rail[0]], []
    for u, t in zip(rail, rail[1:]):
        if not red.comps.nontrivial[scc_of[u]]:
            path, steps = (u, t), (step_prob(origin, u, t),)
        elif (u, t) in red.crossings:
            path, steps = red.crossings[u, t]
        else:
            path, steps = red.crossings[u, t] = _best_escape(origin.rows, scc_of, u, t)
        full += path[1:]
        probs += steps
    return (tuple(full), *product_mass(reversed(probs)))


def _best_escape(rows: Rows, scc_of: List[int], src: int, dst: int) -> WeightedPath:
    """Highest-probability path from src to dst whose intermediate states
    stay inside src's component, with its step probabilities; ties
    resolved by the lexicographically smallest state index sequence. rows
    are a chain's, so distribution u is state u's row."""
    c = scc_of[src]
    heap: List[Tuple[float, FinitePath, Tuple[float, ...]]] = [(0.0, (src,), ())]
    settled = set()
    while heap:
        weight, path, probs = heapq.heappop(heap)
        u = path[-1]
        if u == dst:
            return path, probs
        if u in settled:
            continue
        settled.add(u)
        for t, p in rows.row(u):
            if (scc_of[t] == c or t == dst) and t not in settled:
                heapq.heappush(heap, (weight - math.log(p), path + (t,), probs + (p,)))
    raise ValueError(f"no path from {src} to {dst} inside the component")
