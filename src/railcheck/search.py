"""Ranked rail enumeration and witness-set assembly.

The reduced chain restricted to states that can still reach the target is
a DAG (its only cycles are absorbing self loops, and an absorbing
non-target state is dead), so rails can be streamed best-first with one
lazily materialized sorted suffix stream per state, merged along edges.
Work is proportional to the number of rails actually consumed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .model import FinitePath, mc_row
from .numerics import prob0_states
from .props import PropertySpec
from .rails import Witness, rail_mass, representant
from .transform import AcyclicReduction

TIE_WINDOW = 1e-12


class SearchLimitError(RuntimeError):
    """Witness count exceeded the configured safety limit."""


class NoPathError(ValueError):
    """The target set is unreachable, no rail exists."""


class _Key:
    """Heap ordering for candidate suffixes: by weight, except that weights
    within the tie window compare by state sequence instead."""

    __slots__ = ("weight", "path")

    def __init__(self, weight: float, path: FinitePath):
        self.weight = weight
        self.path = path

    def __lt__(self, other: "_Key") -> bool:
        if abs(self.weight - other.weight) <= TIE_WINDOW:
            return self.path < other.path
        return self.weight < other.weight


class _SuffixStreams:
    """Per state, the paths to the first target hit, best first."""

    def __init__(self, chain, targets: Set[int], live: Set[int]):
        self.targets = targets
        self.edges: Dict[int, List[Tuple[int, float]]] = {}
        for u in live:
            if u in targets:
                continue
            self.edges[u] = [
                (t, -math.log(p))
                for t, p in mc_row(chain, u)
                if t in live and t != u
            ]
        self.items: Dict[int, List[Tuple[float, FinitePath]]] = {}
        self.heaps: Dict[int, list] = {}

    def item(self, u: int, i: int) -> Optional[Tuple[float, FinitePath]]:
        if u in self.targets:
            return (0.0, (u,)) if i == 0 else None
        items = self.items.get(u)
        if items is None:
            items = self.items[u] = []
            heap = self.heaps[u] = []
            for t, w in self.edges[u]:
                first = self.item(t, 0)
                if first is not None:
                    heapq.heappush(heap, (_Key(w + first[0], first[1]), t, 0, w))
        heap = self.heaps[u]
        while len(items) <= i and heap:
            key, t, j, w = heapq.heappop(heap)
            items.append((key.weight, (u,) + key.path))
            nxt = self.item(t, j + 1)
            if nxt is not None:
                heapq.heappush(heap, (_Key(w + nxt[0], nxt[1]), t, j + 1, w))
        return items[i] if i < len(items) else None


def ranked_rails(
    red: AcyclicReduction, targets: Iterable[int]
) -> Iterator[Tuple[FinitePath, float]]:
    """Rails from the initial state to the first target hit, heaviest
    first; each item is (rail, mass) with the mass an exact product."""
    targets = set(targets)
    chain = red.chain
    s0 = chain.initial
    live = set(range(chain.num_states)) - prob0_states(chain, targets)

    def stream():
        if s0 not in live:
            return
        streams = _SuffixStreams(chain, targets, live)
        i = 0
        while True:
            item = streams.item(s0, i)
            if item is None:
                return
            rail = item[1]
            yield rail, rail_mass(red, rail)
            i += 1

    return stream()


@dataclass
class TorrentCounterexample:
    witnesses: List[Witness]
    total_mass: float
    verdict: str  # "violated" or "holds"


def _violated(spec: PropertySpec, mass: float) -> bool:
    if spec.bound == "<=":
        return mass > spec.threshold
    return mass >= spec.threshold


def most_indicative(
    red: AcyclicReduction,
    spec: PropertySpec,
    targets: Iterable[int],
    max_witnesses: Optional[int] = None,
) -> TorrentCounterexample:
    """Smallest witness set refuting the bound, greedily assembled.

    Rails arrive heaviest first, so the first stream prefix crossing the
    bound has minimum cardinality and, among sets of that size, maximal
    mass. If the stream runs out first the property holds and the
    accumulated rails are reported with their total mass.
    """
    rails: List[FinitePath] = []
    masses: List[float] = []
    total = 0.0
    violated = _violated(spec, total)
    if not violated:
        for rail, mass in ranked_rails(red, targets):
            if max_witnesses is not None and len(rails) >= max_witnesses:
                raise SearchLimitError(
                    f"bound still undecided after {max_witnesses} witnesses"
                )
            rails.append(rail)
            masses.append(mass)
            total = math.fsum(masses)
            if _violated(spec, total):
                violated = True
                break
    witnesses = [
        Witness(rail=rail, mass=mass, representant=rep, representant_prob=rep_prob)
        for rail, mass in zip(rails, masses)
        for rep, rep_prob in (representant(red, rail),)
    ]
    return TorrentCounterexample(
        witnesses=witnesses,
        total_mass=total,
        verdict="violated" if violated else "holds",
    )


def strongest_torrent_evidence(red: AcyclicReduction, targets: Iterable[int]) -> Witness:
    """The single heaviest torrent reaching the target."""
    for rail, mass in ranked_rails(red, targets):
        rep, rep_prob = representant(red, rail)
        return Witness(rail=rail, mass=mass, representant=rep, representant_prob=rep_prob)
    raise NoPathError("the target set is unreachable from the initial state")
