"""Ranked rail enumeration and witness-set assembly.

The reduced chain is a DAG apart from absorbing self loops, so rails can be
streamed best-first with one lazily materialized sorted suffix stream per
state, merged along edges (the recursive enumeration scheme of Jiménez &
Marzal). A state that cannot reach the target has an empty stream and
never enters a heap, so no separate liveness pass is needed. Work is
proportional to the number of rails actually consumed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .model import FinitePath, mc_row
from .props import PropertySpec
from .rails import Witness, rail_mass, representant
from .transform import AcyclicReduction

TIE_WINDOW = 1e-12
_PENDING = object()  # a stream item that is not materialized yet


class SearchLimitError(RuntimeError):
    """Witness count exceeded the configured safety limit."""


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
    """Per state, the paths to the first target hit, best first.

    A state's stream pops from a heap of its successors' next items, each
    prefixed by the step to that successor. `waiting` holds, last first, the
    successor items to push before the next pop: at the start all first
    items in edge order, later the follow-up of the item just popped.
    """

    def __init__(self, chain, targets: Set[int]):
        self.items: Dict[int, List[Tuple[float, FinitePath]]] = {}
        self.heaps: Dict[int, list] = {}
        self.waiting: Dict[int, List[Tuple[int, int, float]]] = {}
        for u in range(chain.num_states):
            self.heaps[u] = []
            if u in targets:
                self.items[u], self.waiting[u] = [(0.0, (u,))], []
                continue
            self.items[u] = []
            self.waiting[u] = [
                (t, 0, -math.log(p))
                for t, p in reversed(mc_row(chain, u))
                if t != u
            ]

    def _peek(self, u: int, i: int):
        """Item i of u; None if u has fewer items, _PENDING if not yet known."""
        items = self.items[u]
        if i < len(items):
            return items[i]
        return _PENDING if self.heaps[u] or self.waiting[u] else None

    def item(self, u: int, i: int) -> Optional[Tuple[float, FinitePath]]:
        # A stack of requests, each waiting for the one above it, keeps the
        # DAG's depth off the call stack. A heap's pushes and pops come in
        # the same order whatever the order of requests, so the stream
        # does not depend on it even where _Key is not transitive.
        requests = [(u, i)]
        while requests:
            v, k = requests[-1]
            items, heap, waiting = self.items[v], self.heaps[v], self.waiting[v]
            if waiting:
                t, j, w = waiting[-1]
                nxt = self._peek(t, j)
                if nxt is _PENDING:
                    requests.append((t, j))
                    continue
                waiting.pop()
                if nxt is not None:
                    heapq.heappush(heap, (_Key(w + nxt[0], nxt[1]), t, j, w))
            elif len(items) > k or not heap:
                requests.pop()
            else:
                key, t, j, w = heapq.heappop(heap)
                items.append((key.weight, (v,) + key.path))
                waiting.append((t, j + 1, w))
        return self._peek(u, i)


def ranked_rails(
    red: AcyclicReduction, targets: Iterable[int]
) -> Iterator[Tuple[FinitePath, float]]:
    """Rails from the initial state to the first target hit, heaviest
    first; each item is (rail, mass) with the mass an exact product.

    Every state of the reduced chain gets a suffix stream. The stream of
    a state that cannot reach the target is empty, whether the state is
    absorbing or leads into a dead region, so the rails are the same with
    or without the probability-zero states made absorbing."""
    targets = set(targets)
    chain = red.chain
    s0 = chain.initial

    def stream():
        streams = _SuffixStreams(chain, targets)
        for i in itertools.count():
            item = streams.item(s0, i)
            if item is None:
                return
            yield item[1], rail_mass(red, item[1])

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

    The running sum is exact: Shewchuk's non-overlapping partials, as in
    the math.fsum recipe, so total_mass is the correctly rounded sum of
    the witness masses at O(partials) per rail, not O(witnesses).

    Only rails through a nontrivial component's input before their last
    state need `representant`; any other rail is its own representant,
    and its mass is the same left-to-right product of the same rows.
    """
    found: List[Tuple[FinitePath, float]] = []
    partials: List[float] = []
    total = 0.0
    violated = _violated(spec, total)
    if not violated:
        for rail, mass in ranked_rails(red, targets):
            if max_witnesses is not None and len(found) >= max_witnesses:
                raise SearchLimitError(
                    f"bound still undecided after {max_witnesses} witnesses"
                )
            found.append((rail, mass))
            x = mass
            kept = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[kept] = lo
                    kept += 1
                x = hi
            partials[kept:] = [x]
            total = math.fsum(partials)
            if _violated(spec, total):
                violated = True
                break
    # the reduced chain copies every other kept row from the source chain
    entries = {s for info in red.sccs if info.nontrivial for s in info.inputs}
    witnesses = [
        Witness(rail, mass, rail, mass)
        if entries.isdisjoint(rail[:-1])
        else Witness(rail, mass, *representant(red, rail))
        for rail, mass in found
    ]
    return TorrentCounterexample(
        witnesses=witnesses,
        total_mass=total,
        verdict="violated" if violated else "holds",
    )
