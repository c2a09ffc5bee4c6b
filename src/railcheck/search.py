"""Ranked rail enumeration and witness-set assembly.

The reduced chain is a DAG apart from absorbing self loops, so rails can be
streamed best-first with one lazily materialized sorted suffix stream per
state, merged along edges (the recursive enumeration scheme of Jiménez &
Marzal). An item is (m, -e, successor, successor's item index), the
successor None at a target, so it costs O(1); a rail costs its length
once, as it leaves the stream. Its mass m·2**e, m in [0.5, 1), is the
product of the steps right to left: a step multiplies its probability's
mantissa into the successor item's. In the normal float range that has
the bits of the float product, and below it nothing underflows. Exponents
are stored negated: masses are at most 1, so nearly all are small ints
that CPython shares. A state that cannot reach the target has an empty
stream and never enters a heap, so no separate liveness pass is needed.
Work is proportional to the rails consumed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .model import FinitePath, mc_row, split_mass
from .props import PropertySpec
from .rails import Witness, representant
from .transform import AcyclicReduction

_PENDING = object()  # a stream item that is not materialized yet


class SearchLimitError(RuntimeError):
    """Witness count exceeded the configured safety limit."""


class _SuffixStreams:
    """Per state, the paths to the first target hit, heaviest first.

    A state's stream pops from a heap of its successors' next items, each
    multiplied by the step to that successor, keyed (-e, -m, successor).
    `waiting` holds, last first, the successor items to push before the
    next pop: at the start all first items in edge order, later the
    follow-up of the item just popped. A heap holds one candidate per
    successor, so the successor settles equal masses.
    """

    def __init__(self, chain, targets: Set[int]):
        self.items: Dict[int, List[tuple]] = {}
        self.heaps: Dict[int, list] = {}
        self.waiting: Dict[int, List[Tuple[int, int, float, int]]] = {}
        for u in range(chain.num_states):
            self.heaps[u] = []
            if u in targets:
                self.items[u], self.waiting[u] = [(0.5, -1, None, 0)], []
                continue
            self.items[u], self.waiting[u] = [], []
            for t, p in reversed(mc_row(chain, u)):
                if t != u:
                    pm, pe = math.frexp(p)
                    self.waiting[u].append((t, 0, pm, -pe))

    def _peek(self, u: int, i: int):
        """Item i of u; None if u has fewer items, _PENDING if not yet known."""
        items = self.items[u]
        if i < len(items):
            return items[i]
        return _PENDING if self.heaps[u] or self.waiting[u] else None

    def item(self, u: int, i: int) -> Optional[tuple]:
        # A stack of requests, each waiting for the one above it, keeps the
        # DAG's depth off the call stack.
        requests = [(u, i)]
        while requests:
            v, k = requests[-1]
            items, heap, waiting = self.items[v], self.heaps[v], self.waiting[v]
            if len(items) > k:
                # there already; `waiting` is left for the next pop, as
                # resolving it here would materialize successor items
                # that resolve theirs, down the whole DAG
                requests.pop()
            elif waiting:
                t, j, pm, npe = waiting[-1]
                nxt = self._peek(t, j)
                if nxt is _PENDING:
                    requests.append((t, j))
                    continue
                waiting.pop()
                if nxt is not None:
                    m, ne = pm * nxt[0], npe + nxt[1]
                    if m < 0.5:  # exact: the product of two mantissas is at least 1/4
                        m += m
                        ne += 1
                    heapq.heappush(heap, (ne, -m, t, j, pm, npe))
            elif not heap:
                requests.pop()
            else:
                ne, m, t, j, pm, npe = heapq.heappop(heap)
                items.append((-m, ne, t, j))
                waiting.append((t, j + 1, pm, npe))
        return self._peek(u, i)


def ranked_rails(
    red: AcyclicReduction, targets: Iterable[int]
) -> Iterator[Tuple[FinitePath, float, int]]:
    """Rails from the initial state to the first target hit, heaviest
    first, as (rail, mass, exp): the rail's mass is mass·2**exp, with exp
    0 unless it lies below the normal float range. Rounding to nearest is
    monotone, so each stream is sorted by exactly the masses it reports;
    equal masses come in the order of their successors.

    The stream of a state that cannot reach the target is empty, whether
    it is absorbing or leads into a dead region, so the rails are the
    same with or without the probability-zero states made absorbing."""
    s0 = red.chain.initial
    streams = _SuffixStreams(red.chain, set(targets))
    for i in itertools.count():
        item = streams.item(s0, i)
        if item is None:
            return
        rail, (m, ne, t, j) = [s0], item
        while t is not None:
            rail.append(t)
            _, _, t, j = streams.items[t][j]
        yield (tuple(rail), *split_mass(m, -ne))


@dataclass
class TorrentCounterexample:
    witnesses: List[Witness]
    total_mass: float
    verdict: str  # "violated" or "holds"
    total_mass_exp: int = 0  # the total is total_mass·2**total_mass_exp


def _violated(spec: PropertySpec, mass: float, limit: float) -> bool:
    return mass > limit if spec.bound == "<=" else mass >= limit


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
    the witness masses at O(partials) per rail, not O(witnesses), capped
    at 1: rows may sum to 1 plus the parse tolerance, and a probability
    cannot, so a bound of 1 is never violated. The partials count in
    units of the heaviest rail's 2**exp, so masses below the float range
    add up too. The threshold and the cap in those units compare exactly;
    clamped below 2**1024 units, far beyond any sum of rails, they cannot
    overflow.

    Only rails through a nontrivial component's input before their last
    state need `representant`; any other rail is its own representant,
    and its mass is the same right-to-left product of the same rows.
    """
    found: List[Tuple[FinitePath, float, int]] = []
    partials: List[float] = []
    total, scale = 0.0, 0
    violated = _violated(spec, total, spec.threshold)
    if not violated:
        for rail, mass, exp in ranked_rails(red, targets):
            if max_witnesses is not None and len(found) >= max_witnesses:
                raise SearchLimitError(
                    f"bound still undecided after {max_witnesses} witnesses"
                )
            if not found:  # the heaviest rail sets the units
                scale = exp
                limit, one = (math.ldexp(m, min(e - exp, 1024))
                              for m, e in (math.frexp(spec.threshold), (0.5, 1)))
            found.append((rail, mass, exp))
            x = math.ldexp(mass, exp - scale)
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
            total = min(math.fsum(partials), one)
            if _violated(spec, total, limit):
                violated = True
                break
    # the reduced chain copies every other kept row from the source chain
    entries = {s for info in red.sccs if info.nontrivial for s in info.inputs}
    witnesses = [
        Witness(rail, mass, exp, rail, mass, exp)
        if entries.isdisjoint(rail[:-1])
        else Witness(rail, mass, exp, *representant(red, rail))
        for rail, mass, exp in found
    ]
    m, e = math.frexp(total)
    total, total_exp = split_mass(m, e + scale)
    verdict = "violated" if violated else "holds"
    return TorrentCounterexample(witnesses, total, verdict, total_exp)
