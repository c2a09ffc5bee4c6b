"""Ranked rail enumeration and witness-set assembly.

The reduced chain is a DAG apart from absorbing self loops, so rails can be
streamed best-first with one lazily materialized sorted suffix stream per
state, merged along edges: the recursive enumeration algorithm of Jiménez
& Marzal, in its two phases. One pass over the reduction's kept states,
successors first, up to the initial state gives each state the initial
state reaches its first item; a state's heap of candidates is built on
its second request. The streams are lists indexed by state. An
item is (m, -e, successor, successor's item index), the successor None at
a target, and costs one request: a request names only a state, as it
always wants that state's next item, and a state holds at most one
follow-up, the successor item to push before its next pop. A rail costs
its length once, as it leaves the stream. Its mass m·2**e, m in [0.5, 1),
is the product of the steps right to left: a step multiplies its
probability's mantissa into the successor item's. In the normal float
range that has the bits of the float product, and below it nothing
underflows. Exponents are stored negated: masses are at most 1, so nearly
all are small ints that CPython shares. A state that cannot reach the
target has an empty stream and never enters a heap, so no separate
liveness pass is needed. The first pass also sums each state's value, its
probability of reaching the target, and counts its rails, up to a cap.
Work is one pass over the kept states of the components the initial state
reaches, then proportional to the rails consumed.

A bound that holds reads the stream to its end, and an exhausted stream
holds every rail of every state the initial state reaches. So when the
value shows the bound holding and the rails fit under the witness cap,
which the counts tell, and the streams hold many items per state, they
are built whole in numpy arrays, one sort per state, in place of a few
heap operations per item (`_sweep`). The lazy phase 2
stays for a stream read in part, as a violated bound reads it, and for
shapes of few items per state, where the sweep's fixed cost per state
loses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .model import FinitePath, offsets, ranges, split_mass, split_masses
from .props import PropertySpec
from .rails import Witness, representant
from .transform import AcyclicReduction


class SearchLimitError(RuntimeError):
    """Witness count exceeded the configured safety limit."""


class _SuffixStreams:
    """Per state, the paths to the first target hit, heaviest first, in
    the two phases of the recursive enumeration algorithm.

    `items`, `heaps`, `waiting`, `value` and `count` are lists indexed by
    state. Phase 1 runs when the streams are built and gives a state its
    first item, its value and its rail count: one pass over the
    reduction's `order`, successors first, up to the initial state, in
    which each state takes the least key (-e, -m, successor) over its
    successors' first items, each multiplied by the step to that
    successor, sums their counts, a target's being 1, and sums its row
    times its successors' values, the probabilities of reaching the
    target. Counts saturate at `cap`, so stay small where rails grow
    exponentially along the order; one under the cap is exact. A state the
    pass leaves without an item cannot reach the target, or lies past the
    initial state, and its value and count stay 0. Until its second
    request a state's stream is a tuple of that one item: a tuple of
    numbers leaves the cyclic collector's lists, so the pass adds nothing
    for a full collection to walk. Phase 2 starts at the second request:
    the stream becomes a list, the heap (None until then) holds the first
    candidates of the state's other successors, and `waiting` the
    follow-up of the one it took. `waiting` is one slot per state: None,
    or the follow-up of the item last popped as (successor, index of its
    next item, the step's mantissa and negated exponent). A pop fills the
    slot; the state's next request pushes that item onto the heap, or
    empties the slot if the successor's stream is exhausted, before it
    pops. A heap holds one candidate per successor, so the successor
    settles equal masses. A request names just a state, as a stream is
    only asked for its next item, and is done once that item is appended:
    the follow-up it leaves in `waiting` waits for the state's next
    request instead of resolving down the DAG.
    """

    def __init__(self, red: AcyclicReduction, targets: Set[int], cap: int = 1):
        n, rows = red.chain.num_states, red.chain.rows
        # the rows' list form, shared with max_reach, and every entry's
        # mantissa and negated exponent; distribution u is state u's row
        pm, pe = np.frexp(rows.prob)
        self.succ: List[int] = rows.succ_list
        self.pm: List[float] = pm.tolist()
        self.npe: List[int] = (-pe).tolist()
        del pm, pe  # freed before phase 1 runs
        self.at: List[int] = rows.entry_list
        self.prob: List[float] = rows.prob_list
        self.value: List[float] = [0.0] * n  # set by phase 1, 0 where it leaves no item
        self.count: List[int] = [0] * n  # likewise
        self.items: List[Sequence[tuple]] = [()] * n
        self.heaps: List[Optional[list]] = [None] * n
        self.waiting: List[Optional[Tuple[int, int, float, int]]] = [None] * n
        self.targets = targets
        for u in targets:
            self.items[u] = ((0.5, -1, None, 0),)
            self.heaps[u] = []
            self.value[u], self.count[u] = 1.0, 1
        self._first_items(red.order, red.chain.initial, cap)

    def _first_items(self, order: Sequence[int], s0: int, cap: int) -> None:
        """Phase 1, in order up to s0: each state folds its successors'
        first items into the least key in edge order and sums their
        counts; a state that takes an item then sums its row times its
        successors' values, as `max_reach` does."""
        items, succ, pms, npes, at = self.items, self.succ, self.pm, self.npe, self.at
        prob, value, count, fsum = self.prob, self.value, self.count, math.fsum
        value_at = value.__getitem__
        for v in order:
            if not items[v]:  # else v is a target
                a, end = at[v], at[v + 1]
                bm, bne, bt, c = 0.0, 0, None, 0
                for k in range(a, end):
                    t = succ[k]
                    t_items = items[t]
                    if t_items:  # else t is dead, or t is v
                        c += count[t]
                        m, ne, _, _ = t_items[0]
                        m *= pms[k]
                        ne += npes[k]
                        if m < 0.5:  # exact: the product of two mantissas is at least 1/4
                            m += m
                            ne += 1
                        # the key (-e, -m, t): rows are sorted by target, so
                        # on a tie the successor found first stays
                        if bt is None or ne < bne or ne == bne and m > bm:
                            bm, bne, bt = m, ne, t
                if bt is not None:
                    items[v] = ((bm, bne, bt, 0),)
                    count[v] = c if c < cap else cap
                    # max_reach's sum and cap; v's own self loop reads its value as 0
                    x = fsum(map(mul, prob[a:end], map(value_at, succ[a:end])))
                    value[v] = x if x <= 1.0 else 1.0
            if v == s0:
                return

    def _start_heap(self, v: int) -> list:
        """Phase 2's start: v's heap of the first candidates of its
        successors but the one its first item took, whose follow-up waits."""
        items, succ, pms, npes = self.items, self.succ, self.pm, self.npe
        items[v] = list(items[v])
        took = items[v][0][2]
        heap = []
        for k in range(self.at[v], self.at[v + 1]):
            t = succ[k]
            t_items = items[t]
            if t == v or not t_items:
                continue
            pm, npe = pms[k], npes[k]
            if t == took:
                self.waiting[v] = (t, 1, pm, npe)
                continue
            m, ne, _, _ = t_items[0]
            m *= pm
            ne += npe
            if m < 0.5:
                m += m
                ne += 1
            heap.append((ne, -m, t, 0, pm, npe))
        heapq.heapify(heap)
        self.heaps[v] = heap
        return heap

    def item(self, u: int, i: int) -> Optional[tuple]:
        """Item i of u, None if u has fewer; u has at least i items."""
        items, heaps, waiting = self.items, self.heaps, self.waiting
        assert i <= len(items[u]), "items are requested in order"
        if i < len(items[u]):
            return items[u][i]
        if i == 0:  # phase 1 left u without an item
            return None
        # A stack of states, each waiting for the next item of the one
        # above it, keeps the DAG's depth off the call stack.
        pushpop, pop = heapq.heappushpop, heapq.heappop
        requests = [u]
        while requests:
            v = requests[-1]
            heap = heaps[v]
            if heap is None:
                heap = self._start_heap(v)
            w = waiting[v]
            if w is not None:
                t, j, pm, npe = w
                t_items = items[t]
                if j < len(t_items):  # push the follow-up and pop at once
                    requests.pop()
                    m, ne, _, _ = t_items[j]
                    m *= pm
                    ne += npe
                    if m < 0.5:  # exact: the product of two mantissas is at least 1/4
                        m += m
                        ne += 1
                    # keys differ in the successor, so pops come in one order
                    ne, m, t, j, pm, npe = pushpop(heap, (ne, -m, t, j, pm, npe))
                    items[v].append((-m, ne, t, j))
                    waiting[v] = (t, j + 1, pm, npe)
                    continue
                if heaps[t] is None or heaps[t] or waiting[t] is not None:
                    requests.append(t)  # the successor's next item first
                    continue
                waiting[v] = None  # t's stream is exhausted
            requests.pop()
            if heap:
                ne, m, t, j, pm, npe = pop(heap)
                items[v].append((-m, ne, t, j))
                waiting[v] = (t, j + 1, pm, npe)
        return items[u][i] if i < len(items[u]) else None


# A sweep pays about 15 numpy calls per state it builds a stream for, the
# lazy stream a few heap operations per item it materializes. On a 2-vCPU
# VM they broke even at 16-17 items per state (a line of 3000 states into
# 16 rails, a layered DAG of 8 layers). At 32 per state the sweep took
# 0.55 of the lazy stream's time, at 293 (dag-many-rails' biggest DAG)
# 0.25, and at 2 and 8 (a star of 10**4 leaves, a line of 10**4 states
# into 8 rails) 1.2 to 1.8 times it. So a sweep runs only where the
# states it builds hold twice the break-even number of items on average.
_SWEEP_ITEMS = 32


def _sweep(red: AcyclicReduction, streams: _SuffixStreams,
           states: List[int]) -> List[Tuple[FinitePath, float, int]]:
    """Every rail from the initial state, heaviest first, as `ranked_rails`
    yields them, read off every stream built whole in numpy arrays.

    `streams` holds the rows, each step's mantissa and negated exponent
    and each state's rail count. `states` lists, successors first, every
    state the initial state reaches that has a rail, and possibly other
    states whose successors it lists too; its counts are exact, under the
    streams' cap. State v's stream is the count[v] items from start[v] on
    of three flat arrays: each item's mantissa, its negated exponent, and
    the flat index of the successor item it extends, -1 at a target. A
    state concatenates its successors' streams in row order, multiplies
    each item by the step as `_SuffixStreams.item` does, and sorts them
    stably by (negated exponent, -mantissa): the order the heap pops,
    equal masses by successor and then by index. Then the pointers are
    walked one step at a time for all rails not yet at their target."""
    n, succ, at, count = red.chain.num_states, red.chain.rows.succ, streams.at, streams.count
    pm, npe = np.asarray(streams.pm), np.asarray(streams.npe)
    sizes = np.array([count[v] for v in states], dtype=np.int64)
    bounds = offsets(sizes)
    start, size = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)  # size 0 if dead
    start[states], size[states] = bounds[:-1], sizes
    mant = np.empty(bounds[-1])
    nexp, link = np.empty(bounds[-1], dtype=np.int64), np.empty(bounds[-1], dtype=np.int64)
    for v, a, b in zip(states, bounds.tolist(), bounds[1:].tolist()):
        if v in streams.targets:
            mant[a], nexp[a], link[a] = 0.5, -1, -1
        else:
            lo, hi = at[v], at[v + 1]
            c = size[succ[lo:hi]]
            idx = ranges(start[succ[lo:hi]], c)
            m, e = np.frexp(mant[idx] * pm[lo:hi].repeat(c))  # exact doubling below 1/2
            ne = nexp[idx] + (npe[lo:hi].repeat(c) - e)
            order = np.lexsort((-m, ne))
            mant[a:b], nexp[a:b], link[a:b] = m[order], ne[order], idx[order]
    s0 = red.chain.initial
    a = int(start[s0])
    b = a + count[s0]
    mass, exp = split_masses(mant[a:b], -nexp[a:b])
    owner = np.repeat(states, sizes)
    lens = np.ones(b - a, dtype=np.int64)
    steps, ids, cur = [], np.arange(b - a), link[a:b]
    while True:
        going = cur >= 0
        ids, cur = ids[going], cur[going]
        if not len(ids):
            break
        steps.append((ids, owner[cur]))
        lens[ids] += 1
        cur = link[cur]
    rail_at = offsets(lens)
    flat = np.empty(rail_at[-1], dtype=np.int64)
    flat[rail_at[:-1]] = s0
    for depth, (ids, visited) in enumerate(steps, 1):
        flat[rail_at[ids] + depth] = visited
    flat, rail_at = flat.tolist(), rail_at.tolist()
    rails = [tuple(flat[x:y]) for x, y in zip(rail_at, rail_at[1:])]
    return list(zip(rails, mass.tolist(), exp.tolist()))


def ranked_rails(
    red: AcyclicReduction, targets: Iterable[int], *, _streams: Optional[_SuffixStreams] = None,
    _sweep_limit: Optional[int] = None,
) -> Iterator[Tuple[FinitePath, float, int]]:
    """Rails from the initial state to the first target hit, heaviest
    first, as (rail, mass, exp): the rail's mass is mass·2**exp, with exp
    0 unless it lies below the normal float range. Rounding to nearest is
    monotone, so each stream is sorted by exactly the masses it reports;
    equal masses come in the order of their successors.

    Building the streams costs one pass over the kept states of the
    components the initial state reaches; each rail, the requests it
    makes.

    The stream of a state that cannot reach the target is empty, whether
    it is absorbing or leads into a dead region, so the rails are the
    same with or without the probability-zero states made absorbing.

    `_streams`, unread streams of red's chain and targets with a cap above
    `_sweep_limit`, saves building them again.

    `_sweep_limit` is for a caller that reads every rail if there are at
    most that many: `most_indicative`, when the value shows the bound
    holds. Phase 1 also counts each state's rails, up to the cap, and if
    the initial state has at most `_sweep_limit` and the states up to it
    in the reduction's order hold at least `_SWEEP_ITEMS` items each on
    average, `_sweep` builds every stream whole, as exhausting the lazy
    stream would, at a fixed number of numpy calls per state in place of
    heap operations and a pointer walk per item. Either way the rails,
    masses and order are the same; phase 2 stays for a stream read in
    part, as a violated bound reads it."""
    s0 = red.chain.initial
    streams = _streams or _SuffixStreams(red, set(targets), 1 if _sweep_limit is None else _sweep_limit + 1)
    count = streams.count
    # no state s0 reaches has more rails than s0, so with fewer than
    # _SWEEP_ITEMS there the sweep cannot pay. States up to s0 in order add only
    # inputs entered from elsewhere, swept unread; counts up to s0's are exact
    if _sweep_limit is not None and _SWEEP_ITEMS <= count[s0] <= _sweep_limit:
        states = [v for v in red.order[: red.order.index(s0) + 1] if 0 < count[v] <= count[s0]]
        inner = [count[v] for v in states if v not in streams.targets]
        if sum(inner) >= _SWEEP_ITEMS * len(inner):
            yield from _sweep(red, streams, states)
            return
    items = streams.items
    for i in itertools.count():
        item = streams.item(s0, i)
        if item is None:
            return
        rail, (m, ne, t, j) = [s0], item
        while t is not None:
            rail.append(t)
            _, _, t, j = items[t][j]
        yield (tuple(rail), *split_mass(m, -ne))


@dataclass
class TorrentCounterexample:
    witnesses: List[Witness]
    total_mass: float
    verdict: str  # "violated" or "holds"
    max_prob: float  # the probability of reaching the target, capped at 1
    total_mass_exp: int = 0  # the total is total_mass·2**total_mass_exp


def _violated(spec: PropertySpec, mass: float, limit: float) -> bool:
    return mass > limit if spec.bound == "<=" else mass >= limit


def _add_exact(partials: List[float], x: float) -> None:
    """Add x to Shewchuk's non-overlapping partials, in place."""
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

    The running sum is a plain float sum of the masses, in units of the
    heaviest rail's 2**exp so that masses below the float range add up
    too, until it comes near the threshold; from there it is exact:
    Shewchuk's non-overlapping partials, as in the math.fsum recipe, built
    once from the rails so far. Either way total_mass is the correctly
    rounded sum of the witness masses, capped at 1: rows may sum to 1
    plus the parse tolerance, and a probability cannot, so a bound of 1
    is never violated. The threshold and the cap in those units compare
    exactly; clamped below 2**1024 units, far beyond any sum of rails,
    they cannot overflow.

    The float sum `fast` stands in while it lies below guard =
    fl(limit·(1 - 4·room·u)), u = 2**-53, where room is at least the rail
    count k: it becomes twice the count whenever the count passes it.
    Recursive summation of k non-negative terms errs by at most γ(k-1)·S,
    γ(j) = j·u/(1 - j·u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §4.2), so the exact sum S of the first k masses
    is at most fast/(1 - γ(k-1)). Below 2**-1022 the float sum is exact,
    each addition landing on the subnormal grid, so S = fast < guard <=
    limit. Else guard is normal: at most limit·(1 - 4·room·u)/(1 - u),
    also where the product rounds up to the least normal, and limit's
    predecessor is at least limit·(1 - 2u). As 4·room >= 2k + 1,
    S < limit·(1 - 2u), so S rounds below limit. Under `<` and `<=` alike
    no such prefix reaches the threshold, and its rail costs one addition
    and one comparison.

    max_prob is the initial state's value, summed by the first pass of
    the rail stream, which runs even if the bound breaks at no rail.

    Only rails through a nontrivial component's input before their last
    state need `representant`; any other rail is its own representant,
    and its mass is the same right-to-left product of the same rows.
    """
    targets = set(targets)
    streams = _SuffixStreams(red, targets, 1 if max_witnesses is None else max_witnesses + 1)
    max_prob = streams.value[red.chain.initial]
    found: List[Tuple[FinitePath, float, int]] = []
    partials: Optional[List[float]] = None  # None while the float sum is certified
    total, scale, fast, guard, room = 0.0, 0, 0.0, 0.0, 0
    ldexp = math.ldexp
    violated = _violated(spec, total, spec.threshold)
    if not violated:
        # a bound the value shows holding reads every rail, or its cap's worth
        sweep_limit = None if _violated(spec, max_prob, spec.threshold) else max_witnesses
        for rail, mass, exp in ranked_rails(red, targets, _streams=streams, _sweep_limit=sweep_limit):
            count = len(found)
            if max_witnesses is not None and count >= max_witnesses:
                raise SearchLimitError(
                    f"bound still undecided after {max_witnesses} witnesses"
                )
            if not count:  # the heaviest rail sets the units
                scale = exp
                limit, one = (math.ldexp(m, min(e - exp, 1024))
                              for m, e in (math.frexp(spec.threshold), (0.5, 1)))
            found.append((rail, mass, exp))
            x = ldexp(mass, exp - scale)
            if partials is None:
                fast += x
                if count >= room:  # count + 1 rails passed room
                    room = 2 * (count + 1)
                    guard = limit * (1.0 - room * 2.0 ** -51)
                if fast < guard:
                    continue
                partials = []
                for _, m, e in itertools.islice(found, count):
                    _add_exact(partials, ldexp(m, e - scale))
            _add_exact(partials, x)
            total = min(math.fsum(partials), one)
            if _violated(spec, total, limit):
                violated = True
                break
        if found and partials is None:  # the float sum was certified to the end
            total = min(math.fsum(ldexp(m, e - scale) for _, m, e in found), one)
    del streams  # the stream is done with: free it before the witnesses
    # the reduced chain copies every other kept row from the source chain;
    # a component that has no outputs keeps its inputs absorbing, so they
    # end a rail if they lie on one
    out_at = red.comps.output_at
    entries = set((red.comps.is_input & (out_at[1:] > out_at[:-1])[red.comps.of]).nonzero()[0].tolist())
    witnesses = [
        Witness(rail, mass, exp, rail, mass, exp)
        if not entries or entries.isdisjoint(rail[:-1])
        else Witness(rail, mass, exp, *representant(red, rail))
        for rail, mass, exp in found
    ]
    m, e = math.frexp(total)
    total, total_exp = split_mass(m, e + scale)
    verdict = "violated" if violated else "holds"
    return TorrentCounterexample(witnesses, total, verdict, max_prob, total_exp)
