import heapq
import itertools
import json
import math

import numpy as np
import pytest

from conftest import diamond_chain_doc, reduce_to_psi
from railcheck import search
from railcheck.model import cylinder_prob, mc_row, parse_model
from railcheck.oracle import enumerate_freach
from railcheck.props import Atom, PropertySpec, parse_property, sat_states
from railcheck.rails import rail_mass, representant
from railcheck.search import (
    TIE_WINDOW,
    SearchLimitError,
    most_indicative,
    ranked_rails,
)
from railcheck.transform import acyclic_reduce, make_absorbing


def test_ranked_rails_m0(m0):
    red, psi = reduce_to_psi(m0)
    assert list(ranked_rails(red, psi)) == [((0, 2, 4), 0.6), ((0, 1, 3), 0.4)]


def test_ranked_rails_big1(big1):
    red, psi = reduce_to_psi(big1)
    assert list(ranked_rails(red, psi)) == [((0, 1, 3), 1.0)]


def test_ranked_rails_fig5(fig5):
    red, psi = reduce_to_psi(fig5)
    got = list(ranked_rails(red, psi))
    assert [rail for rail, _ in got] == [
        (0, 1, 9, 12),
        (0, 1, 10, 13),
        (0, 2, 5, 11, 14),
        (0, 2, 5, 14),
        (0, 2, 6, 11, 14),
        (0, 2, 6, 14),
    ]
    masses = [mass for _, mass in got]
    assert masses[0] == pytest.approx(1 / 3, abs=1e-12)
    assert masses[1] == pytest.approx(1 / 6, abs=1e-12)
    assert masses[2:] == [0.125, 0.125, 0.125, 0.125]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)


def test_ranked_rails_complete_and_ordered(mc_corpus):
    # the stream must produce exactly the reachable target paths of the
    # reduced chain, heaviest first; brute-force enumeration is the oracle
    for m, psi, red, rails in mc_corpus[:20]:
        expected, undecided = enumerate_freach(red.chain, psi, red.chain.num_states)
        assert undecided == 0.0
        got = list(ranked_rails(red, psi))
        assert {rail for rail, _ in got} == {path for path, _ in expected}
        masses = [mass for _, mass in got]
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))
        by_rail = dict(got)
        for path, prob in expected:
            assert by_rail[path] == pytest.approx(prob, abs=1e-12)


def test_equal_mass_rails_come_in_state_order():
    doc = {
        "states": ["d0", "da", "db", "dt"],
        "initial": "d0",
        "labels": {"dt": ["psi"]},
        "transitions": {
            "d0": [{"da": 0.5, "db": 0.5}],
            "da": [{"dt": 1.0}],
            "db": [{"dt": 1.0}],
            "dt": [{"dt": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    red, psi = reduce_to_psi(m)
    assert [rail for rail, _ in ranked_rails(red, psi)] == [(0, 1, 3), (0, 2, 3)]


def test_near_ties_fall_back_to_state_order():
    # masses differ by 1e-13, inside the tie window, so the state order
    # decides even though the first rail is marginally lighter
    doc = {
        "states": ["n0", "na", "nb", "nt"],
        "initial": "n0",
        "labels": {"nt": ["psi"]},
        "transitions": {
            "n0": [{"na": 0.49999999999995, "nb": 0.50000000000005}],
            "na": [{"nt": 1.0}],
            "nb": [{"nt": 1.0}],
            "nt": [{"nt": 1.0}],
        },
    }
    m = parse_model(json.dumps(doc))
    red, psi = reduce_to_psi(m)
    assert [rail for rail, _ in ranked_rails(red, psi)] == [(0, 1, 3), (0, 2, 3)]


def test_most_indicative_m0(m0):
    red, psi = reduce_to_psi(m0)
    out = most_indicative(red, parse_property("P<=0.5 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert [w.rail for w in out.witnesses] == [(0, 2, 4)]
    assert out.witnesses[0].mass == 0.6
    assert out.witnesses[0].representant == (0, 2, 4)
    assert out.total_mass == 0.6

    out = most_indicative(red, parse_property("P<1 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert [w.rail for w in out.witnesses] == [(0, 2, 4), (0, 1, 3)]
    assert out.total_mass == pytest.approx(1.0, abs=1e-9)

    out = most_indicative(red, parse_property("P<=0.99999 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert len(out.witnesses) == 2


def test_most_indicative_holds(m0):
    # only s3 counts; the stream exhausts below the bound and reports
    # what it accumulated
    red = acyclic_reduce(make_absorbing(m0, {3}))
    out = most_indicative(red, parse_property("P<=0.5 [ F x ]"), {3})
    assert out.verdict == "holds"
    assert [w.rail for w in out.witnesses] == [(0, 1, 3)]
    assert out.total_mass == 0.4


def test_strict_zero_bound_is_trivially_violated(m0):
    red, psi = reduce_to_psi(m0)
    out = most_indicative(red, parse_property("P<0 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert out.witnesses == []
    assert out.total_mass == 0.0


def test_strict_versus_weak_at_the_boundary(m0):
    red, psi = reduce_to_psi(m0)
    strict = most_indicative(red, parse_property("P<0.6 [ F psi ]"), psi)
    assert strict.verdict == "violated"
    assert len(strict.witnesses) == 1
    weak = most_indicative(red, parse_property("P<=0.6 [ F psi ]"), psi)
    assert weak.verdict == "violated"
    assert len(weak.witnesses) == 2



def test_running_sum_is_exact_at_the_boundary(dag_corpus, mc_corpus):
    # A threshold equal to the exact sum of the first k masses: the strict
    # bound is met by those k rails, the weak one needs one more. Products
    # round, so all rails of a chain can sum to 1 + 2^-52; the total is a
    # probability and stops at 1.
    checked = 0
    for _, psi, red, rails in dag_corpus + mc_corpus:
        masses = [mass for _, mass in rails]
        for k in range(3, len(masses)):
            threshold = math.fsum(masses[:k])
            strict = most_indicative(red, PropertySpec("<", threshold, Atom("psi")), psi)
            weak = most_indicative(red, PropertySpec("<=", threshold, Atom("psi")), psi)
            assert len(strict.witnesses) == k
            assert len(weak.witnesses) == k + 1
            for out in (strict, weak):
                assert out.verdict == "violated"
                assert out.total_mass == min(math.fsum(w.mass for w in out.witnesses), 1.0)
            checked += 1
    assert checked >= 10

def test_representant_shortcut_is_exact(dag_corpus, mc_corpus, monkeypatch):
    # Every rail is streamed. A rail with no nontrivial input before its
    # last state skips `representant`; its witness must still equal what
    # `representant` returns, float for float.
    calls = []

    def counted(red, rail):
        calls.append(rail)
        return representant(red, rail)

    monkeypatch.setattr(search, "representant", counted)
    shortcut = 0
    for _, psi, red, rails in dag_corpus + mc_corpus:
        before = len(calls)
        out = most_indicative(red, PropertySpec("<=", 1.0, Atom("psi")), psi)
        assert [(w.rail, w.mass) for w in out.witnesses] == rails
        for w in out.witnesses:
            assert (w.representant, w.representant_prob) == representant(red, w.rail)
            assert w.representant_prob == cylinder_prob(red.origin, w.representant)
        shortcut += len(out.witnesses) - (len(calls) - before)
    assert calls and shortcut > 0


def test_witness_cap(m0):
    red, psi = reduce_to_psi(m0)
    with pytest.raises(SearchLimitError, match="after 1 witnesses"):
        most_indicative(red, parse_property("P<=0.7 [ F psi ]"), psi, max_witnesses=1)
    # a violation inside the cap is unaffected
    out = most_indicative(red, parse_property("P<=0.5 [ F psi ]"), psi, max_witnesses=1)
    assert out.verdict == "violated"


def test_unreachable_target():
    doc = {
        "states": ["u0", "u1"],
        "initial": "u0",
        "labels": {"u1": ["psi"]},
        "transitions": {"u0": [{"u0": 1.0}], "u1": [{"u1": 1.0}]},
    }
    m = parse_model(json.dumps(doc))
    red, psi = reduce_to_psi(m)
    assert list(ranked_rails(red, psi)) == []
    out = most_indicative(red, parse_property("P<=0.3 [ F psi ]"), psi)
    assert out.verdict == "holds"
    assert out.witnesses == []


def _dead_region_doc(rng):
    """Rings of 1 to 4 live states leading forward to absorbing goals,
    plus dead regions: closed rings without a goal, and dead trees that
    hang off the live states and end in those rings."""
    sizes = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(2, 6)))]
    live = int(sum(sizes))
    goals = list(range(live, live + int(rng.integers(1, 3))))
    rings, start = [], goals[-1] + 1
    for k in rng.integers(2, 4, size=int(rng.integers(1, 3))):
        rings.append(list(range(start, start + int(k))))
        start += int(k)
    n = start + int(rng.integers(1, 6))
    trees = list(range(start, n))
    ring_states = [s for ring in rings for s in ring]
    rows = [None] * n
    start = 0
    for size in sizes:
        for j in range(size):
            out = [int(t) for t in rng.integers(start + size, goals[-1] + 1, size=int(rng.integers(1, 3)))]
            if size > 1:
                out.append(start + (j + 1) % size)
            if rng.random() < 0.5:
                out.append(int(rng.choice(trees + ring_states)))
            rows[start + j] = out
        start += size
    for g in goals:
        rows[g] = [g]
    for ring in rings:
        for j, s in enumerate(ring):
            rows[s] = [ring[(j + 1) % len(ring)], int(rng.choice(ring))]
    for i, s in enumerate(trees):
        rows[s] = [int(t) for t in rng.choice(trees[i + 1 :] + ring_states, size=2)]
    names = ["d%d" % s for s in range(n)]
    transitions = {}
    for s, targets in enumerate(rows):
        targets = sorted(set(targets))
        w = rng.uniform(0.2, 1.0, len(targets))
        transitions[names[s]] = [{names[t]: float(p) for t, p in zip(targets, w / w.sum())}]
    return {
        "states": names,
        "initial": names[0],
        "labels": {names[g]: ["psi"] for g in goals},
        "transitions": transitions,
    }


def test_dead_regions_need_no_absorbing():
    # The stream needs no liveness pass: on a reduction whose dead states
    # are not made absorbing, rails, masses and witnesses are the same as
    # on the reduction of the absorbing chain.
    rng = np.random.default_rng(606)
    dead_kept = 0
    for _ in range(60):
        m = parse_model(json.dumps(_dead_region_doc(rng)))
        psi = sat_states(m, Atom("psi"))
        raw = acyclic_reduce(m)
        absorbing = acyclic_reduce(make_absorbing(m, psi))
        rails = list(ranked_rails(absorbing, psi))
        assert rails and list(ranked_rails(raw, psi)) == rails
        mass = math.fsum(mass for _, mass in rails)
        for threshold in (1.0, float(rng.uniform(0.0, mass))):
            spec = PropertySpec("<=", threshold, Atom("psi"))
            assert most_indicative(raw, spec, psi) == most_indicative(absorbing, spec, psi)
        dead_kept += sum(
            raw.chain.actions[s] != absorbing.chain.actions[s] for s in raw.kept
        )
    assert dead_kept > 0


def _ring_chain_doc(rng, rings, size=4):
    # Rings of `size` states. A member moves on around its ring or exits
    # forward: member 0 to the next ring, the others to one of the next
    # three rings, and past the last ring to the target or a trap.
    names = ["r%d" % s for s in range(rings * size)] + ["goal", "trap"]
    rows = {"goal": [{"goal": 1.0}], "trap": [{"trap": 1.0}]}
    for ring in range(rings):
        for j in range(size):
            stay = float(rng.uniform(0.5, 0.7))
            ahead = ring + 1 + (int(rng.integers(3)) if j else 0)
            if ahead < rings:
                exit_to = names[ahead * size + int(rng.integers(size))]
            else:
                exit_to = "goal" if rng.random() < 0.7 else "trap"
            nxt = names[ring * size + (j + 1) % size]
            rows[names[ring * size + j]] = [{nxt: stay, exit_to: 1.0 - stay}]
    return {"states": names, "initial": names[0], "labels": {"goal": ["psi"]}, "transitions": rows}


@pytest.mark.parametrize("make, sizes", [(diamond_chain_doc, (5, 40, 150)), (_ring_chain_doc, (3, 30, 120))])
def test_first_rail_materializes_one_item_per_state(make, sizes):
    # An item already in a stream is served without resolving the
    # follow-up of its pop, which would cascade down the DAG: the first
    # rail costs at most one item per state of the reduced chain.
    rng = np.random.default_rng(1313)
    for size in sizes:
        m = parse_model(json.dumps(make(rng, size)))
        red, psi = reduce_to_psi(m)
        streams = search._SuffixStreams(red.chain, psi)
        first = streams.item(red.chain.initial, 0)
        assert first is not None and first[1] == next(iter(ranked_rails(red, psi)))[0][1]
        assert max(len(items) for items in streams.items.values()) == 1


# The stream before its items became pointers, verbatim but for the names:
# every item carried its whole path, and every rail's mass was read back
# with `rail_mass`. The oracle for the order, ties included, and the bits.

class _PathKey:
    """Heap ordering for candidate suffixes: by weight, except that weights
    within the tie window compare by state sequence instead."""

    __slots__ = ("weight", "path")

    def __init__(self, weight, path):
        self.weight = weight
        self.path = path

    def __lt__(self, other):
        if abs(self.weight - other.weight) <= TIE_WINDOW:
            return self.path < other.path
        return self.weight < other.weight


_PENDING = object()


class _PathSuffixStreams:
    def __init__(self, chain, targets):
        self.items = {}
        self.heaps = {}
        self.waiting = {}
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

    def _peek(self, u, i):
        items = self.items[u]
        if i < len(items):
            return items[i]
        return _PENDING if self.heaps[u] or self.waiting[u] else None

    def item(self, u, i):
        requests = [(u, i)]
        while requests:
            v, k = requests[-1]
            items, heap, waiting = self.items[v], self.heaps[v], self.waiting[v]
            if len(items) > k:
                requests.pop()
            elif waiting:
                t, j, w = waiting[-1]
                nxt = self._peek(t, j)
                if nxt is _PENDING:
                    requests.append((t, j))
                    continue
                waiting.pop()
                if nxt is not None:
                    heapq.heappush(heap, (_PathKey(w + nxt[0], nxt[1]), t, j, w))
            elif not heap:
                requests.pop()
            else:
                key, t, j, w = heapq.heappop(heap)
                items.append((key.weight, (v,) + key.path))
                waiting.append((t, j + 1, w))
        return self._peek(u, i)


def _path_ranked_rails(red, targets):
    targets = set(targets)
    chain = red.chain
    s0 = chain.initial

    def stream():
        streams = _PathSuffixStreams(chain, targets)
        for i in itertools.count():
            item = streams.item(s0, i)
            if item is None:
                return
            yield item[1], rail_mass(red, item[1])

    return stream()


def _assert_same_stream(red, psi, limit=None):
    got = list(itertools.islice(ranked_rails(red, psi), limit))
    assert got == list(itertools.islice(_path_ranked_rails(red, psi), limit))
    assert got and all(mass == rail_mass(red, rail) for rail, mass in got)


def test_pointer_stream_matches_path_stream(mc_corpus, dag_corpus):
    # Items hold a pointer to the successor's item instead of a path: the
    # same rails in the same order, near ties included, and every mass
    # the same left-to-right product `rail_mass` takes.
    for _, psi, red, _ in mc_corpus + dag_corpus:
        _assert_same_stream(red, psi)
    rng = np.random.default_rng(1010)
    for rings in (2, 3, 5, 8, 20):
        red, psi = reduce_to_psi(parse_model(json.dumps(_ring_chain_doc(rng, rings))))
        _assert_same_stream(red, psi, 300)
    for spread in (0, 1, 10):
        for levels in (1, 2, 5, 9):
            red, psi = reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, spread))))
            _assert_same_stream(red, psi)
    # masses underflow to 0 past about 1075 fair levels; the order is that
    # of the state sequences
    red, psi = reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, 1100, 0))))
    _assert_same_stream(red, psi, 100)
