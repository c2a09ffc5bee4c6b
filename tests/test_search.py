import itertools
import json
import math
from graphlib import TopologicalSorter

import numpy as np
import pytest

import make_golden
from conftest import (FIXTURES, diamond_chain_doc, layered_dag_doc, line_dag_doc, load_model, reduce_to_psi,
                      ring_chain_doc, star_chain_doc, successors)
import railcheck
from railcheck import rails, search
from railcheck.cli import run_check
from railcheck.model import cylinder_mass, cylinder_prob, mc_row, parse_model, split_mass
from railcheck.numerics import max_reach
from railcheck.oracle import enumerate_freach
from railcheck.props import Atom, PropertySpec, parse_property, sat_states
from railcheck.rails import rail_mass, representant
from railcheck.scheduling import extract_max_scheduler
from railcheck.search import SearchLimitError, most_indicative, ranked_rails
from railcheck.transform import acyclic_reduce, make_absorbing


def test_ranked_rails_m0(m0):
    red, psi = reduce_to_psi(m0)
    assert list(ranked_rails(red, psi)) == [((0, 2, 4), 0.6, 0), ((0, 1, 3), 0.4, 0)]


def test_ranked_rails_big1(big1):
    red, psi = reduce_to_psi(big1)
    assert list(ranked_rails(red, psi)) == [((0, 1, 3), 1.0, 0)]


def test_ranked_rails_fig5(fig5):
    red, psi = reduce_to_psi(fig5)
    got = list(ranked_rails(red, psi))
    assert [rail for rail, *_ in got] == [
        (0, 1, 9, 12),
        (0, 1, 10, 13),
        (0, 2, 5, 11, 14),
        (0, 2, 5, 14),
        (0, 2, 6, 11, 14),
        (0, 2, 6, 14),
    ]
    masses = [mass for _, mass, _ in got]
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
        got = [(rail, mass) for rail, mass, _ in ranked_rails(red, psi)]
        assert {rail for rail, _ in got} == {path for path, _ in expected}
        masses = [mass for _, mass in got]
        assert masses == sorted(masses, reverse=True)
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
    assert [rail for rail, *_ in ranked_rails(red, psi)] == [(0, 1, 3), (0, 2, 3)]


def test_near_ties_fall_back_to_state_order():
    # Masses 1e-13 apart come heaviest first. Suffixes one ulp apart whose
    # products with the same step round to one mass tie exactly, and then
    # the successor's index decides, although nb's suffix is heavier.
    def stream(pa, pb, qa, qb):
        rows = {"n0": {"na": pa, "nb": pb, "nx": 1.0 - pa - pb}, "na": {"nt": qa, "nx": 1.0 - qa},
                "nb": {"nt": qb, "nx": 1.0 - qb}, "nt": {"nt": 1.0}, "nx": {"nx": 1.0}}
        doc = {
            "states": list(rows),
            "initial": "n0",
            "labels": {"nt": ["psi"]},
            "transitions": {s: [{t: p for t, p in row.items() if p > 0.0}] for s, row in rows.items()},
        }
        red, psi = reduce_to_psi(parse_model(json.dumps(doc)))
        return list(ranked_rails(red, psi))

    near = stream(0.49999999999995, 0.50000000000005, 1.0, 1.0)
    assert near == [((0, 2, 3), 0.50000000000005, 0), ((0, 1, 3), 0.49999999999995, 0)]
    assert 0.375 * 0.9 == 0.375 * 0.9000000000000001
    tied = stream(0.375, 0.375, 0.9, 0.9000000000000001)
    assert tied == [((0, 1, 3), 0.375 * 0.9, 0), ((0, 2, 3), 0.375 * 0.9, 0)]


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


def test_max_prob_is_max_reach_bit_for_bit(mc_corpus, dag_corpus, mdp_corpus):
    # The stream's first pass sums each state's value as max_reach does,
    # over rows that reach only kept states, so the initial state's value
    # keeps its bits, and so does that of every state the pass gives an
    # item; P<0 breaks the bound before any rail is taken.
    cases = [(red, psi) for _, psi, red, _ in mc_corpus + dag_corpus]
    for m in mdp_corpus:  # the reduction policy iteration ends on
        psi = sat_states(m, Atom("psi"))
        cases.append((extract_max_scheduler(m, psi)[1], psi))
    for m, psi, _, _ in mc_corpus[:60] + dag_corpus:
        reached, stack = {m.initial}, [m.initial]
        while stack:
            for t in successors(m, stack.pop()) - reached:
                reached.add(t)
                stack.append(t)
        # the initial state in the target; dead, with or without a target
        for target in (psi | {m.initial}, set(range(m.num_states)) - reached, set()):
            cases.append((acyclic_reduce(make_absorbing(m, target)), target))
    seen, firsts = set(), 0
    for red, psi in cases:
        values = max_reach(red, psi)
        streams = search._SuffixStreams(red, psi)
        for u, items in enumerate(streams.items):
            if items:
                assert streams.value[u].hex() == float(values[u]).hex()
                firsts += 1
        want = values[red.chain.initial]
        seen.add(float(want) if want in (0.0, 1.0) else None)
        for bound, threshold in (("<", 0.0), ("<=", 0.5), ("<=", 1.0)):
            out = most_indicative(red, PropertySpec(bound, threshold, Atom("psi")), psi)
            assert out.max_prob.hex() == float(want).hex()
    assert seen == {0.0, 1.0, None}
    assert firsts > 2 * len(cases)


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


def _fsum_reference(sums, scale, exhausted, spec):
    """What most_indicative reports for a stream whose prefix k sums to
    sums[k - 1] correctly rounded, in units of 2**scale: (witness count,
    verdict, total_mass, total_mass_exp), or None if the bound is still
    undecided after len(sums) rails and the stream goes on."""
    def violated(total, limit):
        return total > limit if spec.bound == "<=" else total >= limit

    if violated(0.0, spec.threshold):
        return 0, "violated", 0.0, 0
    m, e = math.frexp(spec.threshold)
    limit, one = math.ldexp(m, min(e - scale, 1024)), math.ldexp(0.5, min(1 - scale, 1024))
    verdict = "holds"
    for k, total in enumerate(sums, 1):
        total = min(total, one)
        if violated(total, limit):
            verdict = "violated"
            break
    else:
        if not exhausted:
            return None
    m, e = math.frexp(total)
    return (k, verdict, *split_mass(m, e + scale))


def _sum_chains(family, dag_corpus, mc_corpus):
    """The chains of one family, and how many rails to read of each."""
    if family == "corpus":
        return [(red, psi) for _, psi, red, _ in dag_corpus + mc_corpus[::4]], 5000
    if family == "layered":  # 2**12 rails: the guard's room doubles a dozen times
        m = parse_model(json.dumps(layered_dag_doc(np.random.default_rng(2323), 12)))
        psi = sat_states(m, Atom("goal"))
        return [(acyclic_reduce(make_absorbing(m, psi)), psi)], 5000
    # 2200 rings: the rails are about 1000 states long, and the heaviest
    # 40 weigh about 2**-1057 each, below the float range
    return [reduce_to_psi(parse_model(json.dumps(ring_chain_doc(np.random.default_rng(2424), 2200))))], 40


@pytest.mark.parametrize("family", ["corpus", "layered", "ring"])
def test_float_running_sum_crosses_where_fsum_prefixes_do(family, dag_corpus, mc_corpus):
    # The running sum adds floats while it is certified below the
    # threshold. Thresholds one ulp below, at and above the exact prefix
    # sums must still stop the stream where the correctly rounded prefix
    # sums cross them, under < and <=: at the first rails, in the middle,
    # at the last, and at the first prefixes a plain float sum gets wrong.
    chains, cap = _sum_chains(family, dag_corpus, mc_corpus)
    for red, psi in chains:
        stream = ranked_rails(red, psi)
        masses = [(mass, exp) for _, mass, exp in itertools.islice(stream, cap)]
        exhausted = next(stream, None) is None
        if not masses:
            continue
        scale = masses[0][1]
        assert (scale != 0) == (family == "ring")
        xs = [math.ldexp(mass, exp - scale) for mass, exp in masses]
        sums = [math.fsum(xs[:k]) for k in range(1, len(xs) + 1)]
        wrong = (k for k, (a, b) in enumerate(zip(itertools.accumulate(xs), sums), 1) if a != b)
        ks = {1, 2, len(xs) // 2, len(xs) - 1, len(xs), *itertools.islice(wrong, 5)}
        thresholds = {1.0, 0.0}
        for k in ks & set(range(1, len(xs) + 1)):
            at = math.ldexp(sums[k - 1], scale)
            thresholds |= {math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)}
        specs = [PropertySpec(bound, t, Atom("psi")) for t in thresholds if t >= 0.0 for bound in ("<", "<=")]
        for spec in specs:
            want = _fsum_reference(sums, scale, exhausted, spec)
            if want is None:
                with pytest.raises(SearchLimitError):
                    most_indicative(red, spec, psi, max_witnesses=len(xs))
                continue
            out = most_indicative(red, spec, psi, max_witnesses=len(xs))
            assert (len(out.witnesses), out.verdict, out.total_mass, out.total_mass_exp) == want, spec


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
            rep = (w.representant, w.representant_prob, w.representant_prob_exp)
            assert rep == representant(red, w.rail)
            assert w.representant_prob == cylinder_prob(red.origin, w.representant)
        skipped = len(out.witnesses) - (len(calls) - before)
        # exactly those are the rail itself, whose name list the report reuses
        assert sum(w.representant is w.rail for w in out.witnesses) == skipped
        shortcut += skipped
    assert calls and shortcut > 0


def test_representant_searches_each_crossing_once(monkeypatch):
    # Ring chains at P<=0.5 list hundreds to thousands of witnesses that
    # cross a few dozen (input, output) pairs of components between them:
    # the check searches each distinct pair once and keeps it with the
    # reduction.
    calls = []
    best_escape = rails._best_escape

    def counted(rows, members, src, dst):
        calls.append((src, dst))
        return best_escape(rows, members, src, dst)

    monkeypatch.setattr(rails, "_best_escape", counted)
    for seed, rings in ((6, 8), (7, 12), (8, 14)):
        m = parse_model(json.dumps(ring_chain_doc(np.random.default_rng(seed), rings)))
        red, psi = reduce_to_psi(m)
        calls.clear()
        out = most_indicative(red, parse_property("P<=0.5 [ F psi ]"), psi)
        assert out.verdict == "violated" and len(out.witnesses) > 100
        crossings = [
            (u, t)
            for w in out.witnesses
            for u, t in zip(w.rail, w.rail[1:])
            if red.comps.nontrivial[red.scc_of[u]]
        ]
        assert sorted(calls) == sorted(set(crossings))
        assert set(red.crossings) == set(crossings)
        assert len(crossings) > 5 * len(calls)


def test_witness_representants_equal_a_fresh_search(mc_corpus, mdp_corpus):
    # Every witness's representant and its probability, assembled from the
    # crossings the reduction keeps, equal `representant` on a fresh
    # reduction, whose table is empty, and the cylinder mass of the
    # representant: on the chain corpus, the final reductions of policy
    # iteration, and deep ring chains whose representants fall below the
    # float range.
    cases = [(red, psi, "P<=1 [ F psi ]") for _, psi, red, _ in mc_corpus]
    for m in mdp_corpus:
        psi = {m.num_states - 2}
        cases.append((extract_max_scheduler(m, psi)[1], psi, "P<=1 [ F psi ]"))
    for seed, rings in ((11, 1600), (12, 2000)):
        m = parse_model(json.dumps(ring_chain_doc(np.random.default_rng(seed), rings)))
        cases.append((*reduce_to_psi(m), "P<=0 [ F psi ]"))
    deep = searched = 0
    for red, psi, prop in cases:
        out = most_indicative(red, parse_property(prop), psi)
        fresh = acyclic_reduce(red.origin)
        for w in out.witnesses:
            rep = (w.representant, w.representant_prob, w.representant_prob_exp)
            assert rep == representant(fresh, w.rail)
            assert rep[1:] == cylinder_mass(red.origin, w.representant)
            deep += w.representant_prob_exp < -1021
            searched += w.representant != w.rail
    assert deep == 2 and searched > 100


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
        mass = math.fsum(mass for _, mass, _ in rails)
        for threshold in (1.0, float(rng.uniform(0.0, mass))):
            spec = PropertySpec("<=", threshold, Atom("psi"))
            assert most_indicative(raw, spec, psi) == most_indicative(absorbing, spec, psi)
        dead_kept += sum(
            raw.chain.actions[s] != absorbing.chain.actions[s] for s in raw.kept
        )
    assert dead_kept > 0


@pytest.mark.parametrize("make, sizes", [(diamond_chain_doc, (5, 40, 150)), (ring_chain_doc, (3, 30, 120))])
def test_first_rail_materializes_one_item_per_state(make, sizes):
    # An item already in a stream is served without resolving the
    # follow-up of its pop, which would cascade down the DAG: the first
    # rail costs at most one item per state of the reduced chain.
    rng = np.random.default_rng(1313)
    for size in sizes:
        m = parse_model(json.dumps(make(rng, size)))
        red, psi = reduce_to_psi(m)
        streams = search._SuffixStreams(red, psi)
        first = streams.item(red.chain.initial, 0)
        assert first is not None and first[2] == next(iter(ranked_rails(red, psi)))[0][1]
        assert max(len(items) for items in streams.items) == 1


def _rail_counts(chain, targets):
    """Per state, its rails: by dynamic programming over the reduced DAG."""
    succ = [[t for t, _ in mc_row(chain, u) if t != u] for u in range(chain.num_states)]
    memo = {}

    def rails(u):
        if u not in memo:
            memo[u] = 1 if u in targets else sum(rails(t) for t in succ[u])
        return memo[u]

    return [rails(u) for u in range(chain.num_states)]


def test_exhausted_stream_materializes_each_rail_once(dag_corpus, mc_corpus):
    # A state's items are its own rails, and each ends some rail from the
    # initial state. So once that stream runs out, every reachable state
    # holds one item per rail from it: none twice, none past its end. A
    # state the initial state cannot reach holds at most one item: a
    # target's, or the first item phase 1 gives it, if it lies at or
    # before the initial state in the reduction's order (an input of a
    # component the initial state reaches, entered from elsewhere).
    unreached_firsts = 0

    def check(red, psi):
        nonlocal unreached_firsts
        streams = search._SuffixStreams(red, psi)
        s0, rails = red.chain.initial, 0
        while streams.item(s0, rails) is not None:
            rails += 1
        want = _rail_counts(red.chain, psi)
        assert rails == want[s0] > 0
        reached, _ = _reached_live(red.chain, psi)
        passed = set(red.order[: red.order.index(s0) + 1])
        assert [len(items) for items in streams.items] == [
            n if u in reached else min(n, int(u in psi or u in passed)) for u, n in enumerate(want)
        ]
        unreached_firsts += sum(1 for u in passed - reached - set(psi) if want[u])

    for _, psi, red, _ in dag_corpus + mc_corpus:
        check(red, psi)
    rng = np.random.default_rng(1414)
    for spread in (None, 0, 10):
        for levels in range(1, 10):
            check(*reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, spread)))))
    assert unreached_firsts > 0


def _exact_key(chain, rail):
    """A rail's order in the stream, heaviest first, and its mass as
    (m, e): per state, the suffix mass from there as an independent
    right-to-left mantissa product, then the next state."""
    key, m, e = [], 0.5, 1
    for s, t in reversed(list(zip(rail, rail[1:]))):
        pm, pe = math.frexp(dict(mc_row(chain, s))[t])
        m, k = math.frexp(pm * m)
        e += pe + k
        key.append((-e, -m, t))
    return key[::-1], m, e


def _as_reported(rail, m, e):
    return (rail, math.ldexp(m, e), 0) if e > -1022 else (rail, m, e)


def _all_rails(chain, targets, start=None):
    """Every path from start, by default the initial state, to the first target hit."""
    rails, stack = [], [(chain.initial if start is None else start,)]
    while stack:
        rail = stack.pop()
        if rail[-1] in targets:
            rails.append(rail)
        else:
            stack.extend(rail + (t,) for t, _ in mc_row(chain, rail[-1]) if t != rail[-1])
    return rails


def _assert_brute_force_order(red, psi):
    keyed = sorted((_exact_key(red.chain, rail), rail) for rail in _all_rails(red.chain, psi))
    want = [_as_reported(rail, m, e) for (_, m, e), rail in keyed]
    assert want and list(ranked_rails(red, psi)) == want
    assert all(mass == rail_mass(red, rail) for rail, mass, _ in want)


def test_pointer_stream_matches_brute_force(mc_corpus, dag_corpus):
    # All rails of small chains, sorted by their exact masses, equal ones
    # by successor: the stream's order, and its masses are the float
    # products, right to left, that `rail_mass` takes.
    for _, psi, red, _ in mc_corpus + dag_corpus:
        _assert_brute_force_order(red, psi)
    rng = np.random.default_rng(1010)
    for rings in (2, 3, 5):
        _assert_brute_force_order(*reduce_to_psi(parse_model(json.dumps(ring_chain_doc(rng, rings)))))
    for rings in (8, 20):  # too many rails to enumerate: the first 300 ascend in the order
        red, psi = reduce_to_psi(parse_model(json.dumps(ring_chain_doc(rng, rings))))
        got = list(itertools.islice(ranked_rails(red, psi), 300))
        keys = [_exact_key(red.chain, rail) for rail, _, _ in got]
        assert got == [_as_reported(rail, m, e) for (rail, _, _), (_, m, e) in zip(got, keys)]
        assert len(keys) == 300 and all(a[0] < b[0] for a, b in zip(keys, keys[1:]))
    for spread in (0, 1, 10):
        for levels in (1, 2, 5, 9):
            _assert_brute_force_order(*reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, spread)))))
    # past about 1075 fair levels a float mass underflows; the stream's
    # masses do not, and every rail ties, so the rails come in state order
    red, psi = reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, 1100, 0))))
    got = list(itertools.islice(ranked_rails(red, psi), 100))
    assert got == [_as_reported(rail, *_exact_key(red.chain, rail)[1:]) for rail, _, _ in got]
    assert got[0][1:] == (0.5, -1099)
    assert [rail for rail, _, _ in got] == sorted(rail for rail, _, _ in got)


def _successors(chain):
    return [[t for t, _ in mc_row(chain, u) if t != u] for u in range(chain.num_states)]


def _reached_live(chain, targets):
    """The states the initial state reaches before it hits a target, and
    those of them that reach one, by a search of their own."""
    succ = _successors(chain)
    reached, stack = {chain.initial}, [chain.initial]
    while stack:
        u = stack.pop()
        if u not in targets:
            new = set(succ[u]) - reached
            reached |= new
            stack.extend(new)
    live = set()
    # successors first: the reached part of the chain is a DAG but for self loops
    for u in TopologicalSorter({u: [] if u in targets else succ[u] for u in reached}).static_order():
        if u in targets or not live.isdisjoint(succ[u]):
            live.add(u)
    return reached, live


@pytest.mark.parametrize("make, sizes", [(diamond_chain_doc, (5, 50, 500, 3333)), (ring_chain_doc, (3, 30, 300, 2500))])
def test_one_rail_check_builds_no_heap(make, sizes, monkeypatch):
    # P<=0 stops after the first rail: the stream gives the first item of
    # each state the initial state reaches, and only of those, and starts
    # no state's heap.
    made = []

    class Recorded(search._SuffixStreams):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_SuffixStreams", Recorded)
    rng = np.random.default_rng(1515)
    for size in sizes:
        red, psi = reduce_to_psi(parse_model(json.dumps(make(rng, size))))
        out = most_indicative(red, PropertySpec("<=", 0.0, Atom("psi")), psi)
        assert out.verdict == "violated" and len(out.witnesses) == 1
        streams = made.pop()
        reached, live = _reached_live(red.chain, psi)
        assert [len(items) for items in streams.items] == [
            int(u in psi or u in live) for u in range(red.chain.num_states)]
        assert all(heap is None for u, heap in enumerate(streams.heaps) if u not in psi)
        assert reached <= set(red.order[: red.order.index(red.chain.initial) + 1])


def test_first_items_are_the_least_suffixes(mc_corpus, dag_corpus):
    # Each reached state's first item is the least `_exact_key` of all
    # its suffixes; a state that reaches no target has none.
    def check(red, psi):
        streams = search._SuffixStreams(red, psi)
        streams.item(red.chain.initial, 0)
        reached, _ = _reached_live(red.chain, psi)
        for u in reached - set(psi):
            keyed = [_exact_key(red.chain, path) for path in _all_rails(red.chain, psi, u)]
            if keyed:
                key, m, e = min(keyed)
                assert list(streams.items[u]) == [(m, -e, key[0][2], 0)]
            else:
                assert not streams.items[u]

    for _, psi, red, _ in mc_corpus[:40] + dag_corpus:
        check(red, psi)
    rng = np.random.default_rng(1616)
    for rings in (2, 3, 5):
        check(*reduce_to_psi(parse_model(json.dumps(ring_chain_doc(rng, rings)))))
    for spread in (None, 0, 10):
        for levels in (1, 3, 8):
            check(*reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, spread)))))


@pytest.mark.parametrize("levels, spread", [(1100, 0), (1100, 10), (2000, None)])
def test_first_items_below_the_float_range(levels, spread):
    # A diamond of 1100 levels has 2**1100 rails, and its masses fall
    # below the float range, as those of 2000 unfair levels do. Rounding
    # is monotone, so a state's least suffix is its step to some
    # successor followed by that successor's least suffix: from the
    # target back, each state's least key is the least of `_exact_key`'s
    # step onto each successor's.
    rng = np.random.default_rng(1717)
    red, psi = reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, spread))))
    chain = red.chain
    streams = search._SuffixStreams(red, psi)
    streams.item(chain.initial, 0)
    reached, _ = _reached_live(chain, psi)
    succ = _successors(chain)
    least = {u: (0.5, 1) for u in psi}  # per state, its least suffix's mass as (m, e)
    for u in TopologicalSorter({u: [] if u in psi else succ[u] for u in reached}).static_order():
        if u not in psi:
            steps = []
            for t, p in mc_row(chain, u):
                pm, pe = math.frexp(p)
                m, k = math.frexp(pm * least[t][0])
                e = least[t][1] + pe + k
                steps.append(((-e, -m, t), m, e))
            (_, _, t), m, e = min(steps)
            least[u] = (m, e)
            assert list(streams.items[u]) == [(m, -e, t, 0)]
    assert least[chain.initial][1] < -1021


def _rails_of(streams, u):
    """The rails of u's items so far, in stream order, read off the items."""
    rails = []
    for _, _, t, j in streams.items[u]:
        rail = [u]
        while t is not None:
            rail.append(t)
            _, _, t, j = streams.items[t][j]
        rails.append(tuple(rail))
    return rails


def _drain(streams, u):
    i = 0
    while streams.item(u, i) is not None:
        i += 1


def test_stream_items_do_not_depend_on_request_order(mc_corpus, dag_corpus):
    # A request leaves the follow-up of its pop in the state's one slot,
    # whoever asked. So inner states' items requested first, partly and in
    # any interleaving, leave every stream as requests from the initial
    # state alone do, and each state's stream is all its rails.
    rng = np.random.default_rng(1818)

    def check(red, psi):
        chain, s0 = red.chain, red.chain.initial
        fresh = search._SuffixStreams(red, psi)
        _drain(fresh, s0)
        reached, live = _reached_live(chain, psi)
        inner = sorted(live - {s0} - set(psi))
        for _ in range(3):
            streams = search._SuffixStreams(red, psi)
            asked = {u: 0 for u in inner}
            for u in rng.choice(inner, size=4 * len(inner)) if inner else ():
                if streams.item(int(u), asked[u]) is not None:
                    asked[u] += 1
            _drain(streams, s0)
            assert _rails_of(streams, s0) == [rail for rail, _, _ in ranked_rails(red, psi)]
            for u in rng.permutation(inner):
                _drain(streams, int(u))
            for u in reached:
                assert list(streams.items[u]) == list(fresh.items[u])
                assert sorted(_rails_of(streams, u)) == sorted(_all_rails(chain, psi, u))

    for _, psi, red, _ in mc_corpus[:40] + dag_corpus:
        check(red, psi)
    for rings in (2, 3, 5):
        check(*reduce_to_psi(parse_model(json.dumps(ring_chain_doc(rng, rings)))))


def _reduce_goal(doc):
    m = parse_model(json.dumps(doc))
    goal = sat_states(m, Atom("goal"))
    return acyclic_reduce(make_absorbing(m, goal)), goal


def _sweep_states(red, streams):
    """The states the sweep builds streams for, as `ranked_rails` picks them."""
    s0, count = red.chain.initial, streams.count
    return [v for v in red.order[: red.order.index(s0) + 1] if 0 < count[v] <= count[s0]]


def _swept(red, psi):
    """Every rail as the sweep reads it, whatever its guard would say, and
    the states it builds streams for."""
    streams = search._SuffixStreams(red, set(psi), 2 ** 62)
    assert streams.count[red.chain.initial] < 2 ** 62
    states = _sweep_states(red, streams)
    return search._sweep(red, streams, states), states


def _deep_doc(rng, depth, levels, spread=None):
    """A line of `depth` states, each stepping on with 2**-29 and to a
    trap otherwise, into `diamond_chain_doc(rng, levels, spread)`: few
    rails, of masses 2**(-29 * depth) and below."""
    dia = diamond_chain_doc(rng, levels, spread)
    names = ["d%d" % i for i in range(depth)]
    rows = {"trap": [{"trap": 1.0}]}
    for a, b in zip(names, names[1:] + [dia["initial"]]):
        rows[a] = [{b: 2.0 ** -29, "trap": 1.0 - 2.0 ** -29}]
    return {"states": names + ["trap"] + dia["states"], "initial": names[0], "labels": dia["labels"],
            "transitions": {**rows, **dia["transitions"]}}


def test_sweep_agrees_with_the_lazy_stream(mc_corpus, dag_corpus, mdp_corpus):
    # The sweep builds each reached state's whole stream in arrays; rail
    # for rail it gives the lazy stream's rails, masses to the bit and
    # exponents, in its order, equal masses by successor and then by index.
    # The states up to the initial one in the reduction's order may include
    # some it does not reach, whose streams are built too, unread.
    unreached = 0

    def check(red, psi):
        nonlocal unreached
        lazy = list(ranked_rails(red, psi))
        swept, states = _swept(red, psi)
        unreached += len(set(states) - _reached_live(red.chain, psi)[0])
        assert [rail for rail, _, _ in swept] == [rail for rail, _, _ in lazy]
        assert [(mass.hex(), exp) for _, mass, exp in swept] == [(mass.hex(), exp) for _, mass, exp in lazy]
        assert all(type(mass) is float and type(exp) is int for _, mass, exp in swept)
        return lazy

    for name in sorted(p.name for p in FIXTURES.glob("*.json")):
        m = load_model(name)
        for label in ("psi", "goal"):
            psi = sat_states(m, Atom(label))
            check(extract_max_scheduler(m, psi)[1] if m.num_states != m.rows.num_dists
                  else acyclic_reduce(make_absorbing(m, psi)), psi)
    for _, psi, red, _ in mc_corpus + dag_corpus:
        check(red, psi)
    for m in mdp_corpus:  # the reduction policy iteration ends on
        psi = sat_states(m, Atom("psi"))
        check(extract_max_scheduler(m, psi)[1], psi)
    m = load_model("m0.json")  # the initial state in the target, and no target
    for target in ({m.initial}, set()):
        assert check(acyclic_reduce(make_absorbing(m, target)), target) == ([((0,), 1.0, 0)] if target else [])
    rng = np.random.default_rng(2020)
    for levels in (1, 4, 9):  # every rail ties at spread 0
        lazy = check(*reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, 0)))))
        assert len({mass for _, mass, _ in lazy}) == 1 and len(lazy) == 2 ** levels
    exps = []  # 3 times 64 rails each from 2**-1015, 2**-1044 and 2**-1798 down
    for depth in (35, 36, 62):
        for spread in (None, 0, 10):
            lazy = check(*reduce_to_psi(parse_model(json.dumps(_deep_doc(rng, depth, 6, spread)))))
            exps += [exp for _, _, exp in lazy]
    assert 0 < exps.count(0) < 192 and sum(-1075 < exp < 0 for exp in exps) > 192 and min(exps) < -1075
    check(*_reduce_goal(layered_dag_doc(rng, 9)))
    check(*reduce_to_psi(parse_model(json.dumps(ring_chain_doc(rng, 4)))))
    assert unreached > 0


class _Sweeps:
    """Records the sweeps `ranked_rails` runs, by their rail counts."""

    def __init__(self, monkeypatch):
        self.rails = []
        original = search._sweep

        def sweep(*args):
            rails = original(*args)
            self.rails.append(len(rails))
            return rails

        monkeypatch.setattr(search, "_sweep", sweep)


def _dag_file(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_guard_at_the_witness_cap(tmp_path, monkeypatch):
    # A bound the value shows holding sweeps when every rail fits under
    # the cap; one rail more and the lazy stream hits the cap, exiting 2
    # as before.
    sweeps = _Sweeps(monkeypatch)
    doc = layered_dag_doc(np.random.default_rng(2121), 10)
    path = _dag_file(tmp_path, doc)
    red, goal = _reduce_goal(doc)
    rails = 2 ** 10
    out = most_indicative(red, parse_property("P<=1 [ F goal ]"), goal, max_witnesses=rails)
    assert out.verdict == "holds" and len(out.witnesses) == rails and sweeps.rails == [rails]
    with pytest.raises(SearchLimitError, match=f"bound still undecided after {rails - 1} witnesses"):
        most_indicative(red, parse_property("P<=1 [ F goal ]"), goal, max_witnesses=rails - 1)
    assert sweeps.rails == [rails]
    code, report = run_check(path, "P<=1 [ F goal ]", max_witnesses=rails)
    assert code == 0 and len(report["witnesses"]) == rails and sweeps.rails == [rails] * 2
    code, report = run_check(path, "P<=1 [ F goal ]", max_witnesses=rails - 1)
    assert (code, report) == (2, {"error": {"stage": "searching", "message":
                                            f"bound still undecided after {rails - 1} witnesses"}})
    assert sweeps.rails == [rails] * 2


def test_sweep_guard_leaves_the_lazy_stream(tmp_path, mc_corpus, monkeypatch):
    # Violated bounds read the stream in part, and shapes of few items per
    # state, a star of 10**4 leaves and a line of 10**4 states into 8
    # rails, cost more swept; none of them sweeps.
    sweeps = _Sweeps(monkeypatch)
    rng = np.random.default_rng(2222)
    red, goal = _reduce_goal(layered_dag_doc(rng, 10))
    for prop in ("P<=0.3 [ F goal ]", "P<0 [ F goal ]", "P<=0 [ F goal ]"):
        assert most_indicative(red, parse_property(prop), goal).verdict == "violated"
    for _, psi, red, rails in mc_corpus:
        mass = math.fsum(mass for _, mass in rails)
        assert most_indicative(red, PropertySpec("<", mass / 2, Atom("psi")), psi).verdict == "violated"
    for doc, rails in ((star_chain_doc(rng, 10 ** 4), 10 ** 4), (line_dag_doc(rng, 10 ** 4, 3), 8)):
        code, report = run_check(_dag_file(tmp_path, doc), "P<=1 [ F goal ]")
        assert code == 0 and len(report["witnesses"]) == rails
    assert sweeps.rails == []


def test_ring_chain_998_stays_lazy(monkeypatch, tmp_path):
    # 2.4e67 rails, far above the cap: the golden case exits 2 with its bytes.
    sweeps = _Sweeps(monkeypatch)
    gen = make_golden.load_gen()
    path = tmp_path / "ring998.json"
    path.write_text(json.dumps(gen.ring_chain(np.random.default_rng(1), 998)))
    golden = json.loads(make_golden.GOLDEN.read_text())
    want = golden["cases"]["ring998/P<=0.99 [ F goal ]"]
    got = make_golden.digest(str(path), "P<=0.99 [ F goal ]", {"max_witnesses": 1000})
    exact = make_golden.versions() == {k: golden[k] for k in ("python", "numpy")}
    keys = ("exit", "verdict", "witnesses") + (("json", "text") if exact else ())
    assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
    assert got["exit"] == 2 and sweeps.rails == []


def test_rail_counts_saturate_at_the_cap(mc_corpus, dag_corpus, monkeypatch, tmp_path):
    # Phase 1 counts each state's rails, the cap where they are more: a
    # count is exact below the cap, so a chain whose rails grow
    # exponentially along the order keeps small counts. A state past the
    # initial one in the reduction's order counts 0, a target 1. Ring
    # chain 998's 2.4e67 rails count 1001 under a cap of 1000 witnesses,
    # and the check stays lazy.
    for _, psi, red, _ in mc_corpus + dag_corpus:
        want = _rail_counts(red.chain, psi)
        passed = set(red.order[: red.order.index(red.chain.initial) + 1])
        for cap in (1, 2, 5, 32, 2 ** 62):
            assert search._SuffixStreams(red, set(psi), cap).count == [
                min(n, cap) if u in passed or u in psi else 0 for u, n in enumerate(want)]
    sweeps, made = _Sweeps(monkeypatch), []

    class Recorded(search._SuffixStreams):
        def __init__(self, red, targets, cap=1):
            super().__init__(red, targets, cap)
            made.append((cap, self.count))

    monkeypatch.setattr(search, "_SuffixStreams", Recorded)
    path = tmp_path / "ring998.json"
    path.write_text(json.dumps(make_golden.load_gen().ring_chain(np.random.default_rng(1), 998)))
    code, report = run_check(str(path), "P<=1 [ F goal ]", max_witnesses=1000)
    assert (code, report["error"]["message"]) == (2, "bound still undecided after 1000 witnesses")
    [(cap, count)] = made
    assert cap == 1001 and max(count) == 1001 and sweeps.rails == []


def test_the_sweep_streams_through_the_module_global(monkeypatch):
    # bench/spans.py counts rails by rebinding every module attribute that
    # is search.ranked_rails to a wrapping generator; a sweep reached any
    # other way would stream rails the tracer never counts.
    sweeps = _Sweeps(monkeypatch)
    original, seen = search.ranked_rails, []

    def wrapper(*args, **kwargs):
        for rail in original(*args, **kwargs):
            seen.append(rail)
            yield rail

    for mod in (search, railcheck):
        if getattr(mod, "ranked_rails", None) is original:
            monkeypatch.setattr(mod, "ranked_rails", wrapper)
    red, goal = _reduce_goal(layered_dag_doc(np.random.default_rng(2323), 10))
    out = most_indicative(red, parse_property("P<=1 [ F goal ]"), goal, max_witnesses=10 ** 6)
    assert out.verdict == "holds" and sweeps.rails == [len(out.witnesses)] == [2 ** 10]
    assert seen == [(w.rail, w.mass, w.mass_exp) for w in out.witnesses]
