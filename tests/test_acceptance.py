"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states the tolerance it enforces; the random corpora come from
conftest and are fixed-seed, so every run checks the same models.
"""

import json
import math
import subprocess
import sys
import time
from bisect import bisect_right
from itertools import combinations

import numpy as np

from conftest import FIXTURES, diamond_chain_doc, reduce_to_psi, truncated_rail_mass
from railcheck.model import parse_model
from railcheck.numerics import max_reach
from railcheck.oracle import (
    brute_force_max_reach,
    enumerate_freach,
    monte_carlo_classify,
)
from railcheck.props import Atom, PropertySpec, parse_property
from railcheck.rails import behaves_as
from railcheck.scheduling import extract_max_scheduler, induced_mc
from railcheck.search import most_indicative, ranked_rails
from railcheck.cli import run_check


def test_criterion_01_witness_masses(m0):
    t0 = time.perf_counter()
    red, psi = reduce_to_psi(m0)
    ranked = list(ranked_rails(red, psi))
    code, report = run_check(
        str(FIXTURES / "m0.json"), "P<=0.5 [ F psi ]",
        dump_scc=False, verify=False, seed=42, max_witnesses=10 ** 6,
        tolerance=1e-9, with_timings=False,
    )
    elapsed = time.perf_counter() - t0
    masses = [mass for _, mass, _ in ranked]
    assert len(masses) == 2
    assert abs(masses[0] - 0.6) <= 1e-9
    assert abs(masses[1] - 0.4) <= 1e-9
    assert code == 1
    assert [w["mass"] for w in report["witnesses"]] == [masses[0]]
    assert elapsed < 0.1


def test_criterion_02_ranked_path_table(m0):
    t0 = time.perf_counter()
    paths, _ = enumerate_freach(m0, {3, 4}, 8)
    elapsed = time.perf_counter() - t0
    table = [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.006]
    assert len(paths) >= 7
    for (path, prob), want in zip(paths[:7], table):
        assert abs(prob - want) <= 1e-12
    assert elapsed < 0.1


def test_criterion_03_most_indicative_counterexample(m0):
    red, psi = reduce_to_psi(m0)
    out = most_indicative(red, parse_property("P<=0.5 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert len(out.witnesses) == 1

    out = most_indicative(red, parse_property("P<1 [ F psi ]"), psi)
    assert out.verdict == "violated"
    assert len(out.witnesses) == 2
    assert abs(out.total_mass - 1.0) <= 1e-9


def test_criterion_04_rail_mass_theorem(mc_corpus):
    assert len(mc_corpus) == 200
    t0 = time.perf_counter()
    for i, (m, psi, red, rails) in enumerate(mc_corpus):
        assert m.num_states <= 12
        for rail, mass in rails:
            settled, undecided = truncated_rail_mass(red, rail)
            assert abs(mass - settled) <= undecided + 1e-12
        run = monte_carlo_classify(
            red.origin, red, [rail for rail, _ in rails], 10 ** 5, seed=5000 + i
        )
        assert sum(run.classified.values()) + run.unclassified == run.count
        for rail, mass in rails:
            freq = run.classified.get(rail, 0) / run.count
            sigma = math.sqrt(max(mass * (1.0 - mass), 1e-12) / run.count)
            assert abs(freq - mass) <= 4.0 * sigma
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_reduction_preserves_the_value(mc_corpus):
    for m, psi, red, rails in mc_corpus:
        reduced = max_reach(red, psi)[red.chain.initial]
        assert abs(reduced - brute_force_max_reach(m, psi)) <= 1e-7


def test_criterion_06_scheduler_optimality(mdp_corpus, mdp2):
    assert len(mdp_corpus) == 100
    for m in mdp_corpus:
        psi = {m.num_states - 2}
        sched, _, values = extract_max_scheduler(m, psi)
        exact = brute_force_max_reach(m, psi)
        assert abs(values[m.initial] - exact) <= 1e-7
        assert abs(brute_force_max_reach(induced_mc(m, sched), psi) - exact) <= 1e-7
    assert brute_force_max_reach(mdp2, {3}) == 0.8


def test_criterion_07_torrent_membership_verdicts(fig5):
    red, _ = reduce_to_psi(fig5)
    rail = (0, 2, 6, 14)
    assert behaves_as(red, rail, (0, 2, 6, 5, 8, 6, 14))
    assert not behaves_as(red, rail, (0, 2, 5, 8, 6, 14))
    assert not behaves_as(red, rail, (0, 2, 6, 11, 14))


def test_criterion_08_single_heavy_component(big1):
    code, report = run_check(
        str(FIXTURES / "big1.json"), "P<=0.9 [ F psi ]",
        dump_scc=True, verify=False, seed=42, max_witnesses=10 ** 6,
        tolerance=1e-9, with_timings=False,
    )
    assert code == 1
    assert report["verdict"] == "violated"
    (w,) = report["witnesses"]
    assert abs(w["mass"] - 1.0) <= 1e-12
    entry = next(e for e in report["scc_table"] if e["nontrivial"])
    assert entry["reach"]["t->u"] == 1.0


def test_criterion_09_minimal_and_heaviest_witness_sets(dag_corpus):
    for m, psi, red, rails in dag_corpus:
        masses = [mass for _, mass in rails]
        assert 2 <= len(masses) <= 8
        threshold = 0.55 * math.fsum(masses)
        spec = PropertySpec(bound="<=", threshold=threshold, target=Atom("psi"))
        out = most_indicative(red, spec, psi)
        assert out.verdict == "violated"
        smallest, heaviest = None, None
        for size in range(1, len(masses) + 1):
            hits = [
                math.fsum(pick)
                for pick in combinations(masses, size)
                if math.fsum(pick) > threshold
            ]
            if hits:
                smallest, heaviest = size, max(hits)
                break
        assert len(out.witnesses) == smallest
        assert math.fsum(w.mass for w in out.witnesses) == heaviest


def test_criterion_09_on_near_ties():
    # Near-tied diamond chains, whose rails differ in their last few bits
    # and are all enumerated: every stream is sorted by the masses it
    # reports, and with random thresholds the witness set has the minimal
    # cardinality and, among sets of that size, the heaviest total.
    rng = np.random.default_rng(909)
    for _ in range(300):
        levels = int(rng.integers(2, 9))
        red, psi = reduce_to_psi(parse_model(json.dumps(diamond_chain_doc(rng, levels, 10))))
        masses = [mass for _, mass, _ in ranked_rails(red, psi)]
        assert len(masses) == 2 ** levels
        assert masses == sorted(masses, reverse=True)
        sums = [math.fsum(masses[:k]) for k in range(len(masses) + 1)]
        for threshold in rng.uniform(0.0, 0.999, 5):
            out = most_indicative(red, PropertySpec("<=", float(threshold), Atom("psi")), psi)
            smallest = bisect_right(sums, threshold)
            assert out.verdict == "violated"
            assert len(out.witnesses) == smallest
            assert out.total_mass == sums[smallest]


def test_criterion_10_byte_identical_reports():
    argv = [
        sys.executable, "-m", "railcheck", str(FIXTURES / "m0.json"),
        "--prop", "P<1 [ F psi ]", "--format", "json",
        "--verify", "--dump-scc", "--seed", "7",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 1 and second.returncode == 1
    assert first.stdout
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["verification"]["pass"] is True
