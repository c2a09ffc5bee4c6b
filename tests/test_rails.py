import math
from collections import Counter

import numpy as np
import pytest

from conftest import reduce_to_psi, truncated_rail_mass
from railcheck.model import ModelError, cylinder_prob, mc_row
from railcheck.oracle import enumerate_freach
from railcheck.rails import Witness, behaves_as, generator_member, rail_mass, representant
from railcheck.search import ranked_rails


def test_fig5_verdicts(fig5):
    red, _ = reduce_to_psi(fig5)
    rail = (0, 2, 6, 14)
    # looping inside the component between matches is fine
    assert behaves_as(red, rail, (0, 2, 6, 14))
    assert behaves_as(red, rail, (0, 2, 6, 5, 8, 6, 14))
    assert behaves_as(red, rail, (0, 2, 6, 5, 8, 6, 5, 8, 6, 14))
    # first component visit happens at s5, not s6: freshness fails
    assert not behaves_as(red, rail, (0, 2, 5, 8, 6, 14))
    # s11 sits outside the component, between two matches: inertia fails
    assert not behaves_as(red, rail, (0, 2, 6, 11, 14))


def test_fig5_other_rails(fig5):
    red, _ = reduce_to_psi(fig5)
    assert behaves_as(red, (0, 2, 5, 14), (0, 2, 5, 8, 6, 14))
    assert not behaves_as(red, (0, 2, 5, 14), (0, 2, 6, 14))
    assert behaves_as(red, (0, 1, 9, 12), (0, 1, 3, 9, 12))
    assert behaves_as(red, (0, 1, 9, 12), (0, 1, 3, 4, 7, 1, 3, 9, 12))
    assert not behaves_as(red, (0, 1, 9, 12), (0, 1, 3, 4, 7, 10, 13))


def test_generator_requires_ending_at_the_match(m0):
    red, _ = reduce_to_psi(m0)
    assert generator_member(red, (0, 2, 4), (0, 2, 4))
    assert generator_member(red, (0, 2, 4), (0, 2, 2, 2, 4))
    assert not generator_member(red, (0, 2, 4), (0, 1, 3))
    assert not generator_member(red, (0, 2, 4), (0, 2, 2))
    assert generator_member(red, (0, 1, 3), (0, 1, 1, 3))


def test_rail_mass_m0(m0):
    red, _ = reduce_to_psi(m0)
    assert rail_mass(red, (0, 2, 4)) == 0.6
    assert rail_mass(red, (0, 1, 3)) == 0.4


def test_rail_mass_big1(big1):
    red, _ = reduce_to_psi(big1)
    assert rail_mass(red, (0, 1, 3)) == 1.0


def test_representant_m0(m0):
    red, _ = reduce_to_psi(m0)
    path, prob, exp = representant(red, (0, 2, 4))
    assert path == (0, 2, 4) and exp == 0
    assert prob == cylinder_prob(m0, path)
    path, prob, _ = representant(red, (0, 1, 3))
    assert path == (0, 1, 3)
    assert prob == 0.2


def test_representant_big1(big1):
    red, _ = reduce_to_psi(big1)
    path, prob, _ = representant(red, (0, 1, 3))
    assert path == (0, 1, 3)
    assert prob == 0.5


def test_representant_is_the_heaviest_generator(mc_corpus):
    for m, psi, red, rails in mc_corpus[:25]:
        paths, _ = enumerate_freach(red.origin, psi, 12)
        for rail, mass in rails:
            rep, rep_prob, _ = representant(red, rail)
            assert generator_member(red, rail, rep)
            assert rep_prob == cylinder_prob(red.origin, rep)
            best = [p for path, p in paths if generator_member(red, rail, path)]
            if best:
                assert rep_prob >= max(best) - 1e-12


def test_representant_errors_on_broken_rails(mc_corpus):
    # A rail cut after a random state u and sent on to a state w that u's
    # step cannot reach. From a trivial u, a non-edge raises the ModelError
    # `cylinder_mass` raises; from a component member, a state that no
    # path inside the component leads to raises the search's ValueError.
    # Either way the reduction's table of crossings keeps what it had.
    rng = np.random.default_rng(2323)
    faults = Counter()
    for m, _, red, rails in mc_corpus:
        origin = red.origin
        for rail, _ in rails[:3]:
            if len(rail) < 2:
                continue
            i = int(rng.integers(len(rail) - 1))
            u = rail[i]
            info = red.sccs[red.scc_of[u]]
            sources = info.members if info.nontrivial else {u}  # a component is strongly connected
            reached = {t for s in sources for t, _ in mc_row(origin, s)}
            bad = [w for w in range(m.num_states) if w not in reached and w != u]
            if not bad:
                continue
            w = bad[int(rng.integers(len(bad)))]
            representant(red, rail[: i + 1])  # the crossings before u are sound
            table = dict(red.crossings)
            with pytest.raises(ValueError) as err:
                representant(red, rail[: i + 1] + (w,))
            if info.nontrivial:
                assert type(err.value) is ValueError
                assert str(err.value) == f"no path from {u} to {w} inside the component"
            else:
                assert type(err.value) is ModelError
                assert str(err.value) == f"no transition {m.names[u]} -> {m.names[w]}"
            assert red.crossings == table
            faults[info.nontrivial] += 1
    assert faults[True] >= 20 and faults[False] >= 20


def test_each_path_generates_exactly_one_rail(fig5, mc_corpus):
    red5, psi5 = reduce_to_psi(fig5)
    cases = [(red5, psi5)] + [(red, psi) for _, psi, red, _ in mc_corpus[:10]]
    for red, psi in cases:
        rails = [rail for rail, *_ in ranked_rails(red, psi)]
        paths, _ = enumerate_freach(red.origin, psi, 10)
        assert paths
        for path, _ in paths:
            matches = [rail for rail in rails if generator_member(red, rail, path)]
            assert len(matches) == 1


def test_rails_are_prefix_free(mc_corpus):
    for _, psi, red, rails in mc_corpus[:25]:
        seqs = [rail for rail, _ in rails]
        for a in seqs:
            for b in seqs:
                if a != b:
                    assert a != b[: len(a)]


def test_rail_mass_equals_generator_mass(m0, big1):
    # the rail's product mass must agree with literal generator
    # enumeration cut at the same depth
    for m in (m0, big1):
        red, psi = reduce_to_psi(m)
        paths, _ = enumerate_freach(red.origin, psi, 20)
        for rail, mass, _ in ranked_rails(red, psi):
            literal = math.fsum(
                p for path, p in paths if generator_member(red, rail, path)
            )
            done, undecided = truncated_rail_mass(red, rail, max_steps=19)
            assert abs(done - literal) <= 1e-12
            assert abs(mass - done) <= undecided + 1e-12


def test_witness_is_an_immutable_value():
    w = Witness((0, 2, 4), 0.6, 0, (0, 2, 4), 0.6, 0)
    with pytest.raises(AttributeError):
        w.mass = 0.5
    assert w == Witness((0, 2, 4), 0.6, 0, (0, 2, 4), 0.6, 0) != w._replace(mass_exp=-1)
    assert hash(w) == hash(Witness((0, 2, 4), 0.6, 0, (0, 2, 4), 0.6, 0))
    assert len({w, w._replace(mass=0.6)}) == 1
    # a tuple: it unpacks and equals the plain tuple of its fields
    assert w == tuple(w) == ((0, 2, 4), 0.6, 0, (0, 2, 4), 0.6, 0)
