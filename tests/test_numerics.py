import numpy as np
import pytest

from railcheck.numerics import _PIVOT_TOL, SingularMatrixError, max_reach, prob0_states, solve_linear
from railcheck.scheduling import extract_max_scheduler
from railcheck.transform import acyclic_reduce, make_absorbing


def _values(mc, target):
    return max_reach(acyclic_reduce(make_absorbing(mc, target)), target)


def test_solve_linear_matches_numpy():
    rng = np.random.default_rng(321)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=(n, 1))
        assert np.allclose(solve_linear(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_solve_linear_multi_rhs():
    rng = np.random.default_rng(322)
    a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    b = rng.normal(size=(6, 3))
    x = solve_linear(a, b)
    assert x.shape == (6, 3)
    assert np.allclose(a @ x, b, atol=1e-10)


def test_solve_linear_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0], [2.0]]))


def test_prob0(m0, m0_trap):
    assert prob0_states(m0, {3, 4}) == set()
    assert prob0_states(m0_trap, {3, 4}) == {5}
    assert prob0_states(m0, {3}) == {2, 4}
    assert prob0_states(m0, set()) == {0, 1, 2, 3, 4}


def test_max_reach_m0(m0):
    x = _values(m0, {3, 4})
    assert x[3] == 1.0 and x[4] == 1.0
    assert abs(x[0] - 1.0) <= 1e-7
    # independent route: absorption probabilities by direct linear solve
    free = [0, 1, 2]
    q = np.array([[0.0, 0.4, 0.6], [0.0, 0.5, 0.0], [0.0, 0.0, 0.99]])
    r = np.array([0.0, 0.5, 0.01])
    exact = np.linalg.solve(np.eye(3) - q, r)
    assert np.allclose(x[free], exact, atol=1e-8)


def test_max_reach_trap(m0_trap):
    x = _values(m0_trap, {3, 4})
    assert x[5] == 0.0
    assert abs(x[0] - 0.8) <= 1e-7


def test_max_reach_picks_best_action(mdp2):
    _, _, x = extract_max_scheduler(mdp2, {3})
    assert abs(x[0] - 0.8) <= 1e-10
    assert abs(x[1] - 0.3) <= 1e-10
    assert abs(x[2] - 0.8) <= 1e-10


def test_max_reach_empty_target(m0):
    assert np.all(_values(m0, set()) == 0.0)


def _dense_elimination(a, b):
    # solve_linear before it skipped zero multipliers, verbatim: the oracle
    # for its bits and its singular pivots
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.hstack((a, b))
    scale = max(1.0, float(np.max(np.abs(a)))) if n else 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) <= _PIVOT_TOL * scale:
            raise SingularMatrixError(k)
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k:] -= np.outer(factors, aug[k, k:])
    x = np.zeros(b.shape)
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] - aug[k, k + 1 : n] @ x[k + 1 :]) / aug[k, k]
    return x


def _ring_block(rng, k, exits, leak=None):
    # I - Q and the exit columns as transform.scc_reach builds them for a
    # ring with chords, 2-3 successors per row. With `leak`, only member 0
    # has an exit, of that mass; without, member 0 and about one row in
    # five leak, so the block is regular.
    a = np.eye(k)
    b = np.zeros((k, exits))
    for s in range(k):
        inside = [(s + 1) % k] + [int(t) for t in rng.integers(0, k, size=int(rng.integers(1, 3)))]
        out = 0.0
        if leak is not None:
            out = leak if s == 0 else 0.0
        elif s == 0 or rng.random() < 0.2:
            out = float(rng.uniform(0.01, 0.5))
        w = rng.uniform(0.2, 1.0, len(inside))
        for t, p in zip(inside, (1.0 - out) * w / w.sum()):
            a[s, t] -= p
        if out:
            w = rng.uniform(0.2, 1.0, exits)
            b[s] += out * w / w.sum()
    return a, b


def test_solve_linear_bytes_match_dense_elimination():
    rng = np.random.default_rng(808)
    systems = [_ring_block(rng, k, int(rng.integers(1, 7))) for k in (1, 2, 3, 4, 400)]
    systems += [
        _ring_block(rng, int(k), int(rng.integers(1, 7)))
        for k in np.exp(rng.uniform(0.0, np.log(400), 40)).astype(int)
    ]
    for _ in range(10):
        n = int(rng.integers(1, 30))
        systems.append((rng.normal(size=(n, n)), rng.normal(size=(n, int(rng.integers(1, 7))))))
    for a, b in systems:
        assert solve_linear(a, b).tobytes() == _dense_elimination(a, b).tobytes()

    singular = [_ring_block(rng, int(rng.integers(2, 60)), 2, leak=0.0) for _ in range(10)]
    singular += [_ring_block(rng, int(rng.integers(3, 60)), 2, leak=e) for e in (1e-14, 1e-15) * 5]
    for a, b in singular:
        with pytest.raises(SingularMatrixError) as dense:
            _dense_elimination(a, b)
        with pytest.raises(SingularMatrixError) as sparse:
            solve_linear(a, b)
        assert sparse.value.pivot == dense.value.pivot
