import numpy as np
import pytest

from railcheck import numerics
from railcheck.numerics import (
    ConvergenceError,
    SingularMatrixError,
    max_reach,
    prob0_states,
    solve_linear,
)


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
    x = max_reach(m0, {3, 4})
    assert x[3] == 1.0 and x[4] == 1.0
    assert abs(x[0] - 1.0) <= 1e-7
    # independent route: absorption probabilities by direct linear solve
    free = [0, 1, 2]
    q = np.array([[0.0, 0.4, 0.6], [0.0, 0.5, 0.0], [0.0, 0.0, 0.99]])
    r = np.array([0.0, 0.5, 0.01])
    exact = np.linalg.solve(np.eye(3) - q, r)
    assert np.allclose(x[free], exact, atol=1e-8)


def test_max_reach_trap(m0_trap):
    x = max_reach(m0_trap, {3, 4})
    assert x[5] == 0.0
    assert abs(x[0] - 0.8) <= 1e-7


def test_max_reach_picks_best_action(mdp2):
    x = max_reach(mdp2, {3})
    assert abs(x[0] - 0.8) <= 1e-10
    assert abs(x[1] - 0.3) <= 1e-10
    assert abs(x[2] - 0.8) <= 1e-10


def test_max_reach_empty_target(m0):
    assert np.all(max_reach(m0, set()) == 0.0)


def test_max_reach_iteration_budget(m0, monkeypatch):
    monkeypatch.setattr(numerics, "VI_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        max_reach(m0, {3, 4})
    assert err.value.iterations == 1
    assert err.value.residual > 0
