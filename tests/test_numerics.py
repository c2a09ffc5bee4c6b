import numpy as np
import pytest

from railcheck.numerics import SingularMatrixError, max_reach, prob0_states, solve_linear
from railcheck.scheduling import extract_max_scheduler
from railcheck.transform import acyclic_reduce, make_absorbing


def _values(mc, target):
    return max_reach(acyclic_reduce(make_absorbing(mc, target)), target)


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


def _ring_block(rng, k, exits, leak=None):
    # the in-block probabilities and exit columns transform.scc_reach
    # builds for a ring with chords, 2-3 successors per row, self loops
    # included. With `leak`, only member 0 has an exit, of that mass;
    # without, member 0 and about one row in five leak.
    q = np.zeros((k, k))
    r = np.zeros((k, exits))
    for s in range(k):
        inside = [(s + 1) % k] + [int(t) for t in rng.integers(0, k, size=int(rng.integers(1, 3)))]
        out = 0.0
        if leak is not None:
            out = leak if s == 0 else 0.0
        elif s == 0 or rng.random() < 0.2:
            out = float(rng.uniform(0.01, 0.5))
        w = rng.uniform(0.2, 1.0, len(inside))
        for t, p in zip(inside, (1.0 - out) * w / w.sum()):
            q[s, t] += p
        if out:
            w = rng.uniform(0.2, 1.0, exits)
            r[s] += out * w / w.sum()
    return q, r


def _dense_reduction(q, r):
    # the state reduction of one block, every lower row updated: the
    # oracle for solve_linear's bits and singular pivots
    aug = np.hstack((q, r))
    n = len(aug)
    exits = np.zeros(n)
    for k in range(n):
        exits[k] = aug[k, k + 1 :].sum()
        if not exits[k] > 0.0:
            raise SingularMatrixError(k)
        aug[k + 1 :, k + 1 :] += (aug[k + 1 :, k] / exits[k])[:, None] * aug[k, k + 1 :]
    x = np.zeros(r.shape)
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n:] + aug[k, k + 1 : n] @ x[k + 1 :]) / exits[k]
    return x


def _stack(blocks):
    return np.stack([q for q, _ in blocks], axis=1), np.stack([r for _, r in blocks], axis=1)


def test_solve_linear_stacks_keep_each_blocks_bytes():
    # every block of a stack gets the bytes it gets alone, and those of
    # the dense loop
    rng = np.random.default_rng(812)
    for k in (1, 2, 4, 30, 400):
        for size in (1, 2, 300) if k < 400 else (1, 2):
            m = int(rng.integers(1, 7))
            blocks = [_ring_block(rng, k, m) for _ in range(size)]
            x = solve_linear(*_stack(blocks))
            assert x.shape == (k, size, m)
            for b, (q, r) in enumerate(blocks):
                alone = solve_linear(q, r)
                assert x[:, b].tobytes() == alone.tobytes() == _dense_reduction(q, r).tobytes()


def test_solve_linear_matches_numpy():
    rng = np.random.default_rng(808)
    sizes = [1, 2, 3, 4, 400] + list(np.exp(rng.uniform(0.0, np.log(400), 40)).astype(int))
    for k in sizes:
        q, r = _ring_block(rng, int(k), int(rng.integers(1, 7)))
        x = solve_linear(q, r)
        assert x.shape == r.shape
        assert np.max(np.abs(x - np.linalg.solve(np.eye(len(q)) - q, r))) <= 1e-12
        assert np.max(np.abs(x.sum(axis=1) - 1.0)) <= 1e-14


def test_solve_linear_leaky_rings():
    # every escape leaves through member 0, so each row is member 0's
    # split of its leak, however small the leak
    rng = np.random.default_rng(809)
    for leak in (1e-12, 1e-13, 1e-14, 1e-15) * 5:
        q, r = _ring_block(rng, int(rng.integers(3, 60)), int(rng.integers(1, 4)), leak=leak)
        x = solve_linear(q, r)
        assert np.max(np.abs(x - r[0] / r[0].sum())) <= 1e-12
        assert np.max(np.abs(x.sum(axis=1) - 1.0)) <= 1e-14


def test_solve_linear_ignores_the_diagonal():
    rng = np.random.default_rng(810)
    q, r = _ring_block(rng, 30, 3)
    x = solve_linear(q, r)
    np.fill_diagonal(q, rng.uniform(0.0, 1.0, len(q)))
    assert solve_linear(q, r).tobytes() == x.tobytes()


def test_solve_linear_singular():
    # a block with no exit keeps its mass forever
    rng = np.random.default_rng(811)
    for _ in range(10):
        q, r = _ring_block(rng, int(rng.integers(1, 60)), 2, leak=0.0)
        with pytest.raises(SingularMatrixError):
            solve_linear(q, r)


def test_solve_linear_singular_block_in_a_stack():
    # a block with no exit fails at the pivot it fails at alone, wherever
    # it sits among healthy blocks of its shape; the first one decides
    rng = np.random.default_rng(813)
    for _ in range(20):
        k, m, size = int(rng.integers(1, 30)), int(rng.integers(1, 4)), int(rng.integers(2, 9))
        blocks = [_ring_block(rng, k, m) for _ in range(size)]
        bad = sorted(set(rng.integers(0, size, int(rng.integers(1, 3))).tolist()))
        for b in bad:
            blocks[b] = _ring_block(rng, k, m, leak=0.0)
        with pytest.raises(SingularMatrixError) as alone:
            solve_linear(*blocks[bad[0]])
        with pytest.raises(SingularMatrixError) as dense:
            _dense_reduction(*blocks[bad[0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(*_stack(blocks))
        assert err.value.pivot == alone.value.pivot == dense.value.pivot
        assert err.value.block == bad[0]
