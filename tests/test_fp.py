import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinkforge.fp import FpSubspace, nullspace, rref, solve


def test_rref_idempotent():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        M = rng.integers(0, p, size=(6, 8))
        R1, piv1 = rref(M, p)
        R2, piv2 = rref(R1, p)
        assert np.array_equal(R1, R2) and piv1 == piv2


def test_nullspace_is_kernel():
    rng = np.random.default_rng(1)
    for p in (3, 5):
        M = rng.integers(0, p, size=(5, 9))
        K = nullspace(M, p)
        assert K.shape[0] == 9 - len(rref(M, p)[1])
        assert not (M @ K.T % p).any()


def test_solve_consistency():
    rng = np.random.default_rng(2)
    p = 3
    M = rng.integers(0, p, size=(6, 6))
    x = rng.integers(0, p, size=6)
    b = M @ x % p
    y = solve(M, b, p)
    assert y is not None and np.array_equal(M @ y % p, b)


def test_subspace_membership_and_sum():
    p = 3
    V = FpSubspace(p, 4, [[1, 0, 2, 0], [0, 1, 1, 0]])
    assert V.dim == 2
    assert V.contains([1, 1, 0, 0])
    assert not V.contains([0, 0, 0, 1])
    W = FpSubspace(p, 4, [[0, 0, 0, 1]])
    assert V.sum(W).dim == 3
    assert V.intersect(W).dim == 0


def test_subspace_enumerate_and_coords():
    p = 3
    V = FpSubspace(p, 3, [[1, 0, 1], [0, 1, 2]])
    members = V.enumerate()
    assert members.shape == (9, 3)
    keys = {tuple(v) for v in members}
    assert len(keys) == 9
    for v in members:
        c = V.coords(v)
        assert c is not None
        assert np.array_equal((c @ V.basis) % p, v)
    assert V.coords([0, 0, 1]) is None


def test_zero_width_subspace():
    V = FpSubspace(3, 0, [])
    assert V.dim == 0
    assert V.enumerate().shape == (1, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=5, max_size=5),
                min_size=1, max_size=6))
def test_reduce_lands_outside_span_or_zero(rows):
    p = 5
    V = FpSubspace(p, 5, rows)
    v = np.array(rows[0], dtype=np.int64)
    assert not V.reduce(v).any()       # spanning vectors reduce to zero
    r = V.reduce([1, 2, 3, 4, 0])
    assert V.contains([1, 2, 3, 4, 0]) == (not r.any())


@pytest.mark.parametrize("p", [2, 3, 7, 65521, 2 ** 31 - 1])
def test_reduce_and_contains_on_arrays_match_rows(p):
    rng = np.random.default_rng(p % 1000)
    n = 9
    V = FpSubspace(p, n, rng.integers(0, p, size=(4, n)))
    coef = rng.integers(0, p, size=(20, V.dim))
    coef[::7, 0] = 0                              # members with a zero pivot entry
    members = (coef.astype(object) @ V.basis.astype(object) % p).astype(np.int64)
    X = np.vstack([members, rng.integers(0, p, size=(20, n))])
    X[20::7, V.pivots[0]] = 0
    red = V.reduce(X)
    assert red.shape == X.shape
    assert np.array_equal(red, np.array([V.reduce(v) for v in X]))
    assert not red[:, V.pivots].any()
    inside = V.contains(X)
    assert inside.dtype == bool and inside.shape == (40,)
    assert inside.tolist() == [V.contains(v) for v in X]
    assert all(type(V.contains(v)) is bool for v in X)
    # membership is rank: v lies in V exactly when adding it keeps dim V
    assert inside.tolist() == [V.extend(v).dim == V.dim for v in X]
    assert inside[:20].all() and not inside[20:].all()
