import io
import sys
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinkforge import cli, fp, gma, localring, pinklie
from pinkforge.errors import TooLarge
from pinkforge.fp import (
    FpSubspace,
    bilinear,
    matmul_mod,
    nullspace,
    pair_products,
    row_key,
    rref,
    saturate,
    span_products,
)
from pinkforge.gma import m2_structure
from pinkforge.localring import make_truncated_poly_ring
from pinkforge.pseudorep import FiniteMatrixGroup


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


def test_subspace_membership_and_sum():
    p = 3
    V = FpSubspace(p, 4, [[1, 0, 2, 0], [0, 1, 1, 0]])
    assert V.dim == 2
    assert V.contains([1, 1, 0, 0])
    assert not V.contains([0, 0, 0, 1])
    W = FpSubspace(p, 4, [[0, 0, 0, 1]])
    assert V.sum(W).dim == 3


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


def _distinct_rows(rng, p, n, m):
    """m random rows, copies of some, rows one entry apart, and rows made of
    the extreme residues 0, 1 and p - 1."""
    X = rng.integers(0, p, size=(m, n), dtype=np.int64)
    near = X.copy()
    near[np.arange(m), rng.integers(0, n, size=m)] += 1
    near %= p
    ext = np.array([[0] * n, [p - 1] * n, [1] + [0] * (n - 1), [p - 1] + [0] * (n - 1)])
    return np.vstack([X, X[::3], near, ext])


@pytest.mark.parametrize("p, n, kind", [
    (3, 39, "i"), (3, 40, "V"), (257, 4, "i"), (257, 8, "V"),
    (65521, 3, "i"), (65521, 4, "V"), (2 ** 31 - 1, 2, "i"), (2 ** 31 - 1, 5, "V"),
])
def test_row_key_is_injective_on_both_sides_of_the_switch(p, n, kind):
    # 3^39 < 2^63 < 3^40: base-p int64 keys below the switch, void keys above
    rows = _distinct_rows(np.random.default_rng(n * p % 9973), p, n, 300)
    keys = row_key(rows, p)
    assert keys.dtype.kind == kind and keys.shape == (len(rows),)
    distinct_rows = {tuple(r) for r in rows.tolist()}
    assert len(set(keys.tolist())) == len(distinct_rows)
    _, first = np.unique(keys, return_index=True)
    assert {tuple(r) for r in rows[first].tolist()} == distinct_rows
    # one row (a vector) gets the key of that row in a batch
    assert row_key(rows[5], p).tolist() == keys[5].tolist()


def test_find_returns_minus_one_for_non_members():
    # p = 257: unipotent [[1, t], [0, 1]]; over F_257[X]/(X^2) keys are void
    for k in (1, 2):
        A = make_truncated_poly_ring(257, k)
        R = m2_structure(A)
        u = R.one.copy()
        u[R.sb.start] = 1
        G = FiniteMatrixGroup.generate(R, [u])
        assert G.n == 257
        assert (row_key(G.elements, 257).dtype.kind == "V") == (k == 2)
        assert np.array_equal(G.find(G.elements), np.arange(G.n))
        outside = G.elements.copy()
        outside[:, R.sc.start] = 1          # lower-left entry 1: not upper unipotent
        folded = G.elements.copy()
        folded[:, R.sc.start] = 256         # 256 and 0 are one key after an int8 cast
        assert (G.find(outside) == -1).all()
        assert (G.find(folded) == -1).all()
        assert G.find(outside[3]) == -1
        assert G.find(G.elements[7]) == 7


def _reduce_by_rows(V, v):
    """Sequential elimination, one basis row at a time."""
    v = np.array(v, dtype=np.int64) % V.p
    for row, c in zip(V.basis, V.pivots):
        v = (v - v[..., c, None] * row) % V.p
    return v


@pytest.mark.parametrize("p", [3, 2 ** 31 - 1])
def test_reduce_equals_sequential_elimination(p):
    rng = np.random.default_rng(p % 101)
    for n, d in ((12, 5), (40, 31), (7, 7), (9, 0)):
        V = FpSubspace(p, n, rng.integers(0, p, size=(d, n)))
        coef = rng.integers(0, p, size=(20, V.dim))
        members = (coef.astype(object) @ V.basis.astype(object) % p).astype(np.int64)
        X = np.vstack([members, rng.integers(0, p, size=(40, n))])
        assert np.array_equal(V.reduce(X), _reduce_by_rows(V, X))
        assert np.array_equal(V.reduce(X[0]), _reduce_by_rows(V, X[0]))


# at 3 `bilinear` keeps its 17 x 5 intermediate unreduced, at the others it
# reduces it; at 2^31 - 1 `matmul_mod` splits X into digits
@pytest.mark.parametrize("p", [3, 65521, 1000003, 2 ** 31 - 1])
def test_matmul_mod_and_bilinear_are_exact(p):
    rng = np.random.default_rng(7)
    X = rng.integers(0, p, size=(30, 17))
    Y = rng.integers(0, p, size=(30, 5))
    X[0] = Y[0] = p - 1   # the largest sums
    T = rng.integers(0, p, size=(17, 5, 4))
    M = rng.integers(0, p, size=(17, 6))
    ref_mm = (X.astype(object) @ M.astype(object)) % p
    assert np.array_equal(matmul_mod(X, M, p), ref_mm.astype(np.int64))
    ref = np.einsum("ni,nj,ijk->nk", X.astype(object), Y.astype(object), T.astype(object)) % p
    assert np.array_equal(bilinear(X, Y, T, p), ref.astype(np.int64))


# (m, p, below): m·(p-1)^2 < 2^53 (one float64 product) exactly when below;
# the pairs straddle it.  At 2^31 - 1 every product splits X into digits, and
# the pair straddles the digit width: 64 terms take two 16-bit digits, 65
# three of 15 bits.
_MATMUL_SWITCH = [
    (2098176, 65521, True), (2098177, 65521, False),
    (9007, 1000003, True), (9008, 1000003, False),
    (8, 33554393, True), (8, 33554467, False),
    (64, 2 ** 31 - 1, False), (65, 2 ** 31 - 1, False),
    (1, 3, True), (40, 3, True), (40, 65521, True), (1, 2 ** 31 - 1, False),
]


def _worst_rows(rows, n, p, dtype=np.int64):
    """Rows of all p - 1, the largest sums, and a second row whose first
    entry is p - 2: a product pairing it with itself has an odd sum, which
    float64 cannot hold beyond 2^53."""
    A = np.full((rows, n), p - 1, dtype=dtype)
    A[1, 0] = p - 2
    return A


@pytest.mark.parametrize("m, p, below", _MATMUL_SWITCH)
def test_matmul_mod_is_exact_at_the_float_switch(m, p, below):
    assert (m * (p - 1) ** 2 < 2 ** 53) == below
    # object arrays of a few repeated ints keep the reference small at m = 2·10^6
    X, Y = _worst_rows(2, m, p), _worst_rows(2, m, p).T
    ref = _worst_rows(2, m, p, object) @ _worst_rows(2, m, p, object).T % p
    assert np.array_equal(matmul_mod(X, Y, p), ref.astype(np.int64))
    if m <= 10 ** 4:
        rng = np.random.default_rng(m)
        X = rng.integers(0, p, size=(5, m))
        Y = rng.integers(0, p, size=(m, 4))
        ref = X.astype(object) @ Y.astype(object) % p
        assert np.array_equal(matmul_mod(X, Y, p), ref.astype(np.int64))


def test_matmul_mod_refuses_an_inner_dimension_without_exact_sums():
    # m·(p-1) >= 2^53: even one-bit digits of X overflow float64's integers
    p = 2 ** 31 - 1
    m = (2 ** 53 - 1) // (p - 1) + 1
    X = np.broadcast_to(np.int64(1), (1, m))
    Y = np.broadcast_to(np.int64(1), (m, 1))
    with pytest.raises(TooLarge):
        matmul_mod(X, Y, p)


# (I, J, p, below): the intermediate stays unreduced exactly when
# I·J·(p-1)^3 < 2^53; the pairs straddle it
_BILINEAR_SWITCH = [
    (8, 4, 65521, True), (11, 3, 65521, False), (4, 8, 65521, True), (3, 11, 65521, False),
    (1, 1, 208057, True), (1, 1, 208067, False),
    (17, 5, 3, True), (17, 5, 65521, False), (17, 5, 1000003, False), (17, 5, 2 ** 31 - 1, False),
]


@pytest.mark.parametrize("I, J, p, below", _BILINEAR_SWITCH)
def test_bilinear_is_exact_at_the_float_switch(I, J, p, below):
    assert (I * J * (p - 1) ** 3 < 2 ** 53) == below
    rng = np.random.default_rng(I * J)
    K = 3
    X = np.vstack([_worst_rows(2, I, p), rng.integers(0, p, size=(4, I))])
    Y = np.vstack([_worst_rows(2, J, p), rng.integers(0, p, size=(4, J))])
    worst = np.full((I, J, K), p - 1, dtype=np.int64)
    worst[0, 0] = p - 2
    for T in (worst, rng.integers(0, p, size=(I, J, K))):
        ref = np.einsum("ni,nj,ijk->nk", X.astype(object), Y.astype(object), T.astype(object)) % p
        assert np.array_equal(bilinear(X, Y, T, p), ref.astype(np.int64))


def _is_residues(A, p):
    A = np.asarray(A)
    return A.dtype.kind in "iu" and (A.size == 0 or (A.min() >= 0 and A.max() < p))


def test_matrix_products_get_residues(monkeypatch):
    """The float kernel's 2^53 rule holds for inputs in [0, p): every call
    of `matmul_mod` and `bilinear` that the reports make, `bilinear`'s own
    first contraction included, gets residues.  Only its second contraction
    takes an unreduced intermediate, and that goes to the kernel directly."""
    calls = Counter()
    mm, bl = fp.matmul_mod, fp.bilinear

    def checked_mm(X, Y, p):
        calls["matmul_mod"] += 1
        assert _is_residues(X, p) and _is_residues(Y, p), sys._getframe(1).f_code.co_name
        return mm(X, Y, p)

    def checked_bl(X, Y, T, p):
        calls["bilinear"] += 1
        assert _is_residues(X, p) and _is_residues(Y, p) and _is_residues(T, p), \
            sys._getframe(1).f_code.co_name
        return bl(X, Y, T, p)

    for mod in (fp, gma, localring, pinklie):
        for name, wrapper in (("matmul_mod", checked_mm), ("bilinear", checked_bl)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    f9_gens = ("[[1,0,0,0,1,0,0,0,1,0,0,0,0,0,2,0,0,0,1,0,0,0,1,0],"
               "[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0],"
               "[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,1,0,0,0,0]]")
    for argv in (["verify", "--seed", "1"], ["example8", "--p", "3", "--k", "4"],
                 ["analyze", "--q", "9", "--k", "3", "--gens", f9_gens]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert calls["matmul_mod"] > 1000 and calls["bilinear"] > 1000


def _products_by_loop(U, V, T, p):
    """T(u, v) for each pair of rows, u-major, summed in Python integers."""
    I, J, K = T.shape
    return np.array([[sum(int(u[i]) * int(v[j]) * int(T[i, j, k])
                          for i in range(I) for j in range(J)) % p for k in range(K)]
                     for u in U for v in V], dtype=np.int64).reshape(-1, K)


def _saturate_by_loop(S, T, by):
    """Add T(w, s) one vector at a time until no product leaves the span;
    w runs over `by`, or over the growing span itself when by is None."""
    p, n = S.p, S.n
    basis = [np.array(b) for b in S.basis]
    grew = True
    while grew:
        grew = False
        for w in list(basis) if by is None else by:
            for s in list(basis):
                v = _products_by_loop([w], [s], T, p)[0]
                if not FpSubspace(p, n, basis).contains(v):
                    basis.append(v)
                    grew = True
    return FpSubspace(p, n, basis)


def _truncated_poly_tensor(k):
    """F_p[X]/(X^k) on the basis 1, X, ..., X^(k-1), for any p."""
    T = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k - i):
            T[i, j, i + j] = 1
    return T


def _nilpotent_tensor(rng, p, n):
    """A random bilinear map with T(e_i, e_j) in the span of e_k, k > max(i, j)."""
    T = rng.integers(0, p, size=(n, n, n))
    i, j, k = np.indices((n, n, n))
    T[k <= np.maximum(i, j)] = 0
    return T


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_pair_products_equal_the_loop(p):
    rng = np.random.default_rng(p % 997)
    T = rng.integers(0, p, size=(4, 3, 5))
    U = rng.integers(0, p, size=(3, 4))
    V = rng.integers(0, p, size=(6, 3))
    U[0], V[0] = p - 1, p - 1
    got = pair_products(U, V, T, p)
    assert np.array_equal(got, _products_by_loop(U, V, T, p))
    assert np.array_equal(pair_products(U[1], V, T, p), got[6:12])     # one row: a vector
    assert pair_products(U[:0], V, T, p).shape == (0, 5)
    assert pair_products(U, V[:0], T, p).shape == (0, 5)
    assert not pair_products(U, V, np.zeros_like(T), p).any()
    # zero-width factors, as for the modules of a diagonal GMA
    assert pair_products(U, np.zeros((6, 0), dtype=np.int64), np.zeros((4, 0, 0), dtype=np.int64),
                         p).shape == (18, 0)
    assert not pair_products(np.zeros((2, 0), dtype=np.int64), V, np.zeros((0, 3, 5), dtype=np.int64),
                             p).any()
    assert span_products(U, V, T, p) == FpSubspace(p, 5, got)


@pytest.mark.parametrize("p", [2, 3, 65521, 2 ** 31 - 1])
def test_saturate_equals_the_loop(p):
    rng = np.random.default_rng(p % 991)
    k = 6
    ring = _truncated_poly_tensor(k)
    E = np.eye(k, dtype=np.int64)
    cases = []
    for _ in range(3):
        gens = rng.integers(0, p, size=(2, k))
        gens[:, :2] = 0                                 # inside (X^2)
        S = FpSubspace(p, k, gens)
        cases += [(S, ring, E), (S, ring, None)]
    S1 = FpSubspace(p, k, [E[1]])                       # X: the ideal (X), the pseudo-ring m
    cases += [(S1, ring, E), (S1, ring, None)]
    nil = _nilpotent_tensor(rng, p, 7)
    S2 = FpSubspace(p, 7, rng.integers(0, p, size=(1, 7)))
    cases += [(S2, nil, None), (S2, nil, np.eye(7, dtype=np.int64)[:3])]
    for S, T, by in cases:
        got = saturate(S, T, by=by)
        assert got == _saturate_by_loop(S, T, by)
        W = got.basis if by is None else by
        assert got.contains(S.basis).all() and got.contains(pair_products(W, got.basis, T, p)).all()
    assert saturate(S1, ring, by=E) == FpSubspace(p, k, E[1:])
    assert saturate(S1, ring) == FpSubspace(p, k, E[1:])
    # an empty S stays empty; a zero tensor adds nothing
    assert saturate(FpSubspace(p, k), ring, by=E).dim == 0
    assert saturate(FpSubspace(p, k), ring).dim == 0
    assert saturate(S2, np.zeros_like(nil)) == S2
    assert saturate(S2, np.zeros_like(nil), by=np.eye(7, dtype=np.int64)) == S2
