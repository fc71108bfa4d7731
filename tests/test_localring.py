import itertools
import time

import numpy as np
import pytest

from pinkforge.errors import CheckFailed, TooLarge
from pinkforge.localring import (
    IRREDUCIBLE,
    FqData,
    LocalRing,
    SemiLocalRing,
    _irreducible_poly,
    batch_invert,
    batch_is_unit_square,
    batch_sqrt_one_plus_m,
    check_tensor_size,
    factor_prime_power,
    is_prime,
    make_truncated_poly_ring,
    quotient_ring,
)
from pinkforge.fp import FpSubspace, row_key, rref
from pinkforge.gma import m2_structure


def poly_mul_trunc(a, b, p, k):
    out = [0] * k
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < k:
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def test_field_case():
    A = make_truncated_poly_ring(3, 1)
    assert A.dim == 1 and A.maxideal.dim == 0
    assert np.array_equal(batch_invert(A, np.array([[2]]))[0], [2])


def test_dual_numbers():
    A = make_truncated_poly_ring(3, 2)
    assert A.dim == 2
    eps = np.array([0, 1])
    assert not A.mul_vec(eps, eps).any()


def test_f9_x3_against_polynomial_oracle():
    # dim-6 ring F9[X]/(X^3), multiplication table checked against direct
    # truncated polynomial multiplication over F9
    A = make_truncated_poly_ring(9, 3)
    assert A.dim == 6
    fq = A.fq
    rng = np.random.default_rng(3)
    X = np.array([0, 0, 1, 0, 0, 0])
    X2 = A.mul_vec(X, X)
    assert not A.mul_vec(X, X2).any()
    for _ in range(60):
        a = rng.integers(0, 3, size=6)
        b = rng.integers(0, 3, size=6)
        # interpret as polynomials over F9 with int-coded coefficients
        pa = [fq.encode(a[2 * j:2 * j + 2]) for j in range(3)]
        pb = [fq.encode(b[2 * j:2 * j + 2]) for j in range(3)]
        out = [0, 0, 0]
        for i in range(3):
            for j in range(3 - i):
                prod = fq.mul(pa[i], pb[j])
                da = fq.digits(prod)
                db = fq.digits(out[i + j])
                out[i + j] = fq.encode([(x + y) % 3 for x, y in zip(da, db)])
        got = A.mul_vec(a, b)
        want = np.concatenate([fq.digits(c) for c in out])
        assert np.array_equal(got, want)


def test_prime_power_validation():
    with pytest.raises(ValueError):
        make_truncated_poly_ring(6, 2)


def test_is_prime_agrees_with_a_sieve():
    N = 10 ** 5
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, 317):
        sieve[i * i:: i] = False
    assert [is_prime(n) for n in range(N + 1)] == sieve.tolist()


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 11
    assert not is_prime(3215031751) and not is_prime(3474749660383)
    assert is_prime(2 ** 61 - 1) and not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_factor_prime_power_is_immediate_at_2_31():
    start = time.perf_counter()
    assert factor_prime_power(2 ** 31 - 1) == (2 ** 31 - 1, 1)
    assert factor_prime_power(3 ** 20) == (3, 20) and factor_prime_power(2) == (2, 1)
    assert time.perf_counter() - start < 1.0
    for q in (0, 1, 6, 12, 3 ** 20 * 5, (2 ** 31 - 1) * (2 ** 61 - 1)):
        assert factor_prime_power(q) is None


def test_field_table_is_capped_before_allocating():
    # filled a q x q table (32 GiB at q = 65521), later refused q > 4,096:
    # F_q now multiplies through its (f, f, f) tensor and builds at once
    start = time.perf_counter()
    A = make_truncated_poly_ring(2 ** 31 - 1, 2)
    fq = FqData(65521, 1)
    assert time.perf_counter() - start < 1.0
    assert A.fq.poly == (2 ** 31 - 1 - 7, 1) and fq.poly == (65521 - 17, 1)
    assert fq.mul(65520, 65520) == 1 and A.fq.inv(2) == 2 ** 30


@pytest.mark.parametrize("p", (2, 3, 257, 1021))
def test_prime_field_table_is_the_product_mod_p(p):
    fq = FqData(p, 1)
    a, b = np.random.default_rng(p).integers(0, p, (2, 500))
    assert fq.mul_tensor.tolist() == [[[1]]]
    assert np.array_equal(fq.mul(a, b), a * b % p)


@pytest.mark.parametrize("p, f", [(2, 3), (3, 2), (5, 2)])
def test_field_table_equals_polynomial_products(p, f):
    # every pair, as the q x q table was checked
    fq = FqData(p, f)
    a, b = np.indices((fq.q, fq.q))
    want = [[_field_product(x, y, fq) for x, y in zip(r, s)] for r, s in zip(a.tolist(), b.tolist())]
    assert fq.mul(a, b).tolist() == want


@pytest.mark.parametrize("p, f", [(3, 6), (2, 12)])
def test_large_field_table_on_sampled_pairs(p, f):
    fq = FqData(p, f)
    a, b = np.random.default_rng(p * f).integers(0, fq.q, (2, 10 ** 4))
    want = [_field_product(x, y, fq) for x, y in zip(a.tolist(), b.tolist())]
    assert fq.mul(a, b).tolist() == want


def _field_product(a, b, fq):
    """a·b in F_q on codes, in Python ints: digits, the schoolbook product,
    then the monic modulus taken off from the top degree down."""
    p, f, poly = fq.p, fq.f, fq.poly
    da = [a // p ** i % p for i in range(f)]
    db = [b // p ** i % p for i in range(f)]
    c = [0] * (2 * f - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            c[i + j] += x * y
    for d in range(2 * f - 2, f - 1, -1):
        for j in range(f):
            c[d - f + j] -= c[d] * poly[j]
    return sum(x % p * p ** i for i, x in enumerate(c[:f]))


@pytest.mark.parametrize("p, f", [(3, 2), (5, 2), (3, 3), (3, 5), (2, 12)])
def test_field_table_equals_python_int_products(p, f):
    # products through the structure tensor; q = 9, 25, 27, 243, 4096, every
    # pair up to 243 and 20,000 of them at 4096
    fq = FqData(p, f)
    if fq.q <= 243:
        a, b = np.indices((fq.q, fq.q)).reshape(2, -1)
    else:
        a, b = np.random.default_rng(fq.q).integers(0, fq.q, (2, 20_000))
    want = [_field_product(x, y, fq) for x, y in zip(a.tolist(), b.tolist())]
    assert fq.mul(a, b).tolist() == want
    # the tensor contracted with the digit rows directly
    D = fq.digits(np.stack([a, b]))
    assert fq.encode(np.einsum("ni,nj,ijk->nk", D[0], D[1], fq.mul_tensor)).tolist() == want


def test_field_table_is_fast():
    # filled pair by pair in a Python double loop, FqData(3, 6) took 3.7 s
    start = time.perf_counter()
    FqData(3, 6)
    assert time.perf_counter() - start < 1.0


def _truncated_tensor_by_loop(A):
    """F_q[X]/(X^k) structure constants from `_field_product` on the codes
    p^i of alpha^i."""
    (f, k), fq = A.fq_block, A.fq
    S = np.zeros((A.dim,) * 3, dtype=np.int64)
    for j1 in range(k):
        for j2 in range(k - j1):
            for i1 in range(f):
                for i2 in range(f):
                    prod = fq.digits(_field_product(A.p ** i1, A.p ** i2, fq))
                    S[j1 * f + i1, j2 * f + i2, (j1 + j2) * f:(j1 + j2 + 1) * f] = prod
    return S


def _first_irreducible(p, f):
    """The first monic irreducible of degree f over F_p in coefficient-lex
    order (constant term first), by trial division by every monic
    polynomial of degree 1..f//2, in Python ints."""
    def divides(d, g):
        e, r = len(d) - 1, list(g)
        for top in range(len(r) - 1, e - 1, -1):
            c = r[top] % p
            for j in range(e + 1):
                r[top - e + j] -= c * d[j]
        return all(x % p == 0 for x in r[:e])
    for tail in itertools.product(range(p), repeat=f):
        g = tail + (1,)
        if not any(divides(d + (1,), g) for e in range(1, f // 2 + 1)
                   for d in itertools.product(range(p), repeat=e)):
            return g


def _least_primitive_root(p):
    """The least g whose powers mod p fill F_p*, by listing them."""
    return next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)


def _small_fields():
    return [(p, f) for p in range(2, 3 ** 7) if is_prime(p)
            for f in range(1, 12) if p ** f <= 3 ** 7]


def test_irreducible_poly_equals_trial_division():
    # Rabin's test in place of the gcd search over GF(p)[x]: every field of
    # at most 3^7 elements outside IRREDUCIBLE, and F_4096
    cases = [pf for pf in _small_fields() if pf not in IRREDUCIBLE] + [(2, 12)]
    assert len(cases) > 300
    for p, f in cases:
        want = ((-_least_primitive_root(p)) % p, 1) if f == 1 else _first_irreducible(p, f)
        assert _irreducible_poly(p, f) == want, (p, f)
    for pf, poly in IRREDUCIBLE.items():
        assert _irreducible_poly(*pf) == poly


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3), (13, 1), (2, 4), (2, 5)])
def test_fq_generator_is_the_least_by_listing_powers(p, f):
    fq = FqData(p, f)
    want = next((g for g in range(2, fq.q)
                 if len({_power_loop(fq, g, e) for e in range(fq.q - 1)}) == fq.q - 1), 1)
    assert fq.generator() == want


def _power_loop(fq, g, e):
    x = 1
    for _ in range(e):
        x = _field_product(x, g, fq)
    return x


def _unit_squares(A):
    """Keys of the squares of the units of A, by enumerating A."""
    vecs = A.elements(cap=10 ** 6)
    if isinstance(A, LocalRing):
        units = vecs[(vecs @ A.proj.T % A.p).any(axis=1)]
    else:
        units = np.array([v for v in vecs if A.is_unit_vec(v)])
    return set(row_key(A.batch_mul(units, units), A.p).tolist())


@pytest.mark.parametrize("rings", [[(3, 4)], [(5, 3)], [(7, 2)], [(9, 3)], [(25, 2)], [(27, 2)],
                                   [(3, 2), (9, 2)]])
def test_euler_criterion_equals_the_enumerated_squares(rings):
    factors = [make_truncated_poly_ring(q, k) for q, k in rings]
    A = factors[0] if len(factors) == 1 else SemiLocalRing(factors)
    X = A.elements()
    want = np.isin(row_key(X, A.p), list(_unit_squares(A)))
    assert want.any() and not want.all()
    assert np.array_equal(batch_is_unit_square(A, X), want)


@pytest.mark.parametrize("q, k", [(9, 3), (8, 2), (3, 4), (27, 2), (25, 1)])
def test_truncated_ring_tensor_equals_the_loop(q, k):
    A = make_truncated_poly_ring(q, k)
    assert np.array_equal(A.mul_tensor, _truncated_tensor_by_loop(A))


def test_invert_examples():
    A = make_truncated_poly_ring(3, 3)
    assert np.array_equal(batch_invert(A, A.one[None])[0], A.one)
    x = np.array([1, 1, 0])          # 1 + X
    assert np.array_equal(batch_invert(A, x[None])[0], [1, 2, 1])   # geometric series 1 - X + X^2
    assert np.array_equal(A.mul_vec(x, batch_invert(A, x[None])[0]), A.one)
    with pytest.raises(CheckFailed, match="X is not invertible"):
        batch_invert(A, np.array([[0, 1, 0]]))


def test_units_are_complement_of_maxideal():
    for (q, k) in ((3, 2), (3, 3), (5, 2), (9, 2)):
        A = make_truncated_poly_ring(q, k)
        for v in A.elements(cap=10 ** 5):
            assert A.is_unit_vec(v) == (not A.maxideal.contains(v))


def test_sqrt_one_plus_m_examples():
    A = make_truncated_poly_ring(3, 3)
    X = np.array([A.one, [1, 1, 0], [1, 0, 1]])     # 1, 1+X, 1+X^2
    Y = batch_sqrt_one_plus_m(A, X)
    # sqrt(1+X) = 1 + 2X + X^2 and sqrt(1+X^2) = 1 + 2X^2
    assert Y.tolist() == [[1, 0, 0], [1, 2, 1], [1, 0, 2]]
    assert np.array_equal(A.mul_vec(Y[1], Y[1]), X[1])
    with pytest.raises(CheckFailed, match="argument not in 1 \\+ m"):
        batch_sqrt_one_plus_m(A, np.array([[2, 0, 0]]))
    A2 = make_truncated_poly_ring(2, 3)
    with pytest.raises(CheckFailed, match="square roots in 1\\+m need p odd"):
        batch_sqrt_one_plus_m(A2, A2.one[None, :])


def test_sqrt_one_plus_m_unique_exhaustive():
    # uniqueness of the square root inside 1+m, by exhaustion
    for (q, k) in ((3, 3), (5, 2), (9, 2)):
        A = make_truncated_poly_ring(q, k)
        one_plus_m = [(A.one + v) % A.p for v in A.maxideal.enumerate()]
        for x, y in zip(one_plus_m, batch_sqrt_one_plus_m(A, np.array(one_plus_m))):
            roots = [u for u in one_plus_m if np.array_equal(A.mul_vec(u, u), x)]
            assert len(roots) == 1
            assert np.array_equal(roots[0], y)


def test_batch_sqrt_matches_newton():
    # the reference is the root an exhaustive search of 1 + m finds
    A = make_truncated_poly_ring(3, 4)
    X = np.array([(A.one + v) % 3 for v in A.maxideal.enumerate()])
    Y = batch_sqrt_one_plus_m(A, X)
    squares = A.batch_mul(X, X)
    for x, y in zip(X, Y):
        roots = X[(squares == x).all(axis=1)]
        assert len(roots) == 1 and np.array_equal(roots[0], y)


def test_batch_sqrt_refuses_a_row_outside_one_plus_m():
    # the power map gave 1 for 2 (1^2 = 1) and 1 + X + X^2 for 2 + X
    # (whose square is 1 + 2X), with no error
    A = make_truncated_poly_ring(3, 3)
    S = SemiLocalRing([make_truncated_poly_ring(3, 2), A])
    for B, bad in ((A, [2, 0, 0]), (A, [2, 1, 0]),
                   (S, [1, 0, 2, 1, 0]), (S, [2, 1, 1, 0, 0])):
        with pytest.raises(CheckFailed, match="argument not in 1 \\+ m"):
            batch_sqrt_one_plus_m(B, np.array([B.one, bad]))


def test_batch_invert():
    A = make_truncated_poly_ring(3, 3)
    units = np.array([v for v in A.elements() if A.is_unit_vec(v)])
    inv = batch_invert(A, units)
    prods = A.batch_mul(units, inv)
    assert np.array_equal(prods, np.tile(A.one, (len(units), 1)))


def _inverse_by_linear_solve(A, x):
    """The z with x·z = 1, from one RREF of [mulmat(x) | 1]; None when
    mulmat(x) is singular."""
    red, pivots = rref(np.column_stack([A.mulmat(x), A.one]), A.p)
    return red[:, A.dim] if pivots == list(range(A.dim)) else None


def test_batch_invert_matches_the_linear_solve():
    for A in (make_truncated_poly_ring(9, 2), make_truncated_poly_ring(3, 3),
              SemiLocalRing([make_truncated_poly_ring(5, 2), make_truncated_poly_ring(25, 1)])):
        X = A.elements()
        want = [_inverse_by_linear_solve(A, x) for x in X]
        units = np.array([z is not None for z in want])
        assert np.array_equal(batch_invert(A, X[units]), [z for z in want if z is not None])
        for x in X[~units]:
            with pytest.raises(CheckFailed, match="is not invertible"):
                batch_invert(A, x[None])
        # a batch names its first non-unit, here X[0] = 0
        with pytest.raises(CheckFailed, match="^0 is not invertible$"):
            batch_invert(A, X)


def _unit_group_rings():
    return [make_truncated_poly_ring(3, 8), make_truncated_poly_ring(9, 3),
            SemiLocalRing([make_truncated_poly_ring(3, 3), make_truncated_poly_ring(9, 2)])]


def test_batch_invert_and_sqrt_match_the_group_order_exponents():
    # the exponents used before: |A*| - 1 for inverses and (p^E + 1)/2 for
    # square roots in 1 + rad A, E = dim rad A
    rng = np.random.default_rng(5)
    for A in _unit_group_rings():
        factors = A.factors if isinstance(A, SemiLocalRing) else [A]
        order = 1
        for fac in factors:
            order *= (fac.fq.q - 1) * A.p ** (fac.dim - fac.fq.f)
        E = sum(fac.dim - fac.fq.f for fac in factors)
        X = rng.integers(0, A.p, size=(200, A.dim))
        units = X[[A.is_unit_vec(x) for x in X]]
        assert len(units) > 50
        inv = batch_invert(A, units)
        assert np.array_equal(inv, A.batch_pow(units, order - 1))
        assert np.array_equal(A.batch_mul(units, inv), np.tile(A.one, (len(units), 1)))
        rad = A.radical if isinstance(A, SemiLocalRing) else A.maxideal
        ones = (A.one + rng.integers(0, A.p, size=(100, rad.dim)) @ rad.basis) % A.p
        roots = batch_sqrt_one_plus_m(A, ones)
        assert np.array_equal(roots, A.batch_pow(ones, (A.p ** E + 1) // 2))
        assert np.array_equal(A.batch_mul(roots, roots), ones)


def test_teichmuller_constants():
    A = make_truncated_poly_ring(9, 2)
    assert not A.constant(0).any()
    assert np.array_equal(A.constant(1), A.one)
    for lam in range(9):
        for mu in range(9):
            assert np.array_equal(A.constant(A.fq.mul(lam, mu)),
                                  A.mul_vec(A.constant(lam), A.constant(mu)))
        # the section reduces back to lambda
        assert A.residue_int(A.constant(lam)) == lam


def test_nilpotency_index():
    for k in (1, 2, 3, 5):
        A = make_truncated_poly_ring(3, k)
        assert A.nilpotency == k
        if k > 1:
            X = np.array([[0, 1] + [0] * (k - 2)])
            assert A.batch_pow(X, k - 1).any()
            assert not A.batch_pow(X, k).any()


def test_ring_axioms_random_triples():
    rng = np.random.default_rng(7)
    for (q, k) in ((3, 3), (9, 2), (7, 2)):
        A = make_truncated_poly_ring(q, k)
        X = rng.integers(0, A.p, size=(300, A.dim))
        Y = rng.integers(0, A.p, size=(300, A.dim))
        Z = rng.integers(0, A.p, size=(300, A.dim))
        assert np.array_equal(A.batch_mul(A.batch_mul(X, Y), Z),
                              A.batch_mul(X, A.batch_mul(Y, Z)))
        assert np.array_equal(A.batch_mul(X, (Y + Z) % A.p),
                              (A.batch_mul(X, Y) + A.batch_mul(X, Z)) % A.p)
        assert np.array_equal(A.batch_mul(X, Y), A.batch_mul(Y, X))


def test_semilocal_product():
    A1 = make_truncated_poly_ring(3, 2)
    A2 = make_truncated_poly_ring(3, 3)
    S = SemiLocalRing([A1, A2])
    assert S.dim == 5
    assert S.radical.dim == A1.maxideal.dim + A2.maxideal.dim
    x = np.array([1, 1, 1, 0, 1])
    assert S.is_unit_vec(x)
    y = batch_invert(S, x[None])[0]
    assert np.array_equal(S.project(y, 0), batch_invert(A1, np.array([[1, 1]]))[0])
    bad = np.concatenate([[0, 1], A2.one])
    assert not S.is_unit_vec(bad)


def test_quotient_ring_truncation():
    A = make_truncated_poly_ring(3, 4)
    x2 = np.zeros(4, dtype=np.int64)
    x2[2] = 1
    Aq, P = quotient_ring(A, [x2])
    assert Aq.dim == 2
    # the projection is a ring map
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.integers(0, 3, size=4)
        b = rng.integers(0, 3, size=4)
        assert np.array_equal(P @ A.mul_vec(a, b) % 3,
                              Aq.mul_vec(P @ a % 3, P @ b % 3))
    assert Aq.nilpotency == 2


def _quotient_ring_by_loop(A, ideal_vectors):
    """The ideal, projection and structure constants of A/I as
    `quotient_ring` computed them before `fp.saturate`: a saturation loop of
    per-vector products, then the constants entry by entry."""
    p, E = A.p, np.eye(A.dim, dtype=np.int64)
    I = FpSubspace(p, A.dim, ideal_vectors)
    while True:
        ext = [A.mul_vec(b, v) for v in I.basis for b in E]
        I2 = FpSubspace(p, A.dim, list(I.basis) + ext)
        if I2.dim == I.dim:
            break
        I = I2
    comp = [i for i in range(A.dim) if i not in set(I.pivots)]
    P = np.zeros((len(comp), A.dim), dtype=np.int64)
    for i in range(A.dim):
        P[:, i] = I.reduce(E[i])[comp]
    S = np.zeros((len(comp),) * 3, dtype=np.int64)
    for a in range(len(comp)):
        for b in range(len(comp)):
            S[a, b] = P @ A.mul_vec(E[comp[a]], E[comp[b]]) % p
    return I, P, S


@pytest.mark.parametrize("q, k, gens", [
    (3, 4, [[0, 0, 1, 0]]),
    (9, 3, [[0, 0, 0, 1, 0, 0]]),                  # alpha·X: the F_9-ideal (X)
    (5, 4, [[0, 0, 2, 1]]),
    (3, 5, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 1]]),
    (7, 3, []),
])
def test_quotient_ring_equals_the_loop(q, k, gens):
    A = make_truncated_poly_ring(q, k)
    I, P_ref, S_ref = _quotient_ring_by_loop(A, gens)
    Aq, P = quotient_ring(A, gens)
    assert isinstance(Aq, LocalRing)
    assert Aq.meta["ideal_dim"] == I.dim and Aq.dim == A.dim - I.dim
    assert np.array_equal(P, P_ref) and np.array_equal(Aq.mul_tensor, S_ref)
    assert not (P @ I.basis.T % A.p).any()         # I is the kernel of the projection


def test_ring_descriptor_serializable():
    import json
    A = make_truncated_poly_ring(9, 2)
    text = json.dumps(A.descriptor(), sort_keys=True)
    assert "q_poly" in text


def _digits_loop(fq, k):
    """The scalar codec the array one replaced: base-p digits, lowest first."""
    out = []
    for _ in range(fq.f):
        out.append(k % fq.p)
        k //= fq.p
    return tuple(out)


def _encode_loop(fq, digits):
    k = 0
    for d in reversed(digits):
        k = k * fq.p + int(d) % fq.p
    return k


@pytest.mark.parametrize("p, f", [(2, 4), (3, 6), (5, 2), (4093, 1)])
def test_array_codec_matches_the_scalar_loops(p, f):
    fq = FqData(p, f)
    codes = np.arange(fq.q)
    want = np.array([_digits_loop(fq, int(k)) for k in codes], dtype=np.int64)
    assert np.array_equal(fq.digits(codes), want)
    assert np.array_equal(fq.encode(want), codes)
    # digits off their range are reduced mod p, as the loop reduced them
    shifted = want + p * np.arange(f) - 2 * p
    assert np.array_equal(fq.encode(shifted), [_encode_loop(fq, row) for row in shifted.tolist()])
    # scalars, and a leading axis of any shape
    k = fq.q - 1
    assert tuple(fq.digits(k).tolist()) == _digits_loop(fq, k)
    assert int(fq.encode(list(_digits_loop(fq, k)))) == k
    grid = codes[: (fq.q // 2) * 2].reshape(2, -1)
    assert np.array_equal(fq.encode(fq.digits(grid)), grid)


@pytest.mark.parametrize("q, k", [(3, 3), (9, 2), (25, 1), (27, 2), (7, 2)])
def test_constants_are_the_stacked_constant_rows(q, k):
    A = make_truncated_poly_ring(q, k)
    rings = [A, quotient_ring(A, [A.maxideal.basis[-1]])[0]] if k > 1 else [A]
    for B in rings:
        stacked = np.array([B.constant(lam) for lam in range(B.fq.q)], dtype=np.int64)
        assert np.array_equal(B.constants(), stacked)


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (2, 3), (5, 2)])
def test_fq_pow_of_zero(p, f):
    # pow(0, e) returned 1 for every e: e was reduced mod 1
    fq = FqData(p, f)
    assert fq.pow(0, 0) == 1
    assert [fq.pow(0, e) for e in (1, 2, fq.q - 1, fq.q, 5 * fq.q)] == [0] * 5
    for a in range(1, fq.q):
        assert fq.pow(a, fq.q - 1) == 1 and fq.pow(a, fq.q) == a
        assert fq.mul(a, fq.inv(a)) == 1


def test_structure_tensor_budget():
    # (k·f)^3 entries were allocated before any check: 7.45 GiB at k = 1000
    with pytest.raises(TooLarge, match=r"a 1000\^3 structure tensor exceeds 16777216 bytes"):
        make_truncated_poly_ring(3, 1000)
    with pytest.raises(TooLarge, match=r"a 129\^3 structure tensor"):
        make_truncated_poly_ring(3, 129)
    # M_2's tensor is (4k)^3: refused at k = 33, over a ring that passes
    A = make_truncated_poly_ring(3, 33)
    with pytest.raises(TooLarge, match=r"a 132\^3 structure tensor"):
        m2_structure(A)
    # the one budget also bounds the arrays of A[G]/Ker(T, D)
    check_tensor_size((1448, 1448), "trace relation matrix")
    with pytest.raises(TooLarge, match=r"a 1449\^2 trace relation matrix exceeds 16777216"):
        check_tensor_size((1449, 1449), "trace relation matrix")
    with pytest.raises(TooLarge, match=r"a 40×40×1400 product table exceeds 16777216"):
        check_tensor_size((40, 40, 1400), "product table")
