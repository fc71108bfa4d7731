import functools
import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinkforge import modforms
from pinkforge.errors import CheckFailed, TooLarge
from pinkforge.fp import rref
from pinkforge.modforms import (
    SPARSE_CUTOFF,
    FpSeries,
    _dense_mul,
    _dense_plan,
    _divisor_sums,
    _eisenstein,
    _eta_cubed,
    _sturm_operators,
    _eta_terms,
    _pack_bits,
    _sparse_mul,
    _unpack_bits,
    cyclotomic_test,
    delta_expansion,
    density_sweep,
    eta_product_term,
    hecke_T,
    hecke_U,
    hecke_span,
    nilpotency_check,
    prime_sieve,
    series_mul,
    series_pow,
)


def tau_oracle(N):
    """Integer Ramanujan tau via the direct eta-product, naive convolution."""
    eta = [0] * (N + 1)
    eta[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= N:
        eta[k * (3 * k - 1) // 2] += (-1) ** k
        if k * (3 * k + 1) // 2 <= N:
            eta[k * (3 * k + 1) // 2] += (-1) ** k
        k += 1
    cur = [1] + [0] * N

    def mul(a, b):
        out = [0] * (N + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(N + 1 - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return out

    for _ in range(24):
        cur = mul(cur, eta)
    return [0] + cur[:N]


def test_ramanujan_congruences():
    # the divisor-sum routes: tau(n) = n·sigma_1(n) mod 5, sigma_11(n) mod 691
    N = 200
    tau = tau_oracle(N)
    for p, want in ((5, [n * sum(d for d in range(1, n + 1) if n % d == 0) % 5
                         for n in range(N + 1)]),
                    (691, [sum(d ** 11 for d in range(1, n + 1) if n % d == 0) % 691
                           for n in range(N + 1)])):
        assert [t % p for t in tau] == want
        assert delta_expansion(p, N).coeffs_array().tolist() == want


def test_delta_normalization():
    for p in (2, 3, 5, 7):
        d = delta_expansion(p, 16)
        assert d.coeff(0) == 0 and d.coeff(1) == 1


def test_delta_against_integer_tau():
    tau = tau_oracle(40)
    assert tau[2] == -24 and tau[3] == 252 and tau[5] == 4830
    for p in (2, 3, 5, 7):
        d = delta_expansion(p, 39)
        for n in range(1, 40):
            assert d.coeff(n) == tau[n] % p
    # spec'd residues: tau(2), tau(3), tau(5) all vanish mod 3
    d3 = delta_expansion(3, 6)
    assert d3.coeff(2) == 0 and d3.coeff(3) == 0 and d3.coeff(5) == 0


def test_delta_mod2_support_identity():
    d = delta_expansion(2, 100000)
    assert set(d.support()) == {n * n for n in range(1, 317, 2)}


def test_series_mul_basics():
    for p in (2, 5):
        f = FpSeries.from_coeffs(p, [0, 1, 2 % p, 1], deg=10)
        one = FpSeries.from_coeffs(p, [1], deg=10)
        assert series_mul(f, one) == f
    # product truncation degree is the min of the operands
    f = FpSeries.from_coeffs(3, list(range(8)), deg=7)
    g = FpSeries.from_coeffs(3, [1, 1], deg=4)
    assert series_mul(f, g).deg == 4


def test_frobenius_dilation():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        co = rng.integers(0, p, size=30)
        f = FpSeries.from_coeffs(p, co.tolist(), deg=100)
        assert series_pow(f, p) == f.dilate(p)


def test_char2_square_is_dilation():
    d = delta_expansion(2, 2000)
    sq = series_mul(d, d)
    assert set(sq.support()) == {2 * n * n for n in range(1, 32, 2)}


def test_delta_cube_naive_convolution_oracle():
    d = delta_expansion(2, 50)
    arr = d.coeffs_array()
    conv = np.convolve(np.convolve(arr, arr)[:51], arr)[:51]
    d3 = series_pow(d, 3)
    for n in range(51):
        assert d3.coeff(n) == int(conv[n]) % 2


def test_dense_gf2_mul_matches_shifts():
    rng = np.random.default_rng(1)
    deg = 50000
    mask = (1 << (deg + 1)) - 1
    for _ in range(3):
        a = int.from_bytes(rng.integers(0, 256, deg // 8 + 1, dtype=np.uint8).tobytes(), "little") & mask
        b = int.from_bytes(rng.integers(0, 256, deg // 8 + 1, dtype=np.uint8).tobytes(), "little") & mask
        fa, fb = FpSeries(2, deg, bits=a), FpSeries(2, deg, bits=b)
        assert min(fa.popcount(), fb.popcount()) > SPARSE_CUTOFF   # the dense path runs
        acc = 0
        for e in fa.support():
            acc ^= b << e
        assert series_mul(fa, fb).bits == acc & mask
        assert series_mul(fa, fa) == fa.dilate(2)


def shift_xor_reference(f, g):
    """The big-int loop the word kernel replaced: g << e for each set bit e of
    f, XORed together, masked to the product degree."""
    acc, x = 0, f.bits
    while x:
        e = (x & -x).bit_length() - 1
        acc ^= g.bits << e
        x &= x - 1
    return acc & ((1 << (min(f.deg, g.deg) + 1)) - 1)


def _random_bits(rng, deg):
    return _pack_bits(rng.integers(0, 2, deg + 1, dtype=np.uint8))


EDGE_DEGREES = (0, 63, 64, 65, 1000)


def _degree_pairs():
    rng = np.random.default_rng(64)
    pairs = [(a, b) for a in EDGE_DEGREES for b in EDGE_DEGREES]
    return pairs + [tuple(rng.integers(0, 5000, 2).tolist()) for _ in range(8)]


@pytest.mark.parametrize("fdeg,gdeg", _degree_pairs())
def test_sparse_gf2_mul_matches_big_int_shifts(fdeg, gdeg):
    rng = np.random.default_rng(fdeg * 7919 + gdeg)
    # exponents ≡ 0 and ≡ 63 (mod 64), random ones, and (when fdeg > gdeg)
    # some above the product degree
    edges = [e for e in range(fdeg + 1) if e % 64 in (0, 63)]
    support = edges + rng.integers(0, fdeg + 1, min(fdeg + 1, 300)).tolist()
    f = FpSeries.from_support(2, fdeg, support)
    g = FpSeries.from_support(2, gdeg, rng.integers(0, gdeg + 1, min(gdeg + 1, 1500)))
    assert f.popcount() <= SPARSE_CUTOFF and g.popcount() <= SPARSE_CUTOFF
    for a, b in ((f, g), (g, f), (f, f), (g, g)):
        got = series_mul(a, b)
        assert got.deg == min(a.deg, b.deg) and got.bits == shift_xor_reference(a, b)
    zero = FpSeries(2, fdeg)
    assert series_mul(zero, g).bits == 0 == series_mul(g, zero).bits


def test_gf2_product_takes_each_popcount_once(monkeypatch):
    # each popcount is an int.bit_count over the whole bitset, and a product
    # took up to three: 105 calls over the Delta^3..Delta^11 density tables
    f = FpSeries.from_support(2, 5000, range(0, 5000, 7))
    g = FpSeries.from_support(2, 5000, range(0, 5000, 3))
    counted = []
    popcount = FpSeries.popcount
    monkeypatch.setattr(FpSeries, "popcount", lambda self: counted.append(self) or popcount(self))
    for a, b in ((f, g), (g, f), (f, f)):
        counted.clear()
        assert series_mul(a, b).bits == shift_xor_reference(a, b)
        assert len(counted) == 2


@pytest.mark.parametrize("deg", EDGE_DEGREES + (2 ** 20 + 3,))
def test_gf2_codec_round_trip(deg):
    rng = np.random.default_rng(deg)
    top = 1 << deg
    for bits in (0, top, 2 * top - 1, _random_bits(rng, deg), _random_bits(rng, deg) | top):
        arr = _unpack_bits(bits, deg)
        assert arr.dtype == np.uint8 and arr.shape == (deg + 1,)
        if deg < 2000:
            assert arr.tolist() == [(bits >> n) & 1 for n in range(deg + 1)]
        assert _pack_bits(arr) == bits
        assert FpSeries(2, deg, coef=arr).bits == bits


def test_delta_cube_mod2_support_2e6():
    # one big-int step per set bit took 14 s here
    X = 2_000_000
    f = series_pow(delta_expansion(2, X), 3)
    t0 = time.perf_counter()
    got = f.support()
    elapsed = time.perf_counter() - t0
    # Delta^3 = Delta(q)·Delta(q^2) mod 2, and Delta = sum of q^(odd square)
    sq = np.arange(1, math.isqrt(X) + 1, 2) ** 2
    sums = (sq[:, None] + 2 * sq[None, :]).ravel()
    want = np.flatnonzero(np.bincount(sums[sums <= X], minlength=X + 1) % 2)
    assert len(got) == 49852 and got == want.tolist()
    assert elapsed < 1.0


@pytest.mark.parametrize("p", (2, 3, 5, 65521))
def test_from_support_checks_and_reduces(p):
    with pytest.raises(ValueError):
        FpSeries.from_support(p, 5, [-1, 0])
    # repeated exponents add, values are reduced mod p, exponents above deg drop
    f = FpSeries.from_support(p, 5, [1, 1, 2, 3, 9], [1, 1, p, p + 1, 1])
    assert [f.coeff(n) for n in range(6)] == [0, 2 % p, 0, 1, 0, 0]


@pytest.mark.parametrize("p", (2, 3))
def test_dilate_caps_the_exact_degree(p):
    # f(q^2) for a degree-4 f is exact only to degree 9, whatever is asked for
    d = FpSeries.from_support(p, 4, [1]).dilate(2, out_deg=20)
    assert d.deg == 9 and d.support() == [2]


def scatter_dilate(bits, deg, a, out_deg):
    """f(q) -> f(q^a) at p = 2 by the generic index scatter on decoded
    coefficients, as `FpSeries.dilate` does for every other p and a."""
    out_deg = min(out_deg, (deg + 1) * a - 1)
    top = min(deg, out_deg // a)
    out = np.zeros(out_deg + 1, dtype=np.uint8)
    out[::a][: top + 1] = _unpack_bits(bits, deg)[: top + 1]
    return out_deg, out


@pytest.mark.parametrize("deg", [0, 1, 7, 8, 9, 63, 64, 65, 1000, 99_999])
def test_dilate_mod2_by_byte_spread_equals_the_scatter(deg):
    rng = np.random.default_rng(deg)
    full = int.from_bytes(rng.bytes(deg // 8 + 1), "little") & ((1 << (deg + 1)) - 1)
    top_bit = 1 << deg          # above out_deg // a for each out_deg below a·deg, so dropped
    for bits in (full, full | top_bit, top_bit, 0):
        f = FpSeries(2, deg, bits=bits)
        assert np.array_equal(np.flatnonzero(_unpack_bits(bits, deg)), f.support())
        for a in (2, 4, 8):
            exact = (deg + 1) * a - 1
            for out_deg in sorted({0, deg // 2, deg, exact - 1, exact, exact + 1, 10 * exact}):
                g = f.dilate(a, out_deg=out_deg)
                want_deg, want = scatter_dilate(bits, deg, a, out_deg)
                assert g.deg == want_deg
                assert g.bits == _pack_bits(want)
                assert g.support() == np.flatnonzero(want).tolist()
        assert f.dilate(2) == FpSeries(2, deg, coef=scatter_dilate(bits, deg, 2, deg)[1])


def hecke_violations(a, p, X):
    """Number of (ell, n), ell <= 13 prime and n <= X/ell, at which
    a_{ell·n} + ell^11·a_{n/ell} == a_ell·a_n (mod p) fails."""
    bad = 0
    for ell in (2, 3, 5, 7, 11, 13):
        n = np.arange(1, X // ell + 1)
        lhs = a[ell * n].copy()
        div = n % ell == 0
        lhs[div] += pow(ell, 11, p) * a[n[div] // ell]
        bad += int(((lhs - a[ell] * a[n]) % p != 0).sum())
    return bad


def test_delta_mod_65521_hecke_relations_1e6():
    # a float FFT product without a rounding-error bound broke 2,376 of these
    p, X = 65521, 10 ** 6
    a = delta_expansion(p, X).coeffs_array()
    assert a[1] == 1 and hecke_violations(a, p, X) == 0


def test_dense_product_mod_65521_degree_1e6():
    # a float FFT product without a rounding-error bound was wrong at 110 of these
    p, deg = 65521, 10 ** 6
    rng = np.random.default_rng(65521)
    a = rng.integers(0, p, deg + 1)
    b = rng.integers(0, p, deg + 1)
    got = series_mul(FpSeries(p, deg, coef=a), FpSeries(p, deg, coef=b)).coeffs_array()
    for n in rng.integers(0, deg + 1, 1500).tolist():
        assert got[n] == a[: n + 1] @ b[n::-1] % p


def test_prime_limit():
    # int64 convolution overflowed here: wrong at 53 of 60 coefficients
    p = 2 ** 31 - 1
    tau = tau_oracle(60)
    d = delta_expansion(p, 60)
    assert [d.coeff(n) for n in range(61)] == [t % p for t in tau]
    with pytest.raises(ValueError):
        delta_expansion(4294967311, 60)


def _full_length_dense_mul(a, b, p):
    """The dense product as it was before the product by halves: one float
    FFT of length 2^k >= 2n - 1 per digit, with d products per spectrum."""
    n = a.shape[0]
    size = 1 << (2 * n - 2).bit_length()
    k, eps = size.bit_length() - 1, 2.0 ** -53
    err = math.expm1(6 * k * math.log1p(eps) + (3 * k + 1) * math.log1p(eps * math.sqrt(5)))
    bits = (p - 1).bit_length()
    for d in range(1, bits + 1):
        s = -(-bits // d)
        if d * size * min((1 << s) - 1, p - 1) ** 2 * err < 0.25:
            break
    else:
        raise TooLarge(f"no digit width keeps a degree-{n - 1} product exact")
    mask = (1 << s) - 1
    fa = [np.fft.rfft((a >> s * i & mask).astype(np.float64), size) for i in range(d)]
    fb = fa if b is a else [np.fft.rfft((b >> s * i & mask).astype(np.float64), size)
                            for i in range(d)]
    out = np.zeros(n, dtype=np.int64)
    for j in range(2 * d - 1):
        spec = sum(fa[i] * fb[j - i] for i in range(max(0, j - d + 1), min(j, d - 1) + 1))
        conv = np.fft.irfft(spec, size)[:n]
        exact = np.rint(conv)
        if np.abs(conv - exact).max() >= 0.25:
            raise CheckFailed("FFT rounding residual reached 1/4")
        out = (out + (exact.astype(np.int64) % p) * pow(2, s * j, p)) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2 ** 31 - 1])
def test_dense_mul_by_halves_equals_the_full_length_product(p):
    rng = np.random.default_rng(p)
    for n in (1, 2, 3, 4, 5, 1000, 1001, 2 ** 16, 2 ** 16 + 1):
        for a, b in ((rng.integers(0, p, n), rng.integers(0, p, n)),
                     (np.full(n, p - 1, dtype=np.int64), np.full(n, p - 1, dtype=np.int64))):
            kept = a.copy(), b.copy()
            assert np.array_equal(_dense_mul(a, b, p), _full_length_dense_mul(a, b, p)), n
            assert np.array_equal(_dense_mul(a, a, p), _full_length_dense_mul(a, a, p)), n
            assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])


@pytest.mark.parametrize("p", [2, 65521])
def test_series_mul_leaves_its_operands_unchanged(p):
    # series_mul hands _dense_mul the coefficient arrays themselves, not copies
    deg = 100_000
    rng = np.random.default_rng(p)
    f = FpSeries(p, deg, coef=rng.integers(0, p, deg + 1))
    g = FpSeries(p, deg, coef=rng.integers(0, p, deg + 1))
    if p == 2:
        assert min(f.popcount(), g.popcount()) > SPARSE_CUTOFF      # the dense path
    before = [x.coeffs_array() for x in (f, g)]
    want = _full_length_dense_mul(before[0], before[1], p)
    assert np.array_equal(series_mul(f, g).coeffs_array(), want)
    assert np.array_equal(series_mul(f, f).coeffs_array(),
                          _full_length_dense_mul(before[0], before[0], p))
    assert np.array_equal(f.coeffs_array(), before[0])
    assert np.array_equal(g.coeffs_array(), before[1])


@pytest.mark.parametrize("p", [3, 65521])
def test_reduced_results_are_kept_not_copied(p):
    # FpSeries.__init__ reduced every array mod p into a new one, even the
    # slice `truncate` passes and the products, shifts and sums made here
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, p, (2, 1000))
    a[0] = b[0] = p - 1
    f, g = FpSeries(p, 999, coef=a), FpSeries(p, 999, coef=b)
    t = f.truncate(499)
    assert np.shares_memory(t.coef, f.coef)
    assert t.deg == 499 and t.coef.tolist() == a[:500].tolist()
    ao, bo = a.astype(object), b.astype(object)
    assert series_mul(f, g).coef.tolist() == (np.convolve(ao, bo)[:1000] % p).tolist()
    assert series_mul(f, f).coef.tolist() == (np.convolve(ao, ao)[:1000] % p).tolist()
    assert f.shift(3).coef.tolist() == [0, 0, 0] + a.tolist()
    assert (f + g).coef.tolist() == ((ao + bo) % p).tolist()
    assert (f - g).coef.tolist() == ((ao - bo) % p).tolist()
    assert f.scale(-2).coef.tolist() == ((-2 * ao) % p).tolist()
    assert f.dilate(3, out_deg=2000).coef.tolist() == [
        int(a[n // 3]) if n % 3 == 0 else 0 for n in range(2001)]
    for h in (t, series_mul(f, g), f.shift(3), f + g, f.scale(5), f.dilate(2)):
        assert h.coef.dtype == np.int64 and len(h.coef) == h.deg + 1
    # the public constructor still reduces what it is given
    assert FpSeries(p, 4, coef=[-1, p, 2 * p + 5, 10 ** 12]).coef.tolist() == [
        p - 1, 0, 5 % p, 10 ** 12 % p, 0]


@pytest.mark.parametrize("p, square, bound", [(5, False, 8), (65521, False, 12.25),
                                             (5, True, 5.75), (65521, True, 8)])
def test_series_mul_memory_beyond_its_operands(p, square, bound):
    # the full-length product peaked at 14.4 and 20.8 operands here, and the
    # product by halves with full-length scratch at 9.9 and 14.0 (squares:
    # 7.8 and 9.9).  tracemalloc sees numpy's arrays but not pocketfft's own
    # scratch, so that scratch is not in the bound
    deg = 10 ** 6
    rng = np.random.default_rng(p)
    f = FpSeries(p, deg, coef=rng.integers(0, p, deg + 1))
    g = f if square else FpSeries(p, deg, coef=rng.integers(0, p, deg + 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series_mul(f, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * f.coef.nbytes


def _horner_reductions(n, p):
    """The digit indices j at which `_dense_mul` reduces its accumulator mod
    p before the step out·2^s + c_j, by its rule for a length-n product."""
    size, d, s = _dense_plan(n, p, False)
    most = n * min((1 << s) - 1, p - 1) ** 2
    top, at = 0, []
    for j in range(2 * d - 2, -1, -1):
        pairs = min(j, d - 1) - max(0, j - d + 1) + 1
        if (top << s) + pairs * most >= 1 << 63:
            at.append(j)
            top = p - 1
        top = (top << s) + pairs * most
    return d, at


@pytest.mark.parametrize("p, n, d, at", [
    (65521, 10 ** 5, 2, []),                # the running bound never nears 2^63
    (2 ** 31 - 1, 512, 2, [0]),             # the step before the last digit
    (2 ** 31 - 1, 10 ** 5, 3, [1]),
    (2 ** 31 - 1, 2 ** 18 + 1, 4, [2]),
])
def test_dense_mul_lazy_reduction_at_its_edges(p, n, d, at):
    # all entries p - 1: every digit and every partial sum at its largest.
    # Just after a reduction the bound is (p - 1)·2^s + pairs·n·M², far
    # below 2^63, so no two steps in a row reduce
    assert _horner_reductions(n, p) == (d, at)
    a = np.full(n, p - 1, dtype=np.int64)
    want = _full_length_dense_mul(a, a, p)
    assert np.array_equal(_dense_mul(a, a.copy(), p), want)
    assert np.array_equal(_dense_mul(a, a, p), want)


@pytest.mark.parametrize("p, n, d", [
    (3, 1024, 1), (3, 1025, 1),             # one digit: the transform length doubles
    (65521, 1024, 1), (65521, 1025, 2),
    (2 ** 31 - 1, 512, 2), (2 ** 31 - 1, 513, 3),
    (2 ** 31 - 1, 2 ** 18, 3), (2 ** 31 - 1, 2 ** 18 + 1, 4),
])
def test_dense_mul_square_equals_the_general_product(p, n, d):
    assert _dense_plan(n, p, True)[1] == d
    rng = np.random.default_rng(n)
    for a in (rng.integers(0, p, n), np.full(n, p - 1, dtype=np.int64)):
        assert np.array_equal(_dense_mul(a, a, p), _dense_mul(a, a.copy(), p))


def test_dense_plan_counts_pocketfft_scratch(monkeypatch):
    # the 2^24-point square at p = 65521, the largest the budget admits: two
    # digits, so 5 half-spectra, then the transform output, the result and
    # pocketfft's scratch of two transform lengths of float64
    size, n = 2 ** 24, 2 ** 24
    need = 5 * 16 * (size // 2 + 1) + 8 * size + 8 * n + 16 * size
    assert need == (1152 << 20) + 80
    assert need <= modforms.MAX_PRODUCT_BYTES
    assert _dense_plan(n, 65521, True) == (size, 2, 8)
    monkeypatch.setattr(modforms, "MAX_PRODUCT_BYTES", need)
    assert _dense_plan(n, 65521, True) == (size, 2, 8)
    monkeypatch.setattr(modforms, "MAX_PRODUCT_BYTES", need - 1)
    with pytest.raises(TooLarge, match="needs 1152 MiB"):
        _dense_plan(n, 65521, True)


def test_dense_mul_refuses_an_inexact_product(monkeypatch):
    # at length 2^45 no digit width meets the bound: raised before allocating
    huge = np.broadcast_to(np.int64(0), (2 ** 45,))
    with pytest.raises(TooLarge, match="no digit width"):
        _dense_mul(huge, huge, 2)
    # a length that meets the bound, but whose arrays are over the byte budget
    big = np.broadcast_to(np.int64(0), (2 ** 24 + 1,))
    with pytest.raises(TooLarge, match="above the budget"):
        _dense_mul(big, big, 65521)
    irfft = np.fft.irfft

    def skewed(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out += 0.25
        return out

    monkeypatch.setattr(np.fft, "irfft", skewed)
    a = np.arange(100, dtype=np.int64)
    with pytest.raises(CheckFailed, match="residual reached 1/4"):
        _dense_mul(a, a, 101)


BIG_PRIMES = (65521, 2 ** 31 - 1)


@pytest.mark.parametrize("p", (5, 7, 11) + BIG_PRIMES)
def test_jacobi_eta_cubed_is_the_cube_of_euler(p):
    d = 5000
    e, c = _eta_cubed(d)
    assert e[-1] <= d < e[-1] + len(e)
    got = FpSeries.from_support(p, d, e.tolist(), c.tolist())
    assert got == series_pow(eta_product_term(p, d), 3)


def pentagonal_delta(p, N):
    """Delta mod p as Euler's series to the 24th power: the route before the
    Jacobi and Frobenius factors."""
    return series_pow(eta_product_term(p, N - 1), 24).shift(1)


PRIMES_BELOW_50 = tuple(prime_sieve(50).tolist())


@pytest.mark.parametrize("p", PRIMES_BELOW_50 + (691, 1009) + BIG_PRIMES)
def test_delta_jacobi_route_equals_pentagonal_power(p):
    Ns, q = [20000] + list(range(1, 41)), p
    while q <= 70000:               # N = p^i and p^i + 1
        Ns += [q, q + 1]
        q *= p
    for N in Ns:
        got = delta_expansion(p, N)
        assert got.deg == N and np.array_equal(got.coeffs_array(),
                                               pentagonal_delta(p, N).coeffs_array()), N


# dense products per p: none at p = 5 (tau = n·sigma_1(n)), at p = 691 (tau =
# sigma_11(n)) or when eta^24 has at most two Frobenius factors; one for four
# (p = 3 works at degree (N-1)//3); one squaring of E_6 at degree N else
DENSE_PRODUCTS = {2: 0, 5: 0, 7: 0, 23: 0, 691: 0,
                  3: 1, 11: 1, 17: 1, 19: 1, 13: 1, 65521: 1}


@pytest.mark.parametrize("p", sorted(DENSE_PRODUCTS))
def test_delta_dense_products_per_prime(p, monkeypatch):
    calls = []

    def counted(a, b, mod):
        calls.append((a.shape[0] - 1, b.shape[0] - 1, a is b))
        return _dense_mul(a, b, mod)

    monkeypatch.setattr(modforms, "_dense_mul", counted)
    N = 1000
    delta_expansion(p, N)
    deg = {3: (N - 1) // 3, 13: N, 65521: N}.get(p, N - 1)
    squaring = p in (3, 11, 13, 65521)
    assert calls == [(deg, deg, squaring)] * DENSE_PRODUCTS[p]


def test_sparse_eta_sixth_exactness_bound():
    # K = 185,364 Jacobi terms: raised before the degree-2^34 array is allocated
    J = _eta_cubed(2 ** 34)
    with pytest.raises(TooLarge):
        _sparse_mul(5, 2 ** 34, J, J)


def test_delta_degree_is_capped_before_allocating():
    # degree 1e19 at p = 3 went on to allocate 11.1 GiB of Euler exponents
    for p in (2, 3, 65521):
        with pytest.raises(TooLarge):
            delta_expansion(p, modforms.MAX_DEGREE + 1)
    assert delta_expansion(2, modforms.MAX_DEGREE).deg == modforms.MAX_DEGREE


def test_sparse_mul_matches_a_dense_convolution():
    rng = np.random.default_rng(53)
    for deg in (0, 1, 7, 300):
        x, y = _eta_cubed(deg), _eta_terms(deg)
        for a, b in ((x, y), (y, x), (x, x)):
            da = np.zeros(deg + 1, dtype=np.int64)
            db = np.zeros(deg + 1, dtype=np.int64)
            da[a[0]], db[b[0]] = a[1], b[1]
            for p in (3, 65521, 2 ** 31 - 1):
                want = np.convolve(da, db)[: deg + 1] % p
                assert np.array_equal(_sparse_mul(p, deg, a, b).coeffs_array(), want)
    # random supports with large coefficients, 1,500 terms each
    e = np.sort(rng.choice(5000, 1500, replace=False))
    c = rng.integers(-10 ** 5, 10 ** 5, e.size)
    dense = np.zeros(5000, dtype=np.int64)
    dense[e] = c
    want = np.convolve(dense, dense)[:5000] % 65521       # below 2^44: exact in int64
    assert np.array_equal(_sparse_mul(65521, 4999, (e, c), (e, c)).coeffs_array(), want)


def euler_loop(deg):
    """Euler's pentagonal exponents and signs, term by term."""
    terms, k = {0: 1}, 1
    while k * (3 * k - 1) // 2 <= deg:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= deg:
                terms[e] = (-1) ** k
        k += 1
    return sorted(terms.items())


@pytest.mark.parametrize("deg", list(range(41)) + [5000, 5001, 10 ** 6])
def test_euler_terms_match_the_pentagonal_loop(deg):
    e, c = _eta_terms(deg)
    assert list(zip(e.tolist(), c.tolist())) == euler_loop(deg)
    assert eta_product_term(7, deg).support() == e.tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40))
def test_mul_commutes_and_distributes(n1, n2):
    rng = np.random.default_rng(n1 * 97 + n2)
    p = 3
    f = FpSeries.from_coeffs(p, rng.integers(0, p, size=n1).tolist(), deg=60)
    g = FpSeries.from_coeffs(p, rng.integers(0, p, size=n2).tolist(), deg=60)
    h = FpSeries.from_coeffs(p, rng.integers(0, p, size=17).tolist(), deg=60)
    assert series_mul(f, g) == series_mul(g, f)
    lhs = series_mul(f, g + h)
    rhs = series_mul(f, g) + series_mul(f, h)
    assert lhs == rhs


def test_hecke_U_examples():
    # series supported away from multiples of ell maps to zero
    f = FpSeries.from_support(2, 100, [1, 2, 4, 7, 8])
    assert hecke_U(3, f).support() == []
    g = FpSeries.from_support(2, 100, [3, 9, 12])
    assert set(hecke_U(3, g).support()) == {1, 3, 4}
    with pytest.raises(ValueError):
        hecke_U(4, f)


def test_hecke_T_char2_is_U_plus_V():
    f = series_pow(delta_expansion(2, 3000), 3)
    t = hecke_T(5, 0, f)
    arr = f.coeffs_array()
    out = t.coeffs_array()
    for n in range(1, t.deg + 1):
        want = int(arr[5 * n])
        if n % 5 == 0:
            want ^= int(arr[n // 5])
        assert int(out[n]) == want


def test_hecke_a1_identity_random(rng):
    # a_1(T_ell f) = a_ell(f) on 200 random (ell, f) pairs across p = 2, 3
    count = 0
    for p in (2, 3):
        primes = [ell for ell in (3, 5, 7, 11, 13) if ell != p]
        base = delta_expansion(p, 4000)
        for i in range(100):
            n = int(rng.integers(1, 6))
            f = series_pow(base, n)
            ell = primes[int(rng.integers(0, len(primes)))]
            k_eff = int(rng.integers(0, max(1, p - 1)))
            t = hecke_T(ell, k_eff, f)
            assert t.coeff(1) == f.coeff(ell)
            count += 1
    assert count == 200


def test_hecke_commutativity(rng):
    for p in (2, 3):
        f = series_pow(delta_expansion(p, 20000), int(rng.integers(1, 5)))
        for (l1, l2) in ((3, 5), (5, 7), (3, 11)):
            if p in (l1, l2):
                continue
            a = hecke_T(l2, 0, hecke_T(l1, 0, f))
            b = hecke_T(l1, 0, hecke_T(l2, 0, f))
            assert a == b


def test_density_zero_cases():
    z = FpSeries(2, 10 ** 5)
    rep = density_sweep(z, 10 ** 5)
    assert rep.estimate == 0.0
    d = delta_expansion(2, 10 ** 5)
    rep2 = density_sweep(d, 10 ** 5)
    assert rep2.estimate == 0.0      # primes are never odd squares
    with pytest.raises(TooLarge, match="series degree 100000 below sweep bound 1000000"):
        density_sweep(d, 10 ** 6)


def test_density_checkpoints_extend():
    # rerunning at larger X extends the prime-by-prime counts
    f = series_pow(delta_expansion(2, 200000), 3)
    rep_small = density_sweep(f, 100000)
    rep_big = density_sweep(f, 200000)
    assert rep_big.checkpoints[2][:3] == rep_small.checkpoints[-1][:3]
    assert 0.0 <= rep_big.estimate <= 1.0


@functools.cache
def primes_by_trial_division(X):
    return [n for n in range(2, X + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def density_recount(f, X, Np):
    """density_sweep's report, one prime at a time, by math.gcd and coeff."""
    Np = f.p if Np is None else Np
    if Np % f.p:
        Np *= f.p
    primes = [ell for ell in primes_by_trial_division(10 ** 5)
              if ell <= X and math.gcd(ell, Np) == 1]
    checkpoints = []
    for frac in (8, 4, 2, 1):
        bound = X // frac
        tot = sum(1 for ell in primes if ell <= bound)
        cnt = sum(1 for ell in primes if ell <= bound and f.coeff(ell))
        checkpoints.append({"X": bound, "counted": cnt, "total": tot,
                            "estimate": cnt / tot if tot else 0.0})
    last = checkpoints[-1]
    return {"X": X, "Np": Np, "counted": last["counted"], "total_primes": last["total"],
            "estimate": last["estimate"], "checkpoints": checkpoints}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_density_sweep_equals_a_per_prime_recount(p):
    X_max = 10 ** 5
    rng = np.random.default_rng(p)
    forms = [series_pow(delta_expansion(p, X_max), 3 if p == 2 else 1),
             FpSeries(p, X_max, coef=rng.integers(0, p, X_max + 1) * (rng.random(X_max + 1) < 0.3))]
    # 99,991 and 97 are primes at X = 10^5 and X = 97
    for Np in (None, 6, 35, 30030, 3 * 99_991, 2 * 97):
        for X in (1, 2, 3, 8, 97, X_max):
            for f in forms:
                assert density_sweep(f, X, Np=Np).to_dict() == density_recount(f, X, Np)


def test_cyclotomic_character_form():
    # a_ell = chi(ell) for the quadratic character mod 4, over F_3
    X = 20000
    coef = np.zeros(X + 1, dtype=np.int64)
    coef[1::4] = 1
    coef[3::4] = 2
    f = FpSeries(3, X, coef=coef)
    verdict, table = cyclotomic_test(f, 4, X)
    assert verdict and table == {1: 1, 3: 2}


def test_cyclotomic_violations():
    # Delta^9 mod 2 is not constant on residue classes mod 8 (nor 16, 32)
    f = series_pow(delta_expansion(2, 100000), 9)
    for M in (8, 16, 32):
        verdict, pair = cyclotomic_test(f, M, 100000)
        assert not verdict
        l1, l2 = pair
        assert l1 % M == l2 % M
        assert f.coeff(l1) != f.coeff(l2)
    # frozen first witness for M = 8 (deterministic sweep)
    verdict, pair = cyclotomic_test(f, 8, 100000)
    assert pair == (17, 41)


def cyclotomic_loop(f, M, X, Np=1):
    """cyclotomic_test before it gathered: one prime at a time."""
    primes = prime_sieve(X)
    primes = primes[np.gcd(primes, M * Np * f.p) == 1]
    arr = f.coeffs_array()
    table, first = {}, {}
    for ell in primes.tolist():
        r, v = ell % M, int(arr[ell])
        if r not in table:
            table[r], first[r] = v, ell
        elif table[r] != v:
            return False, (first[r], ell)
    return True, table


def test_cyclotomic_gather_matches_the_loop(delta2_2m, delta_powers_2m):
    X = 2_000_000
    d3 = delta_expansion(3, X)
    cases = [(delta2_2m, 8), (delta2_2m, 1), (delta2_2m, 3 * 10 ** 6),
             (delta_powers_2m[3], 4), (delta_powers_2m[9], 8), (d3, 3), (d3, 1)]
    verdicts = set()
    for f, M in cases:
        got, want = cyclotomic_test(f, M, X), cyclotomic_loop(f, M, X)
        assert got == want
        if got[0]:
            assert list(got[1].items()) == list(want[1].items())   # first-appearance order
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_cyclotomic_random_sparse_fuzz(rng):
    X = 30000
    hits = 0
    for _ in range(5):
        support = rng.integers(1, X, size=60)
        f = FpSeries.from_support(2, X, support.tolist())
        verdict, _ = cyclotomic_test(f, 8, X)
        hits += (not verdict)
    assert hits >= 4       # sparse random series are essentially never constant


def test_hecke_span_eigenform_like():
    # a 1-dimensional span: f with T_3 f = f built as a lambda-eigen series
    # is hard to fabricate exactly; use Delta mod 2, where T_ell Delta = 0
    span = hecke_span(2, 1, [3, 5])
    assert span.dim == 1
    assert not span.matrices[3].any() and not span.matrices[5].any()
    order, _ = nilpotency_check(span, 3, 0)
    assert order == 1


def test_hecke_span_delta_cube():
    span = hecke_span(2, 3, [3, 5])
    assert span.dim == 2
    M3, M5 = span.matrices[3], span.matrices[5]
    assert not ((M3 @ M5 - M5 @ M3) % 2).any()
    k3, _ = nilpotency_check(span, 3, 0)
    k5, _ = nilpotency_check(span, 5, 0)
    assert k3 == 2 and k5 == 1
    # wrong eigenvalue: failure witness
    order, witness = nilpotency_check(span, 3, 1)
    assert order is None and witness is not None


def test_hecke_span_reports_where_the_degree_ran_out():
    # at degree 200 the usable degree of the truncated series fell below its
    # floor; on a_0..a_3 the span reports.  T_ell Delta^3 = a_ell(Delta^3)·Delta
    # mod 2, and Delta^3 = Delta(q)·Delta(q^2) = q^3 + q^11 + ...
    span = hecke_span(2, 3, [3, 5, 7, 11])
    assert span.dim == 2
    assert [b.tolist() for b in span.basis] == [[0, 1, 0, 0], [0, 0, 0, 1]]
    assert {ell: m.tolist() for ell, m in span.matrices.items()} == {
        3: [[0, 1], [0, 0]], 5: [[0, 0], [0, 0]], 7: [[0, 0], [0, 0]], 11: [[0, 1], [0, 0]]}


def test_hecke_span_basis_budget():
    # refused before any series is built: (n + 1)·(ell_max·n + 1) coefficients
    with pytest.raises(TooLarge, match="exceeds the cap of 20000000 coefficients"):
        hecke_span(2, 10 ** 12, [3])
    with pytest.raises(TooLarge, match="exceeds the cap"):
        hecke_span(3, 1, [2147483647])


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 97, 5000])
def test_divisor_sums_against_brute_force(N):
    sums = {b: [0] * (N + 1) for b in (1, 3, 5, 11)}
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            for b, row in sums.items():
                row[n] += d ** b
    for p in (3, 5, 13, 65521, 2 ** 31 - 1):
        got = _divisor_sums(p, (1, 3, 5, 11), N)
        assert got.shape == (4, N + 1)
        for row, b in zip(got, (1, 3, 5, 11)):
            assert row.tolist() == [s % p for s in sums[b]], (p, b)


@pytest.mark.parametrize("deg", [1, 2, 3, 4, 8, 9, 10, 48, 49, 50, 1000])
def test_eisenstein_e4_against_divisor_sums(deg):
    for p in (2, 3, 5, 7, 691, 65521):
        sigma3 = [sum(d ** 3 for d in range(1, m + 1) if m % d == 0) for m in range(deg + 1)]
        want = [1] + [240 * s % p for s in sigma3[1:]]
        assert _eisenstein(p, 3, 240, deg).coeffs_array().tolist() == want


def _sturm_operators_on_e4_cubed(p, n, primes):
    """Q_ell read off the basis Delta^c·E_4^{3(n-c)}, the reference for the
    Delta^c·E_12^{n-c} basis: both are unitriangular, so Q_ell agrees."""
    deg = max(1, max(primes) * n)
    one = FpSeries.from_coeffs(p, [1], deg=deg)
    delta, e4_cubed = delta_expansion(p, deg), series_pow(_eisenstein(p, 3, 240, deg), 3)
    b, e = [one, delta][: n + 1], e4_cubed
    for _ in range(n - 1):
        b.append(series_mul(b[-1], delta))
    for c in range(n - 1, 0, -1):
        b[c], e = series_mul(b[c], e), series_mul(e, e4_cubed)
    b[0] = e if n else one
    rows = [[g.truncate(n).coeffs_array()
             for g in [f] + [hecke_T(ell, 12 * n, f) for ell in primes]] for f in b]
    R, _ = rref(np.array(rows).reshape(n + 1, -1), p)
    return {ell: R[:, (i + 1) * (n + 1):(i + 2) * (n + 1)].T for i, ell in enumerate(primes)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 691, 65521])
def test_sturm_operators_match_the_e4_cubed_basis(p):
    for n, primes in ((0, [2]), (1, [2, 3]), (2, [3, 5]), (4, [2, 7])):
        got, want = _sturm_operators(p, n, primes), _sturm_operators_on_e4_cubed(p, n, primes)
        assert list(got) == list(want)
        for ell in primes:
            assert np.array_equal(got[ell], want[ell]), (p, n, ell)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 65521])
def test_eisenstein_e12_against_divisor_sums(p):
    deg = 60
    sigma11 = [sum(d ** 11 for d in range(1, m + 1) if m % d == 0) for m in range(deg + 1)]
    want = [1] + [65520 * s * pow(691, -1, p) % p for s in sigma11[1:]]
    assert _eisenstein(p, 11, 65520 * pow(691, -1, p), deg).coeffs_array().tolist() == want


# The span at the parent, which tracked the usable degree of truncated series:
# (p, n, primes, dim, nilpotency orders of T_3 and T_5 at p = 2, sha256 of
# json.dumps of the report's matrices with sorted keys), from `pink span` at a
# --deg where it reports with a usable degree of at least n, and --k-eff 12n
# where (p - 1) does not divide 12.
DEGREE_TRACKING_SPANS = [
    (2, 0, "3,5", 1, (1, 1),
     "1e46a8a2a54a3ff68e7fb34a8e0bab4be7e026ff5cc26cf59765ae7dd99c2d5a"),
    (2, 1, "3,5", 1, (1, 1),
     "1e46a8a2a54a3ff68e7fb34a8e0bab4be7e026ff5cc26cf59765ae7dd99c2d5a"),
    (2, 2, "3,5", 1, (1, 1),
     "1e46a8a2a54a3ff68e7fb34a8e0bab4be7e026ff5cc26cf59765ae7dd99c2d5a"),
    (2, 3, "3,5", 2, (2, 1),
     "42c1bd6f82bedcfe66b6098318a1202b57b36dd5e25629460bcf265cc36aa6f7"),
    (2, 4, "3,5", 1, (1, 1),
     "1e46a8a2a54a3ff68e7fb34a8e0bab4be7e026ff5cc26cf59765ae7dd99c2d5a"),
    (2, 5, "3,5", 2, (1, 2),
     "c0dc2e06f4d9698e61650efbfb661c90d2b7e5f47186147b04f7964ef46ec143"),
    (2, 6, "3,5", 2, (2, 1),
     "42c1bd6f82bedcfe66b6098318a1202b57b36dd5e25629460bcf265cc36aa6f7"),
    (2, 7, "3,5", 4, (2, 2),
     "33c76c4264c952014ecae5e14cb45e94a1864acb888aeb4fbe1052e8b3f9087c"),
    (2, 8, "3,5", 1, (1, 1),
     "1e46a8a2a54a3ff68e7fb34a8e0bab4be7e026ff5cc26cf59765ae7dd99c2d5a"),
    (2, 9, "3,5", 3, (3, 1),
     "a630bd87c0db450c8e8f266461e85d5a8aed24366cc8b64a258872acfeae272b"),
    (2, 10, "3,5", 2, (1, 2),
     "c0dc2e06f4d9698e61650efbfb661c90d2b7e5f47186147b04f7964ef46ec143"),
    (2, 11, "3,5", 4, (4, 1),
     "9bfd44578dda0e49a627da0c4d14d44a8c71c6d74c2873076715cabcd5aa0838"),
    (2, 12, "3,5", 2, (2, 1),
     "42c1bd6f82bedcfe66b6098318a1202b57b36dd5e25629460bcf265cc36aa6f7"),
    (2, 13, "3,5", 6, (3, 2),
     "f1ec00074bbdc4b039c6e48dba9203ebda1d6680203e7b1195cceaea929c7d8a"),
    (2, 14, "3,5", 4, (2, 2),
     "33c76c4264c952014ecae5e14cb45e94a1864acb888aeb4fbe1052e8b3f9087c"),
    (2, 15, "3,5", 8, (4, 2),
     "42bc92f998f1411a15013ab3fd82cc00281624e44ad7003012d26213c6a0a08d"),
    (2, 16, "3,5", 1, (1, 1),
     "1e46a8a2a54a3ff68e7fb34a8e0bab4be7e026ff5cc26cf59765ae7dd99c2d5a"),
    (2, 17, "3,5", 3, (1, 3),
     "0400ba4cea4de9b05bff30d4bbbadb5216d5f19fb40975dd1a9b1026a1233719"),
    (2, 18, "3,5", 3, (3, 1),
     "a630bd87c0db450c8e8f266461e85d5a8aed24366cc8b64a258872acfeae272b"),
    (2, 19, "3,5", 6, (4, 3),
     "02cf8d5bb894a66be45af35a7e45fd6fb19d9c81606ead21b0fe6603c16edb28"),
    (2, 20, "3,5", 2, (1, 2),
     "c0dc2e06f4d9698e61650efbfb661c90d2b7e5f47186147b04f7964ef46ec143"),
    (2, 21, "3,5", 6, (3, 4),
     "63c96d0cf56cfd58f2b22fe2f1083d658dde989fe8764bc6e8530cf3fa83d5c6"),
    (2, 22, "3,5", 4, (4, 1),
     "9bfd44578dda0e49a627da0c4d14d44a8c71c6d74c2873076715cabcd5aa0838"),
    (2, 23, "3,5", 8, (2, 4),
     "d575a99859856e3414e5190efc1d542bda3abdbb8433a4309f865f3ce0e7fdcc"),
    (2, 24, "3,5", 2, (2, 1),
     "42c1bd6f82bedcfe66b6098318a1202b57b36dd5e25629460bcf265cc36aa6f7"),
    (2, 25, "3,5", 9, (3, 3),
     "90d38138801e41be88ccae2895d4c3c7308843cfe92b670243c7b9682d594b53"),
    (2, 26, "3,5", 6, (3, 2),
     "f1ec00074bbdc4b039c6e48dba9203ebda1d6680203e7b1195cceaea929c7d8a"),
    (2, 27, "3,5", 12, (4, 3),
     "c64c1123be6424d932c0ee9ebf08e69c845a50d13be8cc65713700dd98cfef16"),
    (2, 28, "3,5", 4, (2, 2),
     "33c76c4264c952014ecae5e14cb45e94a1864acb888aeb4fbe1052e8b3f9087c"),
    (2, 29, "3,5", 12, (3, 4),
     "452e0604fca7c0b3a25a1821f0dced0bef08aeb5e70b020a577d4e0c952a8c21"),
    (2, 30, "3,5", 8, (4, 2),
     "42bc92f998f1411a15013ab3fd82cc00281624e44ad7003012d26213c6a0a08d"),
    (2, 31, "3,5", 16, (4, 4),
     "bf3b415e5cace3ac03d8990ee6542c0cb7eb25d4ee68127c257c88c0640a5372"),
    (3, 0, "2,5", 1, None,
     "89162a5c576e2fd0ea1053d12c1662004bea49f9d627563c5c6671d8afe544e6"),
    (3, 1, "2,5", 1, None,
     "89162a5c576e2fd0ea1053d12c1662004bea49f9d627563c5c6671d8afe544e6"),
    (3, 2, "2,5", 2, None,
     "3872aeb48f4da73f71d48231a335a0093df77b7087ec6392c6c30bbca03a6695"),
    (3, 4, "2,5", 3, None,
     "f953094bd4153fb196e99ab8ba1e823dc4afa8b9f0af09345465db46e261599d"),
    (3, 5, "2,5", 4, None,
     "12dee722956b49061e8798501e9a894726a4c7de621d88a1ccb8ee1279b1ae80"),
    (3, 7, "2,5", 5, None,
     "05cd9e853c1f58894f8c1d2618e609e4676f640b49f0b7f06f7f6ca0d9927c72"),
    (3, 13, "2,5", 5, None,
     "8ba4f884ad2b876afa723a063446bfdba1ee1df816a46fabee63eaac5675d302"),
    (5, 0, "2,3", 1, None,
     "712ed1bf6688ae03f4b00fdeabfa550fb95c9dc91b32db00fd04c0e4f2f957df"),
    (5, 1, "2,3", 1, None,
     "470afe02467712fa4ca30db30496d817f41d781f575b4d7d8756c07dce583fe9"),
    (5, 2, "2,3", 2, None,
     "0cff5bf7826320c33dd0d3ae33b1693d8a622b0adc09aac8e42e433dfee7b61a"),
    (5, 3, "2,3", 3, None,
     "275ae86039ce0220f902a6da1a58cd0a9e60b44daf6ef6c08e09ed86e708d058"),
    (5, 4, "2,3", 4, None,
     "b07a6e044469316caf47a05ea0306ce3f49cb66278738e5069b02f360b9df0ab"),
    (7, 0, "2,3", 1, None,
     "1b70df2a13fd8ab1038a4a0ec04f73b24f56c41e7746b7b4c178e2f2b1569697"),
    (7, 1, "2,3", 1, None,
     "63a266c097f15d634531e9a65f3acc9724fdde4920f4cebaf1269137abcafd80"),
    (7, 2, "2,3", 2, None,
     "039c954e11f0558f663207b9754bb2099a8e0203e2fd25441a9cbf725c08ede7"),
    (7, 3, "2,3", 3, None,
     "56ecf9e12325daa129017c60252170c768b85efdbe0ec2c7c0c178d254cf6e5e"),
    (11, 0, "2,3", 1, None,
     "d6b93d0f34accb1ae0bd38ea36f7a39f1e715c5b73609c5f34378b533f1413c6"),
    (11, 1, "2,3", 1, None,
     "02dccf713c8b95dcedc3a55ca980d39c5faaaac6c3e5c2c90c631a77b6a8dcdb"),
    (11, 2, "2,3", 2, None,
     "baae64ad041a69c1e33a85f6eb85c202aae5a3e52847afc7869c60a019742af9"),
    (13, 3, "2,13", 3, None,
     "9a452286b02df776ca073de9a7ba84e33fe72348fdf6c48be2e1533d2b3d847d"),
    (257, 2, "2,3", 2, None,
     "3a8a24af0e5c188152ff8dbe680a3ca4b545884baf8780507973c547a2ce98cc"),
    (65521, 2, "2,3", 2, None,
     "ebe5eb105c3e4b72d309fff036120d06008659f970a21fd7f7d7afdb77a9a373"),
]


@pytest.mark.parametrize("p, n, primes, dim, nil, digest", DEGREE_TRACKING_SPANS,
                         ids=[f"p{c[0]}-n{c[1]}" for c in DEGREE_TRACKING_SPANS])
def test_hecke_span_matches_the_degree_tracking_span(p, n, primes, dim, nil, digest):
    ells = [int(ell) for ell in primes.split(",")]
    span = hecke_span(p, n, ells)
    matrices = json.dumps({str(ell): span.matrices[ell].tolist() for ell in ells}, sort_keys=True)
    assert hashlib.sha256(matrices.encode()).hexdigest() == digest
    assert span.dim == dim
    if nil is not None:
        assert tuple(nilpotency_check(span, ell, 0)[0] for ell in ells) == nil


def _nicolas_serre_height(n):
    """n_3 + n_5 for n = sum beta_i 2^i: n_3 = sum beta_{2i+1} 2^i and
    n_5 = sum beta_{2i+2} 2^i."""
    beta = bin(n)[:1:-1]
    return int(beta[1::2][::-1] or "0", 2) + int(beta[2::2][::-1] or "0", 2)


def test_nicolas_serre_height():
    """For every odd n <= 255, the largest i + j with T_3^i T_5^j Delta^n != 0
    mod 2 is n_3 + n_5 (Nicolas and Serre, C. R. Acad. Sci. Paris 350, 2012).
    On each span M_3 and M_5 commute, and a_ell(g) = a_1(T_ell g) on the
    basis, with a_ell read off g = sum x_c Delta^c where ell > n."""
    t0 = time.time()
    d = delta_expansion(2, 255)
    powers = [FpSeries.from_coeffs(2, [1], deg=255)]
    for _ in range(255):
        powers.append(series_mul(powers[-1], d))
    P = np.array([f.coeffs_array() for f in powers])     # a_m(Delta^c) mod 2
    assert _nicolas_serre_height(21) == 3 and _nicolas_serre_height(255) == 15 + 7
    for n in range(1, 256, 2):
        span = hecke_span(2, n, [3, 5], max_dim=128)
        M3, M5 = span.matrices[3], span.matrices[5]
        assert not ((M3 @ M5 - M5 @ M3) % 2).any()
        V = np.array(span.basis)
        assert np.flatnonzero(V[-1]).tolist() == [n]        # Delta^n, added first
        # a_0..a_{max(n, 5)} of each basis form, through the Delta^c it combines
        A = rref(P[: n + 1, : max(n, 5) + 1], 2)[0]
        coeffs = V @ A % 2
        for ell, M in ((3, M3), (5, M5)):
            assert np.array_equal(coeffs[:, ell], V[:, 1] @ M % 2)
        height, v, j = -1, np.eye(span.dim, dtype=np.int64)[-1], 0
        while v.any():
            w, i = v, 0
            while w.any():
                height, w, i = max(height, i + j), M3 @ w % 2, i + 1
            v, j = M5 @ v % 2, j + 1
        assert height == _nicolas_serre_height(n), n
    assert time.time() - t0 < 20.0


def test_prime_sieve():
    ps = prime_sieve(100)
    assert ps[0] == 2 and ps[-1] == 97 and len(ps) == 25


def sieve_of_all_numbers(X):
    """The reference: a sieve over every number up to X, not only the odd ones."""
    is_p = np.ones(X + 1, dtype=bool)
    is_p[:2] = False
    for i in range(2, int(X ** 0.5) + 1):
        if is_p[i]:
            is_p[i * i:: i] = False
    return np.nonzero(is_p)[0]


def test_odd_prime_sieve_matches_the_full_sieve():
    for X in list(range(2001)) + [10 ** 6]:
        got, want = prime_sieve(X), sieve_of_all_numbers(X)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), X


def test_delta_mod2_support_spot_check_1e7():
    # the identity holds out to 1e7: exact support comparison
    import time
    t0 = time.time()
    d = delta_expansion(2, 10_000_000)
    got = set(d.support())
    want = {n * n for n in range(1, 3163, 2) if n * n <= 10_000_000}
    assert got == want
    assert time.time() - t0 < 30.0


def test_hecke_span_dimension_guard():
    from pinkforge.modforms import TooLarge
    with pytest.raises(TooLarge):
        hecke_span(2, 3, [3, 5], max_dim=1)
