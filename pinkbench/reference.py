"""Reference computations made apart from pinkforge.

Nothing here imports pinkforge: every function rebuilds a quantity from
its closed form or checks a property the mathematics guarantees, so that
the benchmark can judge pinkforge's outputs without trusting them.
"""

from fractions import Fraction
from math import isqrt

import numpy as np

HECKE_PRIMES = (2, 3, 5, 7, 11, 13)


def primes_upto(X):
    """Primes <= X, from a sieve over the odd numbers only."""
    if X < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((X + 1) // 2, dtype=bool)      # slot i stands for 2i + 1
    odd[0] = False
    for i in range(1, (isqrt(X) - 1) // 2 + 1):
        if odd[i]:
            n = 2 * i + 1
            odd[n * n // 2::n] = False
    return np.concatenate([[2], 2 * np.nonzero(odd)[0] + 1]).astype(np.int64)


# -- characteristic 2 ---------------------------------------------------------

def odd_square_exponents(X, scale=1):
    """Exponents scale·m² <= X over odd m >= 1: the support of
    Delta(q^scale) mod 2, since Delta ≡ sum_{m odd} q^{m²} (mod 2)."""
    m = np.arange(1, isqrt(X // scale) + 1, 2, dtype=np.int64)
    return scale * m * m


def _xor_product(a, b, X, chunk=1 << 22):
    """Support of (sum q^a)(sum q^b) mod 2 up to degree X: every pairwise
    exponent sum, counted with multiplicity, kept where the count is odd."""
    if len(a) < len(b):
        a, b = b, a
    parity = np.zeros(X + 1, dtype=np.uint8)
    step = max(1, chunk // max(1, len(b)))
    for lo in range(0, len(a), step):
        s = (a[lo:lo + step, None] + b[None, :]).ravel()
        s = s[s <= X]
        parity ^= (np.bincount(s, minlength=X + 1) & 1).astype(np.uint8)
    return np.nonzero(parity)[0].astype(np.int64)


def delta_power_mod2(N, X):
    """0/1 coefficients a_0..a_X of Delta^N mod 2.

    Frobenius gives Delta^(2^i) ≡ Delta(q^(2^i)), so Delta^N is the
    product, over the binary digits i of N, of the sparse series
    sum_{m odd} q^(2^i·m²)."""
    exps = None
    for i in range(N.bit_length()):
        if N >> i & 1:
            f = odd_square_exponents(X, 1 << i)
            exps = f if exps is None else _xor_product(exps, f, X)
    out = np.zeros(X + 1, dtype=np.uint8)
    out[exps] = 1
    return out


def bits_to_int(coeffs):
    """0/1 coefficient array -> integer with bit n = a_n."""
    return int.from_bytes(np.packbits(coeffs.astype(np.uint8), bitorder="little").tobytes(),
                          "little")


def int_to_bits(value, deg):
    """Integer bitset -> 0/1 coefficient array a_0..a_deg."""
    raw = np.frombuffer(int(value).to_bytes(deg // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: deg + 1]


# -- odd characteristic -------------------------------------------------------

def _square_mod(a, p):
    """a² mod p truncated to len(a), by numpy's FFT.  The coefficients are
    below p, so the exact sums stay below len(a)·p² and the rounding
    residual is checked before it is trusted."""
    n = len(a)
    size = 1 << (2 * n - 1).bit_length()
    fa = np.fft.rfft(a.astype(np.float64), size)
    sq = np.fft.irfft(fa * fa, size)[:n]
    rounded = np.rint(sq)
    if np.abs(sq - rounded).max() >= 0.25:
        raise ArithmeticError("FFT rounding residual too large for an exact square")
    return rounded.astype(np.int64) % p


def delta_mod_p(p, X):
    """a_0..a_X of Delta mod an odd prime p <= 7, by Jacobi's identity
    prod (1 - q^n)^3 = sum_m (-1)^m (2m+1) q^(m(m+1)/2) and
    Delta = q·(prod (1 - q^n)^3)^8."""
    if p > 7:
        raise ValueError("the float FFT squares are exact only for small p")
    jac = np.zeros(X, dtype=np.int64)
    m = 0
    while m * (m + 1) // 2 < X:
        jac[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    f = jac % p
    for _ in range(3):
        f = _square_mod(f, p)
    return np.concatenate([[0], f]).astype(np.int64)


def hecke_violations(a, p, primes=HECKE_PRIMES):
    """Number of (ell, n) with a_{ell·n} + ell^11·a_{n/ell} ≢ a_ell·a_n (mod p)
    over the given primes ell and 1 <= n <= X/ell, plus one if a_1 != 1 or
    a_0 != 0.  The coefficients of a Hecke eigenform of weight 12 satisfy
    every one of these relations."""
    a = np.asarray(a, dtype=np.int64) % p
    X = len(a) - 1
    bad = int(a[0] != 0) + int(a[1] != 1)
    for ell in primes:
        n = np.arange(1, X // ell + 1, dtype=np.int64)
        lhs = a[ell * n].copy()
        div = n % ell == 0
        lhs[div] += pow(ell, 11, p) * a[n[div] // ell]
        bad += int(((lhs - a[ell] * a[n]) % p != 0).sum())
    return bad


# -- density recount ------------------------------------------------------------

def density_counts(coeffs, primes, p, X):
    """(bound, counted, total) at X/8, X/4, X/2 and X over primes ell
    coprime to p, counting ell with a_ell != 0."""
    ell = primes[(primes <= X) & (primes % p != 0)]
    hit = coeffs[ell] != 0
    rows = []
    for frac in (8, 4, 2, 1):
        sel = ell <= X // frac
        rows.append((X // frac, int(hit[sel].sum()), int(sel.sum())))
    return rows


# -- linear algebra over F_p and F_q ---------------------------------------------

def rank_mod_p(rows, p):
    """Rank of a list of integer vectors over F_p by Gaussian elimination."""
    M = [[int(x) % p for x in r] for r in rows]
    rank, ncols = 0, len(M[0]) if M else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        M[rank] = [x * inv % p for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def times_zeta(v, p, poly):
    """Multiply a vector of F_q-blocks by zeta, the root of the monic
    irreducible poly (coefficients low to high); block j holds the base-p
    digits of the F_q-coefficient of X^j."""
    f = len(poly) - 1
    out = []
    for j in range(0, len(v), f):
        d = [int(x) for x in v[j:j + f]]
        top = d[-1]
        shifted = [0] + d[:-1]
        out.extend((s - top * c) % p for s, c in zip(shifted, poly[:f]))
    return out


def fq_rank(rows, p, poly):
    """F_q-rank of the F_p-span of rows, as dim_Fp(F_q·span) / f."""
    f = len(poly) - 1
    span = [list(r) for r in rows]
    cur = span
    for _ in range(f - 1):
        cur = [times_zeta(r, p, poly) for r in cur]
        span += cur
    return rank_mod_p(span, p) // f


def measure_bound(p, group_order, gamma_order):
    """(p - 1)/(p·|Gbar|) with |Gbar| = |G|/|Gamma|."""
    return Fraction(p - 1, p * (group_order // gamma_order))
