"""Level-one q-expansions over F_p: the discriminant form and its powers,
Hecke operators, prime-coefficient densities, cyclotomicity sweeps, and the
Hecke-stable span of Delta^n in M_12n (weight 12n), whose forms are fixed by
a_0..a_n (Sturm, LNM 1240, 1987), on the basis Delta^c·E_12^{n-c}.

Series are dense and truncated: a degree-N series knows its coefficients
a_0..a_N exactly.  Multiplication truncates to the smaller degree.  For
p = 2 the coefficients are the bits of a python integer (bit n = a_n); one
codec turns them into a uint8 0/1 array and back, and a product by a sparse
factor XORs shifted copies of the other in place on uint64 words (one copy
per exponent mod 64, the exponents read from a bool view of the decoded
factor).  The Frobenius dilation f(q) -> f(q^2) spreads each byte of the
bitset to 16 bits through one table, and a density sweep reads a_ell from
the bitset's bytes, so neither decodes the series.  Every other product
is by pieces: cut into P <= 8 pieces of m terms, it keeps the piece pairs
i + i' < P, each class i + i' = k one convolution added at offset k·m, by
numpy float FFTs of base-2^s digits of length about 2m (2^18 points up to
degree 2^20), sized by a rounding-error bound and checked.

Delta comes from Frobenius where eta^24 has at most four factors: eta(q)^{p^i}
= eta(q^{p^i}) mod p splits it into dilated Euler (eta) and Jacobi (eta^3)
series, multiplied exactly over Z; then no dense product runs at p = 2, 7, 23
and one at p = 3, 11, 17, 19.  Elsewhere it comes from divisor sums, which
one sieve gives: Ramanujan's tau(n) = n·sigma_1(n) mod 5 needs no product,
and 762048·Delta = 691·E_12 - 691·E_6^2 one squaring at p = 13 and p >= 29,
none at p = 691.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed, TooLarge
from .fp import matmul_mod, rref
from .localring import is_prime


P_LIMIT = 2 ** 31          # primes below this keep int64 coefficient arithmetic exact
# Popcount up to which GF(2) products use the word-packed shift-XOR kernel.
# Its crossover with the dense product by pieces grows with the degree: about
# 2,000-3,000 terms at 2e4, 18,000 at 1e5, 19,000-25,000 at 2e5, 30,000 at
# 5e5 and 43,000-54,000 at 2e6.  Kernel / FFT for a random 20,000-term factor
# times a dense one (2-vCPU Xeon, median of 7, two runs): 0.023-0.029 /
# 0.022-0.026 s at 1e5, 0.028-0.030 / 0.036-0.042 s at 2e5, 0.041-0.067 /
# 0.068-0.084 s at 5e5, 0.12-0.13 / 0.30-0.35 s at 2e6; Delta^3·Delta^5 mod 2
# at 2e5 (6,160 and 6,140 terms) 0.012-0.017 / 0.046-0.060 s.
SPARSE_CUTOFF = 20_000
# Largest degree `delta_expansion` builds, ten times the largest the README and
# the benchmark use (2e6); beyond it TooLarge is raised before any array exists.
# Below it, a dense product may still be refused by MAX_PRODUCT_BYTES, also
# before anything is allocated: `density --p 65521 --form delta` reports up to
# X = 2^24 - 1 (9.0-9.6 s and 954 MB in a fresh process; 475 MB at X = 8e6)
# and is refused above, where the squaring of E_6 needs 2^23-point transforms
# and three digits; at p = 2^31 - 1 it reports up to X = 2^23 - 1 (9.2-11.6 s
# and 736 MB).
MAX_DEGREE = 2 * 10 ** 7
# Bytes a dense product (`_dense_mul`) may hold in its digit spectra, spectrum
# accumulator, transform output and result, with pocketfft's own scratch of
# about two transform lengths of float64 per call (`_dense_plan`), checked
# before any of them exists.  1.25 GiB admits squares mod 65521 up to degree
# 2^24 - 1 (eight pieces of 2^21 terms and 2^22-point transforms: 704 MiB of
# arrays and 64 MiB of scratch) and mod 2^31 - 1 up to degree 2^23 - 1
# (640 MiB), where the next degrees need 1,920 and 1,472 MiB, and it leaves
# room under a 2 GiB address space for the divisor sums beside the product.
MAX_PRODUCT_BYTES = 5 << 28
_PIECE = 1 << 17            # terms per piece of a dense product, up to _MAX_PIECES pieces
_MAX_PIECES = 8             # past it the pieces grow instead (`_dense_plan`)
_BLOCK = 1 << 14            # entries per block of the dense product's digits, sums and rounding


def _check_p_limit(p):
    if p >= P_LIMIT:
        raise ValueError(f"p = {p} is not below 2^31: int64 coefficients would overflow")


class FpSeries:
    """Truncated power series over F_p.

    p = 2: `bits` holds the coefficients as an integer bitset.
    p > 2: `coef` is an int64 array of length deg+1 with entries in [0, p).
    `coef` may also be given at p = 2; it is reduced mod 2 and packed.
    """

    __slots__ = ("p", "deg", "bits", "coef")

    def __init__(self, p, deg, bits=None, coef=None):
        _check_p_limit(p)
        self.p = p
        self.deg = int(deg)
        if p == 2:
            if coef is not None:
                bits = _pack_bits(np.asarray(coef)[: self.deg + 1] & 1)
            mask = (1 << (self.deg + 1)) - 1
            self.bits = int(bits if bits is not None else 0) & mask
            self.coef = None
        else:
            self.bits = None
            if coef is None:
                coef = np.zeros(self.deg + 1, dtype=np.int64)
            coef = np.asarray(coef, dtype=np.int64) % p
            if coef.shape[0] < self.deg + 1:
                coef = np.concatenate([coef, np.zeros(self.deg + 1 - coef.shape[0], dtype=np.int64)])
            self.coef = coef[: self.deg + 1]

    @classmethod
    def _of_residues(cls, p, deg, coef):
        """The series a_0..a_deg = coef[:deg + 1], for an array of length at
        least deg + 1 with entries already in [0, p): the constructor's path
        at p = 2, else the int64 `coef` kept as a view, neither reduced nor
        copied.  For the module's own results, which are reduced already."""
        if p == 2:
            return cls(2, deg, coef=coef)
        f = cls.__new__(cls)
        f.p, f.deg, f.bits, f.coef = p, int(deg), None, coef[: deg + 1]
        return f

    @classmethod
    def from_coeffs(cls, p, coeffs, deg=None):
        coeffs = list(coeffs)
        deg = deg if deg is not None else len(coeffs) - 1
        return cls(p, deg, coef=np.array(coeffs[: deg + 1], dtype=np.int64))

    @classmethod
    def from_support(cls, p, deg, support, values=None):
        """Sum of values[i]·q^support[i] (each value 1 if none are given);
        exponents above deg are dropped, negative ones raise ValueError."""
        e = np.asarray(support, dtype=np.int64).reshape(-1)
        if e.size and e.min() < 0:
            raise ValueError(f"negative exponent {int(e.min())} in a support")
        v = np.ones_like(e) if values is None else np.asarray(values, dtype=np.int64) % p
        keep = e <= deg
        # uint8 at p = 2: 1 byte a term, and sums that wrap mod 256 keep their parity
        coef = np.zeros(deg + 1, dtype=np.uint8 if p == 2 else np.int64)
        np.add.at(coef, e[keep], v[keep].astype(coef.dtype))
        return cls(p, deg, coef=coef)

    # -- accessors -----------------------------------------------------------
    def coeff(self, n):
        if n > self.deg or n < 0:
            raise IndexError(f"coefficient {n} beyond truncation {self.deg}")
        if self.p == 2:
            return (self.bits >> n) & 1
        return int(self.coef[n])

    def _coefs(self):
        """a_0..a_deg as an array: decoded to uint8 0/1 at p = 2, else `coef`
        itself (not a copy)."""
        return _unpack_bits(self.bits, self.deg) if self.p == 2 else self.coef

    def coeffs_array(self):
        return self._coefs().astype(np.int64)

    def _exponents(self):
        """The n with a_n != 0, ascending, as an int64 array; at p = 2 from a
        bool view of the decoded 0/1 bytes, which np.flatnonzero scans
        several times faster than uint8."""
        c = self._coefs()
        return np.flatnonzero(c.view(bool) if self.p == 2 else c)

    def support(self):
        return self._exponents().tolist()

    def popcount(self):
        if self.p == 2:
            return int(self.bits).bit_count()
        return int((self.coef != 0).sum())

    def truncate(self, deg):
        if deg > self.deg:
            raise ValueError("cannot extend a truncated series")
        if self.p == 2:
            return FpSeries(2, deg, bits=self.bits)
        return FpSeries._of_residues(self.p, deg, self.coef)

    # -- ring operations -------------------------------------------------------
    def _align(self, other):
        if not isinstance(other, FpSeries) or other.p != self.p:
            raise ValueError("series over different primes")
        return min(self.deg, other.deg)

    def __add__(self, other):
        deg = self._align(other)
        if self.p == 2:
            return FpSeries(2, deg, bits=self.bits ^ other.bits)
        coef = (self.coef[: deg + 1] + other.coef[: deg + 1]) % self.p
        return FpSeries._of_residues(self.p, deg, coef)

    def __sub__(self, other):
        deg = self._align(other)
        if self.p == 2:
            return FpSeries(2, deg, bits=self.bits ^ other.bits)
        coef = (self.coef[: deg + 1] - other.coef[: deg + 1]) % self.p
        return FpSeries._of_residues(self.p, deg, coef)

    def __eq__(self, other):
        if not isinstance(other, FpSeries) or other.p != self.p:
            return False
        deg = min(self.deg, other.deg)
        if self.p == 2:
            mask = (1 << (deg + 1)) - 1
            return (self.bits & mask) == (other.bits & mask)
        return np.array_equal(self.coef[: deg + 1], other.coef[: deg + 1])

    def __hash__(self):
        return hash((self.p, self.deg, self.bits if self.p == 2 else self.coef.tobytes()))

    def scale(self, c):
        c %= self.p
        if self.p == 2:
            return FpSeries(2, self.deg, bits=self.bits if c else 0)
        return FpSeries._of_residues(self.p, self.deg, (self.coef * c) % self.p)

    def shift(self, k):
        """Multiply by q^k; exactness extends to deg + k."""
        if self.p == 2:
            return FpSeries(2, self.deg + k, bits=self.bits << k)
        coef = np.zeros(self.deg + k + 1, dtype=np.int64)
        coef[k:] = self.coef
        return FpSeries._of_residues(self.p, self.deg + k, coef)

    def dilate(self, a, out_deg=None):
        """f(q) -> f(q^a); exactness extends to a·deg + a - 1, so out_deg
        may exceed the input degree up to that bound.  At p = 2 and a a power
        of two, the bitset's bytes are spread through `_SPREAD`, once per
        factor 2, and bits past out_deg are masked off; otherwise the
        coefficients are scattered to every a-th index."""
        max_deg = (self.deg + 1) * a - 1
        out_deg = self.deg if out_deg is None else min(out_deg, max_deg)
        top = min(self.deg, out_deg // a)
        if self.p == 2 and a & (a - 1) == 0:
            buf = np.frombuffer(self.bits.to_bytes(self.deg // 8 + 1, "little"),
                                dtype=np.uint8)[: top // 8 + 1]
            for _ in range(a.bit_length() - 1):
                buf = _SPREAD[buf].view(np.uint8)
            return FpSeries(2, out_deg, bits=int.from_bytes(buf.tobytes(), "little"))
        src = self._coefs()
        out = np.zeros(out_deg + 1, dtype=src.dtype)
        out[:: a][: top + 1] = src[: top + 1]
        return FpSeries._of_residues(self.p, out_deg, out)


# Bit i of a byte moved to bit 2i: f(q) -> f(q^2) on a bitset, a byte at a time.
_SPREAD = sum((np.arange(256) >> i & 1) << 2 * i for i in range(8)).astype("<u2")


def _unpack_bits(bits, deg):
    """The GF(2) codec, one way: bits 0..deg of a bitset below 2^(deg+1)
    as a uint8 0/1 array of length deg + 1."""
    raw = np.frombuffer(bits.to_bytes(deg // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=deg + 1, bitorder="little")


def _pack_bits(arr):
    """The GF(2) codec, the other way: a 0/1 array as a bitset (bit n = arr[n])."""
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _xor_shifts(exps, g_bits, deg):
    """XOR of g << e over the exponents e <= deg, truncated to degree deg, on
    uint64 words: one shifted copy of g per residue e mod 64, XORed in place
    at word offset e // 64.  Bits above deg in the top word are left set."""
    n = deg // 64 + 1
    g = np.frombuffer((g_bits & ((1 << 64 * n) - 1)).to_bytes(8 * n, "little"), dtype="<u8")
    acc = np.zeros(n, dtype=np.uint64)
    exps = exps[exps <= deg]
    for r in set((exps & 63).tolist()):
        shifted = g << np.uint64(r)
        if r:
            shifted[1:] |= g[:-1] >> np.uint64(64 - r)
        for q in (exps[(exps & 63) == r] >> 6).tolist():
            acc[q:] ^= shifted[: n - q]
    return int.from_bytes(acc.tobytes(), "little")


def series_mul(f, g):
    """Exact truncated product; degree = min of the operand degrees."""
    if f.p != g.p:
        raise ValueError("series over different primes")
    deg = min(f.deg, g.deg)
    p = f.p
    if p == 2:
        nf, ng = f.popcount(), g.popcount()
        if min(nf, ng) <= SPARSE_CUTOFF:
            f, g = (f, g) if nf <= ng else (g, f)
            return FpSeries(2, deg, bits=_xor_shifts(f._exponents(), g.bits, deg))
    a = f._coefs()[: deg + 1]
    return FpSeries._of_residues(p, deg, _dense_mul(a, a if g is f else g._coefs()[: deg + 1], p))


def _dense_plan(n, p, square):
    """The sizing of `_dense_mul` for a product of two length-n arrays mod
    p: (P, m, N, d, s), P pieces of m = ⌈n/P⌉ terms, the transform length
    N = 2^k >= 2m - 1 and d base-2^s digits.  P = ⌈n/_PIECE⌉ within
    [2, _MAX_PIECES], less any piece that would be empty: halves up to
    n = 2^18, and N <= 2^18 up to n = 2^20.  Past that the pieces grow, as
    more of them would add digit products (about P·n in all) faster than
    shorter transforms save.  Raises TooLarge, before anything is
    allocated, when no digit width keeps the product exact or when its
    arrays exceed MAX_PRODUCT_BYTES: P·d half-spectra of N/2 + 1 complex
    entries for a square (2P·d otherwise), one more as the spectrum
    accumulator, the length-N transform output, the int64 result, and 2N
    float64 of pocketfft's scratch within a transform call.

    For digits at most M, Percival's bound (Math. Comp. 72, 2003) on the
    error of one convolution is N·M²·((1+ε)^{3k} (1+ε√5)^{3k+1} (1+β)^{3k} - 1),
    with ε = β = 2^-53; up to P·d digit products share one spectrum (the P
    piece pairs of the top class, d digit pairs each), so d is the fewest
    digits for which P·d times it stays below 1/4."""
    m = -(-n // min(_MAX_PIECES, max(2, -(-n // _PIECE))))
    pieces = -(-n // m)
    size = 1 << (2 * m - 2).bit_length()
    k, eps = size.bit_length() - 1, 2.0 ** -53
    err = math.expm1(6 * k * math.log1p(eps) + (3 * k + 1) * math.log1p(eps * math.sqrt(5)))
    bits = (p - 1).bit_length()
    for d in range(1, bits + 1):
        s = -(-bits // d)
        if pieces * d * size * min((1 << s) - 1, p - 1) ** 2 * err < 0.25:
            break
    else:
        raise TooLarge(f"no digit width keeps a degree-{n - 1} product exact")
    need = ((1 if square else 2) * pieces * d + 1) * 16 * (size // 2 + 1) + 24 * size + 8 * n
    if need > MAX_PRODUCT_BYTES:
        raise TooLarge(f"a degree-{n - 1} product needs {need >> 20} MiB, above the budget "
                       f"of {MAX_PRODUCT_BYTES >> 20} MiB")
    return pieces, m, size, d, s


def _dense_mul(a, b, p):
    """(a·b mod p)[:n] for integer arrays a, b of length n with entries in
    [0, p), by float FFTs of base-2^s digits (`_dense_plan`); `b is a` is
    transformed once, and neither input is written.

    Only n terms of the product are wanted, so the product goes by pieces
    (Mulders, AAECC 11, 2000): with a = sum_i x^{im}·a_i over P pieces of
    m terms, and b alike, it is sum_k x^{km}·(sum_{i+i'=k} a_i·b_i') mod
    x^n over the piece classes k < P.  Each class is one cyclic convolution
    of length N = 2^k >= 2m - 1, added at offset k·m: 2^18 points at
    n = 10^6, where the whole product would need 2^21.

    Digit index j (a sum over t of digit t of a times digit j - t of b)
    contributes c_j, one class at a time, whose spectrum is summed from the
    digit spectra in blocks of _BLOCK entries that stay in cache.  A square
    multiplies each symmetric pair once, weighted by 2: (piece i, digit t)
    against (k - i, j - t), so its class k takes about half of the
    (k + 1)·d products of b's.  Each inverse transform is rounded block by
    block straight into the result, and a residual of 1/4 or more raises
    CheckFailed instead of rounding.  The digits combine by Horner's rule
    from the top index, out = out·2^s + c_j, in int64: an entry of c_j is a
    coefficient of a product of digit series, at most (pairs)·n·M² for
    digits at most M, and out is reduced mod p at the end and before a step
    only when that running bound could reach 2^63: once in all at p <= 7
    and at p = 65521, n = 10^6.  So the product holds the digit spectra,
    one spectrum accumulator, one transform output, the result and
    block-sized scratch; each piece's digits are staged block by block in
    the transform output.
    """
    n = a.shape[0]
    square = b is a
    pieces, m, size, d, s = _dense_plan(n, p, square)
    mask = (1 << s) - 1
    half = size // 2 + 1
    spec = np.empty(half, dtype=np.complex128)
    conv = np.empty(size)
    prod = np.empty(min(_BLOCK, half), dtype=np.complex128)
    whole = np.empty(min(_BLOCK, size), dtype=np.int64)

    def spectra(x):
        out = np.empty((pieces, d, half), dtype=np.complex128)
        for i in range(pieces):
            piece = x[i * m:(i + 1) * m]
            for t in range(d):
                for lo in range(0, piece.shape[0], _BLOCK):
                    src = piece[lo:lo + _BLOCK]
                    r = np.right_shift(src, s * t, out=whole[:src.shape[0]])
                    np.bitwise_and(r, mask, out=conv[lo:lo + src.shape[0]], casting="unsafe")
                np.fft.rfft(conv[:piece.shape[0]], size, out=out[i, t])
        return out

    fa = spectra(a)
    fb = fa if square else spectra(b)

    def add_rounded(pairs, dst):
        """dst += the convolution whose spectrum is the sum of w·x·y over
        the (x, y, w) pairs, rounded; raises on a residual of 1/4 or more."""
        for lo in range(0, half, _BLOCK):
            acc = spec[lo:lo + _BLOCK]
            for t, (x, y, w) in enumerate(pairs):
                xy = np.multiply(x[lo:lo + _BLOCK], y[lo:lo + _BLOCK],
                                 out=prod[:acc.shape[0]] if t else acc)
                if w != 1:
                    xy *= w
                if t:
                    acc += xy
        c = np.fft.irfft(spec, size, out=conv)
        for lo in range(0, dst.shape[0], _BLOCK):
            x = c[lo:min(lo + _BLOCK, dst.shape[0])]
            r = whole[:x.shape[0]]
            np.rint(x, out=r, casting="unsafe")
            x -= r
            if np.abs(x, out=x).max() >= 0.25:
                raise CheckFailed("FFT rounding residual reached 1/4")
            dst[lo:lo + r.shape[0]] += r

    out = np.zeros(n, dtype=np.int64)
    top, most = 0, n * min(mask, p - 1) ** 2    # bounds on out and on c_j per pair
    for j in range(2 * d - 2, -1, -1):
        idx = range(max(0, j - d + 1), min(j, d - 1) + 1)
        if (top << s) + len(idx) * most >= 1 << 63:
            out %= p
            top = p - 1
        if top:
            out <<= s
        top = (top << s) + len(idx) * most
        for k in range(pieces):
            if square:
                pairs = [(fa[i, t], fa[k - i, j - t], 2) for i in range((k + 1) // 2) for t in idx]
                if k % 2 == 0:
                    pairs += [(fa[k // 2, t], fa[k // 2, j - t], 2 if 2 * t < j else 1)
                              for t in idx if 2 * t <= j]
            else:
                pairs = [(fa[i, t], fb[k - i, j - t], 1) for i in range(k + 1) for t in idx]
            add_rounded(pairs, out[k * m:k * m + 2 * m - 1])
    out %= p
    return out


def series_pow(f, n):
    """f^n by square-and-multiply with the Frobenius shortcut: in
    characteristic p, f^p is the index dilation of f by p.

    For p = 2 the odd case recurses through n-1, so every multiplication
    keeps f itself as one factor; powers of a sparse series never hit the
    dense-product path."""
    if n < 0:
        raise ValueError("negative powers of series are not defined")
    if n == 0:
        return FpSeries.from_coeffs(f.p, [1], deg=f.deg)
    if n == 1:
        return f
    p = f.p
    if n % p == 0:
        # the p-power only needs the inner factor to deg/p
        inner = series_pow(f.truncate(f.deg // p), n // p)
        return inner.dilate(p, out_deg=f.deg)
    if p == 2:
        return series_mul(series_pow(f, n - 1), f)
    half = series_pow(f, n // 2)
    out = series_mul(half, half)
    if n % 2:
        out = series_mul(out, f)
    return out


def eta_product_term(p, deg):
    """prod_{n>=1} (1 - q^n) truncated: Euler's pentagonal series."""
    return FpSeries.from_support(p, deg, *_eta_terms(deg))


def _eta_terms(deg):
    """Euler's prod (1-q^n) = sum over k in Z of (-1)^k q^{k(3k-1)/2}: the
    exponents up to deg, ascending, and their signs."""
    k = np.arange((math.isqrt(24 * deg + 1) + 1) // 6 + 1, dtype=np.int64)
    e = np.stack([k * (3 * k - 1) // 2, k * (3 * k + 1) // 2], axis=1).ravel()[1:]
    c = np.repeat(1 - 2 * (k % 2), 2)[1:]
    return e[e <= deg], c[e <= deg]


def _eta_cubed(deg):
    """Jacobi's prod (1-q^n)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2}: the
    exponents up to deg and their integer coefficients."""
    k = np.arange((math.isqrt(8 * deg + 1) + 1) // 2, dtype=np.int64)
    return k * (k + 1) // 2, np.where(k % 2, -(2 * k + 1), 2 * k + 1)


def _sparse_mul(p, deg, x, y):
    """The product mod p, to degree deg, of two sparse integer series given
    as (ascending exponents, int64 coefficients): for each term c·q^e of the
    shorter factor, c times the other's terms up to degree deg - e is added
    at their exponents plus e into one float64 array, then one % p.
    Exponents are distinct, so no index repeats within one addition, at
    most min(K_x, K_y) products meet in one degree, and the sums are exact
    integers while min(K_x, K_y)·max|c_x|·max|c_y| < 2^53."""
    (ex, cx), (ey, cy) = sorted((x, y), key=lambda t: t[0].size)
    if ex.size * int(abs(cx).max()) * int(abs(cy).max()) >= 1 << 53:
        raise TooLarge(f"a sparse product is not exact in float64 at degree {deg}")
    acc = np.zeros(deg + 1, dtype=np.float64)
    cy = cy.astype(np.float64)
    tops = np.searchsorted(ey, deg - ex, side="right").tolist()
    for e, c, h in zip(ex.tolist(), cx.tolist(), tops):
        acc[e + ey[:h]] += c * cy[:h]
    return FpSeries(p, deg, coef=acc.astype(np.int64))


def _frobenius_factors(p):
    """eta^24 mod p as sorted (a, power) pairs, the factors eta(q^a)^power:
    power 1 is Euler's series E, 3 is Jacobi's J.  As 24 = sum d_i p^i and
    eta(q)^{p^i} = eta(q^{p^i}), eta^24 = prod_i J(q^{p^i})^{d_i//3}·E(q^{p^i})^{d_i%3}."""
    if p == 2:
        return [(8, 3)]         # E(q^8)·E(q^16) = E(q^8)^3 = J(q^8)
    out, a, n = [], 1, 24
    while n:
        n, d = divmod(n, p)
        out += [(a, 3)] * (d // 3) + [(a, 1)] * (d % 3)
        a *= p
    return sorted(out)


def delta_expansion(p, N):
    """The discriminant form q·eta^24 mod p to degree N, eta = prod (1-q^n).

    At p = 5, tau(n) = n·sigma_1(n) (Ramanujan).  Where eta^24 has more
    than four Frobenius factors (p = 13 and p >= 29), Delta is read off
    M_12 = <E_12, Delta> (`_delta_by_eisenstein`).  Otherwise eta^24 is a
    product of Frobenius-dilated Euler and Jacobi series, whose common
    dilation a is factored out: the work runs at degree (N-1)//a.  Up to
    two factors (p = 2, 7, 23) make one exact sparse product over Z; four
    make the sparse pairs (1st, 3rd) and (2nd, 4th) and one dense product
    of them, a squaring when they agree (p = 3, 11).
    """
    if N < 1:
        raise ValueError("degree must be at least 1")
    if N > MAX_DEGREE:
        raise TooLarge(f"series degree {N} exceeds the cap {MAX_DEGREE}")
    _check_p_limit(p)
    if p == 5:
        (sigma1,) = _divisor_sums(5, (1,), N)
        return FpSeries._of_residues(5, N, np.arange(N + 1) % 5 * sigma1 % 5)
    fs = _frobenius_factors(p)
    if len(fs) > 4:
        return FpSeries._of_residues(p, N, _delta_by_eisenstein(p, N))
    a = fs[0][0]
    n = (N - 1) // a
    if len(fs) > 2:
        _dense_plan(n + 1, p, fs[0::2] == fs[1::2])     # refused before the sparse products

    def exact(group):
        terms = []
        for b, power in group:
            e, c = (_eta_cubed if power == 3 else _eta_terms)(n // (b // a))
            terms.append((b // a * e, c))
        if len(terms) == 1:
            return FpSeries.from_support(p, n, *terms[0])
        return _sparse_mul(p, n, *terms)

    if len(fs) <= 2:
        eta24 = exact(fs)
    else:
        x = exact(fs[0::2])
        eta24 = series_mul(x, x if fs[0::2] == fs[1::2] else exact(fs[1::2]))
    return (eta24.dilate(a, out_deg=N - 1) if a > 1 else eta24).shift(1)


def _delta_by_eisenstein(p, N):
    """a_0..a_N of Delta mod p, for p prime to 762048 = 2^6·3^5·7^2, from
    762048·Delta = 691·E_12 - 691·E_6^2 with E_6 = 1 - 504·sum sigma_5(n) q^n
    and 691·E_12 = 691 + 65520·sum sigma_11(n) q^n: one squaring of E_6,
    none at p = 691, where tau = sigma_11.  E_6 and sigma_11 are int32
    rows, so the squaring keeps one int64 series' worth of operands."""
    inv = pow(762048, -1, p)
    c11, c6 = 65520 * inv % p, -691 * inv % p
    if c6:
        _dense_plan(N + 1, p, True)             # refused, if at all, before the sieve
    rows = _divisor_sums(p, (11, 5) if c6 else (11,), N)
    if not c6:
        return rows[0].astype(np.int64) * c11 % p
    e6 = rows[1]
    e6[:] = -504 * e6.astype(np.int64) % p
    e6[0] = 1
    out = _dense_mul(e6, e6, p)
    out[0] = 0                                  # E_6^2 - 1 and sigma_11 start at q
    out *= c6
    out += c11 * rows[0].astype(np.int64)
    out %= p
    return out


def _divisor_sums(p, bs, N):
    """sigma_b(n) = sum_{d | n} d^b mod p for n = 0..N (sigma_b(0) = 0), one
    int32 row per exponent b.

    One split serves every b: a sieve of least prime factors (int32) writes
    n = q·m with q the full power of n's least prime, so sigma_b(n) =
    sigma_b(q)·sigma_b(m).  sigma_b of the prime powers comes from a table,
    sigma_b(r^(k+1)) = 1 + r^b·sigma_b(r^k), and the rest is filled in blocks
    of at most 2^16 within each [2^j, 2^(j+1)), where q, m <= n/2 are filled
    already."""
    rows = np.zeros((len(bs), N + 1), dtype=np.int32)
    if N < 1:
        return rows
    spf = np.zeros(N + 1, dtype=np.int32)
    for r in prime_sieve(math.isqrt(N))[::-1].tolist():
        spf[r * r:: r] = r                      # the least prime writes last
    primes = np.flatnonzero(spf == 0)[2:]
    spf[primes] = primes
    spf[1] = 1
    rows[:, 1] = 1
    for row, b in zip(rows, bs):
        r, pw, rb = primes, primes, np.ones_like(primes)
        for _ in range(b):
            rb = rb * (r % p) % p
        s = (1 + rb) % p
        while pw.size:
            row[pw] = s
            keep = pw <= N // r
            r, rb, pw, s = r[keep], rb[keep], pw[keep] * r[keep], (1 + rb[keep] * s[keep]) % p
    m = np.zeros(N + 1, dtype=np.int32)         # n's cofactor prime to its least prime
    m[1], lo = 1, 2
    while lo <= N:
        hi = min(2 * lo, lo + (1 << 16), N + 1)
        n = np.arange(lo, hi, dtype=np.int32)
        r = spf[lo:hi]
        c = n // r
        m[lo:hi] = mm = np.where(spf[c] == r, m[c], c)
        q = n // mm                             # q = n and m = 1 at a prime power
        for row in rows:
            row[lo:hi] = row[q].astype(np.int64) * row[mm] % p
        lo = hi
    return rows


# -- Hecke operators -------------------------------------------------------------

def _check_prime(ell):
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


def hecke_U(ell, f):
    """U_ell: a_n -> a_{n·ell}; output degree deg//ell."""
    _check_prime(ell)
    out_deg = f.deg // ell
    return FpSeries(f.p, out_deg, coef=f._coefs()[:: ell][: out_deg + 1])


def hecke_T(ell, k_eff, f):
    """T_ell at level one: a_n -> a_{n·ell} + ell^{k_eff - 1}·a_{n/ell},
    with the weight entering only through ell^{k-1} mod p (k mod (p-1))."""
    _check_prime(ell)
    p = f.p
    if ell == p:
        return hecke_U(ell, f)
    out_deg = f.deg // ell
    u = hecke_U(ell, f)
    exp = (k_eff - 1) % (p - 1) if p > 2 else 0
    factor = pow(ell % p, exp, p)
    return u + f.dilate(ell, out_deg).scale(factor)


# -- density sweeps ---------------------------------------------------------------

def prime_sieve(X):
    """The primes up to X, ascending, as an int64 array, from a sieve of the
    odd numbers: entry i > 0 stands for 2i + 1, and entry 0 for 2."""
    if X < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((X + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(X) + 1) // 2):
        if odd[i]:
            odd[2 * i * (i + 1):: 2 * i + 1] = False     # from (2i + 1)^2
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


@dataclass
class DensityReport:
    X: int
    Np: int
    counted: int
    total_primes: int
    estimate: float
    checkpoints: list = field(default_factory=list)

    def to_dict(self):
        return {
            "X": self.X,
            "Np": self.Np,
            "counted": self.counted,
            "total_primes": self.total_primes,
            "estimate": self.estimate,
            "checkpoints": [
                {"X": x, "counted": c, "total": t, "estimate": e}
                for (x, c, t, e) in self.checkpoints
            ],
        }


def _sweep_coeffs(f, X, m):
    """The primes ell <= X prime to m, ascending, and a_ell for each.  For a
    prime ell, gcd(ell, m) = 1 iff m % ell != 0, one int64 remainder per
    prime.  At p = 2, a_ell is read from the bitset's bytes, bit ell & 7 of
    byte ell >> 3, with no decoding of the whole series."""
    if f.deg < X:
        raise TooLarge(f"series degree {f.deg} below sweep bound {X}")
    primes = prime_sieve(X)
    primes = primes[m % primes != 0]
    if f.p == 2:
        buf = np.frombuffer(f.bits.to_bytes(f.deg // 8 + 1, "little"), dtype=np.uint8)
        a = buf[primes >> 3]
        a >>= primes.astype(np.uint8) & 7
        a &= 1
        return primes, a
    return primes, f.coef[primes]


def density_sweep(f, X, Np=None):
    """Exact count of primes ell <= X, ell not dividing Np, with a_ell != 0,
    with checkpoints at X/8, X/4, X/2, X.  Np is the level-characteristic
    product and always absorbs p; it defaults to p itself (level one).
    A checkpoint's primes are a prefix of the ascending primes, found by
    `searchsorted`, and its count that prefix's nonzero a_ell."""
    Np = f.p if Np is None else Np
    if Np % f.p:
        Np *= f.p
    primes, a = _sweep_coeffs(f, X, Np)
    checkpoints = []
    for frac in (8, 4, 2, 1):
        bound = X // frac
        tot = int(np.searchsorted(primes, bound, side="right"))
        cnt = int(np.count_nonzero(a[:tot]))
        checkpoints.append((bound, cnt, tot, (cnt / tot) if tot else 0.0))
    cnt, tot = checkpoints[-1][1], checkpoints[-1][2]
    return DensityReport(X=X, Np=Np, counted=cnt, total_primes=tot,
                         estimate=(cnt / tot) if tot else 0.0, checkpoints=checkpoints)


def cyclotomic_test(f, M, X, Np=1):
    """Is a_ell constant on residue classes mod M over primes ell <= X
    (ell coprime to M·Np·p)?  Returns (verdict, table) or (False, (ell, ell'))
    for the first violating pair."""
    primes, a = _sweep_coeffs(f, X, M * Np * f.p)
    res = primes % M
    # the index of each residue's first prime, by a reversed scatter: the
    # smallest writes last; -1 for a residue no prime meets
    first = np.full(min(M, X + 1), -1, dtype=np.int64)
    first[res[::-1]] = np.arange(primes.size)[::-1]
    bad = np.flatnonzero(a != a[first[res]])
    if bad.size:
        ell = int(primes[bad[0]])
        return False, (int(primes[first[ell % M]]), ell)
    seen = np.flatnonzero(first >= 0)
    return True, {int(r): int(a[first[r]]) for r in seen[np.argsort(first[seen])]}


# -- Hecke spans -------------------------------------------------------------------

def _eisenstein(p, b, c, deg):
    """1 + c·sum sigma_b(m) q^m mod p to degree deg, the series 1 if p | c:
    E_4 for (b, c) = (3, 240), E_12 for (11, 65520/691)."""
    c %= p
    if not c:
        return FpSeries.from_coeffs(p, [1], deg=deg)
    (sigma,) = _divisor_sums(p, (b,), deg)
    coef = sigma.astype(np.int64) * c % p
    coef[0] = 1
    return FpSeries._of_residues(p, deg, coef)


def _sturm_operators(p, n, primes):
    """T_ell at weight 12n as matrices Q_ell on a_0..a_n.  b_c =
    Delta^c·F^{n-c}, c = 0..n, F = E_12 (E_4^3 at p = 691), is a unitriangular
    basis of M_12n mod p (b_c = q^c + O(q^{c+1})), and Q_ell, which maps
    a_0..a_n of a form to those of its image, does not depend on it.  With
    B the a_0..a_n of the b_c and C_ell those of T_ell b_c (b_c to degree
    ell·n), Q_ell = C_ell·B^-1: one rref takes the rows [B^T | C_ell^T ...]
    to [I | Q_ell^T ...]."""
    if (n + 1) * (max(primes) * n + 1) > MAX_DEGREE:
        raise TooLarge(f"a basis of {n + 1} forms to degree {max(primes) * n} "
                       f"exceeds the cap of {MAX_DEGREE} coefficients")
    deg = max(1, max(primes) * n)
    one = FpSeries.from_coeffs(p, [1], deg=deg)
    delta = delta_expansion(p, deg)             # first: its peak is the larger
    if p == 691:                # E_12 is not 691-integral; E_4^3 is also 1 + O(q)
        f12 = series_pow(_eisenstein(p, 3, 240, deg), 3)
    else:
        f12 = _eisenstein(p, 11, 65520 * pow(691, -1, p), deg)
    b, e = [one, delta][: n + 1], f12
    for _ in range(n - 1):
        b.append(series_mul(b[-1], delta))                  # Delta^c
    for c in range(n - 1, 0, -1):
        b[c], e = series_mul(b[c], e), series_mul(e, f12)   # b_c, F^{n-c+1}
    b[0] = e if n else one
    rows = [[g.truncate(n).coeffs_array()
             for g in [f] + [hecke_T(ell, 12 * n, f) for ell in primes]] for f in b]
    R, _ = rref(np.array(rows).reshape(n + 1, -1), p)
    return {ell: R[:, (i + 1) * (n + 1):(i + 2) * (n + 1)].T for i, ell in enumerate(primes)}


@dataclass
class HeckeSpan:
    p: int
    basis: list                 # a_0..a_n of each form, echelonized by leading index
    matrices: dict              # ell -> np.ndarray, columns = images of basis

    @property
    def dim(self):
        return len(self.basis)


def _reduce_against(v, basis, p):
    """Echelon reduction of v against (vector, leading index) pairs: (residual, coords)."""
    coords = np.zeros(len(basis), dtype=np.int64)
    for i, (b, lead) in enumerate(basis):
        if v[lead]:
            coords[i] = v[lead] * pow(int(b[lead]), -1, p) % p
            v = (v - coords[i] * b) % p
    return v, coords


def hecke_span(p, n, primes, max_dim=64):
    """Stable span of Delta^n mod p under T_ell, ell in primes, at weight 12n.

    Forms of M_12n are their coefficient vectors a_0..a_n and T_ell is the
    matrix `_sturm_operators` gives, so the span is exact linear algebra
    on vectors of length n + 1, with no truncated tails to compare.
    """
    Q = _sturm_operators(p, n, primes)
    basis = []          # (vector, leading index) pairs

    def add_vector(v):
        res, _ = _reduce_against(v, basis, p)
        if not res.any():
            return False
        basis.append((res, int(np.flatnonzero(res)[0])))
        basis.sort(key=lambda t: t[1])
        if len(basis) > max_dim:
            raise TooLarge("span dimension exceeded max_dim")
        return True

    frontier = [np.eye(1, n + 1, n, dtype=np.int64)[0]]      # Delta^n = q^n + O(q^{n+1})
    add_vector(frontier[0])
    while frontier:
        images = [matmul_mod(Q[ell], g, p) for g in frontier for ell in primes]
        frontier = [img for img in images if add_vector(img)]
    # the span is closed, so each image reduces to zero: its coords are a column
    matrices = {ell: np.array([_reduce_against(matmul_mod(Q[ell], b, p), basis, p)[1]
                               for b, _ in basis]).T for ell in primes}
    return HeckeSpan(p=p, basis=[b for b, _ in basis], matrices=matrices)


def nilpotency_check(span, ell, lam):
    """Least k with (M_ell - lam·Id)^k = 0 on the span, else (None, witness)."""
    M = (span.matrices[ell] - lam * np.eye(span.dim, dtype=np.int64)) % span.p
    Mk = M.copy()
    for k in range(1, span.dim + 1):
        if not Mk.any():
            return k, None
        Mk = matmul_mod(Mk, M, span.p)
    if not Mk.any():
        return span.dim + 1, None
    return None, Mk
