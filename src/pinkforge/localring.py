"""Finite commutative F_p-algebras: local rings, their products, and the
basic analytic toolkit (unit inversion, square roots on 1 + rad A by the
power map, unit squares by Euler's criterion, the multiplicative constants
section of the residue field).

A ring is presented by an ordered F_p-basis and a structure-constant
tensor.  An element is its coefficient row mod p, the one representation.
All rings here are finite with p·A = 0, so the maximal ideal is nilpotent,
additive subgroups are F_p-subspaces, and the constants section of
A -> A/m is a genuine field embedding F_q -> A (the fixed points of
x -> x^q).  The residue field F_q is itself such an algebra, F_p[x]/(poly)
with the companion structure tensor, and multiplies only through it.
"""

import itertools
import math

import numpy as np

from .errors import CheckFailed, TooLarge
from .fp import (
    FpSubspace,
    bilinear,
    matmul_mod,
    pair_products,
    rref,
    saturate,
    span_products,
)


def is_prime(n):
    """Deterministic Miller-Rabin: the prime bases up to 37 decide every
    n < 3.18·10^23 (Sorenson and Webster 2017), which covers n < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_prime_power(q):
    """(p, f) with q = p^f, or None: for each f up to log2 q, tests whether
    the integer f-th root of q is a prime whose f-th power is q."""
    for f in range(1, max(q, 2).bit_length()):
        r = 1 << -(-q.bit_length() // f)        # Newton's method from above
        while (s := ((f - 1) * r + q // r ** (f - 1)) // f) < r:
            r = s
        if r ** f == q and is_prime(r):
            return r, f
    return None


# Fixed irreducible polynomials per (p, degree), ascending coefficients,
# monic; recorded in ring metadata so serialized rings are reproducible.
IRREDUCIBLE = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1), (3, 2): (2, 2, 1), (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1), (5, 2): (2, 4, 1),
    (7, 1): (4, 1), (7, 2): (3, 6, 1),
    (11, 1): (9, 1), (13, 1): (11, 1),
}


def _prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _smallest_generator(q, power):
    """The least code g >= 2 that generates F_q* (1 when q = 2), given the
    field's power map on codes: g generates exactly when g^((q-1)/r) != 1
    for every prime r dividing q - 1."""
    exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
    return next((g for g in range(2, q) if all(power(g, e) != 1 for e in exponents)), 1)


def _companion_tensor(poly, p):
    """The (f, f, f) structure tensor of F_p[x]/(poly), poly monic with
    ascending coefficients, on the basis x^i: [i, j] holds the coefficients
    of x^i·x^j, row i of C^j for the companion matrix C of y -> x·y."""
    f = len(poly) - 1
    C = np.eye(f, k=1, dtype=np.int64)
    C[-1] = np.negative(poly[:f]) % p
    powers = [np.eye(f, dtype=np.int64)]
    for _ in range(f - 1):
        powers.append(matmul_mod(powers[-1], C, p))
    return np.stack(powers, axis=1)


def _is_irreducible(poly, p):
    """Rabin's test (SIAM J. Comput. 9(2), 1980) in F_p[x]/(poly), f >= 2:
    poly is irreducible iff x^(p^f) = x and x^(p^(f/r)) - x is a unit for
    every prime r dividing f."""
    f = len(poly) - 1
    E = np.eye(f, dtype=np.int64)
    K = FiniteAlgebra(p, _companion_tensor(poly, p), E[0])
    frobenius = [E[1]]                       # x^(p^d) for d = 0..f
    for _ in range(f):
        frobenius.append(K.batch_pow(frobenius[-1][None, :], p)[0])
    return (np.array_equal(frobenius[f], E[1])
            and all(K.is_unit_vec((frobenius[f // r] - E[1]) % p) for r in _prime_factors(f)))


def _irreducible_poly(p, f):
    """The fixed entry of IRREDUCIBLE; else x - g for the least generator g
    of F_p* when f = 1, and the first monic irreducible in coefficient-lex
    order (constant term first) when f >= 2."""
    if (p, f) in IRREDUCIBLE:
        return IRREDUCIBLE[(p, f)]
    if f == 1:
        return ((-_smallest_generator(p, lambda g, e: pow(g, e, p))) % p, 1)
    for tail in itertools.product(range(p), repeat=f):
        if tail[0] and _is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise ValueError(f"no irreducible polynomial found for GF({p}^{f})")


# Bytes one int64 array the size of its input may take.  A dim^3 structure
# tensor: dim <= 128, so M_2 over F_p[X]/(X^32) at most; building a GMA, with
# its law checks, peaks near two and a half times that.  The N × N matrices
# of A[G]/Ker(T, D), N = |G|·dim A: N <= 1,448 (the tests reach N = 672).
MAX_TENSOR_BYTES = 1 << 24


def check_tensor_size(shape, what="structure tensor"):
    """Raise TooLarge before an int64 array of this shape over the budget."""
    if 8 * math.prod(shape) > MAX_TENSOR_BYTES:
        dims = f"{shape[0]}^{len(shape)}" if len(set(shape)) == 1 else "×".join(map(str, shape))
        raise TooLarge(f"a {dims} {what} exceeds {MAX_TENSOR_BYTES} bytes")


class FiniteAlgebra:
    """F_p-algebra with explicit basis and structure constants; products
    keep their factor order, mul_tensor[i, j] = e_i·e_j."""

    def __init__(self, p, mul_tensor, one, names=None, meta=None):
        self.p = p
        self.mul_tensor = np.ascontiguousarray(mul_tensor, dtype=np.int64) % p
        self.dim = self.mul_tensor.shape[0]
        self.one = np.array(one, dtype=np.int64) % p
        self.names = list(names) if names else [f"e{i}" for i in range(self.dim)]
        self.meta = dict(meta or {})

    # -- vector-level arithmetic ------------------------------------------
    def mul_vec(self, x, y):
        return bilinear(x, y, self.mul_tensor, self.p)[0]

    def mulmat(self, x):
        """Matrix of y -> x*y acting on coefficient columns."""
        return np.einsum("i,ijk->kj", x, self.mul_tensor) % self.p

    def batch_mul(self, X, Y):
        """Row-wise products of two (n, dim) coefficient arrays."""
        return bilinear(X, Y, self.mul_tensor, self.p)

    def batch_mul_elem(self, X, y):
        D = self.dim
        S = self.mul_tensor.transpose(1, 0, 2).reshape(D, D * D)
        return matmul_mod(X, matmul_mod(y, S, self.p).reshape(D, D), self.p)

    def batch_pow(self, X, e):
        """Rows x^e by squaring, 0^0 = 1; a GMA shares it (`one`, `p`, `batch_mul`)."""
        out, B = None, X % self.p
        while e:
            if e & 1:
                out = B if out is None else self.batch_mul(out, B)
            e >>= 1
            if e:
                B = self.batch_mul(B, B)
        return np.tile(self.one, (len(X), 1)) if out is None else out

    def is_unit_vec(self, x):
        M = self.mulmat(x)
        return len(rref(M, self.p)[1]) == self.dim

    # -- elements ----------------------------------------------------------
    def elements(self, cap=None):
        """All p^dim elements as an array; guard with cap."""
        if cap is not None and self.p ** self.dim > cap:
            raise TooLarge("ring too large to enumerate")
        digits = np.indices((self.p,) * self.dim).reshape(self.dim, -1).T
        return digits % self.p

    def format_vec(self, v):
        terms = [
            (f"{int(c)}*" if c != 1 or self.names[i] == "1" else "") + self.names[i]
            for i, c in enumerate(v)
            if c
        ]
        return " + ".join(terms).replace("*1", "") if terms else "0"

    def descriptor(self):
        return dict(self.meta, p=self.p, dim=self.dim)


class FqData(FiniteAlgebra):
    """The residue field F_q = GF(p^f) as the F_p-algebra F_p[x]/(poly) on
    the basis alpha^i, alpha = x mod poly, with int-encoded elements.

    Element k in [0, q) encodes sum(digit_i * alpha^i) with digits base p,
    lowest first; so the code of a prime-field element k is k itself.
    `digits` and `encode` are the one codec between codes and digit rows;
    `mul`, `inv` and `pow` take and return codes, and compute on digit rows
    through the (f, f, f) structure tensor.
    """

    def __init__(self, p, f):
        self.f, self.q = f, p ** f
        self.poly = _irreducible_poly(p, f)
        super().__init__(p, _companion_tensor(self.poly, p), np.eye(f, dtype=np.int64)[0])

    def digits(self, codes):
        """Base-p digits of codes, lowest first, on a new last axis."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self.p ** np.arange(self.f) % self.p

    def encode(self, digits):
        """Codes of digit rows (the last axis, lowest first, reduced mod p)."""
        return np.asarray(digits, dtype=np.int64) % self.p @ self.p ** np.arange(self.f)

    def _codes(self, rows, shape):
        """The codes of digit rows, shaped; a scalar for shape ()."""
        return self.encode(rows).reshape(shape)[()]

    def mul(self, a, b):
        """Elementwise products of codes (ints or arrays that broadcast)."""
        a, b = np.broadcast_arrays(a, b)
        return self._codes(self.batch_mul(self.digits(a.ravel()), self.digits(b.ravel())), a.shape)

    def inv(self, a):
        if (np.asarray(a) == 0).any():
            raise CheckFailed("0 in residue field")
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        """a^e for codes a (an int or an array) and e >= 0, with 0^0 = 1."""
        a = np.asarray(a)
        return self._codes(self.batch_pow(self.digits(a.ravel()), e), a.shape)

    def generator(self):
        """The least code that generates F_q*."""
        return _smallest_generator(self.q, self.pow)


class LocalRing(FiniteAlgebra):
    """Finite local F_p-algebra: units are exactly the complement of m."""

    def __init__(self, p, mul_tensor, one, maxideal_vectors, fq, embed, proj,
                 names=None, meta=None, fq_block=None):
        super().__init__(p, mul_tensor, one, names=names, meta=meta)
        self.maxideal = FpSubspace(p, self.dim, maxideal_vectors)
        self.fq = fq                      # FqData of A/m
        self.embed = np.array(embed, dtype=np.int64) % p   # f x dim: alpha^i as ring vectors
        self.proj = np.array(proj, dtype=np.int64) % p     # f x dim: A -> digit coords of A/m
        # F_q-module block layout (truncated polynomial rings): basis is
        # e_i X^j at index j*f + i, used to enumerate F_q-linear forms.
        self.fq_block = fq_block
        self._check_local()
        self.nilpotency = self._nilpotency_index()

    def _check_local(self):
        if self.maxideal.contains(self.one):
            raise ValueError("1 lies in the maximal ideal")
        for t in self.embed:
            if self.maxideal.contains(t) and t.any():
                raise ValueError("embedded residue field meets m")

    def _nilpotency_index(self):
        cur = self.maxideal
        k = 1
        while cur.dim > 0:
            cur = span_products(cur.basis, self.maxideal.basis, self.mul_tensor, self.p)
            k += 1
            if k > self.dim + 1:
                raise ValueError("maximal ideal is not nilpotent")
        return k

    # locality shortcut: x is a unit iff x mod m != 0
    def is_unit_vec(self, x):
        return bool((self.proj @ x % self.p).any())

    def residue_int(self, x):
        return int(self.fq.encode(self.proj @ np.asarray(x)))

    def constant(self, lam):
        """The multiplicative constants section s: F_q -> A at the code lam."""
        return self.fq.digits(lam) @ self.embed % self.p

    def constants(self):
        """All q constants s(F_q), as a (q, dim) array."""
        return self.fq.digits(np.arange(self.fq.q)) @ self.embed % self.p

    def fq_coords(self, x):
        """Coordinates of x in the F_q-basis (block layout only)."""
        if self.fq_block is None:
            raise ValueError("ring has no F_q block layout")
        return self.fq.encode(np.asarray(x).reshape(-1, self.fq.f))

    def descriptor(self):
        d = super().descriptor()
        d.update(q=self.fq.q, q_poly=list(self.fq.poly),
                 maxideal_dim=self.maxideal.dim, nilpotency=self.nilpotency)
        return d


class SemiLocalRing(FiniteAlgebra):
    """Finite product of LocalRings; the radical is the product of the
    factor maximal ideals."""

    def __init__(self, factors):
        factors = list(factors)
        p = factors[0].p
        if any(f.p != p for f in factors):
            raise ValueError("factors must share characteristic")
        dim = sum(f.dim for f in factors)
        S = np.zeros((dim, dim, dim), dtype=np.int64)
        one = np.zeros(dim, dtype=np.int64)
        names = []
        off = 0
        self.offsets = []
        for fac in factors:
            self.offsets.append(off)
            S[off:off + fac.dim, off:off + fac.dim, off:off + fac.dim] = fac.mul_tensor
            one[off:off + fac.dim] = fac.one
            names += [f"[{len(self.offsets)-1}]{nm}" for nm in fac.names]
            off += fac.dim
        super().__init__(p, S, one, names=names,
                         meta={"kind": "product", "factors": [f.meta for f in factors]})
        self.factors = factors
        rad_rows = []
        for i, fac in enumerate(factors):
            o = self.offsets[i]
            for row in fac.maxideal.basis:
                full = np.zeros(dim, dtype=np.int64)
                full[o:o + fac.dim] = row
                rad_rows.append(full)
        self.radical = FpSubspace(p, dim, rad_rows)

    def project(self, x, i):
        o = self.offsets[i]
        return np.asarray(x)[o:o + self.factors[i].dim]

    def is_unit_vec(self, x):
        return all(self.factors[i].is_unit_vec(self.project(x, i))
                   for i in range(len(self.factors)))

    def descriptor(self):
        return {"p": self.p, "dim": self.dim,
                "factors": [f.descriptor() for f in self.factors]}


def make_truncated_poly_ring(q, k):
    """F_q[X]/(X^k): basis alpha^i X^j at index j*f+i, maximal ideal (X)."""
    pf = factor_prime_power(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    p, f = pf
    if k < 1:
        raise ValueError("k must be >= 1")
    dim = f * k
    check_tensor_size((dim,) * 3)
    fq = FqData(p, f)
    # alpha^i1 X^j1 · alpha^i2 X^j2 = (alpha^i1 alpha^i2) X^(j1+j2), zero once j1+j2 >= k
    S = np.zeros((k, f, k, f, k, f), dtype=np.int64)
    J1, J2 = np.nonzero(np.add.outer(np.arange(k), np.arange(k)) < k)
    S[J1, :, J2, :, J1 + J2, :] = fq.mul_tensor
    S = S.reshape(dim, dim, dim)
    one = np.zeros(dim, dtype=np.int64)
    one[0] = 1
    maxid = np.eye(dim, dtype=np.int64)[f:]
    embed = np.zeros((f, dim), dtype=np.int64)
    for i in range(f):
        embed[i, i] = 1
    proj = np.zeros((f, dim), dtype=np.int64)
    for i in range(f):
        proj[i, i] = 1
    names = [_monomial_name(i, j) for j in range(k) for i in range(f)]
    meta = {"kind": "truncated_poly", "q": q, "k": k, "q_poly": list(fq.poly)}
    return LocalRing(p, S, one, maxid, fq, embed, proj, names=names, meta=meta,
                     fq_block=(f, k))


def _monomial_name(i, j):
    a = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
    x = "" if j == 0 else ("X" if j == 1 else f"X^{j}")
    return (a + ("*" if a and x else "") + x) or "1"


def _one_plus_m_exponent(A):
    """p^j, the least power of p at or above the nilpotency index N of the
    radical (the largest over a product's factors).  It kills 1 + rad A: for
    y in the radical, (1 + y)^(p^j) = 1 + y^(p^j) in characteristic p, and
    y^(p^j) = 0 as p^j >= N."""
    factors = A.factors if isinstance(A, SemiLocalRing) else [A]
    nil = max(f.nilpotency for f in factors)
    e = 1
    while e < nil:
        e *= A.p
    return e


def batch_sqrt_one_plus_m(A, X):
    """The square roots in 1+m (1 + rad A for a product) of the rows of X,
    via the power map; CheckFailed for a row outside 1+m.

    1+m is a p-group killed by p^j (`_one_plus_m_exponent`), so for p odd
    squaring is invertible on it and sqrt(x) = x^((p^j + 1)/2): its square
    is x^(p^j)·x = x.  Outside 1+m that power need not square to x.
    """
    if A.p == 2:
        raise CheckFailed("square roots in 1+m need p odd")
    rad = A.radical if isinstance(A, SemiLocalRing) else A.maxideal
    if not rad.contains((np.asarray(X) - A.one) % A.p).all():
        raise CheckFailed("argument not in 1 + m")
    return A.batch_pow(X, (_one_plus_m_exponent(A) + 1) // 2)


def batch_is_unit_square(A, X):
    """Which rows of X are squares of units of A, p odd, by Euler's
    criterion: x is one iff x^((q-1)/2) lies in 1+m.  A* = F_q* x (1+m) with
    1+m of odd order, so every element of 1+m is a square and a unit is one
    exactly when its residue is; a non-unit's power lies in m.  On a product
    ring, factor by factor."""
    if A.p == 2:
        raise CheckFailed("Euler's criterion needs p odd")
    X = np.atleast_2d(X) % A.p
    if isinstance(A, SemiLocalRing):
        return np.logical_and.reduce([batch_is_unit_square(fac, X[:, o:o + fac.dim])
                                      for fac, o in zip(A.factors, A.offsets)])
    return A.maxideal.contains((A.batch_pow(X, (A.fq.q - 1) // 2) - A.one) % A.p)


def batch_invert(A, X):
    """Inverses of the rows of X: x^(e - 1) for the multiple
    e = lcm(q_i - 1)·p^j of the exponent of A*.  A unit's residue in each
    factor's field F_{q_i} has order dividing q_i - 1, so x^lcm(q_i - 1)
    lies in 1 + rad A, which p^j kills.  A row x with x·x^(e - 1) != 1 is
    no unit: CheckFailed names the first."""
    factors = A.factors if isinstance(A, SemiLocalRing) else [A]
    e = math.lcm(*(f.fq.q - 1 for f in factors)) * _one_plus_m_exponent(A)
    X = np.asarray(X) % A.p
    Y = A.batch_pow(X, e - 1)
    bad = np.flatnonzero((A.batch_mul(X, Y) != A.one).any(axis=1))
    if bad.size:
        raise CheckFailed(f"{A.format_vec(X[bad[0]])} is not invertible")
    return Y


def quotient_ring(A, ideal_vectors):
    """(A/I, projection matrix) for an ideal I given by spanning vectors.

    The input span is saturated to an ideal; the quotient keeps A's local
    structure (I must sit inside the maximal ideal).
    """
    p = A.p
    E = np.eye(A.dim, dtype=np.int64)
    I = saturate(FpSubspace(p, A.dim, ideal_vectors), A.mul_tensor, by=E)
    if not A.maxideal.contains(I.basis).all():
        raise ValueError("ideal not contained in the maximal ideal")
    # complement basis: coordinates not among pivots of I; the projection
    # sends e_i to e_i reduced mod I, in complement coordinates
    comp = [i for i in range(A.dim) if i not in set(I.pivots)]
    dimq = len(comp)
    P = I.reduce(E)[:, comp].T
    lift = E[comp]
    S = matmul_mod(pair_products(lift, lift, A.mul_tensor, p), P.T, p).reshape(dimq, dimq, dimq)
    oneq = P @ A.one % p
    maxq = [P @ row % p for row in A.maxideal.basis]
    emb_rows = [P @ row % p for row in A.embed]
    names = [A.names[c] for c in comp]
    meta = dict(A.meta, quotient_of=A.meta.get("kind", "ring"), ideal_dim=I.dim)
    # residue projection factors through the complement section
    projq = A.proj @ lift.T % p
    return (
        LocalRing(p, S, oneq, maxq, A.fq, emb_rows, projq, names=names, meta=meta,
                  fq_block=None),
        P,
    )
