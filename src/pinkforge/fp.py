"""Linear algebra over the prime field GF(p).

Everything downstream (rings, matrix algebras, Lie spaces) is a finite
F_p-module presented by coordinate vectors, so row reduction mod p is the
workhorse.  Matrices are numpy integer arrays with entries in [0, p);
rows are vectors.
"""

import numpy as np

from .errors import TooLarge


def rref(M, p):
    """Reduced row echelon form of M mod p.

    Returns (R, pivots) where R has zero rows removed and pivots is the
    list of pivot column indices.
    """
    M = np.array(M, dtype=np.int64) % p
    if M.ndim != 2:
        raise ValueError("matrix expected")
    nrows, ncols = M.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(M[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        other = np.nonzero(M[:, c])[0]
        other = other[other != r]
        if other.size:
            M[other] = (M[other] - np.outer(M[other, c], M[r])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


def nullspace(M, p):
    """Basis (rows) of {x : M @ x = 0 mod p}, in RREF.  The row reduction
    runs on M with its columns reversed, so the basis vector of a free
    column c has its other entries at pivot columns after c: reversed back,
    in the order of c, its 1 leads and is alone in its column."""
    M = np.array(M, dtype=np.int64) % p
    R, pivots = rref(M[:, ::-1], p)
    free = np.delete(np.arange(M.shape[1]), pivots)
    basis = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:, free].T % p
    return basis[::-1, ::-1]


class FpSubspace:
    """Subspace of F_p^n held as a reduced row basis.

    Equality of subspaces is equality of RREF bases, so instances are
    canonical and hashable-by-bytes.
    """

    __slots__ = ("p", "n", "basis", "pivots")

    def __init__(self, p, n, vectors=()):
        self.p = p
        self.n = n
        arr = np.array(list(vectors), dtype=np.int64)
        if arr.size == 0:
            arr = np.zeros((0, n), dtype=np.int64)
        else:
            arr = arr.reshape(-1, n)
        self.basis, self.pivots = rref(arr, p)

    @property
    def dim(self):
        return self.basis.shape[0]

    def __len__(self):
        return self.p ** self.dim

    def reduce(self, v):
        """Residual of v after elimination against the basis, for one vector
        or for every row of an (m, n) array at once.  The RREF basis has
        identity pivot columns, so eliminating row by row subtracts exactly
        v[pivots] @ basis."""
        v = np.array(v, dtype=np.int64) % self.p
        if not self.pivots:
            return v
        return (v - matmul_mod(v[..., self.pivots], self.basis, self.p)) % self.p

    def contains(self, v):
        """Membership of one vector (a bool) or of each row of an (m, n) array."""
        nonzero = self.reduce(v).any(axis=-1)
        return not nonzero if nonzero.ndim == 0 else ~nonzero

    def sum(self, other):
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("ambient mismatch")
        return FpSubspace(self.p, self.n, np.vstack([self.basis, other.basis]))

    def extend(self, vectors):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.int64))
        return FpSubspace(self.p, self.n, np.vstack([self.basis, vectors]))

    def enumerate(self, cap=None):
        """All p^dim member vectors, coefficient-lex order."""
        d = self.dim
        if cap is not None and self.p ** d > cap:
            raise TooLarge(f"subspace too large to enumerate: p^{d}")
        if d == 0:
            return np.zeros((1, self.n), dtype=np.int64)
        digits = np.indices((self.p,) * d).reshape(d, -1).T
        return matmul_mod(digits, self.basis, self.p)

    def coords(self, v):
        """Coefficients in the RREF basis of one vector or of each row of an
        (m, n) array; None if one is not a member."""
        v = np.array(v, dtype=np.int64) % self.p
        c = v[..., self.pivots]
        if not (matmul_mod(c, self.basis, self.p) == v).all():
            return None
        return c

    def __eq__(self, other):
        return (
            isinstance(other, FpSubspace)
            and self.p == other.p
            and self.n == other.n
            and self.basis.shape == other.basis.shape
            and (self.basis == other.basis).all()
        )

    def __hash__(self):
        return hash((self.p, self.n, self.basis.tobytes()))

    def __repr__(self):
        return f"FpSubspace(p={self.p}, dim {self.dim} in F_p^{self.n})"


_INT64_LIMIT = 2 ** 63
_FLOAT_EXACT = 2 ** 53  # float64 sums of integers below this are exact
_BLOCK_BYTES = 1 << 23  # intermediate size per row block in `bilinear` and `pair_products`


def matmul_mod(X, Y, p):
    """(X @ Y) mod p for residues in [0, p), exact for every p < 2^31, by
    float64 BLAS products (`_exact_mod`).  Broadcasts like `@`."""
    return _exact_mod(np.matmul, X, Y, p)


def _exact_mod(product, X, Y, p):
    """product(X, Y) mod p, for a product that sums m = X.shape[-1] terms
    X[.., j]·Y[.., j, k] with X and Y in [0, p) (or, as `bilinear` passes
    it, Y any integers whose sums stay below 2^53 unsplit): the one float64
    kernel, with delayed reduction (Dumas, Giorgi, Pernet, FFLAS-FFPACK,
    ACM TOMS 35(3), 2008).  A sum of integers stays exact in float64 while
    it is below 2^53, and is reduced once, in int64.

    That is one product when m·(p-1)^2 < 2^53.  Otherwise X is split into
    base-2^s digits, s the widest with m·(2^s-1)·(p-1) < 2^53, and the
    digit products are combined mod p by Horner's rule; for p = 2^31 - 1
    and m = 32, two digits of 16 bits."""
    m = X.shape[-1]
    bits = (p - 1).bit_length()
    s = min(bits, ((_FLOAT_EXACT - 1) // max(1, m * (p - 1)) + 1).bit_length() - 1)
    if s == 0:
        raise TooLarge(f"an inner dimension of {m} has no exact float64 sums mod {p}")
    Yf = np.asarray(Y, dtype=np.float64)
    out = None
    for i in reversed(range(-(-bits // s))):
        digit = X if s == bits else X >> s * i & (1 << s) - 1
        part = product(digit.astype(np.float64), Yf).astype(np.int64)
        if out is not None:
            part += out << s
        part %= p
        out = part
    return out


def _row_products(Y, M):
    """Rows sum_j Y[n,j] M[n,j,k]: one vector-matrix product per row, which
    `einsum` sums in place where `@` would make one BLAS call a row."""
    return np.einsum("nj,njk->nk", Y, M)


def bilinear(X, Y, T, p):
    """Rows sum_{i,j} X[n,i] Y[n,j] T[i,j,k] mod p for residues in [0, p),
    as two float64 contractions: X with T as one BLAS product, then each
    row with its Y by `_row_products`; exact for every p < 2^31.  A single
    row of X or Y pairs with every row of the other.  Rows go in blocks
    whose (rows, j, k) intermediate stays near `_BLOCK_BYTES`."""
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    I, J, K = T.shape
    n = len(Y) if len(X) == 1 else len(X)
    if len(X) != len(Y):
        X, Y = np.broadcast_to(X, (n, I)), np.broadcast_to(Y, (n, J))
    if min(n, I, J, K) == 0:
        return np.zeros((n, K), dtype=np.int64)
    T2 = T.reshape(I, J * K)
    # The intermediate needs reducing only when I·J·(p-1)^3 may reach 2^53;
    # below that it stays an exact float64 product, and the second
    # contraction sums its unreduced entries exactly in one pass
    # (J·(p-1)^2 < 2^53 there, so Y is not split).
    reduce_mid = I * J * (p - 1) ** 3 >= _FLOAT_EXACT
    if not reduce_mid:
        T2 = T2.astype(np.float64)
    block = max(1, _BLOCK_BYTES // (8 * J * K))
    out = np.empty((n, K), dtype=np.int64)
    for s in range(0, n, block):
        Xb = X[s:s + block]
        XT = matmul_mod(Xb, T2, p) if reduce_mid else Xb.astype(np.float64) @ T2
        out[s:s + block] = _exact_mod(_row_products, Y[s:s + block], XT.reshape(-1, J, K), p)
    return out


def pair_products(U, V, T, p):
    """Rows T(u, v) mod p for every row u of U and every row v of V,
    u-major: row i·len(V) + j is T(U[i], V[j]).  Each u is contracted with
    T once and the result with every v, both by `matmul_mod`: len(U)·I·J·K
    + len(U)·len(V)·J·K products, where `bilinear` on repeated rows makes
    len(U)·len(V)·I·J·K.  U goes in blocks that keep the (rows, J, K)
    intermediate and the output block near `_BLOCK_BYTES`."""
    U, V = np.atleast_2d(U), np.atleast_2d(V)
    I, J, K = T.shape
    out = np.empty((len(U), len(V), K), dtype=np.int64)
    block = max(1, _BLOCK_BYTES // max(1, 8 * K * (J + len(V))))
    for s in range(0, len(U), block):
        Ub = U[s:s + block]
        UT = matmul_mod(Ub, T.reshape(I, J * K), p).reshape(len(Ub), J, K)
        out[s:s + block] = matmul_mod(V, UT, p)
    return out.reshape(len(U) * len(V), K)


def span_products(U, V, T, p):
    """The span of `pair_products(U, V, T, p)`, in F_p^K for T of shape (I, J, K)."""
    return FpSubspace(p, T.shape[2], pair_products(U, V, T, p))


def saturate(S, T, by=None):
    """The smallest subspace that contains the subspace S and holds T(w, s)
    for every s in it, T of shape (I, n, n).

    With `by` given, w runs over the rows of `by`: with a ring's structure
    tensor and its basis this is the ideal S generates, with a module
    action the submodule.  With by=None, w runs over the subspace itself:
    the pseudo-ring S generates, or the Lie algebra when T is a bracket.
    Each round makes one batched product and one row reduction.  A round
    that adds nothing returns; every other round raises the dimension,
    which is at most n, so there are at most n + 1 rounds."""
    while True:
        W = S.basis if by is None else by
        new = S.reduce(pair_products(W, S.basis, T, S.p))
        new = new[new.any(axis=1)]
        if not len(new):
            return S
        S = S.extend(new)


def row_key(rows, p):
    """The one row codec: a key per row of residues mod p (the last axis),
    equal exactly when the rows are.  Keys are base-p int64 numbers when
    p^n < 2^63 and a void view of the int64 row otherwise; both sort, so a
    set of rows is one sorted key array, searched by `np.searchsorted`,
    and `new_rows` grows it."""
    rows = np.asarray(rows)
    n = rows.shape[-1]
    if p ** n < _INT64_LIMIT:
        weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return rows.astype(np.int64, copy=False) @ weights
    flat = np.ascontiguousarray(rows, dtype=np.int64)
    return flat.view(np.dtype((np.void, 8 * n))).reshape(rows.shape[:-1])


def new_rows(keys, seen=()):
    """Indices, ascending, of the first occurrence of each key in `keys`
    that the sorted key array `seen` does not hold: keys[new_rows(keys)]
    are the distinct keys in order of first appearance."""
    _, first = np.unique(keys, return_index=True)
    if len(seen):
        pos = np.minimum(np.searchsorted(seen, keys[first]), len(seen) - 1)
        first = first[seen[pos] != keys[first]]
    return np.sort(first)
