"""Linear algebra over the prime field GF(p).

Everything downstream (rings, matrix algebras, Lie spaces) is a finite
F_p-module presented by coordinate vectors, so row reduction mod p is the
workhorse.  Matrices are numpy integer arrays with entries in [0, p);
rows are vectors.
"""

import numpy as np


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
    """Basis (rows) of {x : M @ x = 0 mod p}."""
    M = np.array(M, dtype=np.int64) % p
    nrows, ncols = M.shape
    R, pivots = rref(M, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, c]) % p
    return basis


def solve(M, b, p):
    """One solution x of M @ x = b mod p, or None if inconsistent."""
    M = np.array(M, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p
    nrows, ncols = M.shape
    aug = np.concatenate([M, b.reshape(nrows, 1)], axis=1)
    R, pivots = rref(aug, p)
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = R[i, ncols]
    return x


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
        or for every row of an (m, n) array at once.  Entries stay below p^2,
        so int64 is exact for p < 2^31."""
        v = np.array(v, dtype=np.int64) % self.p
        for row, c in zip(self.basis, self.pivots):
            v = (v - v[..., c, None] * row) % self.p
        return v

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

    def intersect(self, other):
        # null(x) basis of joint span decomposition: x = a·B1 = b·B2
        if self.dim == 0 or other.dim == 0:
            return FpSubspace(self.p, self.n)
        M = np.vstack([self.basis, other.basis]).T  # n x (d1+d2)
        ker = nullspace(M, self.p)
        vecs = (ker[:, : self.dim] @ self.basis) % self.p
        return FpSubspace(self.p, self.n, vecs)

    def enumerate(self, cap=None):
        """All p^dim member vectors, coefficient-lex order."""
        d = self.dim
        if cap is not None and self.p ** d > cap:
            raise ValueError(f"subspace too large to enumerate: p^{d}")
        if d == 0:
            return np.zeros((1, self.n), dtype=np.int64)
        digits = np.indices((self.p,) * d).reshape(d, -1).T
        return (digits @ self.basis) % self.p

    def coords(self, v):
        """Coefficients of v in the RREF basis (None if not a member)."""
        v = np.array(v, dtype=np.int64) % self.p
        c = v[self.pivots].copy()
        if not ((c @ self.basis - v) % self.p == 0).all():
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


def row_key(arr):
    """Hashable key for a coefficient vector."""
    return np.ascontiguousarray(arr, dtype=np.int8).tobytes()
