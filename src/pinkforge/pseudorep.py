"""Two-dimensional pseudo-representations of finite groups over a finite
local base: the trace/determinant axioms, the extension (T, D) to the group
algebra and its kernel, reconstruction of a matrix realization inside a
generalized matrix algebra, residual classification, and the admissibility
predicate used by the Lie-theoretic layer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CheckFailed
from .fp import (FpSubspace, matmul_mod, new_rows, nullspace, pair_products, row_key, rref,
                 span_products)
from .gma import GmaStructure, m2_structure
from .localring import FiniteAlgebra, LocalRing, _prime_factors, batch_invert, check_tensor_size


class FiniteMatrixGroup:
    """Explicit finite subgroup of R* for a GmaStructure R.

    Elements are rows of an (n, dim) array, found by their sorted row keys
    (`fp.row_key`).  Inverses (one batched inversion through R) and the full
    multiplication table (index gathers, see `mul_table`) are cached.
    """

    def __init__(self, R, elements, generators=None):
        self.R = R
        self.elements = np.atleast_2d(np.asarray(elements, dtype=np.int64)) % R.p
        self.n = self.elements.shape[0]
        keys = row_key(self.elements, R.p)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        if (self._keys[1:] == self._keys[:-1]).any():
            raise ValueError("duplicate elements")
        self.id_index = int(self.find(R.one))
        if self.id_index < 0:
            raise ValueError("identity missing")
        self.generators = list(generators) if generators is not None else []
        self._inv = None
        self._table = None

    @classmethod
    def generate(cls, R, gens):
        """BFS closure of the generators under multiplication.  A level
        multiplies the frontier by each generator, then each inverse, in one
        batched product, generator-major, and keeps the first occurrence of
        every new element, in that order.  It closes `instances`' constant
        groups and is the tests' reference for `pinklie.generate_group`."""
        gvecs = np.asarray(gens, dtype=np.int64).reshape(-1, R.dim) % R.p
        if not all(R.A.is_unit_vec(det) for det in R.batch_det(gvecs)):
            raise ValueError("generator is not invertible")
        # the (D, D) matrices of x -> x·g for each generator g, then each inverse
        D = R.dim
        right = matmul_mod(np.concatenate([gvecs, R.batch_inv(gvecs)]),
                           R.mul_tensor.transpose(1, 0, 2).reshape(D, D * D), R.p)
        levels, seen = [R.one[None, :]], row_key(R.one[None, :], R.p)
        while len(levels[-1]):
            prods = matmul_mod(levels[-1], right.reshape(-1, D, D), R.p).reshape(-1, D)
            keys = row_key(prods, R.p)
            fresh = new_rows(keys, seen)
            levels.append(prods[fresh])
            seen = np.sort(np.concatenate([seen, keys[fresh]]))
        return cls(R, np.concatenate(levels), generators=gvecs)

    def __len__(self):
        return self.n

    def find(self, rows):
        """Index of each row (the last axis) in the group, -1 where absent."""
        keys = row_key(np.asarray(rows, dtype=np.int64) % self.R.p, self.R.p)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.n - 1)
        return np.where(self._keys[pos] == keys, self._order[pos], -1)

    def inverses(self):
        if self._inv is None:
            inv = self.find(self.R.batch_inv(self.elements))
            if (inv < 0).any():
                raise ValueError("group not closed under inverse")
            self._inv = inv
        return self._inv

    def mul_table(self):
        """(n, n) index table; rows i: products x_i * x_j.

        Row j is L_g[row parent] where x_j = g·x_parent on a BFS tree of the
        Cayley graph, with L_g = find(g·elements) the only products.  The
        first element the generators miss becomes one more.  L_g >= 0 for a
        generating set proves closure; an L_g < 0 raises."""
        if self._table is None:
            n = self.n
            T = np.empty((n, n), dtype=np.int32)
            T[self.id_index] = np.arange(n)
            seen = np.zeros(n, dtype=bool)
            seen[self.id_index] = True
            perms = [self._left_perm(g) for g in self.generators]
            frontier = np.array([self.id_index])
            while True:
                while frontier.size:
                    new = []
                    for perm in perms:
                        kids = perm[frontier]
                        fresh = ~seen[kids]
                        kids = kids[fresh]
                        T[kids] = perm[T[frontier[fresh]]]
                        seen[kids] = True
                        new.append(kids)
                    frontier = np.concatenate([frontier[:0]] + new)
                rest = np.flatnonzero(~seen)
                if not rest.size:
                    break
                perms.append(self._left_perm(self.elements[rest[0]]))
                frontier = np.flatnonzero(seen)
            self._table = T
        return self._table

    def _left_perm(self, g):
        """Index of g * x_i for every i; raises if one leaves the set."""
        perm = self.find(self.R.batch_mul_elem_left(g, self.elements))
        if (perm < 0).any():
            raise ValueError("group not closed under multiplication")
        return perm.astype(np.int32)

    def verify_closure(self):
        """Spot-check closure on the products of the first 30 elements plus
        2,000 seeded pairs."""
        m = min(self.n, 30)
        I, J = np.divmod(np.arange(m * m), m)
        if self.n > 30:
            extra = np.random.default_rng(0).integers(0, self.n, size=(2000, 2))
            I, J = np.concatenate([I, extra[:, 0]]), np.concatenate([J, extra[:, 1]])
        prods = self.R.batch_mul(self.elements[I], self.elements[J])
        return bool((self.find(prods) >= 0).all())


@dataclass
class GroupTable:
    """Abstract finite group: multiplication table, inverse map, identity."""

    table: np.ndarray
    identity: int

    def __post_init__(self):
        self.n = self.table.shape[0]
        hits = self.table == self.identity
        counts = hits.sum(axis=1)
        if (counts != 1).any():
            i = int(np.flatnonzero(counts != 1)[0])
            raise ValueError(f"row {i} of the table holds the identity {counts[i]} times, not once")
        self.inv = np.argmax(hits, axis=1)

    @classmethod
    def from_matrix_group(cls, G):
        return cls(table=np.asarray(G.mul_table(), dtype=np.int64), identity=G.id_index)


def _index_closure(maps, identity, cols=None):
    """Sorted indices of the orbit of `identity` under the index maps in the
    columns `cols` (all when None) of an (n, m) array `maps`: with a group's
    multiplication table and element indices as `cols`, the subgroup those
    elements generate.  Each level marks what its frontier reaches."""
    cols = slice(None) if cols is None else np.asarray(list(cols), dtype=np.int64)
    seen = np.zeros(len(maps), dtype=bool)
    frontier = np.array([identity])
    while frontier.size:
        seen[frontier] = True
        reached = np.zeros(len(maps), dtype=bool)
        reached[maps[frontier[:, None], cols]] = True
        frontier = np.flatnonzero(reached & ~seen)
    return np.flatnonzero(seen)


class PseudoRep:
    """Pair of maps (t, d) on a finite group with values in a finite
    F_p-algebra, held as (n, dimA) coefficient arrays."""

    def __init__(self, A, gt, t_vals, d_vals, matrix_group=None):
        self.A = A
        self._gt = gt
        self.t = np.atleast_2d(np.asarray(t_vals, dtype=np.int64)) % A.p
        self.d = np.atleast_2d(np.asarray(d_vals, dtype=np.int64)) % A.p
        n = gt.n if gt is not None else matrix_group.n
        if self.t.shape != (n, A.dim) or self.d.shape != (n, A.dim):
            raise ValueError("value table shape mismatch")
        self.matrix_group = matrix_group

    @property
    def gt(self):
        # multiplication tables are quadratic in the group order; build only
        # when an axiom-level operation actually needs one
        if self._gt is None:
            self._gt = GroupTable.from_matrix_group(self.matrix_group)
        return self._gt

    @classmethod
    def from_matrix_group(cls, G):
        return cls(G.R.A, None, G.R.batch_trace(G.elements), G.R.batch_det(G.elements),
                   matrix_group=G)

    def residual_t(self, i):
        return self.A.residue_int(self.t[i])

    def residual_d(self, i):
        return self.A.residue_int(self.d[i])

    def has_constant_det(self):
        """Every d(g) lies in s(F_q), the F_p-span of the embedded alpha^i."""
        return bool(FpSubspace(self.A.p, self.A.dim, self.A.embed).contains(self.d).all())

    def to_dict(self):
        """JSON-ready value table: base descriptor plus t and d rows."""
        return {
            "ring": self.A.descriptor(),
            "order": self.t.shape[0],
            "t": self.t.tolist(),
            "d": self.d.tolist(),
        }


def check_axioms(tr):
    """(ok, witness): d multiplicative into units, t central, t(1) = 2, and
    t(xy) + d(y) t(x y^-1) = t(x) t(y) on all pairs."""
    A, gt = tr.A, tr.gt
    p = A.p
    T = gt.table
    if not np.array_equal(tr.t[gt.identity], (2 * A.one) % p):
        return False, ("t(1) != 2", gt.identity)
    for i in range(gt.n):
        if not A.is_unit_vec(tr.d[i]):
            return False, ("d value not a unit", i)
    n = gt.n
    for x in range(n):
        # centrality t(xy) = t(yx)
        if not np.array_equal(tr.t[T[x]], tr.t[T[:, x]]):
            y = int(np.nonzero((tr.t[T[x]] != tr.t[T[:, x]]).any(axis=1))[0][0])
            return False, ("t not central", (x, y))
        # d(xy) = d(x) d(y)
        dx_dy = A.batch_mul_elem(tr.d, tr.d[x])
        if not np.array_equal(tr.d[T[x]], dx_dy):
            y = int(np.nonzero((tr.d[T[x]] != dx_dy).any(axis=1))[0][0])
            return False, ("d not multiplicative", (x, y))
        # trace relation against all y
        t_xy = tr.t[T[x]]
        t_xyinv = tr.t[T[x, gt.inv]]
        lhs = (t_xy + A.batch_mul(tr.d, t_xyinv)) % p
        rhs = A.batch_mul_elem(tr.t, tr.t[x])
        if not np.array_equal(lhs, rhs):
            y = int(np.nonzero((lhs != rhs).any(axis=1))[0][0])
            return False, ("trace relation fails", (x, y))
    return True, None


def extend_to_algebra(tr, coeffs):
    """(T, D), as ring rows, of an element sum_g coeffs[g]·g of A[G].

    T is the A-linear extension of t.  D is the unique quadratic form with
    polarization f(x, y) = T(x)T(y) - T(xy) agreeing with d on group
    elements: D(sum c_g g) = sum c_g^2 d(g) + sum_{g<h} c_g c_h f(g, h).
    """
    A, gt = tr.A, tr.gt
    p = A.p
    C = np.atleast_2d(np.asarray(coeffs, dtype=np.int64)) % p
    if C.shape != (gt.n, A.dim):
        raise ValueError("coefficient table shape mismatch")
    Tval = A.batch_mul(C, tr.t).sum(axis=0) % p
    support = np.flatnonzero(C.any(axis=1))
    Dval = A.batch_mul(A.batch_mul(C[support], C[support]), tr.d[support]).sum(axis=0)
    for k, g in enumerate(support[:-1]):
        h = support[k + 1:]                    # f(g, h) for every h after g, at once
        f_gh = A.batch_mul(tr.t[g], tr.t[h]) - tr.t[gt.table[g, h]]
        Dval += A.batch_mul(A.batch_mul(C[g], C[h]), f_gh % p).sum(axis=0)
    return Tval, Dval % p


def _trace_relation_matrix(tr):
    """Matrix of y -> (T(y g))_g on flat A[G] coordinates over F_p: block
    (g, h) is the matrix of a -> a·t(hg), as c_h e_i adds e_i·t(hg) to T(y g)."""
    A, gt = tr.A, tr.gt
    n, da = gt.n, A.dim
    check_tensor_size((n * da,) * 2, "trace relation matrix")
    # [(h, g), (i, k)]: the coefficient of e_k in e_i·t(hg)
    M = matmul_mod(tr.t[gt.table].reshape(n * n, da),
                   A.mul_tensor.transpose(1, 0, 2).reshape(da, da * da), A.p)
    return M.reshape(n, n, da, da).transpose(1, 3, 0, 2).reshape(n * da, n * da)


def linear_kernel(tr):
    """F_p-basis of Ker(T, D) inside A[G] (flat (n*dimA)-coordinates).

    For p odd, D vanishes automatically where all T(yx) do, since
    2 D(y) = T(y)^2 - T(y^2); for p = 2 the D condition is an additional
    F_2-linear constraint and is intersected in.
    """
    A, gt = tr.A, tr.gt
    p = A.p
    M = _trace_relation_matrix(tr)
    K = nullspace(M, p)
    if p == 2 and K.shape[0]:
        rows = [extend_to_algebra(tr, v.reshape(gt.n, A.dim))[1] for v in K]
        K2 = nullspace(np.array(rows).T, 2)
        K = (K2 @ K) % 2
    return FpSubspace(p, gt.n * A.dim, K)


@dataclass
class ResidualClass:
    """Row of the projective-image classification table."""

    kind: str          # 'cyclic' | 'dihedral' | 'large' | 'exceptional'
    order: int         # order of the projective image
    detail: str = ""   # e.g. 'PGL2(3)', 'A4', 'n=2'

    def tag(self):
        if self.kind == "cyclic":
            return "CyclicOrder2" if self.order == 2 else f"CyclicOrderN({self.order})"
        if self.kind == "dihedral":
            return "DihedralOrder4" if self.order == 4 else f"DihedralN({self.order})"
        if self.kind == "large":
            return f"LargeImage({self.detail})"
        return f"Exceptional({self.detail})"


def classify_projective_image(Gbar):
    """Classification of a finite subgroup of GL_2(F_q) by its image P in
    PGL_2 (L. E. Dickson, Linear Groups, 1901): cyclic Z/n, dihedral D_n,
    PSL_2/PGL_2 of a subfield, or A4/S4/A5.  Input: FiniteMatrixGroup in
    M_2 of a field.  P is the distinct rows of Gbar scaled to a leading 1,
    n = |P|, with orders from matrix powers: no n x n table is built."""
    R = Gbar.R
    A = R.A
    if not isinstance(A, LocalRing) or A.maxideal.dim != 0 or R.dim != 4 * A.dim:
        raise ValueError("classification expects a group in M_2 of a field")
    p, f = A.p, A.fq.f
    E = Gbar.elements.reshape(-1, 4, A.dim)                # entries a, b, c, d
    lead = E[np.arange(len(E)), E.any(axis=2).argmax(axis=1)]
    P = A.batch_mul(np.repeat(batch_invert(A, lead), 4, axis=0), E.reshape(-1, A.dim))
    P = P.reshape(Gbar.elements.shape)
    P = P[new_rows(row_key(P, p))]
    n = len(P)
    orders = _projective_orders(R, P, n)
    if orders.max() == n:
        return ResidualClass("cyclic", n, "n=2" if n == 2 else f"n={n}")
    if _is_dihedral(R, P, orders):
        return ResidualClass("dihedral", n)
    # Dickson: remaining subgroups of PGL_2 are PSL_2/PGL_2 of subfields or
    # A4, S4, A5; order plus the earlier exclusions identifies the class.
    for d in range(1, f + 1):
        if f % d:
            continue
        qd = p ** d
        if n == qd * (qd * qd - 1):
            return ResidualClass("large", n, f"PGL2({qd})")
        if p > 2 and n == qd * (qd * qd - 1) // 2:
            return ResidualClass("large", n, f"PSL2({qd})")
    for name, size in (("A4", 12), ("S4", 24), ("A5", 60)):
        if n == size:
            return ResidualClass("exceptional", n, name)
    raise CheckFailed(f"projective image of order {n} outside the classification")


def _is_scalar(R, X):
    a, b, c, d = R.comps(X)
    return ~b.any(axis=1) & ~c.any(axis=1) & (a == d).all(axis=1)


def _projective_orders(R, X, n):
    """The order modulo scalars of each row of X, for rows whose orders
    divide n: for each prime power r^e exactly dividing n, y = x^(n/r^e)
    has the r-part of x's order, r^i for the least i with y^(r^i) scalar;
    y^(r^e) is, so at most e - 1 r-th powers are taken."""
    orders = np.ones(len(X), dtype=np.int64)
    for r in _prime_factors(n):
        e = next(i for i in range(1, n.bit_length() + 1) if n % r ** (i + 1))
        live, Y = np.arange(len(X)), R.batch_pow(X, n // r ** e)
        for i in range(e):
            if i:
                Y = R.batch_pow(Y, r)
            keep = ~_is_scalar(R, Y)
            live, Y = live[keep], Y[keep]
            orders[live] *= r
    return orders


def _is_dihedral(R, P, orders):
    """Whether a projective image P of order n = 2m, not cyclic, is
    dihedral.  For m >= 3 the rotations are the only cyclic subgroup of
    order m of D_m, so P is dihedral iff, for x of order m, some involution
    y has y·x·y^-1·x scalar; no y in <x> has, as x^2 is not scalar."""
    n = len(P)
    if n == 4:
        return True                  # not cyclic: the Klein four-group
    if n % 2 or n < 4 or not (orders == n // 2).any():
        return False
    x, Y = P[np.argmax(orders == n // 2)], P[orders == 2]
    conj = R.batch_mul(R.batch_mul_elem(Y, x), R.batch_mul_elem(R.batch_inv(Y), x))
    return bool(_is_scalar(R, conj).any())


def _roots(fq, t, d):
    """The codes x with x^2 - t·x + d = 0 in F_q, ascending."""
    x = np.arange(fq.q)
    sums = fq.digits(fq.mul(x, x)) + fq.digits(d)
    return np.flatnonzero(fq.encode(sums) == fq.mul(t, x)).tolist()


def _character_pairs(gt, fq, tbar, dbar):
    """Characters chi1, chi2 : G -> F_q* with chi1 + chi2 = tbar and
    chi1·chi2 = dbar, or None.  Candidate values at each element are the
    roots of x^2 - tbar·x + dbar; a depth-first search with product
    propagation glues them into a homomorphism."""
    cand = [[x for x in _roots(fq, t, d) if x] for t, d in zip(tbar, dbar)]
    if not all(cand) or 1 not in cand[gt.identity]:
        return None
    chi = {gt.identity: 1}

    def propagate():
        changed = True
        while changed:
            changed = False
            known, vals = map(np.array, zip(*chi.items()))
            products = fq.mul(vals[:, None], vals[None, :])
            for k, val in zip(gt.table[np.ix_(known, known)].ravel().tolist(),
                              products.ravel().tolist()):
                if k in chi:
                    if chi[k] != val:
                        return False
                elif val not in cand[k]:
                    return False
                else:
                    chi[k] = val
                    changed = True
        return True

    def dfs():
        if not propagate():
            return False
        rest = [i for i in range(gt.n) if i not in chi]
        if not rest:
            return True
        i = rest[0]
        for val in cand[i]:
            saved = dict(chi)
            chi[i] = val
            if dfs():
                return True
            chi.clear()
            chi.update(saved)
        return False

    if not dfs():
        return None
    chi1 = [chi[i] for i in range(gt.n)]
    chi2 = fq.mul(dbar, fq.inv(chi1)).tolist()
    return chi1, chi2


def residual_multfree_data(tr):
    """('reducible', (chi1, chi2)) or ('irreducible', None) for a residually
    multiplicity-free pseudo-representation; CheckFailed otherwise.

    Reducibility is decided by exhaustive character search over the finite
    group; the irreducible case is confirmed by the residual faithful
    quotient having F-dimension 4 (it is then the full 2x2 matrix algebra).
    """
    A, gt = tr.A, tr.gt
    fq = A.fq
    # residue digits of t and d, and their codes
    trows, drows = tr.t @ A.proj.T % A.p, tr.d @ A.proj.T % A.p
    chars = _character_pairs(gt, fq, fq.encode(trows), fq.encode(drows))
    if chars is not None:
        chi1, chi2 = chars
        if chi1 == chi2:
            raise CheckFailed("residual representation is twice one character")
        return "reducible", chars
    # residual quotient dimension over F
    from .localring import make_truncated_poly_ring
    Fq_ring = make_truncated_poly_ring(fq.q, 1)
    res_tr = PseudoRep(Fq_ring, tr.gt, trows, drows)
    ker = linear_kernel(res_tr)
    dimF = (gt.n * fq.f - ker.dim) // fq.f
    if dimF == 4:
        return "irreducible", None
    raise CheckFailed(f"residual faithful quotient has F-dimension {dimF}")


def residual_eigendata(tr, g):
    """Distinct residual eigenvalues (lam, mu) of g, or None.

    Roots of x^2 - tbar(g) x + dbar(g) over F_q; requires the discriminant
    to be a nonzero square."""
    roots = _roots(tr.A.fq, tr.residual_t(g), tr.residual_d(g))
    return tuple(roots) if len(roots) == 2 else None


class QuotientAlgebra(FiniteAlgebra):
    """A[G]/Ker(T, D) on the A[G] coordinates off Ker's pivots.  A[G] has
    the basis e_(g,i) = g ⊗ e_i at index g·dimA + i, and e_(g,i)·e_(h,j) =
    gh ⊗ e_i·e_j.  `proj` takes A[G] rows to their classes: row r is the
    residual of e_r mod Ker, on those coordinates."""

    def __init__(self, tr):
        A, gt = tr.A, tr.gt
        n, da = gt.n, A.dim
        ker = linear_kernel(tr)
        comp = np.setdiff1d(np.arange(n * da), ker.pivots)
        check_tensor_size((len(comp), len(comp), n * da), "product table")
        self.proj = ker.reduce(np.eye(n * da, dtype=np.int64))[:, comp]
        g, i = np.divmod(comp, da)
        prods = np.zeros((len(comp), len(comp), n * da), dtype=np.int64)
        np.put_along_axis(prods, gt.table[np.ix_(g, g)][..., None] * da + np.arange(da),
                          A.mul_tensor[np.ix_(i, i)], axis=2)
        one = matmul_mod(A.one, self.proj[gt.identity * da:(gt.identity + 1) * da], A.p)
        super().__init__(A.p, ker.reduce(prods)[..., comp], one)


def build_td_representation(tr, g0=None, lam0=None, mu0=None):
    """Faithful GMA realization of an abstract pseudo-representation.

    Returns (R, G, rho_indices, embed_data): R the GmaStructure built on
    A[G]/Ker(T, D) via idempotent lifting at g0, G the image matrix group,
    rho_indices mapping group elements to rows of G.elements.

    Requires residual multiplicity-freeness and an element g0 with distinct
    residual eigenvalues (the first in enumeration order when omitted).
    """
    A, gt = tr.A, tr.gt
    p = A.p
    residual_multfree_data(tr)  # raises CheckFailed when violated
    if g0 is None:
        for g in range(gt.n):
            eig = residual_eigendata(tr, g)
            if eig is not None:
                g0, (lam0, mu0) = g, eig
                break
        else:
            raise CheckFailed("no element with distinct residual eigenvalues")
    else:
        eig = residual_eigendata(tr, g0)
        if eig is None:
            raise CheckFailed("g0 has no distinct residual eigenvalues")
        if lam0 is None:
            lam0, mu0 = eig
        elif {lam0, mu0} != set(eig):
            raise CheckFailed("prescribed eigenvalues disagree with g0")

    Q = QuotientAlgebra(tr)
    T = Q.mul_tensor
    blocks = Q.proj.reshape(gt.n, A.dim, Q.dim)      # classes of g ⊗ e_i
    scal = blocks[gt.identity]                       # a -> a·1, on ring rows
    classes = matmul_mod(A.one, blocks, p)           # of the group elements
    s_lam, s_mu = A.constant(lam0), A.constant(mu0)
    u = Q.mul_vec(matmul_mod(batch_invert(A, (s_lam - s_mu)[None])[0], scal, p),
                  (classes[g0] - matmul_mod(s_mu, scal, p)) % p)
    # idempotent refinement e <- 3e^2 - 2e^3; the defect u^2 - u is
    # nilpotent, so this stabilizes
    e = u
    for _ in range(8 * A.dim + 8):
        e2 = Q.mul_vec(e, e)
        if np.array_equal(e2, e):
            break
        e = (3 * e2 - 2 * Q.mul_vec(e2, e)) % p
    else:
        raise CheckFailed("idempotent refinement did not stabilize")
    idem = np.stack([e, (Q.one - e) % p])

    def sandwich(X):
        """e_l·x·e_r for the idempotents e_1 = e, e_2 = 1 - e and every row
        x of X, indexed [l, x, r]."""
        return pair_products(pair_products(idem, X, T, p), idem, T, p).reshape(2, len(X), 2, Q.dim)

    def ring_coords(X, l):
        """The a with a·e_l = x for each row x of X: one rref of [a_i·e_l | X]."""
        Rr, piv = rref(np.concatenate([Q.batch_mul_elem(scal, idem[l]), X]).T, p)
        if piv and piv[-1] >= A.dim:
            raise CheckFailed("corner element outside A·e")
        a = np.zeros((len(X), A.dim), dtype=np.int64)
        a[:, piv] = Rr[:, A.dim:].T
        return a

    # split the quotient into e1·Q·e1 (= A·e1), B' = e1·Q·e2, C' = e2·Q·e1
    corners = sandwich(np.eye(Q.dim, dtype=np.int64))
    Asp, Bsp, Csp, Dsp = (FpSubspace(p, Q.dim, corners[l, :, r]) for l, r in np.ndindex(2, 2))
    if Asp.dim != A.dim or Dsp.dim != A.dim:
        raise CheckFailed("corner components are not free of rank one")
    act_b = Bsp.coords(pair_products(scal, Bsp.basis, T, p))
    act_c = Csp.coords(pair_products(scal, Csp.basis, T, p))
    pairing = ring_coords(pair_products(Bsp.basis, Csp.basis, T, p), 0)
    R = GmaStructure(A, act_b.reshape(A.dim, Bsp.dim, Bsp.dim),
                     act_c.reshape(A.dim, Csp.dim, Csp.dim),
                     pairing.reshape(Bsp.dim, Csp.dim, A.dim), name="A[G]/Ker")

    S = sandwich(classes)
    a, d = ring_coords(S[0, :, 0], 0), ring_coords(S[1, :, 1], 1)
    b, c = Bsp.coords(S[0, :, 1]), Csp.coords(S[1, :, 0])
    if b is None or c is None:
        raise CheckFailed("element does not split along the idempotents")
    rows = R.assemble(a, b, c, d)
    G = FiniteMatrixGroup(R, rows[new_rows(row_key(rows, R.p))])
    rho_idx = G.find(rows).tolist()
    # contract checks of the construction
    if not (np.array_equal(R.batch_trace(G.elements[rho_idx]), tr.t)
            and np.array_equal(R.batch_det(G.elements[rho_idx]), tr.d)):
        raise CheckFailed("trace/determinant mismatch in the realization")
    v0 = G.elements[rho_idx[g0]]
    if v0[R.sb].any() or v0[R.sc].any():
        raise CheckFailed("image of g0 is not diagonal")
    if A.residue_int(v0[R.sa]) != lam0 or A.residue_int(v0[R.sd]) != mu0:
        raise CheckFailed("residual eigenvalues out of order")
    return R, G, rho_idx, {"g0": g0, "lam0": lam0, "mu0": mu0}


def is_admissible(tr):
    """F-module criterion: the span of t(G) over the embedded residue field
    equals A.  Valid for p odd with constant determinant."""
    A = tr.A
    if A.p == 2:
        raise ValueError("admissibility criterion needs p odd")
    if not tr.has_constant_det():
        return False
    traces = FpSubspace(A.p, A.dim, tr.t)
    return span_products(A.embed, traces.basis, A.mul_tensor, A.p).dim == A.dim


def residual_image_group(G):
    """The image of a matrix group in GL_2 of the residue field, as a
    matrix group over F_q (matrix-presented structures over a local base)."""
    from .localring import make_truncated_poly_ring
    R = G.R
    A = R.A
    if not isinstance(A, LocalRing) or R.db != A.dim or R.dc != A.dim:
        raise ValueError("residual image needs the matrix presentation over a local base")
    Fq = make_truncated_poly_ring(A.fq.q, 1)
    Rq = m2_structure(Fq)
    # each entry's residue digits, which are its F_q coordinates
    rows = np.concatenate([c @ A.proj.T % A.p for c in R.comps(G.elements)], axis=1)
    return FiniteMatrixGroup(Rq, rows[new_rows(row_key(rows, Rq.p))])
