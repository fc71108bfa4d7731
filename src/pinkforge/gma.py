"""Generalized 2x2 matrix algebras over a finite local or semi-local base.

An element is a formal matrix (a, b, c, d), held as the flat coordinate row
[a | b | c | d], with a, d in the base ring A and b, c in finite A-modules
B, C glued by a bilinear pairing B x C -> A.  The product rule is

    (a,b,c,d)(a',b',c',d') = (aa'+m(b,c'), ab'+d'b, a'c+dc', dd'+m(b',c))

and the compatibility law m(b,c)b' = m(b',c)b, m(b,c')c = m(b,c)c' is
validated on bases at construction time: all downstream algebra trusts it.

Every such algebra satisfies x^2 - tr(x)x + det(x) = 0 identically, which
gives closed-form inverses: x^{-1} = det(x)^{-1} (tr(x) - x).
"""

import numpy as np

from .errors import CheckFailed
from .fp import FpSubspace, bilinear, matmul_mod, span_products
from .localring import FiniteAlgebra, LocalRing, SemiLocalRing, batch_invert, check_tensor_size


class GmaStructure:
    """Type (1,1) GMA presented by F_p-bases of A, B, C and action/pairing
    tables.  Flat coordinates are ordered [a | b | c | d]."""

    def __init__(self, A, act_b, act_c, pairing, name="R"):
        self.A = A
        p = A.p
        self.p = p
        self.act_b = np.ascontiguousarray(act_b, dtype=np.int64) % p  # (da, db, db)
        self.act_c = np.ascontiguousarray(act_c, dtype=np.int64) % p  # (da, dc, dc)
        self.pairing = np.ascontiguousarray(pairing, dtype=np.int64) % p  # (db, dc, da)
        self.da = A.dim
        self.db = self.act_b.shape[1]
        self.dc = self.act_c.shape[1]
        self.dim = 2 * self.da + self.db + self.dc
        check_tensor_size((self.dim,) * 3)
        self.name = name
        da, db, dc = self.da, self.db, self.dc
        self.sa = slice(0, da)
        self.sb = slice(da, da + db)
        self.sc = slice(da + db, da + db + dc)
        self.sd = slice(da + db + dc, self.dim)
        self.one = np.zeros(self.dim, dtype=np.int64)
        self.one[self.sa] = A.one
        self.one[self.sd] = A.one
        self.J = np.zeros(self.dim, dtype=np.int64)
        self.J[self.sa] = A.one
        self.J[self.sd] = (-A.one) % p
        self._validate()
        self.mul_tensor = self._build_mul_tensor()
        self._radical = None
        self._rad0 = None

    # -- construction helpers ----------------------------------------------
    def _validate(self):
        """The module, compatibility and bilinearity laws on basis elements,
        all at once; the first failure in basis order is reported."""
        p, da, db, dc = self.p, self.da, self.db, self.dc
        mt = self.A.mul_tensor

        def act_of(vals, act):
            """Matrices sum_i v_i act[i] for ring vectors v (the last axis)."""
            n = act.shape[1]
            flat = matmul_mod(vals.reshape(-1, da), act.reshape(da, n * n), p)
            return flat.reshape(vals.shape[:-1] + (n, n))

        def first_failure(fail_x, fail_y, msg_x, msg_y):
            bad = np.flatnonzero(fail_x | fail_y)
            if bad.size:
                raise CheckFailed(msg_x if fail_x.flat[bad[0]] else msg_y)

        # (a a2)·m = a·(a2·m), with module_act(a, M) = M @ act_of(a)
        def module_fails(act):
            composed = matmul_mod(act[None, :], act[:, None], p)  # [i, i2] = act[i2] @ act[i]
            return (act_of(mt, act) != composed).any(axis=(2, 3))
        first_failure(module_fails(self.act_b), module_fails(self.act_c),
                      "B is not an A-module", "C is not an A-module")
        # m(b_k, c_l)·b_k2 = m(b_k2, c_l)·b_k and m(b_k, c_l2)·c_l = m(b_k, c_l)·c_l2
        on_b = act_of(self.pairing, self.act_b)                  # [k, l, k2, :]
        on_c = act_of(self.pairing, self.act_c)                  # [k, l, l2, :]
        first_failure((on_b != on_b.transpose(2, 1, 0, 3)).any(axis=(2, 3)),
                      (on_c != on_c.transpose(0, 2, 1, 3)).any(axis=(2, 3)),
                      "pairing compatibility fails on B", "pairing compatibility fails on C")
        # A-bilinearity of the pairing: m(a b, c) = a m(b, c)
        lhs = matmul_mod(self.act_b.reshape(da * db, db), self.pairing.reshape(db, dc * da), p)
        rhs = matmul_mod(self.pairing.reshape(db * dc, da),
                         mt.transpose(1, 0, 2).reshape(da, da * da), p)
        if (lhs.reshape(da, db, dc, da) != rhs.reshape(db, dc, da, da).transpose(2, 0, 1, 3)).any():
            raise CheckFailed("pairing is not A-bilinear")

    def _build_mul_tensor(self):
        """S[i, j] = e_i * e_j, assembled from the product rule: each of its
        eight terms puts one of A's tensor, the two actions and the pairing
        into the block (factor of x, factor of y, component of xy)."""
        sa, sb, sc, sd = self.sa, self.sb, self.sc, self.sd
        mt, swap = self.A.mul_tensor, (1, 0, 2)
        S = np.zeros((self.dim,) * 3, dtype=np.int64)
        S[sa, sa, sa] = mt                                    # a a'
        S[sb, sc, sa] = self.pairing                          # m(b, c')
        S[sa, sb, sb] = self.act_b                            # a b'
        S[sb, sd, sb] = self.act_b.transpose(swap)            # d' b
        S[sc, sa, sc] = self.act_c.transpose(swap)            # a' c
        S[sd, sc, sc] = self.act_c                            # d c'
        S[sd, sd, sd] = mt                                    # d d'
        S[sc, sb, sd] = self.pairing.transpose(swap)          # m(b', c)
        return S

    # -- component access ----------------------------------------------------
    def comps(self, x):
        x = np.asarray(x)
        return x[..., self.sa], x[..., self.sb], x[..., self.sc], x[..., self.sd]

    def assemble(self, a, b, c, d):
        parts = [np.asarray(a), np.asarray(b), np.asarray(c), np.asarray(d)]
        return np.concatenate(parts, axis=-1) % self.p

    def module_act(self, a, M, which):
        """Action of ring vector a on rows of M in module B or C."""
        act = self.act_b if which == "b" else self.act_c
        return bilinear(a, M, act, self.p)

    # -- algebra operations ---------------------------------------------------
    def mul_vec(self, x, y):
        # kept beside `batch_mul`: pinkbench traces GmaStructure.mul_vec
        return self.batch_mul(x, y)[0]

    def batch_mul(self, X, Y):
        """Row-wise products, as one contraction with `mul_tensor`.  Summing
        the displayed rule block by block makes about a tenth of the
        multiplications for rows of M_2(A), but eight `bilinear` calls, and
        at D = dim <= 16 those calls cost more than the zeros they skip: on
        one thread, one contraction took 0.2 of their time at 100 rows, 0.4
        to 0.8 at 1,000 and 0.6 to 0.7 at 10^5.  At D = 24 it is up to 1.15
        times slower and at D = 32 up to 1.6 times.  A single row of X or Y
        pairs with every row of the other."""
        return bilinear(np.asarray(X) % self.p, np.asarray(Y) % self.p, self.mul_tensor, self.p)

    batch_pow = FiniteAlgebra.batch_pow

    def batch_mul_elem(self, X, y):
        """Rows X[n] * y, as one product with the matrix of right
        multiplication by y."""
        D = self.dim
        S = self.mul_tensor.transpose(1, 0, 2).reshape(D, D * D)
        M = matmul_mod(np.asarray(y) % self.p, S, self.p).reshape(D, D)
        return matmul_mod(np.atleast_2d(X), M, self.p)

    def batch_mul_elem_left(self, x, Y):
        """Rows x * Y[n], as one product with the matrix of left
        multiplication by x."""
        D = self.dim
        M = matmul_mod(np.asarray(x) % self.p, self.mul_tensor.reshape(D, D * D), self.p)
        return matmul_mod(np.atleast_2d(Y), M.reshape(D, D), self.p)

    def batch_trace(self, X):
        X = np.atleast_2d(X)
        return (X[:, self.sa] + X[:, self.sd]) % self.p

    def batch_det(self, X):
        X = np.atleast_2d(X) % self.p
        ad = bilinear(X[:, self.sa], X[:, self.sd], self.A.mul_tensor, self.p)
        bc = bilinear(X[:, self.sb], X[:, self.sc], self.pairing, self.p)
        return (ad - bc) % self.p

    def scalars(self, T):
        """Rows t·Id for the ring rows t of T: the one embedding A -> R."""
        T = np.atleast_2d(T)
        out = np.zeros((len(T), self.dim), dtype=np.int64)
        out[:, self.sa] = T
        out[:, self.sd] = T
        return out

    def ring_scale(self, t, X):
        """(t*Id) * X for a ring vector t and rows X."""
        return self.batch_mul_elem_left(self.scalars(t)[0], X)

    def batch_inv(self, X):
        """x^-1 = det(x)^-1·(tr(x) - x), row-wise."""
        X = np.atleast_2d(X)
        return self.batch_mul(self.scalars(batch_invert(self.A, self.batch_det(X))),
                              self.scalars(self.batch_trace(X)) - X)

    # -- radical ---------------------------------------------------------------
    def bc_ideal(self):
        """The ideal of A spanned by pairing values m(B, C)."""
        return span_products(np.eye(self.da, dtype=np.int64), self.pairing.reshape(-1, self.da),
                             self.A.mul_tensor, self.p)

    def radical_profile(self):
        """Case tag per local factor: 'matrix' (BC = A) or 'reduced' (BC in m)."""
        A = self.A
        bc = self.bc_ideal()
        factors = A.factors if isinstance(A, SemiLocalRing) else [A]
        tags = []
        for i, fac in enumerate(factors):
            if isinstance(A, SemiLocalRing):
                proj_rows = [A.project(r, i) for r in bc.basis]
                bci = FpSubspace(self.p, fac.dim, proj_rows)
            else:
                bci = bc
            if bci.contains(fac.one):
                tags.append("matrix")
            else:
                for row in bci.basis:
                    if not fac.maxideal.contains(row):
                        raise CheckFailed("BC neither A nor inside m")
                tags.append("reduced")
        return tags

    def radical(self):
        """F_p-subspace of rad R = [[m, B],[C, m]] or m*M2(A) per factor."""
        if self._radical is not None:
            return self._radical
        A, p = self.A, self.p
        tags = self.radical_profile()
        factors = A.factors if isinstance(A, SemiLocalRing) else [A]
        rows = []
        eb = np.eye(self.db, dtype=np.int64)
        ec = np.eye(self.dc, dtype=np.int64)
        za = np.zeros(self.da, dtype=np.int64)
        zb = np.zeros(self.db, dtype=np.int64)
        zc = np.zeros(self.dc, dtype=np.int64)
        for i, (fac, tag) in enumerate(zip(factors, tags)):
            if isinstance(A, SemiLocalRing):
                off = A.offsets[i]
                mrows = [_lift_block(r, off, A.dim) for r in fac.maxideal.basis]
                onei = _lift_block(fac.one, off, A.dim)
            else:
                mrows = list(fac.maxideal.basis)
                onei = fac.one
            for mr in mrows:
                rows.append(self.assemble(mr, zb, zc, za))
                rows.append(self.assemble(za, zb, zc, mr))
            scale = mrows if tag == "matrix" else [onei]
            for s in scale:
                rows.extend(self.assemble(za, b, zc, za) for b in self.module_act(s, eb, "b"))
                rows.extend(self.assemble(za, zb, c, za) for c in self.module_act(s, ec, "c"))
        self._radical = FpSubspace(p, self.dim, rows)
        return self._radical

    def rad0(self):
        """Trace-zero part of the radical."""
        if self._rad0 is not None:
            return self._rad0
        rad = self.radical()
        # solve tr = 0 within the radical span
        Tr = self.batch_trace(rad.basis)  # (r, da)
        from .fp import nullspace
        ker = nullspace(Tr.T, self.p)
        rows = (ker @ rad.basis) % self.p
        self._rad0 = FpSubspace(self.p, self.dim, rows)
        return self._rad0

    def in_radical(self, x):
        return self.radical().contains(np.asarray(x))


def _lift_block(v, off, dim):
    out = np.zeros(dim, dtype=np.int64)
    out[off:off + len(v)] = v
    return out


# -- standard constructions ----------------------------------------------------

def m2_structure(A, name=None):
    """M_2(A): B = C = A with the multiplication pairing."""
    return GmaStructure(A, A.mul_tensor, A.mul_tensor, A.mul_tensor,
                        name=name or f"M2({A.meta.get('kind', 'A')})")


def reduced_residue_gma(A):
    """Faithful GMA [[A, F_q],[F_q, A]] over a truncated-type local ring:
    B = C = A/m as A-modules, pairing m(b, c) = (b c) * z with z spanning
    the socle power m^(nil-1).  BC sits inside m, so this realizes the
    reduced radical case."""
    if not isinstance(A, LocalRing):
        raise ValueError("local base required")
    p, f, T = A.p, A.fq.f, A.fq.mul_tensor
    # action of A on A/m through the residue map, in digit coordinates:
    # act[i, k] holds the digits of (e_i mod m)·alpha^k
    act = matmul_mod(A.proj.T, T.reshape(f, f * f), p).reshape(A.dim, f, f)
    # socle generator: a basis vector of m^(nil-1)
    power = FpSubspace(p, A.dim, [A.one])
    for _ in range(A.nilpotency - 1):
        power = span_products(power.basis, A.maxideal.basis, A.mul_tensor, p)
    z = A.one if power.dim == 0 else power.basis[0]
    # the constants s(alpha^k·alpha^l), k-major
    consts = matmul_mod(T.reshape(f * f, f), A.embed, p)
    pairing = A.batch_mul_elem(consts, z).reshape(f, f, A.dim)
    return GmaStructure(A, act, act, pairing, name="reduced")


def is_faithful(R):
    """Non-degeneracy of the pairing: both kernels of m vanish."""
    p = R.p
    if R.db == 0 and R.dc == 0:
        return True
    # left kernel: b with m(b, e_l) = 0 for all l
    Mb = R.pairing.reshape(R.db, R.dc * R.da)
    from .fp import nullspace
    left = nullspace(Mb.T, p)
    Mc = np.swapaxes(R.pairing, 0, 1).reshape(R.dc, R.db * R.da)
    right = nullspace(Mc.T, p)
    return left.shape[0] == 0 and right.shape[0] == 0


def batch_in_SR1(R, X):
    """Which rows lie in SR^1: det(x) = 1 and x = Id mod rad R."""
    X = np.atleast_2d(X)
    out = (R.batch_det(X) == R.A.one).all(axis=1)
    out[out] = R.radical().contains((X[out] - R.one) % R.p)
    return out


def m2_quotient_map(R, ideal_vectors):
    """For R = M2(A) and an ideal J of A: the reduction M2(A) -> M2(A/J).

    Returns (R_quotient, apply) with apply mapping flat coordinate rows.
    """
    from .localring import quotient_ring
    A = R.A
    if R.db != A.dim or R.dc != A.dim:
        raise ValueError("quotient map implemented for the matrix presentation")
    Aq, P = quotient_ring(A, ideal_vectors)
    Rq = m2_structure(Aq, name=R.name + "/J")

    def apply(rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        blocks = [rows[:, R.sa] @ P.T, rows[:, R.sb] @ P.T,
                  rows[:, R.sc] @ P.T, rows[:, R.sd] @ P.T]
        return np.concatenate(blocks, axis=1) % R.p

    return Rq, apply

