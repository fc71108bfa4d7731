"""Lie theory for subgroups of SR^1 in a generalized matrix algebra over a
finite local base, via the traceless projection map

    theta(x) = x - (tr x / 2)·Id,

a bijection from SR^1 = {det = 1, x = Id mod rad} onto the traceless part
of the radical, with inverse m -> m + sqrt(1 + tr(m^2)/2)·Id.

The span L of theta(Gamma) is closed under the bracket and under
multiplication by P = tr(L·L); the terms of the descending central series
of Gamma from the second onward coincide with theta^{-1} of the derived
series of L, which is what most of the checks in this module exercise.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CheckFailed, TooLarge
from .fp import (FpSubspace, bilinear, matmul_mod, new_rows, pair_products, row_key, saturate,
                 span_products)
from .gma import GmaStructure, batch_in_SR1, m2_structure
from .instances import ideal_block_rows
from .localring import (
    LocalRing,
    batch_invert,
    batch_is_unit_square,
    batch_sqrt_one_plus_m,
    make_truncated_poly_ring,
)
from .pseudorep import FiniteMatrixGroup, PseudoRep, _index_closure, is_admissible


# -- the theta map ---------------------------------------------------------

def theta(R, x):
    """x - (tr x / 2)·Id; restricted to SR^1 a bijection onto (rad R)^0.
    Unlike `batch_theta`, it refuses p = 2."""
    if R.p == 2:
        raise CheckFailed("theta needs p odd")
    return batch_theta(R, x)[0]


def batch_theta(R, X):
    X = np.atleast_2d(X)
    return (X - R.scalars(R.batch_trace(X) * pow(2, -1, R.p))) % R.p


def theta_inv(R, m):
    """Inverse of theta on traceless radical elements: lands in SR^1.
    Unlike `batch_theta_inv`, it checks its argument."""
    v = np.asarray(m, dtype=np.int64) % R.p
    if R.batch_trace(v).any():
        raise CheckFailed("theta_inv needs a traceless argument")
    if not R.in_radical(v):
        raise CheckFailed("theta_inv needs a radical argument")
    return batch_theta_inv(R, v)[0]


def batch_theta_inv(R, M):
    M = np.atleast_2d(M) % R.p
    return (M + R.scalars(_sqrt_scalars(R, M))) % R.p


# -- Lie data ---------------------------------------------------------------

class LieSubspace:
    """F_p-subspace of (rad R)^0 with a row-reduced basis."""

    def __init__(self, R, vectors=(), check=True):
        self.R = R
        self.space = vectors if isinstance(vectors, FpSubspace) else FpSubspace(R.p, R.dim, vectors)
        if check and not R.rad0().contains(self.space.basis).all():
            raise ValueError("vector outside the traceless radical")

    @property
    def dim(self):
        return self.space.dim

    @property
    def basis(self):
        return self.space.basis

    def contains(self, v):
        return self.space.contains(v)

    def enumerate(self, cap=None):
        return self.space.enumerate(cap=cap)

    def bracket_closed(self):
        I, J = np.triu_indices(self.dim, 1)
        U, V = self.basis[I], self.basis[J]
        outside = np.flatnonzero(~self.contains(batch_bracket(self.R, U, V)))
        if outside.size:
            return False, (U[outside[0]], V[outside[0]])
        return True, None

    def trace_pseudoring(self):
        """P = tr(L·L) as a subspace of A."""
        return trace_square(self.R, self.space)

    def stable_under(self, P):
        """P·L <= L for a subspace P of A; the witness (t, v) is the first
        product t·v outside L, t-major."""
        R = self.R
        scaled = pair_products(R.scalars(P.basis), self.basis, R.mul_tensor, R.p)
        outside = np.flatnonzero(~self.contains(scaled))
        if outside.size:
            t, v = divmod(int(outside[0]), self.dim)
            return False, (P.basis[t], self.basis[v])
        return True, None

    def __eq__(self, other):
        return isinstance(other, LieSubspace) and self.R is other.R and self.space == other.space

    def __hash__(self):
        return hash((id(self.R), self.space))

    def __repr__(self):
        return f"LieSubspace(dim {self.dim} in {self.R.name})"


def batch_bracket(R, U, V):
    """Row-wise brackets [u, v]."""
    return (R.batch_mul(U, V) - R.batch_mul(V, U)) % R.p


def bracket_tensor(R):
    """The structure tensor of [x, y] = xy - yx on R."""
    return (R.mul_tensor - R.mul_tensor.transpose(1, 0, 2)) % R.p


def lie_of_subgroup(G):
    """Pink Lie algebra of a subgroup of SR^1: the span of theta(Gamma)."""
    R = G.R
    mask = batch_in_SR1(R, G.elements)
    if not mask.all():
        raise CheckFailed("group has an element outside SR^1")
    return LieSubspace(R, batch_theta(R, G.elements))


def generate_group(R, gens, cap=2 * 10 ** 6):
    """(G, Gamma, L) for G = <gens> in R*, Gamma = G ∩ SR^1 and L = span
    theta(Gamma).  A BFS over the keys (det x, x mod rad R), multiplicative
    as rad R is an ideal and equal exactly when x'^-1·x lies in SR^1, gives a
    transversal T of G/Gamma, T[0] = 1, with no inverses, as a finite group
    is the monoid its generators make.  A level keys the edges t·s of the
    newest t and, to find cosets only, T·t for the newest t in T, so a
    cyclic T doubles.  The Schreier generators t·s·u^-1, u the representative
    of t·s (D. Holt, B. Eick, E. O'Brien, Handbook of Computational Group
    Theory, 2005, §4.1), less the identity and all but the first row of
    each pair {w, w^-1}, generate Gamma.  L' is span theta of them, closed
    under the bracket and under P·L' for P = tr(L'·L'), and H =
    theta^{-1}(L') a group (R. Pink, Compositio Math. 88 (1993); see
    `pink_converse`).  H.find(H·s) >= 0 for each generator s certifies
    H·s <= H, so the orbit of 1 under these index maps is Gamma: H with
    L = L', or a subgroup with L = span theta(Gamma).  G is the union of the
    t·Gamma, one product per element of the smaller of T and Gamma.  `cap`
    bounds the cosets as each level's keys are added, then the rows to
    enumerate, |T|·p^dim L' >= |G|, before H exists."""
    if R.p == 2:
        raise CheckFailed("theta needs p odd")
    p = R.p
    S = np.asarray(gens, dtype=np.int64).reshape(-1, R.dim) % p
    found, edges, edge_keys, level = [], [], [], R.one[None, :]      # 1, with no edges
    T = E = seen = level[:0]
    while True:
        keys = row_key(np.concatenate([R.batch_det(level), R.radical().reduce(level)], axis=1), p)
        fresh = new_rows(keys, seen)
        if len(T) + len(fresh) > cap:
            raise TooLarge(f"group exceeds cap {cap}")
        edge_keys.append(keys[:len(E)])
        edges.append(E)
        if not len(fresh):
            break
        found.append(keys[fresh])
        seen = np.sort(np.concatenate(found))
        new = level[fresh]
        T = np.concatenate([T, new])
        # edge new[i]·S[j] in row i·|S| + j; the empty block keeps S = [] valid
        E = np.hstack([new[:, :0]] + [R.batch_mul_elem(new, s) for s in S]).reshape(-1, R.dim)
        level = np.concatenate([E, R.batch_mul_elem(T, T[-1])])
    # seen is the coset keys sorted: argsort numbers them in the order of T
    ends = np.argsort(np.concatenate(found))[np.searchsorted(seen, np.concatenate(edge_keys))]
    W = np.concatenate(edges)
    if len(T) > 1:                                      # else u = 1 and t·s·u^-1 = s
        W = R.batch_mul(W, R.batch_inv(T)[ends])
    # keep w iff it is the first row of its pair {w, w^-1} and w != 1, that is,
    # iff neither w nor w^-1 is kept yet; w in SR^1 has det 1, so w^-1 = tr(w) - w
    _, ids = np.unique(np.concatenate([row_key(R.one[None, :], p), row_key(W, p),
                                       row_key((R.scalars(R.batch_trace(W)) - W) % p, p)]),
                       return_inverse=True)
    gvecs = W[new_rows(np.minimum(ids[1:len(W) + 1], ids[len(W) + 1:]), ids[:1])]
    if not batch_in_SR1(R, gvecs).all():
        raise CheckFailed("a Schreier generator lies outside SR^1")
    grown = FpSubspace(p, R.dim, batch_theta(R, gvecs))
    while True:
        space = saturate(grown, bracket_tensor(R))
        grown = saturate(space, R.mul_tensor, by=R.scalars(trace_square(R, space).basis))
        if grown.dim == space.dim:
            break
    if len(T) * p ** space.dim > cap:
        raise TooLarge(f"group exceeds cap {cap}")
    L = LieSubspace(R, space, check=False)
    H = FiniteMatrixGroup(R, enumerate_preimage(L), generators=gvecs)
    maps = np.array([H.find(R.batch_mul_elem(H.elements, s)) for s in gvecs], dtype=np.int64)
    if (maps < 0).any():
        raise CheckFailed("theta^{-1}(L) is not closed under a generator")
    orbit = _index_closure(maps.reshape(len(gvecs), H.n).T, H.id_index)
    Gamma = H
    if len(orbit) < H.n:
        Gamma = FiniteMatrixGroup(R, H.elements[orbit], generators=gvecs)
        L = LieSubspace(R, batch_theta(R, Gamma.elements), check=False)
    if len(T) == 1:
        return Gamma, Gamma, L
    if len(T) <= Gamma.n:                                               # t-major
        rows = np.stack([R.batch_mul_elem_left(t, Gamma.elements) for t in T])
    else:
        rows = np.stack([R.batch_mul_elem(T, g) for g in Gamma.elements], axis=1)
    return FiniteMatrixGroup(R, rows.reshape(-1, R.dim), generators=S), Gamma, L


def enumerate_preimage(L, cap=None):
    """The rows of theta^{-1}(L), in the order of `L.enumerate`:
    m + sqrt(1 + Q(m))·Id with Q(m) = tr(m^2)/2.  For m = sum c_i b_i on
    L's basis, Q is the quadratic form c -> sum c_i c_j tr(b_i b_j)/2, one
    `bilinear` on the coefficient rows, and only the distinct values of
    1 + Q take a square root."""
    R = L.R
    A, p = R.A, R.p
    members = L.enumerate(cap=cap)
    coeffs = members[:, L.space.pivots]          # the RREF basis has unit pivot columns
    d = L.dim
    form = trace_products(R, L.basis, L.basis).reshape(d, d, A.dim) * pow(2, -1, p) % p
    lam = _sqrt_one_plus(A, bilinear(coeffs, coeffs, form, p))
    # in place: members + R.scalars(lam) would copy the largest array example8 holds
    members[:, R.sa] = (members[:, R.sa] + lam) % p
    members[:, R.sd] = (members[:, R.sd] + lam) % p
    return members


def gamma_and_lie(G):
    """(Gamma, L) for Gamma = G ∩ SR^1 and its Lie algebra: membership is
    tested once, on G, so Gamma needs no second test."""
    R = G.R
    Gamma = FiniteMatrixGroup(R, G.elements[batch_in_SR1(R, G.elements)])
    return Gamma, LieSubspace(R, batch_theta(R, Gamma.elements))


def descending_series(L, n_max):
    """[L_1, ..., L_n] with L_{k+1} = [L_k, L]."""
    out = [L]
    R = L.R
    Tb = bracket_tensor(R)
    for _ in range(n_max - 1):
        out.append(LieSubspace(R, pair_products(out[-1].basis, L.basis, Tb, R.p), check=False))
    return out


def group_series(G, n_max):
    """[Gamma_1, ..., Gamma_n] with Gamma_{k+1} = (Gamma_k, Gamma).

    For N normal in G = <Y>, (N, G) is generated by the (x, y) = x y x^-1 y^-1
    with x in N, y in Y: their group K is normal, as y k y^-1 = k·(k^-1, y),
    and Y, hence G, centralises N mod K.  Y is G's recorded generators, else G."""
    T = G.mul_table()
    inv = G.inverses()
    Y = G.find(np.array(G.generators)) if G.generators else np.arange(G.n)
    levels = [np.arange(G.n)]
    for _ in range(n_max - 1):
        prev = levels[-1]
        comm = T[T[np.ix_(prev, Y)], T[np.ix_(inv[prev], inv[Y])]]
        levels.append(_index_closure(T, G.id_index, np.unique(comm, return_index=True)[0]))
    groups = [G]
    for idxs in levels[1:]:
        groups.append(FiniteMatrixGroup(G.R, G.elements[idxs]))
    return groups


def pink_converse(L, cap=10 ** 6):
    """H = theta^{-1}(L) as a group, provided [L, L] <= L and tr(L·L)·L <= L.

    Both hypotheses are verified exactly on basis tuples; they make H
    closed under products and inverses, which is additionally spot-checked
    by `FiniteMatrixGroup.verify_closure`.  Returns (H, P)."""
    ok, wit = L.bracket_closed()
    if not ok:
        raise CheckFailed(f"bracket closure fails at {wit}")
    P = L.trace_pseudoring()
    ok, wit = L.stable_under(P)
    if not ok:
        raise CheckFailed(f"tr(L·L)·L <= L fails at {wit}")
    H = FiniteMatrixGroup(L.R, enumerate_preimage(L, cap=cap))
    if not H.verify_closure():
        raise CheckFailed("sampled product left theta^{-1}(L)")
    return H, P


def _sqrt_scalars(R, M):
    """sqrt(1 + tr(m^2)/2) in 1 + m for each row m of M, as ring vectors: the
    scalar of theta^{-1}(m) = m + sqrt(1 + tr(m^2)/2)·Id and of the star law.
    tr(m^2)/2 = tr(m)^2/2 - det(m), so no row is squared."""
    A, p = R.A, R.p
    t = R.batch_trace(M)
    return _sqrt_one_plus(A, bilinear(t, t, A.mul_tensor, p) * pow(2, -1, p) - R.batch_det(M))


def _sqrt_one_plus(A, Q):
    """sqrt(1 + q) in 1 + m for each row q of Q (ring vectors, any integers):
    only the distinct values take a root, then a gather."""
    p = A.p
    Q = Q % p
    _, first, which = np.unique(row_key(Q, p), return_index=True, return_inverse=True)
    return batch_sqrt_one_plus_m(A, (A.one + Q[first]) % p)[which]


def star_law(R, X, Y):
    """Row-wise x * y = x·sqrt(1 + tr(y^2)/2) + y·sqrt(1 + tr(x^2)/2), the
    group law theta carries to L/L_2."""
    return (R.batch_mul(R.scalars(_sqrt_scalars(R, Y)), X)
            + R.batch_mul(R.scalars(_sqrt_scalars(R, X)), Y)) % R.p


def star_quotient_checks(L, L2, cap=3 ** 9):
    """The star law is a commutative group law on L/L_2, and theta is a
    morphism Gamma/Gamma_2 -> (L/L_2, *).  Exhaustive on coset reps."""
    R = L.R
    reps = _coset_reps(L, L2, cap=cap)
    n = reps.shape[0]
    zero = np.zeros((n, R.dim), dtype=np.int64)
    if not np.array_equal(L2.space.reduce(star_law(R, reps, zero)), L2.space.reduce(reps)):
        return False, ("identity", None)
    # commutativity and the first associativity leg on all pairs
    I, Jx = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    XY = star_law(R, reps[I], reps[Jx])
    YX = star_law(R, reps[Jx], reps[I])
    if not np.array_equal(L2.space.reduce(XY), L2.space.reduce(YX)):
        return False, ("commutativity", None)
    XY_red = L2.space.reduce(XY).reshape(n, n, R.dim)
    # associativity on all triples: star(red(x*y), z) vs star(x, red(y*z))
    Ti = np.repeat(np.arange(n * n), n)
    Tk = np.tile(np.arange(n), n * n)
    left = star_law(R, XY_red.reshape(n * n, R.dim)[Ti], reps[Tk])
    Yi = np.repeat(np.arange(n), n * n)
    YZ_flat = XY_red.reshape(n * n, R.dim)       # reuse: red(y*z) over pairs
    right = star_law(R, reps[Yi], np.tile(YZ_flat, (n, 1))[: n * n * n])
    if not np.array_equal(L2.space.reduce(left), L2.space.reduce(right)):
        return False, ("associativity", None)
    return True, None


def _coset_reps(L, L2, cap):
    """One member of each coset of L_2 in L: the span of a complement of
    L_2, the basis members of L kept in turn when they are independent of
    L_2 and of those kept before."""
    comp = []
    cur = L2.space
    for v in L.basis:
        if not cur.contains(v):
            comp.append(v)
            cur = cur.extend([v])
    return FpSubspace(L.R.p, L.R.dim, comp).enumerate(cap=cap)


def theta_star_morphism_check(G, L, L2, rng):
    """theta(gamma·gamma') = theta(gamma) * theta(gamma') mod L_2, on 300
    pairs drawn from rng."""
    R = G.R
    I = rng.integers(0, G.n, size=300)
    Jx = rng.integers(0, G.n, size=300)
    lhs = batch_theta(R, R.batch_mul(G.elements[I], G.elements[Jx]))
    rhs = star_law(R, batch_theta(R, G.elements[I]), batch_theta(R, G.elements[Jx]))
    bad = np.flatnonzero((L2.space.reduce(lhs) != L2.space.reduce(rhs)).any(axis=1))
    if bad.size:
        return False, (int(I[bad[0]]), int(Jx[bad[0]]))
    return True, None


# -- decomposition ----------------------------------------------------------

@dataclass
class Decomposition:
    decomposable: bool
    strongly: bool
    nabla: FpSubspace = None      # antidiagonal part of L
    I1: FpSubspace = None         # a-components of the diagonal part I1·J of L
    B1: FpSubspace = None         # b-components of nabla
    C1: FpSubspace = None         # c-components of nabla


def decompose(L):
    """Split L into diagonal and antidiagonal parts when possible, and
    extract (I1, B1, C1)."""
    R = L.R
    p = R.p
    diag = L.basis.copy()
    diag[:, R.sb] = 0
    diag[:, R.sc] = 0
    if not L.contains(diag).all():
        return Decomposition(False, False)
    delta = FpSubspace(p, R.dim, diag)
    nabla = FpSubspace(p, R.dim, (L.basis - diag) % p)
    I1 = FpSubspace(p, R.A.dim, delta.basis[:, R.sa])
    B1 = FpSubspace(p, R.db, nabla.basis[:, R.sb])
    C1 = FpSubspace(p, R.dc, nabla.basis[:, R.sc])
    b_parts = nabla.basis.copy()
    b_parts[:, R.sc] = 0
    return Decomposition(True, bool(L.contains(b_parts).all()), nabla, I1, B1, C1)


def trace_products(R, U, V):
    """tr(u·v) for every pair of rows, u-major, through R's trace form."""
    D = R.dim
    form = R.batch_trace(R.mul_tensor.reshape(D * D, D)).reshape(D, D, R.A.dim)
    return pair_products(U, V, form, R.p)


def trace_square(R, V):
    """tr(V·V) as a subspace of A."""
    return FpSubspace(R.p, R.A.dim, trace_products(R, V.basis, V.basis))


def decomposable_condition_report(L, dec=None):
    """The five closure conditions a decomposable L = I1·J + nabla must
    satisfy to be the Lie algebra of a subgroup of SR^1."""
    R = L.R
    A = R.A
    dec = dec or decompose(L)
    if not dec.decomposable:
        return {"decomposable": False}
    I1, nabla = dec.I1, dec.nabla
    rep = {"decomposable": True}
    p, T = R.p, R.mul_tensor
    brackets = pair_products(nabla.basis, nabla.basis, bracket_tensor(R), p)
    rep["bracket_nabla_nabla_in_I1J"] = bool(
        not brackets[:, R.sb].any() and not brackets[:, R.sc].any()
        and I1.contains(brackets[:, R.sa]).all())
    J_nabla = batch_bracket(R, R.J, nabla.basis)
    rep["I1_bracket_J_nabla_in_nabla"] = bool(
        nabla.contains(pair_products(R.scalars(I1.basis), J_nabla, T, p)).all())
    trn2 = trace_square(R, nabla)
    rep["trace_nabla2_I1_in_I1"] = bool(
        I1.contains(pair_products(trn2.basis, I1.basis, A.mul_tensor, p)).all())
    rep["trace_nabla2_nabla_in_nabla"] = bool(
        nabla.contains(pair_products(R.scalars(trn2.basis), nabla.basis, T, p)).all())
    rep["I1_cubed_in_I1"] = _cube_closed(A, I1)
    return rep


def _cube_closed(A, I1):
    """I1^3 <= I1."""
    I1sq = span_products(I1.basis, I1.basis, A.mul_tensor, A.p)
    return bool(I1.contains(pair_products(I1sq.basis, I1.basis, A.mul_tensor, A.p)).all())


def strong_condition_report(L, dec=None):
    """Closure conditions in the strongly decomposable presentation."""
    R = L.R
    A = R.A
    dec = dec or decompose(L)
    if not (dec.decomposable and dec.strongly):
        return {"strongly_decomposable": False}
    I1, B1, C1 = dec.I1, dec.B1, dec.C1
    rep = {"strongly_decomposable": True}
    p = R.p
    rep["B1C1_in_I1"] = bool(I1.contains(pair_products(B1.basis, C1.basis, R.pairing, p)).all())
    rep["I1B1_in_B1"] = bool(B1.contains(pair_products(I1.basis, B1.basis, R.act_b, p)).all())
    rep["I1C1_in_C1"] = bool(C1.contains(pair_products(I1.basis, C1.basis, R.act_c, p)).all())
    rep["I1_cubed_in_I1"] = _cube_closed(A, I1)
    return rep


# -- structure theorems: forward checks and converse constructions -----------

STRUCTURE_CLASSES = ("order2", "cyclic", "klein", "dihedral", "large")


def subfield_constants(A, d):
    """Constants of the degree-d subfield of the residue field."""
    fq = A.fq
    if fq.f % d:
        raise ValueError("not a subfield degree")
    codes = np.arange(fq.q)
    return A.constants()[fq.pow(codes, A.p ** d) == codes]


def check_structure_theorem(cls_kind, G, L=None, subfield_degree=None):
    """Forward shape check: the Lie algebra of a well-adapted instance has
    the closure and span properties its class dictates.  Returns a report
    dict naming each condition; the caller decides pass/fail."""
    R = G.R
    A = R.A
    if L is None:
        L = gamma_and_lie(G)[1]
    dec = decompose(L)
    rep = {"class": cls_kind, "dim_L": L.dim}
    # F-spans as F_p-spans of products with the embedded alpha^i
    p, mt, consts = A.p, A.mul_tensor, A.embed
    E = np.eye(A.dim, dtype=np.int64)
    one_sp = FpSubspace(p, A.dim, [A.one])
    full_module_B = FpSubspace(p, R.db, np.eye(R.db, dtype=np.int64))
    full_module_C = FpSubspace(p, R.dc, np.eye(R.dc, dtype=np.int64))
    if cls_kind == "order2":
        rep.update(decomposable_condition_report(L, dec))
        if not dec.decomposable:
            return rep
        I1sq = span_products(dec.I1.basis, dec.I1.basis, mt, p)
        span = one_sp.sum(dec.I1).sum(I1sq).sum(trace_square(R, dec.nabla))
        rep["span_1_I1_I1sq_trn2_is_A"] = span_products(consts, span.basis, mt, p).dim == A.dim
        rep["A_B1_is_B"] = span_products(E, dec.B1.basis, R.act_b, p) == full_module_B
        rep["A_C1_is_C"] = span_products(E, dec.C1.basis, R.act_c, p) == full_module_C
        return rep
    if cls_kind in ("cyclic", "dihedral", "large"):
        d = subfield_degree or A.fq.f
        scaled = pair_products(R.scalars(subfield_constants(A, d)), L.basis, R.mul_tensor, p)
        LQ = LieSubspace(R, scaled, check=False)
        decq = decompose(LQ)
        rep["WFq_L_strongly_decomposable"] = bool(decq.decomposable and decq.strongly)
        if not rep["WFq_L_strongly_decomposable"]:
            return rep
        I1t, B1t, C1t = decq.I1, decq.B1, decq.C1
        rep.update({f"strong_{k}": v for k, v in strong_condition_report(LQ, decq).items()})
        I1sq = span_products(I1t.basis, I1t.basis, mt, p)
        if cls_kind == "cyclic":
            span = one_sp.sum(I1t).sum(I1sq)
            rep["span_1_I1_I1sq_is_A"] = span_products(consts, span.basis, mt, p).dim == A.dim
            rep["F_B1_is_B"] = span_products(consts, B1t.basis, R.act_b, p) == full_module_B
            rep["F_C1_is_C"] = span_products(consts, C1t.basis, R.act_c, p) == full_module_C
        elif cls_kind == "dihedral":
            rep["B1_equals_C1"] = B1t == C1t
            span = one_sp.sum(I1t).sum(I1sq)
            if R.db == A.dim:
                span = span.sum(FpSubspace(p, A.dim, B1t.basis))
            rep["span_1_I1_I1sq_B1_is_A"] = span_products(consts, span.basis, mt, p).dim == A.dim
        else:  # large
            rep["B1_equals_I1"] = (R.db == A.dim and B1t == I1t)
            rep["C1_equals_I1"] = (R.dc == A.dim and C1t == I1t)
            rep["I1_squared_in_I1"] = bool(I1t.contains(I1sq.basis).all())
            rep["F_I1_is_m"] = span_products(consts, I1t.basis, mt, p) == A.maxideal
        return rep
    if cls_kind == "klein":
        rep.update(decomposable_condition_report(L, dec))
        if not dec.decomposable:
            return rep
        lam_ok = None
        for lam in range(1, A.p):
            if _nabla_swap_invariant(R, dec.nabla, lam):
                lam_ok = lam
                break
        rep["nabla_swap_invariant"] = lam_ok is not None
        rep["swap_lambda"] = lam_ok
        I1sq = span_products(dec.I1.basis, dec.I1.basis, mt, p)
        span = one_sp.sum(dec.I1).sum(I1sq).sum(trace_square(R, dec.nabla))
        if R.db == A.dim:
            span = span.sum(FpSubspace(p, A.dim, dec.B1.basis))
        rep["span_with_B1_is_A"] = span_products(consts, span.basis, mt, p).dim == A.dim
        return rep
    raise ValueError(f"unknown structure class {cls_kind}")


def _nabla_swap_invariant(R, nabla, lam):
    """nabla stable under (b, c) -> (lam·c, b); needs B = C = A."""
    if R.db != R.A.dim or R.dc != R.A.dim:
        return False
    swapped = np.zeros_like(nabla.basis)
    swapped[:, R.sb] = lam * nabla.basis[:, R.sc] % R.p
    swapped[:, R.sc] = nabla.basis[:, R.sb]
    return bool(nabla.contains(swapped).all())


def build_group_from_lie(cls_kind, R, lie_vectors, gbar_constants):
    """Converse construction: G = theta^{-1}(L)·s(Gbar).

    `gbar_constants` is a list of flat constant matrices (entries in the
    embedded residue field) forming a subgroup of R* that normalizes L.
    Returns (G, Gamma, tr) with tr the induced pseudo-representation.
    """
    L = LieSubspace(R, lie_vectors)
    Gamma, P = pink_converse(L)
    p = R.p
    consts = [np.asarray(v, dtype=np.int64) % p for v in gbar_constants]
    # the constant subgroup must normalize L
    for s, s_inv in zip(consts, R.batch_inv(consts)):
        conj = R.batch_mul_elem_left(s, R.batch_mul_elem(L.basis, s_inv))
        if not L.contains(conj).all():
            raise CheckFailed("constant subgroup does not normalize L")
    prods = np.concatenate([R.batch_mul_elem(Gamma.elements, s) for s in consts])
    G = FiniteMatrixGroup(R, prods[new_rows(row_key(prods, p))])
    if not G.verify_closure():
        raise CheckFailed("Gamma·s(Gbar) is not closed")
    tr = PseudoRep.from_matrix_group(G)
    return G, Gamma, tr


def structure_round_trip(cls_kind, R, lie_vectors, gbar_constants):
    """Build the group from Lie data, recompute its Lie algebra, and check
    admissibility plus exact recovery of the input."""
    G, Gamma, tr = build_group_from_lie(cls_kind, R, lie_vectors, gbar_constants)
    L_in = LieSubspace(R, lie_vectors)
    Gamma2, L_out = gamma_and_lie(G)
    return {
        "lie_recovered": L_out == L_in,
        "admissible": is_admissible(tr),
        "group_order": G.n,
        "gamma_order": Gamma2.n,
        "G": G,
        "tr": tr,
        "L": L_out,
    }


# -- congruence subgroups ----------------------------------------------------

def principal_ideal(A, x):
    return span_products(x[None, :], np.eye(A.dim, dtype=np.int64), A.mul_tensor, A.p)


def candidate_ideals(A):
    """Nonzero ideals to test for the congruence property.

    Truncated polynomial rings: exactly the (X^j), an exhaustive list.
    Otherwise: principal ideals of all elements, deduplicated, the first 64.
    """
    out = []
    if A.meta.get("kind") == "truncated_poly":
        f, k = A.fq_block
        for j in range(1, k):
            xj = np.zeros(A.dim, dtype=np.int64)
            xj[j * f] = 1
            name = "(X)" if j == 1 else f"(X^{j})"
            out.append((name, principal_ideal(A, xj)))
        return out, True
    seen = set()
    for vec in A.elements(cap=10 ** 5):
        if not vec.any():
            continue
        I = principal_ideal(A, vec)
        key = (I.dim, I.basis.tobytes())
        if key in seen or I.dim == 0:
            continue
        seen.add(key)
        out.append((f"({A.format_vec(vec)})", I))
        if len(out) >= 64:
            break
    return out, False


def is_congruence_subgroup(L):
    """(flag, witness): L contains the congruence block of some nonzero
    ideal.  Exhaustive over (X^j) for truncated bases."""
    R = L.R
    cands, exhaustive = candidate_ideals(R.A)
    for name, I in cands:
        # theta of the principal congruence subgroup of I: [[I, I·B],[I·C, I]]^0
        block = FpSubspace(R.p, R.dim, ideal_block_rows(R, I.basis))
        if L.contains(block.basis).all():
            return True, name
    return False, None if exhaustive else "search capped"


# -- the essential submodule and the measure bound ----------------------------

@dataclass
class EssentialData:
    S_indices: list
    A_ess: FpSubspace
    weakly_odd: bool


def essential_data(G, L2):
    """S = {g : tr g = 0, -det g a unit square};
    A_ess = F-span of tr(g·L_2) over g in S, the F_p-span of its products
    with the embedded alpha^i."""
    R = G.R
    A = R.A
    p = R.p
    traceless = np.flatnonzero(~R.batch_trace(G.elements).any(axis=1))
    S = traceless[batch_is_unit_square(A, -R.batch_det(G.elements[traceless]))].tolist()
    traces = FpSubspace(p, A.dim, trace_products(R, G.elements[S], L2.basis))
    A_ess = span_products(A.embed, traces.basis, A.mul_tensor, p)
    return EssentialData(S_indices=S, A_ess=A_ess, weakly_odd=bool(S))


# Most F_q-linear forms on A, q^k = p^dim A, that `key_measure_check`
# enumerates.
MAX_FORMS = 10 ** 6


@dataclass
class MeasureReport:
    bound: Fraction
    min_measure: Fraction
    n_forms: int
    passed: bool
    vacuous: bool = False


def key_measure_check(G, A_ess, gamma_order):
    """For every F-linear form l on A nonzero somewhere on A_ess, the exact
    counting measure of {g : l(tr g) != 0} is at least (p-1)/(p·|Gbar|),
    where Gbar = G/Gamma and Gamma = G ∩ SR^1 has order gamma_order.

    The quantifier runs over the full finite dual space F_q^k of the block
    layout, not a sample.  Orthogonality of the additive characters
    psi(t) = exp(2 pi i t / p) counts the zeros of every form at once:

        #{g : l(tr g) = 0} = (1/q) · sum_{c in F_q} hhat(u_{c·l}),

    where h is the histogram of tr(G) on F_p^dim, hhat = fftn(h) and u_l in
    F_p^dim is the dual vector of x -> Tr_{F_q/F_p}(l(x)).  The sum is real,
    since u_{-c·l} = -u_{c·l} and h is real.  At f = 1 the forms are the
    plain dual vectors and u_l = l.
    """
    R = G.R
    A = R.A
    p = A.p
    bound = Fraction(p - 1, p * (G.n // gamma_order))
    if A_ess.dim == 0:
        return MeasureReport(bound=bound, min_measure=Fraction(1), n_forms=0,
                             passed=True, vacuous=True)
    fq = A.fq
    q, f = fq.q, fq.f
    if f > 1 and A.fq_block is None:
        raise ValueError("F_q-linear forms need a block layout")
    k = A.dim // f
    if q ** k > MAX_FORMS:
        raise TooLarge(f"{q}^{k} forms exceed the measure cap {MAX_FORMS}")
    grid = (p,) * A.dim
    TR = R.batch_trace(G.elements)
    h = np.bincount(np.ravel_multi_index(TR.T, grid), minlength=q ** k)
    hhat = np.fft.fftn(h.reshape(grid)).ravel()
    # tr_mul[a, i] = Tr(a·alpha^i).  Tr(b) is the trace of y -> b·y on the
    # alpha^i, linear in b's digits with weights sum_j T[j, i, j]
    T = fq.mul_tensor
    D = fq.digits(np.arange(q))                          # every code's digit row
    tr_mul = matmul_mod(D, T @ np.einsum("jij->i", T) % p, p)
    W = np.indices((q,) * k).reshape(k, -1).T            # every form, lex order
    U = tr_mul[W].reshape(len(W), A.dim)                # u_w at index j·f + i
    hU = hhat[np.ravel_multi_index(U.T, grid)]
    # l is nonzero on A_ess exactly when some Tr(c·l) is: the trace form is nondegenerate
    u_on_ess = (U @ A_ess.basis.T % p).any(axis=1)
    qpow = q ** np.arange(k - 1, -1, -1)
    zeros = np.zeros(len(W))
    on_ess = np.zeros(len(W), dtype=bool)
    for c in range(q):
        M_c = matmul_mod(D[c], T.reshape(f, f * f), p).reshape(f, f)    # y -> c·y on digits
        cw = fq.encode(matmul_mod(D, M_c, p))[W] @ qpow                 # index of c·w
        zeros += hU[cw].real
        on_ess |= u_on_ess[cw]
    zeros /= q
    counts = np.rint(zeros)
    err = float(np.abs(zeros - counts).max())
    if err >= 0.25:
        raise CheckFailed(f"measure transform residual {err} reaches 1/4")
    mm = Fraction(G.n - int(counts[on_ess].max()), G.n)
    return MeasureReport(bound=bound, min_measure=mm, n_forms=int(on_ess.sum()),
                         passed=mm >= bound)


def measure_change_psi(R, L, L2, gamma):
    """The change of variables Psi(m) = m + sigma(m) on L_2, with

        sigma(m) = (sqrt(1 + tr(m^2)/2) - 1)·(tr(J·gamma)/tr(gamma))·J,

    and h(m) = tr(J·gamma·theta^{-1}(m)).  Verifies on the finite instance
    that Psi permutes L_2, that h∘Psi^{-1} is affine, and that the image of
    h is tr(J·gamma) + I_2."""
    A = R.A
    p = R.p
    gv = np.asarray(gamma) % p
    trg, trJg = R.batch_trace([gv, R.mul_vec(R.J, gv)])
    if not A.is_unit_vec(trg):
        raise CheckFailed("tr(gamma) must be a unit")
    coef = A.mul_vec(trJg, batch_invert(A, trg[None])[0])
    members = L2.enumerate(cap=10 ** 5)
    lam = _sqrt_scalars(R, members)
    sig_scal = A.batch_mul_elem((lam - A.one) % p, coef)   # (n, dimA)
    # sigma·J, not sigma·Id: a and d move in opposite directions
    psi = members.copy()
    psi[:, R.sa] = (psi[:, R.sa] + sig_scal) % p
    psi[:, R.sd] = (psi[:, R.sd] - sig_scal) % p
    # sigma lands in L2, so Psi maps L2 to itself; as the members are distinct,
    # Psi is a bijection iff the sorted keys agree
    psi_keys, member_keys = row_key(psi, p), row_key(members, p)
    order = np.argsort(psi_keys)
    bijective = np.array_equal(psi_keys[order], np.sort(member_keys))
    # h values
    Jg = R.mul_vec(R.J, gv)
    th_inv = batch_theta_inv(R, members)
    h = R.batch_trace(R.batch_mul(np.tile(Jg, (len(members), 1)), th_inv))
    # h(Psi^{-1}(m)) = tr(J gamma) + tr(J gamma m): affine with linear part
    # known; Psi^{-1}(m) is looked up only where Psi is a bijection
    lin = R.batch_trace(R.batch_mul(np.tile(Jg, (len(members), 1)), members))
    affine_ok = bijective and np.array_equal(
        h[order[np.searchsorted(psi_keys[order], member_keys)]], (trJg + lin) % p)
    # image of h = trJg + I2
    dec2 = decompose(LieSubspace(R, L2.basis, check=False))
    I2 = dec2.I1 if dec2.decomposable else None
    image, image_ok = row_key(h, p), None
    if I2 is not None:
        expected = row_key((trJg + I2.enumerate(cap=10 ** 5)) % p, p)
        image_ok = np.array_equal(np.sort(image[new_rows(image)]), np.sort(expected))
    return {"bijective": bijective, "affine": affine_ok, "image_matches_trJg_plus_I2": image_ok}


# -- the two-generator example over F_q[X]/(X^k) ------------------------------

@dataclass
class TwoGeneratorExample:
    ring: LocalRing
    R: GmaStructure
    g: np.ndarray
    h: np.ndarray
    Gamma: FiniteMatrixGroup
    G: FiniteMatrixGroup
    L: LieSubspace
    L_matches: bool
    relations_ok: bool


def expected_example_lie(R, A):
    """Span of {X^j·J : j odd} and {antidiag(X^j, (-1)^j X^j)}: traceless
    matrices with odd diagonal and antidiagonal parts b(X) = c(-X)."""
    f, k = A.fq_block
    rows = []
    zb = np.zeros(R.db, dtype=np.int64)
    zc = np.zeros(R.dc, dtype=np.int64)
    za = np.zeros(A.dim, dtype=np.int64)
    for j in range(1, k):
        xj = np.zeros(A.dim, dtype=np.int64)
        xj[j * f] = 1
        if j % 2 == 1:
            rows.append(R.assemble(xj, zb, zc, (-xj) % R.p))
        sign = 1 if j % 2 == 0 else -1
        rows.append(R.assemble(za, xj, (sign * xj) % R.p, za))
    return LieSubspace(R, rows, check=False)


def example8_generators(R):
    """The generators of the example in R = M_2(F_p[X]/(X^k)):

        g = diag(X + sqrt(1+X^2), -X + sqrt(1+X^2)),
        h = [[sqrt(1-X^2), X], [-X, sqrt(1-X^2)]]."""
    A = R.A
    p = A.p
    X = np.zeros(A.dim, dtype=np.int64)
    if A.dim > 1:
        X[1] = 1
    zero = np.zeros(A.dim, dtype=np.int64)
    X2 = A.mul_vec(X, X)
    s1, s2 = batch_sqrt_one_plus_m(A, (A.one + np.array([X2, -X2])) % p)
    return R.assemble(X + s1, zero, zero, s1 - X), R.assemble(s2, X, -X, s2)


def example8(p, k, cap=2 * 10 ** 6):
    """The two-generator subgroup Gamma of SL_2^1(F_p[X]/(X^k)) generated
    by `example8_generators`, together with G = <g, h, J> = Gamma ∪ J·Gamma
    and the Lie algebra L of Gamma, checked against its closed form."""
    if p == 2:
        raise CheckFailed("the example needs p odd")
    A = make_truncated_poly_ring(p, k)
    R = m2_structure(A)
    g, h = example8_generators(R)
    J = R.J
    rel_ok = (np.array_equal(R.mul_vec(R.mul_vec(J, g), J), g)
              and np.array_equal(R.mul_vec(R.mul_vec(J, h), J), R.batch_inv(h)[0]))
    G, Gamma, L = generate_group(R, [g, h, J], cap=cap)
    return TwoGeneratorExample(
        ring=A, R=R, g=g, h=h, Gamma=Gamma, G=G, L=L,
        L_matches=(L == expected_example_lie(R, A)), relations_ok=bool(rel_ok),
    )


def essential_not_ideal_witness(A, A_ess):
    """(x, a) with x in A_ess, a in A, a·x outside A_ess, or None: the first
    such pair of basis vectors, x-major.  By bilinearity, A_ess is an ideal
    when no pair of basis vectors is a witness."""
    E = np.eye(A.dim, dtype=np.int64)
    outside = np.flatnonzero(~A_ess.contains(pair_products(A_ess.basis, E, A.mul_tensor, A.p)))
    if not outside.size:
        return None
    i, j = divmod(int(outside[0]), A.dim)
    return A_ess.basis[i], E[j]


# -- identity battery ---------------------------------------------------------

def random_elements(R, rng, n):
    return rng.integers(0, R.p, size=(n, R.dim))


def random_rad0(R, rng, n):
    basis = R.rad0().basis
    co = rng.integers(0, R.p, size=(n, basis.shape[0]))
    return (co @ basis) % R.p


def random_sr(R, rng, n):
    """Determinant-one elements: theta^{-1} of radical tracefree elements,
    twisted by constant diagonal matrices of determinant one."""
    core = batch_theta_inv(R, random_rad0(R, rng, n))
    A = R.A
    lams = rng.integers(1, A.fq.q, size=n)
    C = A.constants()
    inv = batch_invert(A, C[1:])                        # inv[lam - 1]·C[lam] = 1
    zb, zc = np.zeros((n, R.db), dtype=np.int64), np.zeros((n, R.dc), dtype=np.int64)
    return R.batch_mul(core, R.assemble(C[lams], zb, zc, inv[lams - 1]))


# Most tuples `pink_formula_battery` draws.  Its arrays take about 2 KB a
# tuple on M_2(F_3[X]/(X^3)), so the cap keeps a run near 250 MB; beyond it
# TooLarge is raised before any array exists.
MAX_TUPLES = 10 ** 5


def pink_formula_battery(R, rng=None, n=1000, theta_fn=None):
    """The six theta/trace identities, each on n random tuples.

    Returns {name: violation_count}; every count must be zero.  `theta_fn`
    exists as a fault-injection hook for the verification driver.
    """
    if n > MAX_TUPLES:
        raise TooLarge(f"{n} tuples exceed the battery cap {MAX_TUPLES}")
    rng = rng or np.random.default_rng(0)
    th = theta_fn or (lambda X: batch_theta(R, X))
    p = R.p
    A = R.A
    inv2 = pow(2, -1, p)
    X = random_elements(R, rng, n)
    Y = random_elements(R, rng, n)
    out = {}

    TX, TY = th(X), th(Y)
    lhs = batch_bracket(R, TX, TY)
    rhs = (th(R.batch_mul(X, Y)) - th(R.batch_mul(Y, X))) % p
    out["theta_bracket"] = int((lhs != rhs).any(axis=1).sum())

    S = random_sr(R, rng, n)
    TS, trS = th(S), R.batch_trace(S)
    lhs = R.batch_mul(R.scalars(trS), TY)
    rhs = (th(R.batch_mul(S, Y)) + th(R.batch_mul(R.batch_inv(S), Y))) % p
    out["trace_times_theta"] = int((lhs != rhs).any(axis=1).sum())

    trX, trY = R.batch_trace(X), R.batch_trace(Y)
    lhs = (2 * th(R.batch_mul(X, Y))) % p
    rhs = (batch_bracket(R, TX, TY)
           + R.batch_mul(R.scalars(trX), TY) + R.batch_mul(R.scalars(trY), TX)) % p
    out["theta_of_product"] = int((lhs != rhs).any(axis=1).sum())

    lhs = R.batch_trace(R.batch_mul(TX, TY))
    rhs = (R.batch_trace(R.batch_mul(X, Y))
           - A.batch_mul(trX, trY) * inv2) % p
    out["trace_of_theta_product"] = int((lhs != rhs).any(axis=1).sum())

    lhs = th(R.batch_inv(S))
    out["theta_of_inverse"] = int((lhs != (-TS) % p).any(axis=1).sum())

    Xr = random_rad0(R, rng, n)
    Yr = random_rad0(R, rng, n)
    Ur = random_rad0(R, rng, n)
    Vr = random_rad0(R, rng, n)
    br = lambda u, v: batch_bracket(R, u, v)
    uv = br(Ur, Vr)
    lhs = R.batch_mul(R.scalars(4 * R.batch_trace(R.batch_mul(Xr, Yr))), uv)
    rhs = (br(Yr, br(Xr, uv)) + br(Xr, br(Yr, uv))
           + br(br(Xr, Vr), br(Yr, Ur)) + br(br(Yr, Vr), br(Xr, Ur))) % p
    out["quadruple_bracket"] = int((lhs != rhs).any(axis=1).sum())
    return out
