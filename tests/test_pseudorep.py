import hashlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from pinkforge.errors import CheckFailed, TooLarge
from pinkforge.fp import FpSubspace, nullspace, row_key, rref
from pinkforge.gma import m2_structure
from pinkforge.instances import (
    const_diag,
    diag_group_constants,
    dihedral_constants,
    gl2_fp_constants,
    klein_constants,
    sl2_fp_constants,
)
from pinkforge.localring import make_truncated_poly_ring
from pinkforge.pinklie import example8, generate_group
from pinkforge.pseudorep import (
    FiniteMatrixGroup,
    GroupTable,
    PseudoRep,
    ResidualClass,
    build_td_representation,
    check_axioms,
    classify_projective_image,
    extend_to_algebra,
    is_admissible,
    _index_closure,
    _trace_relation_matrix,
    linear_kernel,
    residual_multfree_data,
)


def matrix_group(R, rows):
    return FiniteMatrixGroup(R, np.array(rows))


@pytest.fixture(scope="module")
def gl2_f3():
    A = make_truncated_poly_ring(3, 1)
    R = m2_structure(A)
    return FiniteMatrixGroup(R, np.array(gl2_fp_constants(R)))


def cyclic_group_table(n):
    T = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=np.int64)
    return GroupTable(table=T.astype(np.int64), identity=0)


def group_kernel(tr):
    """ker(t, d) read off Ker(T, D): the g with g - 1 in `linear_kernel`."""
    n, da = tr.gt.n, tr.A.dim
    V = np.zeros((n, n, da), dtype=np.int64)
    V[np.arange(n), np.arange(n)] = tr.A.one
    V[:, tr.gt.identity] -= tr.A.one
    return np.flatnonzero(linear_kernel(tr).contains(V.reshape(n, n * da) % tr.A.p)).tolist()


def test_axioms_hold_for_matrix_groups(gl2_f3, example_family):
    tr = PseudoRep.from_matrix_group(gl2_f3)
    ok, wit = check_axioms(tr)
    assert ok, wit
    tr2 = PseudoRep.from_matrix_group(example_family[2].G)
    ok2, wit2 = check_axioms(tr2)
    assert ok2, wit2


def test_axioms_detect_perturbation(gl2_f3):
    tr = PseudoRep.from_matrix_group(gl2_f3)
    t_bad = tr.t.copy()
    i = 5
    t_bad[i] = (t_bad[i] + 1) % 3
    bad = PseudoRep(tr.A, tr.gt, t_bad, tr.d)
    ok, wit = check_axioms(bad)
    assert not ok and wit is not None


def test_axioms_character_sum():
    # t = chi1 + chi2, d = chi1*chi2 for two characters of Z/3 into F7*
    A = make_truncated_poly_ring(7, 1)
    gt = cyclic_group_table(3)
    chi1 = [1, 2, 4]   # 2 has order 3 mod 7
    chi2 = [1, 4, 2]
    t = [[(
        chi1[g] + chi2[g]) % 7] for g in range(3)]
    d = [[chi1[g] * chi2[g] % 7] for g in range(3)]
    tr = PseudoRep(A, gt, t, d)
    ok, wit = check_axioms(tr)
    assert ok, wit


def test_kernel_examples(gl2_f3, example_family):
    tr = PseudoRep.from_matrix_group(gl2_f3)
    assert group_kernel(tr) == [gl2_f3.id_index]
    # inflation from a quotient: pull back along Z/6 -> Z/3
    A = make_truncated_poly_ring(7, 1)
    gt6 = cyclic_group_table(6)
    chi = [1, 4, 2, 1, 4, 2]     # factors through Z/3
    t = [[(chi[g] + pow(chi[g], 6, 7)) % 7] for g in range(6)]
    tinv = [pow(chi[g], 5, 7) for g in range(6)]
    t = [[(chi[g] + tinv[g]) % 7] for g in range(6)]
    d = [[1] for _ in range(6)]
    tr6 = PseudoRep(A, gt6, t, d)
    ok, _ = check_axioms(tr6)
    assert ok
    assert group_kernel(tr6) == [0, 3]   # the inflation kernel
    T = gt6.table                        # normal: g·k·g^-1 stays in it
    assert set(T[T[:, [0, 3]], gt6.inv[:, None]].ravel().tolist()) == {0, 3}


def test_kernel_of_example_group(example_family):
    # exhaustive kernel of (tr, det) on the k = 2 group: traces on Gamma are
    # constant (tr(m^2) dies in (X^2)) and J-coset traces see only the
    # diagonal part of theta, so the kernel is exactly the antidiagonal
    # one-parameter subgroup {1, h, h^2}, not the trivial group
    ex = example_family[2]
    tr = PseudoRep.from_matrix_group(ex.G)
    ker = group_kernel(tr)
    h_idx = int(ex.G.find(ex.h))
    hinv_idx = int(ex.G.find(ex.R.batch_inv(ex.h)[0]))
    assert ker == sorted([ex.G.id_index, h_idx, hinv_idx])
    T = tr.gt.table
    assert set(T[T[:, ker], tr.gt.inv[:, None]].ravel().tolist()) == set(ker)
    # the quotient pseudo-representation has trivial kernel
    gt = tr.gt
    cls_map, ncls = _cosets(gt, ker)
    reps = [int(np.nonzero(cls_map == c)[0][0]) for c in range(ncls)]
    qt = np.array([[cls_map[gt.table[a, b]] for b in reps] for a in reps])
    qgt = GroupTable(table=qt.astype(np.int64), identity=int(cls_map[gt.identity]))
    qtr = PseudoRep(tr.A, qgt, tr.t[reps], tr.d[reps])
    ok, _ = check_axioms(qtr)
    assert ok
    assert group_kernel(qtr) == [qgt.identity]


def _cosets(gt, subgroup):
    cls = np.full(gt.n, -1, dtype=np.int64)
    count = 0
    for i in range(gt.n):
        if cls[i] >= 0:
            continue
        for h in subgroup:
            cls[gt.table[i, h]] = count
        count += 1
    return cls, count


def test_extension_restriction_and_quadratic_rules(gl2_f3):
    tr = PseudoRep.from_matrix_group(gl2_f3)
    A = tr.A
    n = tr.gt.n
    rng = np.random.default_rng(0)
    # restriction: T(g) = t(g), D(g) = d(g)
    for g in (0, 3, 17):
        C = np.zeros((n, 1), dtype=np.int64)
        C[g] = 1
        Tv, Dv = extend_to_algebra(tr, C)
        assert np.array_equal(Tv, tr.t[g]) and np.array_equal(Dv, tr.d[g])
    # D(g + h) = d(g) + d(h) + t(g)t(h) - t(gh)
    for _ in range(30):
        g, h = rng.integers(0, n, size=2)
        if g == h:
            continue
        C = np.zeros((n, 1), dtype=np.int64)
        C[g] = 1
        C[h] = 1
        _, Dv = extend_to_algebra(tr, C)
        want = (tr.d[g] + tr.d[h] + A.mul_vec(tr.t[g], tr.t[h])
                - tr.t[tr.gt.table[g, h]]) % 3
        assert np.array_equal(Dv, want)
    # homogeneity D(lam x) = lam^2 D(x)
    for _ in range(20):
        C = rng.integers(0, 3, size=(n, 1))
        lam = int(rng.integers(1, 3))
        _, D1 = extend_to_algebra(tr, C)
        _, D2 = extend_to_algebra(tr, (lam * C) % 3)
        assert np.array_equal(D2, (lam * lam * D1) % 3)


def test_extension_TD7_and_multiplicativity(example_family):
    # T(xy) + D(y) T(x y^{-1}) = T(x) T(y) for invertible y = group elements,
    # and D multiplicative on random algebra elements
    G = example_family[2].G
    tr = PseudoRep.from_matrix_group(G)
    A, gt = tr.A, tr.gt
    rng = np.random.default_rng(1)
    for _ in range(20):
        C = rng.integers(0, 3, size=(gt.n, A.dim))
        y = int(rng.integers(0, gt.n))
        Tx, Dx = extend_to_algebra(tr, C)
        # x·y and x·y^{-1} as coefficient tables (right translation)
        Cy = np.zeros_like(C)
        Cyi = np.zeros_like(C)
        for g in range(gt.n):
            Cy[gt.table[g, y]] = C[g]
            Cyi[gt.table[g, gt.inv[y]]] = C[g]
        Txy, Dxy = extend_to_algebra(tr, Cy)
        Txyi, _ = extend_to_algebra(tr, Cyi)
        lhs = (Txy + A.mul_vec(tr.d[y], Txyi)) % 3
        rhs = A.mul_vec(Tx, tr.t[y])
        assert np.array_equal(lhs, rhs)
        # multiplicativity against a group element: D(xy) = D(x) d(y)
        assert np.array_equal(Dxy, A.mul_vec(Dx, tr.d[y]))


def test_linear_kernel_codimension(gl2_f3):
    tr = PseudoRep.from_matrix_group(gl2_f3)
    ker = linear_kernel(tr)
    # faithful quotient is the full 2x2 matrix algebra: codimension 4
    assert tr.gt.n * tr.A.dim - ker.dim == 4
    # D vanishes on the kernel (p odd)
    for v in ker.basis[:10]:
        _, Dv = extend_to_algebra(tr, v.reshape(tr.gt.n, tr.A.dim))
        assert not Dv.any()


def test_linear_kernel_basis_is_already_reduced_over_f7():
    # GL_2(F_7), N = 672: nullspace gives Ker(T, D) in RREF, so FpSubspace
    # has nothing left to reduce (it took seconds when it had to)
    R = m2_structure(make_truncated_poly_ring(7, 1))
    tr = PseudoRep.from_matrix_group(FiniteMatrixGroup(R, np.array(gl2_fp_constants(R))))
    K = nullspace(_trace_relation_matrix(tr), 7)
    assert K.shape == (668, 672)
    assert np.array_equal(FpSubspace(7, 672, K).basis, K)


# A pseudo-representation of Z/100 over F_101[X]/(X^100), t = chi + chi^3:
# N = |G|·dim A = 10^4, so the trace relation matrix is 763 MiB of int64.
_PAST_THE_BUDGET = """
import numpy as np
from pinkforge.errors import TooLarge
from pinkforge.localring import make_truncated_poly_ring
from pinkforge.pseudorep import GroupTable, PseudoRep, build_td_representation
p, g = 101, np.arange(100)
A = make_truncated_poly_ring(p, 100)
chi1 = np.array([pow(2, int(x), p) for x in g])       # 2 generates F_101*
chi2 = chi1 ** 3 % p
tr = PseudoRep(A, GroupTable(table=(g[:, None] + g) % 100, identity=0),
               np.outer((chi1 + chi2) % p, A.one), np.outer(chi1 * chi2 % p, A.one))
try:
    build_td_representation(tr)
except TooLarge as exc:
    print(exc)
"""


def test_realization_refuses_past_the_array_budget_within_2gib():
    # the group-order cap (10^4) let N = 10^4 through: exit 1 with an
    # _ArrayMemoryError traceback under 2 GiB
    def address_space_2gib():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    r = subprocess.run([sys.executable, "-c", _PAST_THE_BUDGET], capture_output=True, text=True,
                       preexec_fn=address_space_2gib, timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "a 10000^2 trace relation matrix exceeds 16777216 bytes\n"


def test_realization_builds_at_n_672_over_f7():
    # GL_2(F_7) constants: N = 672, inside the budget
    R = m2_structure(make_truncated_poly_ring(7, 1))
    tr = PseudoRep.from_matrix_group(FiniteMatrixGroup(R, np.array(gl2_fp_constants(R))))
    R2, G, rho_idx, _ = build_td_representation(tr)
    assert (R2.db, R2.dc, G.n) == (1, 1, 672)
    for i in range(0, tr.gt.n, 37):
        v = G.elements[rho_idx[i]]
        assert np.array_equal(R2.batch_trace(v)[0], tr.t[i])
        assert np.array_equal(R2.batch_det(v)[0], tr.d[i])


def test_keruker_both_directions():
    # ker(t,d) elements g correspond exactly to g - 1 in Ker(T, D)
    A = make_truncated_poly_ring(7, 1)
    gt = cyclic_group_table(6)
    chi = [1, 4, 2, 1, 4, 2]
    t = [[(chi[g] + pow(chi[g], 5, 7)) % 7] for g in range(6)]
    d = [[1] for _ in range(6)]
    tr = PseudoRep(A, gt, t, d)
    ker_grp = {0, 3}                     # t(xg) = t(x) for all x exactly when chi(g) = 1
    K = linear_kernel(tr)
    for g in range(6):
        v = np.zeros(6, dtype=np.int64)
        v[g] += 1
        v[0] -= 1
        assert K.contains(v % 7) == (g in ker_grp)


def test_build_td_irreducible_gives_matrix_algebra(gl2_f3):
    tr = PseudoRep.from_matrix_group(gl2_f3)
    kind, _ = residual_multfree_data(tr)
    assert kind == "irreducible"
    R, G, rho_idx, info = build_td_representation(tr)
    # isomorphic to M2(A): modules of rank one with unit pairing values
    assert R.db == 1 and R.dc == 1
    assert R.bc_ideal().contains(R.A.one)
    from pinkforge.gma import is_faithful
    assert is_faithful(R)
    # kernel of rho equals ker(t, d) (both trivial here)
    assert len({rho_idx[g] for g in range(tr.gt.n)}) == tr.gt.n


def test_build_td_reducible_gives_bc_in_m():
    # rho = 1 + chi~ deformed over F5[eps]: BC lands inside m
    A = make_truncated_poly_ring(5, 2)
    R0 = m2_structure(A)
    z = np.zeros(2, dtype=np.int64)
    # diagonal matrix diag(1, 2(1+eps)) generates a cyclic group
    d22 = np.array([2, 2])   # 2 + 2eps = 2(1+eps)
    g = R0.assemble(A.one, z, z, d22)
    G = FiniteMatrixGroup.generate(R0, [g])
    tr = PseudoRep.from_matrix_group(G)
    kind, chars = residual_multfree_data(tr)
    assert kind == "reducible"
    R, GG, rho_idx, info = build_td_representation(tr)
    bc = R.bc_ideal()
    for v in bc.basis:
        assert R.A.maxideal.contains(v)
    # trace/determinant reproduced
    for i in range(tr.gt.n):
        v = GG.elements[rho_idx[i]]
        assert np.array_equal(R.batch_trace(v)[0], tr.t[i])
        assert np.array_equal(R.batch_det(v)[0], tr.d[i])


def test_build_td_not_multfree_rejected():
    # t = 2·chi is a repeated character
    A = make_truncated_poly_ring(7, 1)
    gt = cyclic_group_table(3)
    chi = [1, 2, 4]
    t = [[2 * chi[g] % 7] for g in range(3)]
    d = [[chi[g] * chi[g] % 7] for g in range(3)]
    tr = PseudoRep(A, gt, t, d)
    with pytest.raises(CheckFailed, match="residual representation is twice one character"):
        build_td_representation(tr)


def test_build_td_adapted_uniqueness(gl2_f3):
    # two constructions adapted to the same (g0, lam, mu) are matched by a
    # unique A-linear trace-preserving isomorphism fixing rho: here we check
    # the stronger statement that the built data agree coordinatewise after
    # reordering, since both are produced by the same canonical split
    tr = PseudoRep.from_matrix_group(gl2_f3)
    # choose g0 = diag(1, 2): find its index
    g0 = None
    A = tr.A
    for i in range(tr.gt.n):
        v = gl2_f3.elements[i]
        R0 = gl2_f3.R
        if not v[R0.sb].any() and not v[R0.sc].any() \
           and A.residue_int(v[R0.sa]) == 1 and A.residue_int(v[R0.sd]) == 2:
            g0 = i
    assert g0 is not None
    R1, G1, idx1, info1 = build_td_representation(tr, g0=g0, lam0=1, mu0=2)
    R2, G2, idx2, info2 = build_td_representation(tr, g0=g0, lam0=1, mu0=2)
    assert info1 == info2
    assert np.array_equal(G1.elements[idx1], G2.elements[idx2])
    # rho(g0) diagonal with the prescribed residues
    v0 = G1.elements[idx1[g0]]
    assert not v0[R1.sb].any() and not v0[R1.sc].any()


def _classify_by_table(Gbar):
    """The classifier `classify_projective_image` replaced, kept as its
    reference: the projective image as the cosets of the scalars in Gbar's
    n x n multiplication table, element orders by walking that table, and
    D_m found as an x of order m and an involution y outside <x> with
    y·x·y^-1 = x^-1."""
    R = Gbar.R
    p, f = R.A.p, R.A.fq.f
    E = Gbar.elements
    scal = np.flatnonzero(~E[:, R.sb].any(axis=1) & ~E[:, R.sc].any(axis=1)
                          & (E[:, R.sa] == E[:, R.sd]).all(axis=1))
    gt = GroupTable.from_matrix_group(Gbar)
    first, cls = np.unique(gt.table[:, scal].min(axis=1), return_inverse=True)
    reps = np.unique(cls, return_index=True)[1]
    pgt = GroupTable(table=cls[gt.table[np.ix_(reps, reps)]], identity=int(cls[gt.identity]))
    n = len(first)
    orders = []
    for i in range(n):
        o, x = 1, i
        while x != pgt.identity:
            x = int(pgt.table[x, i])
            o += 1
        orders.append(o)
    if max(orders) == n:
        return ResidualClass("cyclic", n, "n=2" if n == 2 else f"n={n}")
    if _is_dihedral_by_table(pgt, orders):
        return ResidualClass("dihedral", n)
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


def _is_dihedral_by_table(gt, orders):
    n = gt.n
    if n % 2 or n < 4:
        return False
    half = n // 2
    if half == 2:
        # Klein four-group counts as the order-4 dihedral
        return all(o <= 2 for o in orders)
    for x in [i for i, o in enumerate(orders) if o == half]:
        cyc = {gt.identity}
        y = x
        while y != gt.identity:
            cyc.add(y)
            y = int(gt.table[y, x])
        for y in range(n):
            if y in cyc or orders[y] != 2:
                continue
            if int(gt.table[gt.table[y, x], gt.inv[y]]) == gt.inv[x]:
                return True
    return False


def _tag_or_failure(classify, G):
    try:
        return classify(G).tag()
    except CheckFailed:
        return None


def classify_against_table(G):
    """classify_projective_image(G), asserted equal to the table reference."""
    cls = classify_projective_image(G)
    assert cls.tag() == _classify_by_table(G).tag()
    return cls


def test_classification_table(gl2_f3):
    A = make_truncated_poly_ring(5, 1)
    R = m2_structure(A)
    # {diag(a, a^-1)}: projective image of order 2, chi^2 = chi'^2
    pairs = [(a, pow(a, 3, 5)) for a in range(1, 5)]
    G = FiniteMatrixGroup(R, np.array(diag_group_constants(R, pairs)))
    cls = classify_against_table(G)
    assert cls.kind == "cyclic" and cls.order == 2
    assert cls.tag() == "CyclicOrder2"
    # diag(2, 1): order 4 projective image
    G2 = FiniteMatrixGroup(R, np.array(diag_group_constants(R, [(2, 1)])))
    cls2 = classify_against_table(G2)
    assert cls2.kind == "cyclic" and cls2.order == 4
    # diagonal + antidiagonal over F5: diag(2, 1) with the swap gives a
    # projective dihedral group of order 8
    from pinkforge.instances import gl2_constants
    G3 = FiniteMatrixGroup(R, np.array(gl2_constants(R, [((2, 0), (0, 1)),
                                                         ((0, 1), (1, 0))])))
    cls3 = classify_against_table(G3)
    assert cls3.kind == "dihedral" and cls3.order == 8
    assert cls3.tag() == "DihedralN(8)"
    # Klein
    G4 = FiniteMatrixGroup(R, np.array(klein_constants(R)))
    cls4 = classify_against_table(G4)
    assert cls4.kind == "dihedral" and cls4.order == 4
    assert cls4.tag() == "DihedralOrder4"
    # GL2(F3): large image PGL2(3)
    cls5 = classify_against_table(gl2_f3)
    assert cls5.kind == "large" and cls5.detail == "PGL2(3)"
    # SL2(F3) has projective image PSL2(3)
    Af = make_truncated_poly_ring(3, 1)
    Rf = m2_structure(Af)
    G6 = FiniteMatrixGroup(Rf, np.array(sl2_fp_constants(Rf)))
    cls6 = classify_against_table(G6)
    assert cls6.kind == "large" and cls6.detail == "PSL2(3)"


def test_classification_conjugation_invariant(gl2_f3):
    # conjugating the group leaves the class unchanged
    R = gl2_f3.R
    rng = np.random.default_rng(2)
    for _ in range(3):
        while True:
            v = rng.integers(0, 3, size=R.dim)
            if R.A.is_unit_vec(R.batch_det(v)[0]):
                break
        vin = R.batch_inv(v)[0]
        conj = np.array([R.mul_vec(v, R.mul_vec(g, vin)) for g in gl2_f3.elements])
        Gc = FiniteMatrixGroup(R, conj)
        assert classify_against_table(Gc).tag() == "LargeImage(PGL2(3))"


def test_exceptional_classification():
    # the binary tetrahedral group in SL2(F7): quaternions i, j and the
    # 3-cycle (−1+i+j+k)/2; its projective image is A4
    A = make_truncated_poly_ring(7, 1)
    R = m2_structure(A)
    from pinkforge.instances import gl2_constants
    gens = [((0, 6), (1, 0)), ((2, 3), (3, 5)), ((6, 2), (3, 0))]
    G = FiniteMatrixGroup(R, np.array(gl2_constants(R, gens)))
    cls = classify_against_table(G)
    assert cls.kind == "exceptional" and cls.detail == "A4"
    assert cls.tag() == "Exceptional(A4)"


def _seeded_gl2_generators(R, rng, kind):
    """Generators in GL_2(F_q) of one of six shapes: one unit (cyclic), a
    unit and the swap, diag(a, b) and the swap (dihedral), two units with
    entries in F_p (subfield images), two upper triangular units (Borel
    images, outside Dickson's list unless cyclic), and a unit with one of
    its conjugates."""
    fq = R.A.fq

    def mat(a, b, c, d):
        return np.concatenate([fq.digits(x) for x in (a, b, c, d)])

    def unit(top=fq.q, lower=True):
        while True:
            a, b, c, d = rng.integers(0, top, size=4).tolist()
            x = mat(a, b, c if lower else 0, d)
            if R.A.is_unit_vec(R.batch_det(x)[0]):
                return x

    swap = mat(0, 1, 1, 0)
    if kind == 0:
        return [unit()]
    if kind == 1:
        return [unit(), swap]
    if kind == 2:
        return [mat(*rng.integers(1, fq.q, size=1).tolist(), 0, 0,
                    *rng.integers(1, fq.q, size=1).tolist()), swap]
    if kind == 3:
        return [unit(top=fq.p), unit(top=fq.p)]
    if kind == 4:
        return [unit(lower=False), unit(lower=False)]
    x, h = unit(), unit()
    return [x, R.mul_vec(R.mul_vec(h, x), R.batch_inv(h)[0])]


def test_classification_matches_the_table_on_seeded_subgroups():
    # the classifier from matrix powers against the n x n table it replaced,
    # on the seeded subgroups of at most 1,500 elements
    compared, tags = 0, set()
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        R = m2_structure(make_truncated_poly_ring(q, 1))
        rng = np.random.default_rng(q)
        for trial in range(30):
            try:
                G = generate_group(R, _seeded_gl2_generators(R, rng, trial % 6), cap=1500)[0]
            except TooLarge:
                continue
            tag = _tag_or_failure(classify_projective_image, G)
            assert tag == _tag_or_failure(_classify_by_table, G), (q, trial)
            compared += 1
            tags.add(tag.split("(")[0] if tag else None)
    assert compared >= 150
    assert tags >= {"CyclicOrder2", "CyclicOrderN", "DihedralOrder4", "DihedralN",
                    "LargeImage", "Exceptional", None}


def test_is_admissible_examples(example_family):
    # two-generator example: admissible at every k
    for k in (2, 4):
        tr = PseudoRep.from_matrix_group(example_family[k].G)
        assert is_admissible(tr)
    # constant pseudo-rep into F3[eps] is not admissible
    A = make_truncated_poly_ring(3, 2)
    gt = cyclic_group_table(2)
    t = [[2, 0], [1, 0]]
    d = [[1, 0], [1, 0]]   # trivial character pair values in constants
    tr2 = PseudoRep(A, gt, t, d)
    assert not is_admissible(tr2)
    # tautological GL2(F3) over F3 is admissible
    Af = make_truncated_poly_ring(3, 1)
    Rf = m2_structure(Af)
    G = FiniteMatrixGroup(Rf, np.array(gl2_fp_constants(Rf)))
    assert is_admissible(PseudoRep.from_matrix_group(G))


def test_build_td_unique_isomorphism_to_tautology(gl2_f3):
    # the tautological embedding of GL2(F3) is itself adapted to
    # g0 = diag(1, 2); the rebuilt realization must be matched to it by an
    # A-linear map fixing rho, which is then checked to be a GMA morphism
    tr = PseudoRep.from_matrix_group(gl2_f3)
    A = tr.A
    R0 = gl2_f3.R
    g0 = next(i for i in range(gl2_f3.n)
              if not gl2_f3.elements[i][R0.sb].any()
              and not gl2_f3.elements[i][R0.sc].any()
              and A.residue_int(gl2_f3.elements[i][R0.sa]) == 1
              and A.residue_int(gl2_f3.elements[i][R0.sd]) == 2)
    R1, G1, idx1, info = build_td_representation(tr, g0=g0, lam0=1, mu0=2)
    # solve Psi: R1 -> R0 linear with Psi(rho1(g)) = rho0(g) for all g;
    # Psi is an (R0.dim x R1.dim) unknown, flattened row-major
    n = tr.gt.n
    cols = R0.dim * R1.dim
    Msys = np.zeros((n * R0.dim, cols), dtype=np.int64)
    rhs = np.zeros(n * R0.dim, dtype=np.int64)
    for g in range(n):
        v1 = G1.elements[idx1[g]]
        v0 = gl2_f3.elements[g]
        for r in range(R0.dim):
            row = g * R0.dim + r
            for c in range(R1.dim):
                Msys[row, r * R1.dim + c] = v1[c]
            rhs[row] = v0[r]
    # one solution: the RREF of [Msys | rhs], consistent when no pivot lies in rhs
    Red, pivots = rref(np.column_stack([Msys, rhs]), 3)
    assert cols not in pivots
    Psi = np.zeros(cols, dtype=np.int64)
    Psi[pivots] = Red[:, cols]
    Psi = Psi.reshape(R0.dim, R1.dim)
    # Psi matches rho everywhere and is multiplicative on the group span
    for g in range(n):
        assert np.array_equal(Psi @ G1.elements[idx1[g]] % 3, gl2_f3.elements[g])
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.integers(0, 3, size=R1.dim)
        y = rng.integers(0, 3, size=R1.dim)
        assert np.array_equal(Psi @ R1.mul_vec(x, y) % 3,
                              R0.mul_vec(Psi @ x % 3, Psi @ y % 3))
    # and it is a GMA morphism: each component block maps to its counterpart
    for (s1, s0) in ((R1.sa, R0.sa), (R1.sb, R0.sb), (R1.sc, R0.sc), (R1.sd, R0.sd)):
        E = np.zeros((R1.dim, R1.dim), dtype=np.int64)
        for j in range(s1.start, s1.stop):
            E[j, j] = 1
        img = Psi @ E % 3
        for j in range(R1.dim):
            col = img[:, j]
            outside = np.ones(R0.dim, dtype=bool)
            outside[s0] = False
            assert not col[outside].any()


def test_build_td_kernel_both_ways():
    # exGMA(vi): ker rho = ker(t, d), computed on a reducible instance with
    # a genuinely nontrivial kernel (inflation through Z/8 -> Z/4)
    A = make_truncated_poly_ring(5, 2)
    R0 = m2_structure(A)
    z = np.zeros(2, dtype=np.int64)
    d2 = np.array([2, 0])        # order 4 in F5*
    g = R0.assemble(A.one, z, z, d2)
    G0 = FiniteMatrixGroup.generate(R0, [g])
    assert G0.n == 4
    # abstract group Z/8 surjecting onto G0 = <g> of order 4
    T = np.fromfunction(lambda i, j: (i + j) % 8, (8, 8), dtype=np.int64)
    gt = GroupTable(table=T.astype(np.int64), identity=0)
    powers = [R0.one]
    for _ in range(3):
        powers.append(R0.mul_vec(powers[-1], g))
    tvals = np.array([R0.batch_trace(powers[k % 4])[0] for k in range(8)])
    dvals = np.array([R0.batch_det(powers[k % 4])[0] for k in range(8)])
    tr = PseudoRep(A, gt, tvals, dvals)
    ok, _ = check_axioms(tr)
    assert ok
    ker_td = group_kernel(tr)
    assert ker_td == [0, 4]
    R, G, rho_idx, _ = build_td_representation(tr)
    ker_rho = [g for g in range(8) if rho_idx[g] == rho_idx[0]]
    assert ker_rho == ker_td


def test_residual_image_group(example_family):
    from pinkforge.pseudorep import residual_image_group
    ex = example_family[3]
    Gbar = residual_image_group(ex.G)
    assert Gbar.n == 2                       # {Id, J} residually
    cls = classify_projective_image(Gbar)
    assert cls.tag() == "CyclicOrder2"


def _bfs_reference(R, gens):
    """BFS closure one product at a time with bytes keys: a level multiplies
    the frontier by each generator, then each inverse, keeping first hits."""
    gall = list(gens) + [R.batch_inv(g)[0] for g in gens]
    seen = {R.one.tobytes()}
    rows = [R.one]
    frontier = [R.one]
    while frontier:
        new = []
        for g in gall:
            for v in frontier:
                w = R.mul_vec(v, g)
                if w.tobytes() not in seen:
                    seen.add(w.tobytes())
                    new.append(w)
        rows.extend(new)
        frontier = new
    return np.array(rows)


def test_generate_keeps_the_reference_bfs_order(example_family):
    from pinkforge.pinklie import example8, generate_group
    for ex in (example_family[3], example_family[4], example8(5, 3)):
        gamma, G = (FiniteMatrixGroup.generate(ex.R, H.generators) for H in (ex.Gamma, ex.G))
        for got, H in ((gamma, ex.Gamma), (G, ex.G)):
            assert np.array_equal(got.elements, _bfs_reference(ex.R, H.generators))
        # Gamma comes from its Lie algebra and G = Gamma ∪ J·Gamma from cosets,
        # so only their element sets are the BFS ones
        for got, H in ((gamma, ex.Gamma), (G, ex.G)):
            assert np.array_equal(np.sort(row_key(got.elements, ex.R.p)),
                                  np.sort(row_key(H.elements, ex.R.p)))
    # the unipotent group over F_257[X]/(X^2): 257 elements, void keys
    R = m2_structure(make_truncated_poly_ring(257, 2))
    zero = np.zeros(R.A.dim, dtype=np.int64)
    u = R.assemble(R.A.one, R.A.one, zero, R.A.one)
    got = FiniteMatrixGroup.generate(R, [u])
    assert got.n == 257 and row_key(R.one, R.p).dtype.kind == "V"
    assert np.array_equal(got.elements, _bfs_reference(R, [u]))


def test_generate_refuses_a_non_unit_and_takes_no_generators():
    R = m2_structure(make_truncated_poly_ring(3, 2))
    with pytest.raises(ValueError, match="generator is not invertible"):
        FiniteMatrixGroup.generate(R, [R.J, np.zeros(R.dim, dtype=np.int64)])
    G = FiniteMatrixGroup.generate(R, [])
    assert np.array_equal(G.elements, R.one[None, :]) and G.generators == []


def test_mul_table_and_inverses_match_dict_lookups(example_family):
    Gamma = example_family[4].Gamma
    R = Gamma.R
    index = {v.tobytes(): i for i, v in enumerate(Gamma.elements)}
    want = np.array([[index[w.tobytes()] for w in R.batch_mul_elem_left(v, Gamma.elements)]
                     for v in Gamma.elements])
    assert np.array_equal(Gamma.mul_table(), want)
    want_inv = [row.tolist().index(Gamma.id_index) for row in want]   # x_i·x_j = 1
    assert Gamma.inverses().tolist() == want_inv


def _mul_table_by_rows(G):
    """The table as computed before the index gathers: row i is found from
    the batched products x_i * x_j, one row at a time."""
    T = np.empty((G.n, G.n), dtype=np.int32)
    for i in range(G.n):
        T[i] = G.find(G.R.batch_mul_elem_left(G.elements[i], G.elements))
    if (T < 0).any():
        raise ValueError("group not closed under multiplication")
    return T


def test_mul_table_by_gathers_equals_the_row_products(gl2_f3, example_family):
    from pinkforge.pinklie import group_series
    R3 = gl2_f3.R
    generated = [FiniteMatrixGroup.generate(R3, gens)
                 for gens in ([[1, 1, 0, 1], [0, 1, 2, 0]], [[0, 1, 1, 0], [1, 1, 0, 1]])]
    groups = [gl2_f3, *generated, example8(5, 3).Gamma]
    for k in (2, 3, 4):
        ex = example_family[k]
        groups += [ex.Gamma, ex.G, FiniteMatrixGroup(ex.R, ex.G.elements[::-1])]
        groups += group_series(ex.Gamma, 3)[1:]          # no recorded generators
    for G in groups:
        assert np.array_equal(G.mul_table(), _mul_table_by_rows(G)), G.n
    assert [len(G.generators) for G in groups[:3]] == [0, 2, 2]


def test_mul_table_raises_on_a_set_that_is_not_closed(example_family):
    Gamma = example_family[3].Gamma
    for rows, gens in ((np.delete(Gamma.elements, 5, axis=0), Gamma.generators),
                       (np.delete(Gamma.elements, 5, axis=0), None),
                       (Gamma.elements[:10], None)):
        part = FiniteMatrixGroup(Gamma.R, rows, generators=gens)
        with pytest.raises(ValueError, match="not closed under multiplication"):
            part.mul_table()
        with pytest.raises(ValueError, match="not closed under multiplication"):
            _mul_table_by_rows(part)


def _inverses_by_loop(table, identity):
    return [int(np.nonzero(table[i] == identity)[0][0]) for i in range(len(table))]


def test_group_table_inverses_and_rows_without_one_identity(gl2_f3, example_family):
    for G in (gl2_f3, example_family[3].G):
        gt = GroupTable.from_matrix_group(G)
        assert gt.inv.tolist() == _inverses_by_loop(gt.table, gt.identity)
        assert gt.inv.tolist() == G.inverses().tolist()
    T = cyclic_group_table(5).table.copy()
    T[2, 4] = 0                          # row 2 holds the identity twice
    with pytest.raises(ValueError, match="row 2 .* 2 times"):
        GroupTable(table=T, identity=0)
    T[2, [3, 4]] = 1                     # and now not at all
    with pytest.raises(ValueError, match="row 2 .* 0 times"):
        GroupTable(table=T, identity=0)


def test_verify_closure_sees_a_missing_element(example_family):
    Gamma = example_family[4].Gamma
    assert Gamma.verify_closure()
    for drop in (1, Gamma.n // 2, Gamma.n - 1):
        assert drop != Gamma.id_index
        part = FiniteMatrixGroup(Gamma.R, np.delete(Gamma.elements, drop, axis=0))
        assert not part.verify_closure()


def _closure_by_loop(table, identity, seed):
    """The subgroup generated by `seed`: close under products of every pair
    of members, one pair at a time."""
    seen = set(int(s) for s in seed) | {int(identity)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(seen):
                for z in (int(table[x, y]), int(table[y, x])):
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
        frontier = nxt
    return sorted(seen)


def test_commutator_subgroup_equals_brute_force(gl2_f3):
    for G in (gl2_f3, example8(3, 3).G):
        gt = GroupTable.from_matrix_group(G)
        comms = {int(gt.table[gt.table[x, y], gt.inv[gt.table[y, x]]])
                 for x in range(gt.n) for y in range(gt.n)}
        assert _index_closure(gt.table, gt.identity, comms).tolist() \
            == _closure_by_loop(gt.table, gt.identity, comms)
        rng = np.random.default_rng(gt.n)
        for size in (0, 1, 2, 3):
            seed = rng.integers(0, gt.n, size=size).tolist()
            assert _index_closure(gt.table, gt.identity, seed).tolist() \
                == _closure_by_loop(gt.table, gt.identity, seed)
    gt = GroupTable.from_matrix_group(gl2_f3)
    comms = gt.table[gt.table, gt.inv[gt.table.T]]
    assert len(_index_closure(gt.table, gt.identity, comms.ravel())) == 24   # SL2(F3)


def _fq_add(fq, a, b):
    """The sum of two codes, digit by digit."""
    return sum((a // fq.p ** i + b // fq.p ** i) % fq.p * fq.p ** i for i in range(fq.f))


def _fq_matrix_group_reference(fq, gens):
    """The tuple BFS `gl2_constants` replaced: the closure of 2x2 matrices
    over F_q, entries as codes, as a set of ((a, b), (c, d))."""
    def matmul(m1, m2):
        (a1, b1), (c1, d1) = m1
        (a2, b2), (c2, d2) = m2
        return ((_fq_add(fq, fq.mul(a1, a2), fq.mul(b1, c2)),
                 _fq_add(fq, fq.mul(a1, b2), fq.mul(b1, d2))),
                (_fq_add(fq, fq.mul(c1, a2), fq.mul(d1, c2)),
                 _fq_add(fq, fq.mul(c1, b2), fq.mul(d1, d2))))
    seen = frontier = {((1, 0), (0, 1))}
    while frontier:
        frontier = {matmul(m, g) for m in frontier for g in gens} - seen
        seen = seen | frontier
    return seen


def _diag_group_reference(fq, pairs):
    seen = frontier = {(1, 1)}
    while frontier:
        frontier = {(fq.mul(a, l), fq.mul(d, m)) for a, d in frontier for l, m in pairs} - seen
        seen = seen | frontier
    return seen


def _residue_codes(R, rows):
    """The four entries of each constant row as residue-field codes."""
    A = R.A
    return [A.fq.encode(c @ A.proj.T).tolist() for c in R.comps(np.asarray(rows))]


def _const_gens(fq, name):
    gen = next(g for g in range(2, fq.q)
               if len({fq.pow(g, e) for e in range(fq.q - 1)}) == fq.q - 1)
    lam = fq.pow(gen, 3)
    return {
        "gl2": [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (0, fq.p - 1))],
        "sl2": [((1, 1), (0, 1)), ((1, 0), (1, 1))],
        "klein": [((gen, 0), (0, gen)), ((1, 0), (0, fq.p - 1)), ((0, 1), (1, 0))],
        "dihedral": [((lam, 0), (0, fq.inv(lam))), ((0, 1), (1, 0))],
        # i = [[0, -1], [1, 0]] and w = (-1 + i + j + ij)/2 with j = [[3, 2], [2, -3]]
        "binary_tetrahedral": [((0, 6), (1, 0)), ((0, 2), (3, 6))],
    }[name]


@pytest.mark.parametrize("q, name, order", [
    (3, "gl2", 48), (3, "sl2", 24), (5, "klein", 16), (25, "dihedral", 16),
    (7, "binary_tetrahedral", 24),
])
def test_gl2_constants_match_the_tuple_bfs(q, name, order):
    A = make_truncated_poly_ring(q, 2)
    R = m2_structure(A)
    from pinkforge.instances import gl2_constants
    gens = _const_gens(A.fq, name)
    rows = gl2_constants(R, gens)
    a, b, c, d = _residue_codes(R, rows)
    got = set(zip(zip(a, b), zip(c, d)))
    assert len(got) == len(rows) == order
    assert got == _fq_matrix_group_reference(A.fq, gens)


@pytest.mark.parametrize("q, reduced, pairs", [
    (3, False, [(1, 2)]), (9, False, [(3, 1)]), (5, True, [(2, 3), (4, 1)]),
    (9, True, [(3, 1)]), (25, False, [(7, 7), (1, 24)]),
])
def test_diag_group_constants_match_the_tuple_bfs(q, reduced, pairs):
    from pinkforge.gma import reduced_residue_gma
    from pinkforge.instances import diagonal_gma
    A = make_truncated_poly_ring(q, 2)
    R = reduced_residue_gma(A) if reduced else diagonal_gma(A)
    rows = diag_group_constants(R, pairs)
    a = A.fq.encode(rows[:, R.sa] @ A.proj.T)
    d = A.fq.encode(rows[:, R.sd] @ A.proj.T)
    assert not rows[:, R.sb].any() and not rows[:, R.sc].any()
    got = set(zip(a.tolist(), d.tolist()))
    assert len(got) == len(rows)
    assert got == _diag_group_reference(A.fq, pairs)


def _sha(*parts):
    """sha256 over the shapes and int64 bytes of the parts, first 16 hex digits."""
    h = hashlib.sha256()
    for x in parts:
        a = np.ascontiguousarray(x, dtype=np.int64)
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()[:16]


def _realization_cases():
    """(name, tr, kwargs) for the realizations whose bytes are pinned."""
    gl2 = {}
    for k in (1, 2):
        R = m2_structure(make_truncated_poly_ring(3, k))
        gl2[k] = FiniteMatrixGroup(R, np.array(gl2_fp_constants(R)))
    A = make_truncated_poly_ring(5, 2)
    R0 = m2_structure(A)
    z = np.zeros(2, dtype=np.int64)
    cyclic = FiniteMatrixGroup.generate(R0, [R0.assemble(A.one, z, z, np.array([2, 2]))])
    E, R = gl2[1].elements, gl2[1].R
    g0 = int(np.flatnonzero(~E[:, R.sb].any(axis=1) & ~E[:, R.sc].any(axis=1)
                            & (E[:, R.sa] == 1).all(axis=1) & (E[:, R.sd] == 2).all(axis=1))[0])
    return [("gl2_f3", PseudoRep.from_matrix_group(gl2[1]), {}),
            ("gl2_f3_eps", PseudoRep.from_matrix_group(gl2[2]), {}),
            ("reducible_f5_eps", PseudoRep.from_matrix_group(cyclic), {}),
            ("gl2_f3_prescribed", PseudoRep.from_matrix_group(gl2[1]), dict(g0=g0, lam0=2, mu0=1))]


# recorded with the realization that multiplied one basis pair at a time
REALIZATION_SHA = {
    "gl2_f3": "088eb069e24023a7", "gl2_f3_kernel": "e0b6f1019b0a2603",
    "gl2_f3_eps": "dac4604c04a2a827", "gl2_f3_eps_kernel": "4a11995cf18c8381",
    "reducible_f5_eps": "cecfb72997da5c67", "gl2_f3_prescribed": "d1ccc2c423067c11",
    "gl2_f2_kernel": "7ce3be2c427130d7",
}


def test_realization_bytes_are_pinned():
    # the realization's structure tensors, image rows, rho indices and embed
    # data, the kernel basis and the values of (T, D), byte for byte
    got = {}
    for name, tr, kwargs in _realization_cases():
        R, G, rho_idx, info = build_td_representation(tr, **kwargs)
        got[name] = _sha(R.mul_tensor, R.act_b, R.act_c, R.pairing, G.elements, rho_idx,
                         [info["g0"], info["lam0"], info["mu0"]])
        if name in ("gl2_f3", "gl2_f3_eps"):
            ker = linear_kernel(tr)
            C = np.random.default_rng(7).integers(0, 3, size=(4, tr.gt.n, tr.A.dim))
            C[3, 5:] = 0
            got[name + "_kernel"] = _sha(ker.basis, ker.pivots,
                                         [extend_to_algebra(tr, c) for c in C])
    R = m2_structure(make_truncated_poly_ring(2, 1))
    ker = linear_kernel(PseudoRep.from_matrix_group(FiniteMatrixGroup(R, np.array(gl2_fp_constants(R)))))
    got["gl2_f2_kernel"] = _sha(ker.basis, ker.pivots)
    assert got == REALIZATION_SHA
