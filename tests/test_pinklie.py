import json
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pinkforge.errors import CheckFailed, TooLarge
from pinkforge.fp import FpSubspace, row_key
from pinkforge.gma import batch_in_SR1, m2_structure, reduced_residue_gma
from pinkforge.instances import (
    component_block_rows,
    diag_group_constants,
    monomial,
    structure_parameter_sets,
)
from pinkforge.localring import batch_sqrt_one_plus_m, make_truncated_poly_ring
from pinkforge.pinklie import (
    LieSubspace,
    _sqrt_scalars,
    MeasureReport,
    batch_theta,
    batch_theta_inv,
    batch_bracket,
    decompose,
    decomposable_condition_report,
    descending_series,
    essential_data,
    essential_not_ideal_witness,
    enumerate_preimage,
    example8,
    expected_example_lie,
    gamma_and_lie,
    generate_group,
    group_series,
    is_congruence_subgroup,
    key_measure_check,
    lie_of_subgroup,
    measure_change_psi,
    pink_converse,
    pink_formula_battery,
    random_rad0,
    random_sr,
    star_law,
    star_quotient_checks,
    strong_condition_report,
    structure_round_trip,
    theta,
    theta_inv,
    theta_star_morphism_check,
)
from pinkforge.pseudorep import FiniteMatrixGroup, _index_closure, residual_image_group
from pinkforge.cli import main
from test_localring import _field_product


@pytest.fixture(scope="module")
def r33():
    return m2_structure(make_truncated_poly_ring(3, 3))


def test_theta_examples(r33):
    R = r33
    A = R.A
    assert not theta(R, R.one).any()
    # diag(1+X, 1-X+X^2) -> diag(X+X^2, -(X+X^2)) after centering
    x = R.assemble([1, 1, 0], np.zeros(3, dtype=np.int64),
                   np.zeros(3, dtype=np.int64), [1, 2, 1])
    th = theta(R, x)
    # tr/2 = 1 + 2X^2, so the diagonal recenters to (X + X^2, 2X + 2X^2)
    assert np.array_equal(th[R.sa], [0, 1, 1])
    assert np.array_equal(th[R.sd], [0, 2, 2])
    assert not th[R.sb].any() and not th[R.sc].any()


def test_theta_inverse_negation(r33):
    # theta(x^{-1}) = -theta(x) on SR
    R = r33
    rng = np.random.default_rng(0)
    X = batch_theta_inv(R, random_rad0(R, rng, 200))
    inv = R.batch_inv(X)
    assert np.array_equal(batch_theta(R, inv), (-batch_theta(R, X)) % 3)


def test_theta_inv_examples(r33):
    R = r33
    A = R.A
    z3 = np.zeros(3, dtype=np.int64)
    assert np.array_equal(theta_inv(R, R.assemble(z3, z3, z3, z3)), R.one)
    # m = diag(X, -X): theta_inv = diag(X + sqrt(1+X^2), -X + sqrt(1+X^2))
    m = R.assemble([0, 1, 0], z3, z3, [0, 2, 0])
    g = theta_inv(R, m)
    assert np.array_equal(g[R.sa], [1, 1, 2])   # X + 1 + 2X^2
    assert np.array_equal(g[R.sd], [1, 2, 2])   # -X + 1 + 2X^2
    assert np.array_equal(R.batch_det(g)[0], A.one)
    # round trip on 500 random radical traceless elements
    rng = np.random.default_rng(1)
    M = random_rad0(R, rng, 500)
    assert np.array_equal(batch_theta(R, batch_theta_inv(R, M)), M)
    # domain errors
    with pytest.raises(CheckFailed, match="theta_inv needs a radical argument"):
        theta_inv(R, R.J)             # traceless but not radical
    bad = R.assemble(A.one, z3, z3, A.one)
    with pytest.raises(CheckFailed, match="theta_inv needs a traceless argument"):
        theta_inv(R, bad)             # nonzero trace


def test_formula_battery_across_structures(rng):
    from pinkforge.instances import diagonal_gma
    A1 = make_truncated_poly_ring(3, 3)
    A2 = make_truncated_poly_ring(5, 2)
    A3 = make_truncated_poly_ring(9, 2)
    structures = (m2_structure(A1), m2_structure(A2), reduced_residue_gma(A1),
                  reduced_residue_gma(A3), diagonal_gma(A2))
    for R in structures:
        res = pink_formula_battery(R, np.random.default_rng(7), n=400)
        assert not any(res.values()), (R.name, res)


def test_generate_group_examples():
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    G1 = FiniteMatrixGroup.generate(R, [R.one])
    assert G1.n == 1
    # theta^{-1}(X·J) has order 3: {Id, Id ± XJ}
    z = np.zeros(2, dtype=np.int64)
    m = R.assemble([0, 1], z, z, [0, 2])
    g = theta_inv(R, m)
    G3 = FiniteMatrixGroup.generate(R, [g])
    assert G3.n == 3
    keys = set(row_key(G3.elements, 3).tolist())
    expect = set(row_key(np.array([
        R.one,
        (R.one + np.concatenate([[0, 1], z, z, [0, 2]])) % 3,
        (R.one + np.concatenate([[0, 2], z, z, [0, 1]])) % 3]), 3).tolist())
    assert keys == expect


def test_example_group_k2_abelian(example_family):
    ex = example_family[2]
    assert ex.Gamma.n == 9
    T = ex.Gamma.mul_table()
    assert np.array_equal(T, T.T)     # abelian at k = 2: ghg^{-1} = h mod X^2
    assert ex.L.dim == 2


def test_lie_of_subgroup_examples(example_family):
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    z = np.zeros(2, dtype=np.int64)
    G1 = FiniteMatrixGroup.generate(R, [R.one])
    assert lie_of_subgroup(G1).dim == 0
    m = R.assemble([0, 1], z, z, [0, 2])
    G3 = FiniteMatrixGroup.generate(R, [theta_inv(R, m)])
    L3 = lie_of_subgroup(G3)
    assert L3.dim == 1 and L3.contains(m)
    # the k = 2 example: span{XJ, X·antidiag(1, -1)}... b(X) = c(-X) pattern
    ex = example_family[2]
    assert ex.L.dim == 2 and ex.L_matches
    # groups outside SR^1 are rejected
    with pytest.raises(CheckFailed, match="group has an element outside SR\\^1"):
        lie_of_subgroup(ex.G)


def test_descending_series_inclusions(example_family):
    ex = example_family[4]
    series = descending_series(ex.L, 4)
    for n in range(3):
        for v in series[n + 1].basis:
            assert series[n].contains(v)
    # [L_n, L_m] <= L_{n+m}
    for n in range(2):
        for m in range(2):
            if n + m + 2 > 4:
                continue
            target = series[n + m + 1]
            for u in series[n].basis:
                for v in series[m].basis:
                    assert target.contains(batch_bracket(ex.R, u, v)[0])
    # abelian group: L_2 = 0 and Gamma_2 trivial
    ex2 = example_family[2]
    assert descending_series(ex2.L, 2)[1].dim == 0
    assert group_series(ex2.Gamma, 2)[1].n == 1


def test_example_bracket_at_k4(example_family):
    # [X·E, X^2·F] lands on 2X^3·J with E = antidiag(1,-1), F = antidiag(1,1)
    ex = example_family[4]
    R = ex.R
    A = ex.ring
    za = np.zeros(A.dim, dtype=np.int64)
    E = R.assemble(za, monomial(A, 1), (-monomial(A, 1)) % 3, za)
    F = R.assemble(za, monomial(A, 2), monomial(A, 2), za)
    br = batch_bracket(R, E, F)[0]
    x3 = monomial(A, 3)
    want = R.assemble((2 * x3) % 3, np.zeros(A.dim, dtype=np.int64),
                      np.zeros(A.dim, dtype=np.int64), (-2 * x3) % 3)
    assert np.array_equal(br, want)
    L2 = descending_series(ex.L, 2)[1]
    assert L2.contains(want)


def test_central_series_match_seeded():
    # Gamma_n = theta^{-1}(L_n) for n >= 2 on seeded generated groups
    rng = np.random.default_rng(99)
    for (q, k) in ((3, 2), (3, 3), (5, 2), (9, 2)):
        A = make_truncated_poly_ring(q, k)
        R = m2_structure(A)
        gens = batch_theta_inv(R, random_rad0(R, rng, 2))
        G = FiniteMatrixGroup.generate(R, gens)
        L = lie_of_subgroup(G)
        gs = group_series(G, 4)
        ls = descending_series(L, 4)
        for n in range(1, 4):
            want = set(row_key(batch_theta_inv(R, ls[n].enumerate(cap=10 ** 6)), R.p).tolist())
            got = set(row_key(gs[n].elements, R.p).tolist())
            assert want == got


def test_pink_converse_examples(r33):
    R = r33
    # L = 0
    H0, P0 = pink_converse(LieSubspace(R, []))
    assert H0.n == 1 and P0.dim == 0
    # the ideal block over F3[X]/(X^4): order 3^9 and the power pattern
    A = make_truncated_poly_ring(3, 4)
    R4 = m2_structure(A)
    L = LieSubspace(R4, component_block_rows(R4, list(A.maxideal.basis)))
    H, P = pink_converse(L)
    assert H.n == 3 ** 9
    LH = lie_of_subgroup(H)
    assert LH == L
    dims = [s.dim for s in descending_series(LH, 4)]
    assert dims == [9, 6, 3, 0]
    assert P == FpSubspace(3, A.dim, A.maxideal.basis[1:])  # tr(L^2) = (X^2)


def test_pink_converse_rejects_unstable():
    # L = F_3·XJ over F_3[X]/(X^4): bracket-closed (abelian) but
    # tr(L·L) = (2X^2)-span sends XJ to X^3·J outside L
    A = make_truncated_poly_ring(3, 4)
    R = m2_structure(A)
    za = np.zeros(A.dim, dtype=np.int64)
    zb = np.zeros(R.db, dtype=np.int64)
    L = LieSubspace(R, [R.assemble(monomial(A, 1), zb, zb, (-monomial(A, 1)) % 3)])
    assert L.bracket_closed()[0]
    ok, wit = L.stable_under(L.trace_pseudoring())
    assert not ok
    with pytest.raises(CheckFailed, match=r"tr\(L·L\)·L <= L fails at"):
        pink_converse(L)
    # fuzz a few random subspaces as well: every rejection must carry a
    # verified witness, every acceptance a verified group
    rng = np.random.default_rng(3)
    rad0 = R.rad0()
    for _ in range(40):
        take = rng.integers(0, 2, size=rad0.dim).astype(bool)
        if not take.any():
            continue
        Lf = LieSubspace(R, rad0.basis[take])
        try:
            H, _ = pink_converse(Lf, cap=3 ** 10)
        except (CheckFailed, TooLarge):
            continue
        assert H.n == 3 ** Lf.dim


def test_star_law_properties(example_family):
    ex = example_family[4]
    R = ex.R
    L2 = descending_series(ex.L, 2)[1]
    zero = np.zeros(R.dim, dtype=np.int64)
    for v in ex.L.basis:
        assert np.array_equal(star_law(R, v, zero)[0], v)
    ok, wit = star_quotient_checks(ex.L, L2, cap=3 ** 3)
    assert ok, wit
    ok2, wit2 = theta_star_morphism_check(ex.Gamma, ex.L, L2,
                                          rng=np.random.default_rng(5))
    assert ok2, wit2


def test_star_quotient_exhaustive_dim3():
    # a quotient of dimension 3: the ideal block over F3[X]/(X^3)
    A = make_truncated_poly_ring(3, 3)
    R = m2_structure(A)
    L = LieSubspace(R, component_block_rows(R, list(A.maxideal.basis)))
    L2 = descending_series(L, 2)[1]
    assert L.dim - L2.dim == 3
    ok, wit = star_quotient_checks(L, L2, cap=3 ** 3)
    assert ok, wit


def _star_law_one_row(R, x, y):
    """The single-row star law the batched `star_law` replaced."""
    p = R.p
    halves = R.batch_trace(R.batch_mul([x, y], [x, y])) * pow(2, -1, p)
    sx, sy = batch_sqrt_one_plus_m(R.A, (R.A.one + halves) % p)
    return (R.ring_scale(sy, x)[0] + R.ring_scale(sx, y)[0]) % p


def test_star_law_rows_match_the_single_row_law(example_family):
    ex = example_family[4]
    R, rng = ex.R, np.random.default_rng(41)
    X, Y = (rng.integers(0, 3, size=(60, ex.L.dim)) @ ex.L.basis % 3 for _ in range(2))
    want = np.array([_star_law_one_row(R, x, y) for x, y in zip(X, Y)])
    assert np.array_equal(star_law(R, X, Y), want)


def _stable_under_loop(L, P):
    """The per-row loop `LieSubspace.stable_under` replaced."""
    for t in P.basis:
        outside = np.flatnonzero(~L.contains(L.R.ring_scale(t, L.basis)))
        if outside.size:
            return False, (t, L.basis[outside[0]])
    return True, None


def test_stable_under_gives_the_loops_witness():
    A = make_truncated_poly_ring(3, 4)
    R = m2_structure(A)
    rad0 = R.rad0()
    rng = np.random.default_rng(3)
    unstable = 0
    for _ in range(60):
        L = LieSubspace(R, rad0.basis[rng.integers(0, 2, size=rad0.dim).astype(bool)])
        P = L.trace_pseudoring()
        (ok, wit), (want_ok, want_wit) = L.stable_under(P), _stable_under_loop(L, P)
        assert ok == want_ok
        if not ok:
            unstable += 1
            assert np.array_equal(wit[0], want_wit[0]) and np.array_equal(wit[1], want_wit[1])
    assert unstable > 10


def _decompose_loop(L):
    """The per-row loops `decompose` replaced."""
    R, p = L.R, L.R.p
    diag_rows, anti_rows = [], []
    for v in L.basis:
        dv = v.copy()
        dv[R.sb] = 0
        dv[R.sc] = 0
        if not L.contains(dv):
            return False, False, None
        diag_rows.append(dv)
        anti_rows.append((v - dv) % p)
    delta = FpSubspace(p, R.dim, diag_rows)
    nabla = FpSubspace(p, R.dim, anti_rows)
    I1 = FpSubspace(p, R.A.dim, [row[R.sa] for row in delta.basis])
    B1 = FpSubspace(p, R.db, [row[R.sb] for row in nabla.basis])
    C1 = FpSubspace(p, R.dc, [row[R.sc] for row in nabla.basis])
    strongly = True
    for v in nabla.basis:
        bv = v.copy()
        bv[R.sc] = 0
        if not L.contains(bv):
            strongly = False
            break
    return True, strongly, (nabla, I1, B1, C1)


def test_decompose_matches_the_loops(example_family):
    lies = [LieSubspace(d["R"], d["lie_rows"])
            for d in (build() for _, build in structure_parameter_sets())]
    lies += [example_family[k].L for k in (2, 3, 4, 5, 6)]
    R = m2_structure(make_truncated_poly_ring(3, 3))
    rad0, rng = R.rad0(), np.random.default_rng(8)
    for m in (1, 2, 3, 5):                  # random spans, mostly not decomposable
        lies += [LieSubspace(R, rng.integers(0, 3, size=(m, rad0.dim)) @ rad0.basis % 3)
                 for _ in range(5)]
        lies += [LieSubspace(R, rad0.basis[rng.integers(0, 2, size=rad0.dim).astype(bool)])]
    seen = set()
    for L in lies:
        dec, (decomposable, strongly, parts) = decompose(L), _decompose_loop(L)
        assert (dec.decomposable, dec.strongly) == (decomposable, strongly)
        if decomposable:
            assert (dec.nabla, dec.I1, dec.B1, dec.C1) == parts
        seen.add((decomposable, strongly))
    assert seen == {(False, False), (True, False), (True, True)}


def test_decompose_examples(r33):
    R = r33
    A = R.A
    # diagonal-only L
    L = LieSubspace(R, [R.assemble(monomial(A, 1), np.zeros(3, dtype=np.int64),
                                   np.zeros(3, dtype=np.int64), (-monomial(A, 1)) % 3)])
    dec = decompose(L)
    assert dec.decomposable and dec.nabla.dim == 0 and dec.I1.dim == 1
    # the two-generator example: decomposable, not strongly (b and c coupled)
    ex = example8(3, 3)
    decx = decompose(ex.L)
    assert decx.decomposable and not decx.strongly
    # ideal block: strongly decomposable with I1 = B1 = C1 = (X)
    Lb = LieSubspace(R, component_block_rows(R, list(A.maxideal.basis)))
    decb = decompose(Lb)
    assert decb.decomposable and decb.strongly
    assert decb.I1 == FpSubspace(3, A.dim, A.maxideal.basis)
    assert decb.B1 == FpSubspace(3, R.db, A.maxideal.basis)
    assert decb.C1 == FpSubspace(3, R.dc, A.maxideal.basis)
    # condition reports hold for honest Lie algebras of subgroups
    rep = decomposable_condition_report(ex.L)
    assert all(v for v in rep.values() if isinstance(v, bool)), rep
    rep2 = strong_condition_report(Lb)
    assert all(v for v in rep2.values() if isinstance(v, bool)), rep2


def test_congruence_subgroup_cases(example_family):
    # the congruence subgroup of (X) is detected with witness (X)
    A = make_truncated_poly_ring(3, 3)
    R = m2_structure(A)
    L = LieSubspace(R, component_block_rows(R, list(A.maxideal.basis)))
    flag, wit = is_congruence_subgroup(L)
    assert flag and wit == "(X)"
    # full radical block over F3[eps]
    A2 = make_truncated_poly_ring(3, 2)
    R2 = m2_structure(A2)
    L2 = LieSubspace(R2, component_block_rows(R2, list(A2.maxideal.basis)))
    assert is_congruence_subgroup(L2)[0]
    # the two-generator example contains no congruence subgroup at k >= 4
    for k in (4, 5, 6):
        assert not is_congruence_subgroup(example_family[k].L)[0]


def test_congruence_small_k_status(example_family):
    # at k = 2 and 3 the search is still exhaustive; record exact outcomes
    assert is_congruence_subgroup(example_family[2].L) == (False, None)
    assert is_congruence_subgroup(example_family[3].L) == (False, None)


def _essential(ex):
    return essential_data(ex.G, descending_series(ex.L, 2)[1])


def test_essential_data_cases(example_family):
    # k = 2: L_2 = 0, no qualifying forms, vacuous measure pass
    ex2 = example_family[2]
    ess2 = _essential(ex2)
    assert ess2.A_ess.dim == 0
    rep2 = key_measure_check(ex2.G, ess2.A_ess, ex2.Gamma.n)
    assert rep2.vacuous and rep2.passed
    # k = 6: A_ess is the span of the odd monomials of degree >= 3
    ex6 = example_family[6]
    ess6 = _essential(ex6)
    A6 = ex6.ring
    want = FpSubspace(3, A6.dim, [monomial(A6, 3), monomial(A6, 5)])
    assert ess6.A_ess == want
    assert ess6.weakly_odd
    # S consists of trace-zero elements with -det a square; J qualifies
    j_idx = int(ex6.G.find(ex6.R.J))
    assert j_idx in ess6.S_indices


def test_essential_not_ideal_witness(example_family):
    ex6 = example_family[6]
    A_ess = _essential(ex6).A_ess
    wit = essential_not_ideal_witness(ex6.ring, A_ess)
    assert wit is not None
    x, a = wit
    assert A_ess.contains(x)
    assert not A_ess.contains(ex6.ring.mul_vec(a, x))
    # at k = 4 the essential module (X^3) happens to be an ideal
    ex4 = example_family[4]
    assert essential_not_ideal_witness(ex4.ring, _essential(ex4).A_ess) is None


def test_measure_change_psi(example_family):
    ex = example_family[4]
    L2 = descending_series(ex.L, 2)[1]
    rng = np.random.default_rng(11)
    # gamma = Id degenerates: tr(J·Id) = 0, sigma = 0, Psi = identity
    rep_id = measure_change_psi(ex.R, ex.L, L2, ex.R.one)
    assert rep_id["bijective"] and rep_id["affine"]
    for _ in range(4):
        gamma = ex.Gamma.elements[int(rng.integers(0, ex.Gamma.n))]
        rep = measure_change_psi(ex.R, ex.L, L2, gamma)
        assert rep["bijective"] and rep["affine"]
        assert rep["image_matches_trJg_plus_I2"] in (True, None)


def test_measure_change_psi_where_psi_leaves_l2(example_family, monkeypatch):
    # with sqrt(1 + tr(m^2)/2) taken as 2, sigma = (tr(J·gamma)/tr(gamma))·J
    # for every m, which for some gamma leaves L_2: Psi^{-1} then has no
    # row to read, and the dict lookup it replaced raised KeyError
    ex = example_family[4]
    L2 = descending_series(ex.L, 2)[1]
    monkeypatch.setattr("pinkforge.pinklie._sqrt_scalars",
                        lambda R, M: np.tile(2 * R.A.one % R.p, (len(M), 1)))
    rng = np.random.default_rng(11)
    reps = [measure_change_psi(ex.R, ex.L, L2, gamma)
            for gamma in ex.Gamma.elements[rng.integers(0, ex.Gamma.n, size=8)]]
    assert any(r["bijective"] for r in reps) and not all(r["bijective"] for r in reps)
    assert all(r["affine"] is False for r in reps if not r["bijective"])


def test_trace_multiplication_lemma(example_family):
    # tr(gamma)·L_n = L_n for every gamma, n <= 4
    ex = example_family[3]
    R = ex.R
    series = descending_series(ex.L, 4)
    for i in range(ex.Gamma.n):
        t = R.batch_trace(ex.Gamma.elements[i])[0]
        for Ln in series:
            for v in Ln.basis:
                assert Ln.contains(R.ring_scale(t, v[None, :])[0])


def test_haar_coset_transport(example_family):
    # theta carries Gamma_2 bijectively to L_2 respecting the filtration
    ex = example_family[5]
    R = ex.R
    gs = group_series(ex.Gamma, 3)
    series = descending_series(ex.L, 3)
    th2 = set(row_key(batch_theta(R, gs[1].elements), 3).tolist())
    l2 = set(row_key(series[1].enumerate(cap=10 ** 6), 3).tolist())
    assert th2 == l2
    # coset transport at level 3
    L3 = series[2]
    for i in range(0, gs[1].n, max(1, gs[1].n // 6)):
        g = gs[1].elements[i]
        coset = batch_theta(R, R.batch_mul_elem_left(g, gs[2].elements))
        base = batch_theta(R, g[None, :])[0]
        want = set(row_key((base + L3.enumerate(cap=10 ** 6)) % 3, 3).tolist())
        assert set(row_key(coset, 3).tolist()) == want


def test_gamma_equals_full_preimage_search(example_family):
    # Remark-level question: can Gamma be strictly smaller than
    # theta^{-1}(L)?  The suite searches and reports; for all library
    # instances the two agree, which we record as an equality check here.
    for k in (2, 3, 4, 5, 6):
        ex = example_family[k]
        assert ex.Gamma.n == 3 ** ex.L.dim


def test_structure_round_trip_one_per_class():
    # the full >= 5-per-theorem sweep lives in the acceptance suite; here one
    # small instance per class keeps the unit run fast
    done = set()
    for cls, build in structure_parameter_sets():
        if cls in done:
            continue
        done.add(cls)
        data = build()
        rep = structure_round_trip(cls, data["R"], data["lie_rows"], data["gbar"])
        assert rep["lie_recovered"], cls
        assert rep["admissible"], cls
    assert done == {"order2", "cyclic", "klein", "dihedral", "large"}


def test_example_full_pipeline_forward_check(example_family):
    # from the bare (t, d) of the k = 2 example group, rebuild the faithful
    # realization and verify the order-2 structure conditions on it,
    # including the module-span conditions A·B1 = B, A·C1 = C
    from pinkforge.pseudorep import PseudoRep, build_td_representation
    from pinkforge.pinklie import check_structure_theorem
    ex = example_family[2]
    tr = PseudoRep.from_matrix_group(ex.G)
    R, G, rho_idx, info = build_td_representation(tr)
    rep = check_structure_theorem("order2", G)
    failures = {k: v for k, v in rep.items() if isinstance(v, bool) and not v}
    assert not failures, failures
    # the example itself is decomposable but not strongly, and its residual
    # projective image has order 2: only the order-2 theorem applies
    dec = decompose(ex.L)
    assert dec.decomposable and not dec.strongly


@pytest.mark.parametrize("q, k", [(3, 2), (3, 3), (9, 2)])
def test_a_constant_that_does_not_normalise_L_is_refused(q, k):
    # L = diag(m, -m) is normalised by diagonal constants, not by the
    # unipotent [[1, 1], [0, 1]]: conjugating diag(x, -x) puts -2x above
    # the diagonal
    from pinkforge.instances import const_diag, const_matrix, diag_rows
    from pinkforge.pinklie import build_group_from_lie
    A = make_truncated_poly_ring(q, k)
    R = m2_structure(A)
    rows = diag_rows(R, list(A.maxideal.basis))
    G, _, _ = build_group_from_lie("order2", R, rows, [R.one, const_diag(R, 1, A.p - 1)])
    assert G.n == 2 * q ** (k - 1)
    for consts in ([const_matrix(R, ((1, 1), (0, 1)))],
                   [R.one, const_diag(R, 1, A.p - 1), const_matrix(R, ((1, 0), (1, 1)))]):
        with pytest.raises(CheckFailed, match="constant subgroup does not normalize L"):
            build_group_from_lie("order2", R, rows, consts)


def test_forward_check_subfield_choice():
    # over F25 both the prime subfield and the full field satisfy the
    # gcd condition for the projective dihedral class; the shape check must
    # pass for either scalar extension
    from pinkforge.instances import diag_rows, dihedral_constants
    from pinkforge.pinklie import check_structure_theorem
    A = make_truncated_poly_ring(25, 2)
    R = m2_structure(A)
    rows = diag_rows(R, list(A.maxideal.basis))
    gen = A.fq.generator()
    lam = A.fq.pow(gen, 3)       # ratio of order 8: projective D8
    gbar = dihedral_constants(R, lam)
    rep = structure_round_trip("dihedral", R, rows, gbar)
    assert rep["lie_recovered"] and rep["admissible"]
    for d in (1, 2):
        fwd = check_structure_theorem("dihedral", rep["G"], L=rep["L"], subfield_degree=d)
        failures = {k: v for k, v in fwd.items() if isinstance(v, bool) and not v}
        assert not failures, (d, failures)


@pytest.mark.parametrize("q, d", [(9, 1), (25, 1), (27, 1), (27, 3)])
def test_subfield_constants_has_every_element(q, d):
    # FqData.pow(0, e) returned 1, so 0 was dropped: two rows of F_3's three
    from pinkforge.pinklie import subfield_constants
    A = make_truncated_poly_ring(q, 2)
    C = subfield_constants(A, d)
    assert len(C) == A.p ** d == len(set(map(tuple, C.tolist())))
    assert not C[0].any()
    # closed under products: the constants of a subfield
    prods = A.batch_mul(np.repeat(C, len(C), 0), np.tile(C, (len(C), 1)))
    assert set(map(tuple, prods.tolist())) == set(map(tuple, C.tolist()))


def test_functoriality_through_truncation(example_family):
    # pushing the Lie series through F3[X]/(X^4) -> F3[X]/(X^2) matches the
    # series computed downstairs
    from pinkforge.gma import m2_quotient_map
    ex = example_family[4]
    R = ex.R
    A = ex.ring
    x2 = np.zeros(A.dim, dtype=np.int64)
    x2[2] = 1
    Rq, apply = m2_quotient_map(R, [x2])
    Gq = FiniteMatrixGroup.generate(Rq, apply(np.array([ex.g, ex.h])))
    Lq = lie_of_subgroup(Gq)
    series_up = descending_series(ex.L, 4)
    series_dn = descending_series(Lq, 4)
    for n in range(4):
        pushed = FpSubspace(3, Rq.dim, apply(series_up[n].basis)) if series_up[n].dim \
            else FpSubspace(3, Rq.dim)
        assert pushed == series_dn[n].space


def test_pseudo_ring_description(example_family):
    # P = tr(L·L) equals the smallest multiplication-closed subspace
    # containing the trace defects tr(gamma) - 2
    ex = example_family[4]
    R, A = ex.R, ex.ring
    P = ex.L.trace_pseudoring()
    rows = [(R.batch_trace(v)[0] - 2 * A.one) % 3 for v in ex.Gamma.elements]
    Q = FpSubspace(3, A.dim, rows)
    while True:
        ext = [A.mul_vec(u, v) for u in Q.basis for v in Q.basis]
        Q2 = FpSubspace(3, A.dim, list(Q.basis) + ext)
        if Q2.dim == Q.dim:
            break
        Q = Q2
    assert Q == P
    # P is multiplicatively closed
    for u in P.basis:
        for v in P.basis:
            assert P.contains(A.mul_vec(u, v))


# -- the measure bound against brute force -------------------------------------

def _tuples(q, k):
    idx = np.indices((q,) * k).reshape(k, -1).T
    return [tuple(int(v) for v in row) for row in idx]


def _fq_form_apply(mul_table, fq, coords, w):
    """sum_j w_j·x_j in F_q for rows of F_q-coordinates, via digit sums."""
    n = coords.shape[0]
    acc = np.zeros((n, fq.f), dtype=np.int64)
    for j, wj in enumerate(w):
        if wj == 0:
            continue
        prods = mul_table[coords[:, j], wj]
        digs = np.array([fq.digits(int(v)) for v in prods], dtype=np.int64)
        acc = (acc + digs) % fq.p
    return np.array([fq.encode(row) for row in acc], dtype=np.int64)


def brute_force_measure(G, A_ess):
    """key_measure_check by evaluating every form on every trace: a matrix
    product over F_p (in blocks of forms), digit sums over F_q."""
    R = G.R
    A = R.A
    p = A.p
    bound = Fraction(p - 1, p * (G.n // int(batch_in_SR1(R, G.elements).sum())))
    if A_ess.dim == 0:
        return MeasureReport(bound=bound, min_measure=Fraction(1), n_forms=0,
                             passed=True, vacuous=True)
    TR = R.batch_trace(G.elements)
    if A.fq.f == 1:
        forms = A.elements()[1:]
        forms = forms[(A_ess.basis @ forms.T % p).any(axis=0)]
        n_forms = len(forms)
        min_count = min(int(((TR @ block.T % p) != 0).sum(axis=0).min())
                        for block in np.array_split(forms, -(-n_forms // 64)))
    else:
        fq = A.fq
        # the q x q product table from the Python-int reference
        table = np.array([[_field_product(a, b, fq) for b in range(fq.q)] for a in range(fq.q)])
        tr_coords = np.array([A.fq_coords(t) for t in TR], dtype=np.int64)
        ess_coords = np.array([A.fq_coords(v) for v in A_ess.basis], dtype=np.int64)
        counts = [int((_fq_form_apply(table, fq, tr_coords, w) != 0).sum())
                  for w in _tuples(fq.q, A.fq_block[1])
                  if any(w) and _fq_form_apply(table, fq, ess_coords, w).any()]
        n_forms, min_count = len(counts), min(counts)
    mm = Fraction(min_count, G.n)
    return MeasureReport(bound=bound, min_measure=mm, n_forms=n_forms, passed=mm >= bound)


# h of the p = 3 example lifted to F_9[X]/(X^3), J, and diag(zeta, zeta^-1)
F9_GENS = [[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0],
           [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0],
           [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0]]


def test_measure_check_matches_brute_force_fp(example_family):
    exs = {(3, k): example_family[k] for k in (2, 3, 4, 5, 6)}
    exs.update({(5, 4): example8(5, 4), (7, 3): example8(7, 3)})
    ess = {pk: _essential(ex).A_ess for pk, ex in exs.items()}
    got = {pk: key_measure_check(ex.G, ess[pk], ex.Gamma.n) for pk, ex in exs.items()}
    for pk, ex in exs.items():
        assert got[pk] == brute_force_measure(ex.G, ess[pk]), pk
    assert (got[3, 6].n_forms, got[3, 6].min_measure) == (648, Fraction(1, 3))
    assert (got[5, 4].n_forms, got[5, 4].min_measure) == (500, Fraction(2, 5))


@pytest.mark.parametrize("which, order", [((0, 1, 2), 432), ((0, 2), 216)])
def test_measure_check_matches_brute_force_f9(which, order):
    R = m2_structure(make_truncated_poly_ring(9, 3))
    G = FiniteMatrixGroup.generate(R, [F9_GENS[i] for i in which])
    Gamma = FiniteMatrixGroup(R, G.elements[batch_in_SR1(R, G.elements)])
    ess = essential_data(G, descending_series(lie_of_subgroup(Gamma), 2)[1])
    got = key_measure_check(G, ess.A_ess, Gamma.n)
    assert G.n == order
    assert got == brute_force_measure(G, ess.A_ess)
    assert (got.n_forms, got.min_measure, got.vacuous) == (648, Fraction(23, 36), False)


def test_measure_check_on_subspaces_that_are_not_fq_stable():
    # F_27: f = 3 exercises the field trace; random F_p-subspaces make
    # "l nonzero on A_ess" depend on every multiple c·l, not on l alone
    rng = np.random.default_rng(11)
    A = make_truncated_poly_ring(27, 2)
    R = m2_structure(A)
    G = FiniteMatrixGroup.generate(R, [*batch_theta_inv(R, random_rad0(R, rng, 1)), R.J])
    gamma_order = int(batch_in_SR1(R, G.elements).sum())
    for rows in (1, 2, 4):
        V = FpSubspace(3, A.dim, rng.integers(0, 3, size=(rows, A.dim)))
        assert key_measure_check(G, V, gamma_order) == brute_force_measure(G, V)


def test_measure_check_caps_the_dual_space():
    R = m2_structure(make_truncated_poly_ring(3, 13))        # 3^13 > 10^6 forms
    G = FiniteMatrixGroup.generate(R, [R.J])
    with pytest.raises(TooLarge):
        key_measure_check(G, R.A.maxideal, int(batch_in_SR1(R, G.elements).sum()))


def test_measure_check_residual_guard(example_family, monkeypatch):
    ex = example_family[4]
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda a: fftn(a) + 0.3)
    with pytest.raises(CheckFailed, match="measure transform residual .* reaches 1/4"):
        key_measure_check(ex.G, _essential(ex).A_ess, ex.Gamma.n)


def _address_space_2gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_example8_p7_k5_within_2gib():
    # the |G| x #forms matrix needed 25.3 GiB here
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli", "example8", "--p", "7",
                        "--k", "5"], capture_output=True, text=True,
                       preexec_fn=_address_space_2gib, timeout=600)
    assert r.returncode == 0, r.stderr[-2000:]
    m = json.loads(r.stdout)["measure"]
    assert m["forms"] == 14406
    assert Fraction(m["min"]["num"], m["min"]["den"]) == Fraction(3, 7)


def test_example8_at_p_257_counts_every_element():
    # with int8 row keys, residues 0 and 256 collided and |G| came out 131,585
    ex = example8(257, 2)
    assert ex.Gamma.n == 257 ** 2
    assert ex.G.n == 2 * ex.Gamma.n == 132_098
    assert np.unique(ex.G.elements, axis=0).shape[0] == ex.G.n


def _sorted_keys(G):
    return np.sort(row_key(G.elements, G.R.p))


@pytest.mark.parametrize("p, k", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
                                  (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (257, 2)])
def test_example8_G_by_cosets_equals_the_bfs(p, k):
    ex = example8(p, k)
    bfs = FiniteMatrixGroup.generate(ex.R, [ex.g, ex.h, ex.R.J])
    assert ex.relations_ok and ex.G.n == 2 * ex.Gamma.n == bfs.n
    assert np.array_equal(_sorted_keys(ex.G), _sorted_keys(bfs))


def test_example8_cap_counts_the_J_coset():
    # |Gamma| = 243 and |G| = 486 at (3, 4): a cap between them stops the coset build
    for cap in (243, 300, 485):
        with pytest.raises(TooLarge, match=f"group exceeds cap {cap}"):
            example8(3, 4, cap=cap)
    assert example8(3, 4, cap=486).G.n == 486


def _group_series_all_pairs(G, n_max):
    """The series as computed before: commutators of every pair (x, y) with
    x in Gamma_k and y in all of G."""
    T, inv = G.mul_table(), G.inverses()
    levels = [np.arange(G.n)]
    for _ in range(n_max - 1):
        prev = levels[-1]
        comm = T[T[np.ix_(prev, np.arange(G.n))], inv[T[np.ix_(np.arange(G.n), prev)].T]]
        levels.append(_index_closure(T, G.id_index, np.unique(comm)))
    return levels


def test_group_series_from_generators_equals_all_pairs(example_family):
    groups = [example_family[k].Gamma for k in (2, 3, 4, 5)] + [example_family[4].G]
    R = m2_structure(make_truncated_poly_ring(5, 1))
    for gens in ([[1, 1, 0, 1], [0, 1, 4, 0]], [[0, 1, 1, 0], [1, 1, 0, 1]],
                 [[1, 1, 0, 1], [2, 0, 0, 1]]):          # SL2(F5), GL2(F5), a Borel subgroup
        groups.append(FiniteMatrixGroup.generate(R, [np.array(g) for g in gens]))
    groups.append(FiniteMatrixGroup(R, groups[-1].elements[::-1]))   # no generators
    for G in groups:
        got = group_series(G, 4)
        want = _group_series_all_pairs(G, 4)
        assert [H.n for H in got] == [len(w) for w in want]
        for H, w in zip(got, want):
            assert np.array_equal(H.elements, G.elements[w])


def test_random_sr_equals_the_element_loop():
    def by_loop(R, rng, n):
        core = batch_theta_inv(R, random_rad0(R, rng, n))
        A = R.A
        lams = rng.integers(1, A.fq.q, size=n)
        out = np.empty_like(core)
        for i in range(n):
            lam = int(lams[i])
            const = R.assemble(A.constant(lam), np.zeros(R.db, dtype=np.int64),
                               np.zeros(R.dc, dtype=np.int64), A.constant(A.fq.inv(lam)))
            out[i] = R.mul_vec(core[i], const)
        return out

    for q, k in ((3, 3), (9, 2), (25, 1), (7, 2)):
        R = m2_structure(make_truncated_poly_ring(q, k))
        got = random_sr(R, np.random.default_rng(q), 200)
        assert np.array_equal(got, by_loop(R, np.random.default_rng(q), 200))
        assert (R.batch_det(got) == R.A.one).all()


def test_residual_image_group_equals_the_element_loop():
    R = m2_structure(make_truncated_poly_ring(9, 3))
    G = FiniteMatrixGroup.generate(R, F9_GENS)
    Fq = make_truncated_poly_ring(9, 1)
    rows = np.array([[d for comp in R.comps(v) for d in Fq.fq.digits(R.A.residue_int(comp))]
                     for v in G.elements])
    _, first = np.unique(row_key(rows, 3), return_index=True)
    got = residual_image_group(G)
    assert G.n == 432 and np.array_equal(got.elements, rows[np.sort(first)])


def _seeded_sr1_generators(R, ngens, seed):
    """theta^{-1} of ngens random traceless matrices with entries in (X^j):
    j = 1 for one generator (a cyclic group), and for two the least j >= 1
    whose congruence kernel has at most 20,000 elements, so that the BFS
    stays quick."""
    A = R.A
    f, k = A.fq_block
    j = 1
    if ngens == 2:
        while A.p ** (3 * f * (k - j)) > 20_000:
            j += 1
    xj = np.zeros(A.dim, dtype=np.int64)
    xj[(j - 1) * f] = 1
    rows = R.ring_scale(xj, random_rad0(R, np.random.default_rng(seed), ngens))
    return batch_theta_inv(R, rows)


def _seeded_unit_generator_sets(R, seed):
    """Sets of units whose groups the BFS closes quickly: s = theta^{-1} of a
    random traceless element of (X^j)·M_2(A), j the least >= 1 with
    q^(3(k-j)) <= 729, beside J, beside a constant diag(a, 1) with a != 1
    (a determinant outside 1 + m), and beside the unipotent [[1, 1], [0, 1]]
    (a non-trivial residual image of determinant 1); one random unit; and
    the three constants alone."""
    A = R.A
    f, k = A.fq_block
    q = A.fq.q
    rng = np.random.default_rng(seed)
    j = 1
    while q ** (3 * (k - j)) > 729:
        j += 1
    xj = np.zeros(A.dim, dtype=np.int64)
    xj[(j - 1) * f] = 1
    s = batch_theta_inv(R, R.ring_scale(xj, random_rad0(R, rng, 1)))[0]
    zero = np.zeros(A.dim, dtype=np.int64)
    diag = R.assemble(A.constant(int(rng.integers(2, q))), zero, zero, A.one)
    unipotent = R.assemble(A.one, A.one, zero, A.one)
    unit = rng.integers(0, R.p, size=R.dim)
    while not R.A.is_unit_vec(R.batch_det(unit)[0]):
        unit = rng.integers(0, R.p, size=R.dim)
    return [[s, R.J], [s, diag], [s, unipotent], [unit], [R.J, diag, unipotent]]


def _seeded_field_generator_sets(R, seed):
    """Over a field (k = 1), where Gamma = 1 and the transversal is all of G:
    one random unit (a cyclic G) and diag(a, 1), diag(1, b) with a, b != 1
    (a rank-2 diagonal G)."""
    A = R.A
    rng = np.random.default_rng(seed)
    unit = rng.integers(0, R.p, size=R.dim)
    while not R.A.is_unit_vec(R.batch_det(unit)[0]):
        unit = rng.integers(0, R.p, size=R.dim)
    zero = np.zeros(A.dim, dtype=np.int64)
    a, b = (A.constant(int(c)) for c in rng.integers(2, A.fq.q, size=2))
    return [[unit], [R.assemble(a, zero, zero, A.one), R.assemble(A.one, zero, zero, b)]]


def _schreier_reference(R, gens):
    """The Schreier generators of `generate_group`, picked by its earlier
    sequential rules: a dict from coset key to coset number, then a set of
    kept keys, where a row is kept when neither it nor its inverse is."""
    p = R.p
    S = np.asarray(gens, dtype=np.int64).reshape(-1, R.dim) % p
    cosets, edges, ends, level = {}, [], [], R.one[None, :]
    T = E = level[:0]
    while True:
        keys = np.concatenate([R.batch_det(level), R.radical().reduce(level)], axis=1)
        keys, fresh = row_key(keys, p).tolist(), []
        for i, key in enumerate(keys):
            if key not in cosets:
                cosets[key] = len(cosets)
                fresh.append(i)
        ends += [cosets[key] for key in keys[:len(E)]]
        edges.append(E)
        if not fresh:
            break
        new = level[fresh]
        T = np.concatenate([T, new])
        E = np.hstack([new[:, :0]] + [R.batch_mul_elem(new, s) for s in S]).reshape(-1, R.dim)
        level = np.concatenate([E, R.batch_mul_elem(T, T[-1])])
    W = np.concatenate(edges)
    if len(T) > 1:
        W = R.batch_mul(W, R.batch_inv(T)[ends])
    inverse_keys = row_key((R.scalars(R.batch_trace(W)) - W) % p, p).tolist()
    kept, picked = set(row_key(R.one[None, :], p).tolist()), []
    for i, (key, inverse_key) in enumerate(zip(row_key(W, p).tolist(), inverse_keys)):
        if key not in kept and inverse_key not in kept:
            kept.add(key)
            picked.append(i)
    return W[picked]


def test_generate_sr1_equals_the_bfs_and_its_lie_algebra():
    """generate_group against the BFS and gamma_and_lie: G as a set, |Gamma|
    and L, on seeded sets in SR^1 (G = Gamma, over both branches of the
    orbit certificate), on seeded sets of units with a non-trivial residual
    image, determinants outside 1 + m or J, on cyclic and rank-2 diagonal
    sets over a field, and on the sets that add J, 2 or g·J to a generator g
    in SR^1.  Gamma's generators are the sequential rules' Schreier
    generators, in order, here and on example8(257, 2), whose keys are void."""
    branches, cosets = set(), set()
    cases = []
    for q in (3, 5, 7, 9):
        for k in (3, 4, 5, 6):
            R = m2_structure(make_truncated_poly_ring(q, k))
            cases += [(R, _seeded_sr1_generators(R, ngens, 100 * q + 10 * k + ngens))
                      for ngens in (1, 2)]
        for k in (2, 3, 4, 5):
            R = m2_structure(make_truncated_poly_ring(q, k))
            cases += [(R, gens) for gens in _seeded_unit_generator_sets(R, 10 * q + k)]
        R = m2_structure(make_truncated_poly_ring(q, 1))
        cases += [(R, gens) for gens in _seeded_field_generator_sets(R, q)]
    R = m2_structure(make_truncated_poly_ring(3, 3))
    g = _seeded_sr1_generators(R, 1, 0)[0]
    cases += [(R, [g, bad]) for bad in (R.J, (2 * R.one) % 3, R.mul_vec(g, R.J))]
    for R, gens in cases:
        G, Gamma, L = generate_group(R, gens)
        bfs = FiniteMatrixGroup.generate(R, gens)
        bfs_gamma, bfs_L = gamma_and_lie(bfs)
        where = (R.name, np.asarray(gens).tolist())
        assert np.array_equal(_sorted_keys(G), _sorted_keys(bfs)), where
        assert Gamma.n == bfs_gamma.n and L == bfs_L, where
        assert np.array_equal(np.reshape(Gamma.generators, (-1, R.dim)),
                              _schreier_reference(R, gens)), where
        # the orbit is theta^{-1}(L) exactly when |Gamma| = p^dim L
        branches.add(Gamma.n == R.p ** L.dim)
        cosets.add(G.n // Gamma.n > 1)
    assert branches == {True, False} and cosets == {True, False}
    ex = example8(257, 2)
    assert row_key(ex.R.one, 257).dtype.kind == "V"
    assert np.array_equal(ex.Gamma.generators, _schreier_reference(ex.R, [ex.g, ex.h, ex.R.J]))


def test_generate_group_doubles_a_cyclic_transversal():
    # each BFS level keys its rows by one batch_det; with one level per coset
    # <diag(3, 1)> over F_65537 (3 has order 2^16) took 65,536 levels
    R = m2_structure(make_truncated_poly_ring(65537, 1))
    calls = []
    batch_det = R.batch_det
    R.batch_det = lambda X: calls.append(len(X)) or batch_det(X)
    G, Gamma, L = generate_group(R, [R.assemble([3], [0], [0], [1])])
    assert G.n == 2 ** 16 and Gamma.n == 1 and L.dim == 0
    assert len(calls) <= 2 * 16 + 4


def test_generate_sr1_takes_the_orbit_of_a_cyclic_group():
    # over F_5[X]/(X^5) a generator has order 5, while P·theta(s) widens L'
    R = m2_structure(make_truncated_poly_ring(5, 5))
    gens = _seeded_sr1_generators(R, 1, 551)
    G, Gamma, L = generate_group(R, gens)
    bfs = FiniteMatrixGroup.generate(R, gens)
    assert G is Gamma and Gamma.n == bfs.n == 5 < 5 ** L.dim
    assert np.array_equal(_sorted_keys(Gamma), _sorted_keys(bfs))
    assert L == lie_of_subgroup(bfs)
    assert np.array_equal(Gamma.generators, gens)


def test_generate_sr1_refuses_a_generator_outside_sr1(monkeypatch):
    # diag(1 + X, 1) and (1 + X)·1 are Id mod rad R with det != 1: with
    # coset keys blind to det they share the coset of 1, so each comes out as
    # a Schreier generator outside SR^1, and generate_group refuses it
    # rather than build a wrong Gamma; with the true keys it gives the BFS
    R = m2_structure(make_truncated_poly_ring(3, 3))
    A = R.A
    g = _seeded_sr1_generators(R, 1, 0)[0]
    zero = np.zeros(A.dim, dtype=np.int64)
    one_plus_x = (A.one + A.maxideal.basis[0]) % 3
    bads = (R.assemble(one_plus_x, zero, zero, A.one),
            R.assemble(one_plus_x, zero, zero, one_plus_x))
    for bad in bads:
        G = generate_group(R, [g, bad])[0]
        bfs = FiniteMatrixGroup.generate(R, [g, bad])
        assert G.n > 1 and np.array_equal(_sorted_keys(G), _sorted_keys(bfs))
    # the coset keys are det's A.dim columns, then the residue's R.dim
    monkeypatch.setattr("pinkforge.pinklie.row_key", lambda M, p: row_key(
        M[:, A.dim:] if M.shape[1] == A.dim + R.dim else M, p))
    for bad in bads:
        with pytest.raises(CheckFailed, match="a Schreier generator lies outside SR\\^1"):
            generate_group(R, [g, bad])


def test_cap_bounds_the_rows_enumerated_for_a_cyclic_gamma(capsys):
    # |G| = |Gamma| = 5, but the cap bounds |T|·p^dim L' = 25, the rows of
    # theta^{-1}(L') the certificate enumerates
    R = m2_structure(make_truncated_poly_ring(5, 5))
    gens = _seeded_sr1_generators(R, 1, 551)
    argv = ["analyze", "--q", "5", "--k", "5", "--gens", json.dumps(gens.tolist())]
    for cap in (5, 24):
        assert main(argv + ["--cap", str(cap)]) == 3
        assert capsys.readouterr().err == \
            f"error: group exceeds cap {cap} (cap reached, undecided)\n"
    bfs = FiniteMatrixGroup.generate(R, gens)
    L = lie_of_subgroup(bfs)
    assert main(argv + ["--cap", "25"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["group_order"] == d["gamma_order"] == bfs.n == 5
    assert d["dim_L"] == [s.dim for s in descending_series(L, 4)]
    assert d["P"] == L.trace_pseudoring().basis.tolist()


def test_generate_sr1_checks_the_cap_before_enumerating():
    R = m2_structure(make_truncated_poly_ring(3, 4))
    gens = example8(3, 4).Gamma.generators
    with pytest.raises(TooLarge, match="group exceeds cap 242"):
        generate_group(R, gens, cap=242)
    assert generate_group(R, gens, cap=243)[1].n == 243


@pytest.mark.parametrize("p, k", [(3, 8), (5, 4), (7, 3), (257, 2)])
def test_preimage_by_the_quadratic_form_equals_batch_theta_inv(p, k):
    A = make_truncated_poly_ring(p, k)
    R = m2_structure(A)
    L = expected_example_lie(R, A)
    assert np.array_equal(enumerate_preimage(L), batch_theta_inv(R, L.enumerate()))


@pytest.mark.parametrize("q, k", [(3, 8), (9, 3)])
def test_sqrt_scalars_equal_the_root_of_the_squared_trace(q, k):
    # the body before tr(m^2)/2 = tr(m)^2/2 - det(m): the product m·m of
    # every row, its trace, and a root per row
    A = make_truncated_poly_ring(q, k)
    R = m2_structure(A)
    f = A.fq.f
    rng = np.random.default_rng(q * k)
    M = rng.integers(0, R.p, size=(3000, 4, A.dim))
    M[:, :, :f] = 0                                 # every entry in the maximal ideal
    M = M.reshape(3000, R.dim)
    M[1000:2000] = M[:1000]                         # repeated rows
    M[2000:] = random_rad0(R, rng, 1000)            # traceless rows, as theta^-1 takes
    half_trace = R.batch_trace(R.batch_mul(M, M)) * pow(2, -1, R.p)
    want = batch_sqrt_one_plus_m(A, (A.one + half_trace) % R.p)
    assert np.array_equal(_sqrt_scalars(R, M), want)
