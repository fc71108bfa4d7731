import numpy as np
import pytest

from pinkforge.errors import CheckFailed
from pinkforge.fp import FpSubspace, nullspace
from pinkforge.gma import (
    GmaStructure,
    batch_in_SR1,
    is_faithful,
    m2_quotient_map,
    m2_structure,
    reduced_residue_gma,
)
from pinkforge.localring import FiniteAlgebra, batch_invert, make_truncated_poly_ring


def zero_pairing_gma(A, dim_mod=1):
    """B = C = F_p^dim with trivial action of m and zero pairing."""
    act = np.zeros((A.dim, dim_mod, dim_mod), dtype=np.int64)
    for j in range(dim_mod):
        act[0, j, j] = 1   # 1 acts as identity, m kills the module
    pairing = np.zeros((dim_mod, dim_mod, A.dim), dtype=np.int64)
    return GmaStructure(A, act, act, pairing, name="zero-pairing")


def test_mul_formula_hand_example():
    # A = F3, B = C = F3, zero pairing: (1,1,0,2)(2,0,1,1) = (2,1,2,2)
    A = make_truncated_poly_ring(3, 1)
    R = zero_pairing_gma(A)
    x = R.assemble([1], [1], [0], [2])
    y = R.assemble([2], [0], [1], [1])
    z = R.mul_vec(x, y)
    assert np.array_equal(z, [2, 1, 2, 2])


def test_identity_neutral():
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(0, 3, size=R.dim)
        assert np.array_equal(R.mul_vec(x, R.one), x)
        assert np.array_equal(R.mul_vec(R.one, x), x)


def test_m2_agrees_with_matrix_product():
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.integers(0, 3, size=R.dim)
        y = rng.integers(0, 3, size=R.dim)
        z = R.mul_vec(x, y)
        # straight 2x2 block product over A
        ax, bx, cx, dx = R.comps(x)
        ay, by, cy, dy = R.comps(y)
        assert np.array_equal(z[R.sa], (A.mul_vec(ax, ay) + A.mul_vec(bx, cy)) % 3)
        assert np.array_equal(z[R.sb], (A.mul_vec(ax, by) + A.mul_vec(bx, dy)) % 3)
        assert np.array_equal(z[R.sc], (A.mul_vec(cx, ay) + A.mul_vec(dx, cy)) % 3)
        assert np.array_equal(z[R.sd], (A.mul_vec(cx, by) + A.mul_vec(dx, dy)) % 3)


def test_associativity_random_triples():
    A = make_truncated_poly_ring(3, 3)
    for R in (m2_structure(A), reduced_residue_gma(A)):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 3, size=(1000, R.dim))
        Y = rng.integers(0, 3, size=(1000, R.dim))
        Z = rng.integers(0, 3, size=(1000, R.dim))
        assert np.array_equal(R.batch_mul(R.batch_mul(X, Y), Z),
                              R.batch_mul(X, R.batch_mul(Y, Z)))


def test_trace_det_identities():
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    def tr(x):
        return R.batch_trace(x)[0]

    def det(x):
        return R.batch_det(x)[0]

    assert np.array_equal(tr(R.one), 2 * A.one % 3)
    assert np.array_equal(det(R.one), A.one)
    assert np.array_equal(det(R.J), -A.one % 3)
    rng = np.random.default_rng(3)
    inv2 = pow(2, -1, 3)
    for _ in range(200):
        x = rng.integers(0, 3, size=R.dim)
        y = rng.integers(0, 3, size=R.dim)
        xy = R.mul_vec(x, y)
        assert np.array_equal(tr(xy), tr(R.mul_vec(y, x)))
        assert np.array_equal(det(xy), A.mul_vec(det(x), det(y)))
        # det from traces, p odd
        tr2 = (A.mul_vec(tr(x), tr(x)) - tr(R.mul_vec(x, x))) % 3
        assert np.array_equal(det(x), tr2 * inv2 % 3)


def test_trace_commutes_exhaustive_on_basis():
    A = make_truncated_poly_ring(3, 2)
    for R in (m2_structure(A), reduced_residue_gma(A)):
        E = np.eye(R.dim, dtype=np.int64)
        for i in range(R.dim):
            for j in range(R.dim):
                assert np.array_equal(R.batch_trace(R.mul_vec(E[i], E[j]))[0],
                                      R.batch_trace(R.mul_vec(E[j], E[i]))[0])


def test_pairing_compatibility_fail_fast():
    A = make_truncated_poly_ring(3, 2)
    act = np.zeros((2, 1, 1), dtype=np.int64)
    act[0, 0, 0] = 1
    bad_pairing = np.zeros((1, 1, 2), dtype=np.int64)
    bad_pairing[0, 0, 1] = 1   # m(b, c) = X, but X kills the module: fails
    # bilinearity is violated: m(X·b, c) = 0 while X·m(b, c) = X^2 = 0 holds,
    # but associativity m(b,c)·b' = 0 needs m constant on the module
    act2 = act.copy()
    act2[1, 0, 0] = 1   # declare X to act as identity: breaks module axiom
    with pytest.raises(CheckFailed, match="B is not an A-module"):
        GmaStructure(A, act2, act, bad_pairing)


def test_is_faithful_cases():
    for k in (2, 3):
        A = make_truncated_poly_ring(3, k)
        assert is_faithful(m2_structure(A))
        assert is_faithful(reduced_residue_gma(A))
    Af = make_truncated_poly_ring(3, 1)
    assert not is_faithful(zero_pairing_gma(Af))
    # submodule pair ((X), (X)) with multiplication pairing: X^2 kills (X),
    # so the pairing is degenerate
    sub = _ideal_pair_gma(A)
    assert not is_faithful(sub)


def _ideal_pair_gma(A):
    """B = C = (X) inside A with the multiplication pairing."""
    f = A.fq.f
    dimB = A.maxideal.dim
    basis = A.maxideal.basis     # X, X^2, ...
    act = np.zeros((A.dim, dimB, dimB), dtype=np.int64)
    for i in range(A.dim):
        e = np.eye(A.dim, dtype=np.int64)[i]
        for k in range(dimB):
            prod = A.mul_vec(e, basis[k])
            co = FpSubspace(A.p, A.dim, basis).coords(prod)
            act[i, k] = co if co is not None else 0
    pairing = np.zeros((dimB, dimB, A.dim), dtype=np.int64)
    for k in range(dimB):
        for l in range(dimB):
            pairing[k, l] = A.mul_vec(basis[k], basis[l])
    return GmaStructure(A, act, act, pairing, name="ideal-pair")


def _trace_radical(R):
    """{y : tr(y x) = 0 for all x} of the algebra R, as an F_p-subspace."""
    E = np.eye(R.dim, dtype=np.int64)
    M = np.zeros((R.dim * R.A.dim, R.dim), dtype=np.int64)
    for i in range(R.dim):
        for j in range(R.dim):
            M[j * R.A.dim:(j + 1) * R.A.dim, i] = R.batch_trace(R.mul_vec(E[i], E[j]))[0]
    return FpSubspace(R.p, R.dim, nullspace(M, R.p))


def test_faithful_iff_trace_kernel_trivial():
    # cross-check on small instances: non-degenerate pairing <=> the trace
    # pairing of the algebra has no radical
    A = make_truncated_poly_ring(3, 2)
    for R, expect in ((m2_structure(A), True), (reduced_residue_gma(A), True),
                      (zero_pairing_gma(make_truncated_poly_ring(3, 1)), False)):
        assert is_faithful(R) == expect == (_trace_radical(R).dim == 0)


def test_cayley_hamilton():
    # x^2 - tr(x)·x + det(x)·Id = 0, on which the closed-form inverse rests:
    # exhaustive on structures of at most 4,096 elements, else 200 seeded ones
    A = make_truncated_poly_ring(3, 2)
    for R in (m2_structure(A), reduced_residue_gma(A),
              zero_pairing_gma(make_truncated_poly_ring(3, 1))):
        if R.p ** R.dim <= 4096:
            X = np.indices((R.p,) * R.dim).reshape(R.dim, -1).T
        else:
            X = np.random.default_rng(0).integers(0, R.p, size=(200, R.dim))
        trace_id = np.zeros_like(X)
        trace_id[:, R.sa] = trace_id[:, R.sd] = R.batch_trace(X)
        lhs = R.batch_mul(X, X) - R.batch_mul(trace_id, X)
        lhs[:, R.sa] += R.batch_det(X)
        lhs[:, R.sd] += R.batch_det(X)
        assert not (lhs % R.p).any()


def test_radical_profile_and_trace_lemma():
    A = make_truncated_poly_ring(3, 3)
    Rm = m2_structure(A)
    Rr = reduced_residue_gma(A)
    assert Rm.radical_profile() == ["matrix"]
    assert Rr.radical_profile() == ["reduced"]
    # for x in rad R: tr(x), tr(x^2), det(x) all in m
    for R in (Rm, Rr):
        rad = R.radical()
        for u in rad.basis:
            for v in rad.basis:
                x = (u + v) % 3
                assert A.maxideal.contains(R.batch_trace(x)[0])
                assert A.maxideal.contains(R.batch_trace(R.mul_vec(x, x))[0])
                assert A.maxideal.contains(R.batch_det(x)[0])


def test_in_SR1_examples():
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    assert batch_in_SR1(R, R.one).tolist() == [True]
    x = np.array([1, 1])                     # 1 + X
    xi = batch_invert(A, x[None])[0]
    g = R.assemble(x, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), xi)
    assert batch_in_SR1(R, g).tolist() == [True]
    assert batch_in_SR1(R, R.J).tolist() == [False]     # not congruent to Id mod rad
    # det != 1
    h = R.assemble(x, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), x)
    assert batch_in_SR1(R, h).tolist() == [False]
    rows = np.array([R.one, g, R.J, h])
    assert batch_in_SR1(R, rows).tolist() == [True, True, False, False]


def test_inverse_solves_defining_equation():
    # the closed-form inverse satisfies x·y = Id, the linear-algebra contract
    A = make_truncated_poly_ring(3, 3)
    R = m2_structure(A)
    rng = np.random.default_rng(4)
    count = 0
    while count < 50:
        x = rng.integers(0, 3, size=R.dim)
        if not R.A.is_unit_vec(R.batch_det(x)[0]):
            continue
        count += 1
        y = R.batch_inv(x)[0]
        assert np.array_equal(R.mul_vec(x, y), R.one)
        assert np.array_equal(R.mul_vec(y, x), R.one)


def test_batch_inv_is_the_adjugate_formula():
    # every unit of M_2(F_3[X]/(X^2)): x^-1 = det(x)^-1·(d, -b, -c, a),
    # with det(x)^-1 found by search in A
    A = make_truncated_poly_ring(3, 2)
    R = m2_structure(A)
    X = np.indices((3,) * R.dim).reshape(R.dim, -1).T
    ring = A.elements()
    inverse = {a.tobytes(): b for a in ring for b in ring
               if np.array_equal(A.mul_vec(a, b), A.one)}
    dets = np.array([_component_det(R, x) for x in X])
    units = np.array([d.tobytes() in inverse for d in dets])
    assert units.sum() == 48 * 3 ** 4                 # |GL_2(F_3)|·|1 + M_2(m)|
    U = X[units]
    dinv = np.array([inverse[d.tobytes()] for d in dets[units]])
    a, b, c, d = R.comps(U)
    want = R.assemble(*(A.batch_mul(dinv, y) for y in (d, -b % 3, -c % 3, a)))
    assert np.array_equal(R.batch_inv(U), want)
    with pytest.raises(CheckFailed, match="is not invertible"):
        R.batch_inv(X)


def test_m2_quotient_map_is_algebra_map():
    A = make_truncated_poly_ring(3, 4)
    R = m2_structure(A)
    x2 = np.zeros(4, dtype=np.int64)
    x2[2] = 1
    Rq, apply = m2_quotient_map(R, [x2])
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(100, R.dim))
    Y = rng.integers(0, 3, size=(100, R.dim))
    assert np.array_equal(apply(R.batch_mul(X, Y)), Rq.batch_mul(apply(X), apply(Y)))


def test_semilocal_radical_profile():
    from pinkforge.localring import SemiLocalRing
    A1 = make_truncated_poly_ring(3, 2)
    A2 = make_truncated_poly_ring(3, 1)
    S = SemiLocalRing([A1, A2])
    R = m2_structure(S)
    assert R.radical_profile() == ["matrix", "matrix"]
    # radical = m1·M2 x m2·M2 with m2 = 0: dimension 4·1 + 0
    assert R.radical().dim == 4
    # elementwise arithmetic stays componentwise through the GMA
    assert np.array_equal(R.mul_vec(R.one, R.one), R.one)


def _component_rule(R, x, y):
    """The displayed product rule on one pair of rows, or row by row on two
    equal stacks of rows."""
    ein = np.einsum
    a, b, c, d = R.comps(x)
    a2, b2, c2, d2 = R.comps(y)
    mt = R.A.mul_tensor
    na = ein("...i,...j,ijk->...k", a, a2, mt) + ein("...k,...l,kli->...i", b, c2, R.pairing)
    nb = ein("...i,...k,ikj->...j", a, b2, R.act_b) + ein("...i,...k,ikj->...j", d2, b, R.act_b)
    nc = ein("...i,...k,ikj->...j", a2, c, R.act_c) + ein("...i,...k,ikj->...j", d, c2, R.act_c)
    nd = ein("...i,...j,ijk->...k", d, d2, mt) + ein("...k,...l,kli->...i", b2, c, R.pairing)
    return np.concatenate([na, nb, nc, nd], axis=-1) % R.p


def _component_det(R, x):
    a, b, c, d = R.comps(x)
    return (np.einsum("i,j,ijk->k", a, d, R.A.mul_tensor)
            - np.einsum("k,l,kli->i", b, c, R.pairing)) % R.p


def _dual_numbers(p):
    """F_p[eps] as a bare algebra: no residue-field table, so any p < 2^31."""
    T = np.zeros((2, 2, 2), dtype=np.int64)
    T[0, 0, 0] = T[0, 1, 1] = T[1, 0, 1] = 1
    return FiniteAlgebra(p, T, [1, 0], meta={"kind": "dual"})


def test_products_and_det_match_the_component_rule():
    from pinkforge.instances import structure_parameter_sets
    structures = [build()["R"] for _, build in structure_parameter_sets()]
    structures.append(m2_structure(make_truncated_poly_ring(9, 3)))
    # M_2(F_p[eps]), D = 8: at 65521, 64·(p-1)^3 >= 2^53, so `bilinear`
    # reduces its intermediate, and at 257 it does not
    structures += [m2_structure(_dual_numbers(p)) for p in (257, 65521)]
    rng = np.random.default_rng(11)
    for R in structures:
        top = np.full((1, R.dim), R.p - 1)
        X = np.vstack([rng.integers(0, R.p, size=(40, R.dim)), top])
        Y = np.vstack([rng.integers(0, R.p, size=(40, R.dim)), top])
        want = np.array([_component_rule(R, x, y) for x, y in zip(X, Y)])
        assert np.array_equal(R.batch_mul(X, Y), want), R.name
        assert np.array_equal(np.array([R.mul_vec(x, y) for x, y in zip(X, Y)]), want)
        # one row against many, both ways round
        assert np.array_equal(R.batch_mul(X[0], Y), [_component_rule(R, X[0], y) for y in Y])
        assert np.array_equal(R.batch_mul(X, Y[0]), [_component_rule(R, x, Y[0]) for x in X])
        assert np.array_equal(R.batch_mul_elem(X, Y[0]),
                              [_component_rule(R, x, Y[0]) for x in X])
        assert np.array_equal(R.batch_mul_elem_left(X[0], Y),
                              [_component_rule(R, X[0], y) for y in Y])
        assert np.array_equal(R.batch_det(X), [_component_det(R, x) for x in X])
        assert np.array_equal(R.batch_det(X[3])[0], _component_det(R, X[3]))
    # D = 16: 5,000 rows cross `bilinear`'s blocks of 2^23 / (8·16·16) = 4,096
    R = m2_structure(make_truncated_poly_ring(3, 4))
    X = rng.integers(0, 3, size=(5000, R.dim))
    Y = rng.integers(0, 3, size=(5000, R.dim))
    got = R.batch_mul(X, Y)
    assert np.array_equal(got, _component_rule(R, X, Y))
    assert np.array_equal(R.batch_mul(X[7], Y), _component_rule(R, X[7], Y))
    for n in (0, 4095, 4096, 4999):
        assert np.array_equal(R.mul_vec(X[n], Y[n]), got[n])


def _loop_validate(A, act_b, act_c, pairing):
    """Reference for `GmaStructure._validate`: the structure laws checked
    one basis tuple at a time; returns the first failure message or None."""
    p, da, db, dc = A.p, A.dim, act_b.shape[1], act_c.shape[1]

    def act(a, m, tensor):
        return np.einsum("i,k,ikj->j", a, m, tensor) % p

    def pair(b, c):
        return np.einsum("k,l,kli->i", b, c, pairing) % p

    def mul(a, a2):
        return np.einsum("i,j,ijk->k", a, a2, A.mul_tensor) % p

    ea, eb, ec = (np.eye(n, dtype=np.int64) for n in (da, db, dc))
    for i in range(da):
        for i2 in range(da):
            aa2 = mul(ea[i], ea[i2])
            for tensor, e, msg in ((act_b, eb, "B is not an A-module"),
                                   (act_c, ec, "C is not an A-module")):
                for m in e:
                    if not np.array_equal(act(aa2, m, tensor),
                                          act(ea[i], act(ea[i2], m, tensor), tensor)):
                        return msg
    for k in range(db):
        for l in range(dc):
            m_kl = pair(eb[k], ec[l])
            for k2 in range(db):
                if not np.array_equal(act(m_kl, eb[k2], act_b),
                                      act(pair(eb[k2], ec[l]), eb[k], act_b)):
                    return "pairing compatibility fails on B"
            for l2 in range(dc):
                if not np.array_equal(act(pair(eb[k], ec[l2]), ec[l], act_c),
                                      act(m_kl, ec[l2], act_c)):
                    return "pairing compatibility fails on C"
    for i in range(da):
        for k in range(db):
            for l in range(dc):
                if not np.array_equal(pair(act(ea[i], eb[k], act_b), ec[l]),
                                      mul(ea[i], pair(eb[k], ec[l]))):
                    return "pairing is not A-bilinear"
    return None


def _ideal_pair(A, B, C):
    """B x C -> A by multiplication, for ideals B and C of A (FpSubspaces)."""
    E = np.eye(A.dim, dtype=np.int64)

    def action(ideal):
        return np.array([[ideal.coords(A.mul_vec(e, v)) for v in ideal.basis] for e in E])
    pairing = np.array([[A.mul_vec(b, c) for c in C.basis] for b in B.basis])
    return GmaStructure(A, action(B), action(C), pairing, name="ideal-pair")


def test_validate_reports_the_first_failure_of_the_loop_reference():
    from pinkforge.instances import structure_parameter_sets
    structures = [build()["R"] for _, build in structure_parameter_sets()]
    for q, k in ((3, 2), (9, 2), (5, 3)):
        A = make_truncated_poly_ring(q, k)
        structures += [m2_structure(A), reduced_residue_gma(A)]
        # dim B != dim C
        whole = FpSubspace(A.p, A.dim, np.eye(A.dim, dtype=np.int64))
        structures += [_ideal_pair(A, A.maxideal, whole), _ideal_pair(A, whole, A.maxideal)]
    # which arrays get one entry changed: the actions break the module laws,
    # the pairing, alone or with an action, the pairing laws
    perturbed = (("act_b",), ("act_c",), ("act_b", "act_c"), ("pairing",),
                 ("pairing", "act_b"), ("pairing", "act_c"))
    rng = np.random.default_rng(5)
    seen = set()
    for R in structures:
        for t in range(20):
            data = {"act_b": R.act_b.copy(), "act_c": R.act_c.copy(),
                    "pairing": R.pairing.copy()}
            for name in perturbed[t % len(perturbed)]:
                arr = data[name]
                if arr.size:
                    idx = tuple(rng.integers(0, n) for n in arr.shape)
                    arr[idx] = (arr[idx] + rng.integers(1, R.p)) % R.p
            want = _loop_validate(R.A, **data)
            try:
                GmaStructure(R.A, **data)
                got = None
            except CheckFailed as e:
                got = str(e)
            assert got == want, (R.name, t)
            seen.add(want)
    assert seen == {None, "B is not an A-module", "C is not an A-module",
                    "pairing compatibility fails on B",
                    "pairing compatibility fails on C", "pairing is not A-bilinear"}


def _reduced_tables_loop(A):
    """act_b and pairing of `reduced_residue_gma` by the per-code loops it
    replaced: one field product and one digit expansion per entry."""
    fq, f, p = A.fq, A.fq.f, A.p

    def encode(digits):
        return sum(int(d) % p * p ** i for i, d in enumerate(digits))

    def digits(k):
        return [k // p ** i % p for i in range(f)]

    unit = [encode(np.eye(f, dtype=np.int64)[k]) for k in range(f)]
    act = np.zeros((A.dim, f, f), dtype=np.int64)
    for i in range(A.dim):
        code = encode(A.proj @ np.eye(A.dim, dtype=np.int64)[i] % p)
        for k in range(f):
            act[i, k] = digits(fq.mul(code, unit[k]))
    power = FpSubspace(p, A.dim, [A.one])
    for _ in range(A.nilpotency - 1):
        power = FpSubspace(p, A.dim, [A.mul_vec(x, m) for x in power.basis
                                      for m in A.maxideal.basis])
    z = power.basis[0] if power.dim else A.one
    pairing = np.zeros((f, f, A.dim), dtype=np.int64)
    for k in range(f):
        for l in range(f):
            pairing[k, l] = A.mul_vec(A.constant(fq.mul(unit[k], unit[l])), z)
    return act, pairing


@pytest.mark.parametrize("q, k", [(3, 3), (9, 2), (25, 2)])
def test_reduced_residue_gma_matches_the_loops(q, k):
    A = make_truncated_poly_ring(q, k)
    R = reduced_residue_gma(A)
    act, pairing = _reduced_tables_loop(A)
    assert np.array_equal(R.act_b, act) and np.array_equal(R.act_c, act)
    assert np.array_equal(R.pairing, pairing)


def _mul_tensor_by_products(R):
    """The structure tensor from the displayed rule on every ordered pair of
    basis vectors (`batch_mul` contracts with the tensor itself)."""
    D = R.dim
    E = np.eye(D, dtype=np.int64)
    return _component_rule(R, np.repeat(E, D, axis=0), np.tile(E, (D, 1))).reshape(D, D, D)


@pytest.mark.parametrize("q, k", [(3, 4), (9, 3), (5, 3)])
def test_mul_tensor_blocks_equal_the_basis_products(q, k):
    A = make_truncated_poly_ring(q, k)
    for R in (m2_structure(A), reduced_residue_gma(A)):
        assert np.array_equal(R.mul_tensor, _mul_tensor_by_products(R)), R.name


def _radical_rows_by_loop(R):
    """The rows `radical` spans, with one `module_act` call per basis row of
    B and C (the loop before it took the identity block whole), and the
    number of scaling vectors."""
    from pinkforge.gma import _lift_block
    from pinkforge.localring import SemiLocalRing
    A = R.A
    factors = A.factors if isinstance(A, SemiLocalRing) else [A]
    rows, n_scale = [], 0
    za, zb, zc = (np.zeros(n, dtype=np.int64) for n in (R.da, R.db, R.dc))
    for i, (fac, tag) in enumerate(zip(factors, R.radical_profile())):
        if isinstance(A, SemiLocalRing):
            mrows = [_lift_block(r, A.offsets[i], A.dim) for r in fac.maxideal.basis]
            onei = _lift_block(fac.one, A.offsets[i], A.dim)
        else:
            mrows, onei = list(fac.maxideal.basis), fac.one
        for mr in mrows:
            rows.append(R.assemble(mr, zb, zc, za))
            rows.append(R.assemble(za, zb, zc, mr))
        for s in (mrows if tag == "matrix" else [onei]):
            n_scale += 1
            rows.extend(R.assemble(za, R.module_act(s, b[None, :], "b")[0], zc, za)
                        for b in np.eye(R.db, dtype=np.int64))
            rows.extend(R.assemble(za, zb, R.module_act(s, c[None, :], "c")[0], za)
                        for c in np.eye(R.dc, dtype=np.int64))
    return rows, n_scale


def _full_antidiag_rows_by_loop(R, ideal_vectors):
    """`instances.full_antidiag_rows` with one `module_act` call per basis row."""
    rows = []
    za, zb, zc = (np.zeros(n, dtype=np.int64) for n in (R.da, R.db, R.dc))
    for a in ideal_vectors:
        for e in np.eye(R.db, dtype=np.int64):
            rows.append(R.assemble(za, R.module_act(a, e[None, :], "b")[0], zc, za))
        for e in np.eye(R.dc, dtype=np.int64):
            rows.append(R.assemble(za, zb, R.module_act(a, e[None, :], "c")[0], za))
    return rows


def _row_list_structures():
    from pinkforge.localring import SemiLocalRing
    return [m2_structure(make_truncated_poly_ring(3, 3)),
            m2_structure(make_truncated_poly_ring(9, 2)),
            reduced_residue_gma(make_truncated_poly_ring(3, 3)),
            reduced_residue_gma(make_truncated_poly_ring(25, 2)),
            m2_structure(SemiLocalRing([make_truncated_poly_ring(3, 2),
                                        make_truncated_poly_ring(3, 1)])),
            m2_structure(SemiLocalRing([make_truncated_poly_ring(5, 2),
                                        make_truncated_poly_ring(25, 2)]))]


def _count_module_act(monkeypatch, R):
    calls = []
    act = R.module_act

    def counted(a, M, which):
        calls.append(len(np.atleast_2d(M)))
        return act(a, M, which)
    monkeypatch.setattr(R, "module_act", counted)
    return calls


@pytest.mark.parametrize("i", range(6))
def test_radical_rows_equal_the_one_row_loop(monkeypatch, i):
    from pinkforge import gma
    R = _row_list_structures()[i]
    want, n_scale = _radical_rows_by_loop(R)
    spanned = []
    subspace = gma.FpSubspace

    def recorded(p, n, vectors=()):
        spanned.append(list(vectors))
        return subspace(p, n, vectors)
    monkeypatch.setattr(gma, "FpSubspace", recorded)
    calls = _count_module_act(monkeypatch, R)
    rad = R.radical()
    got = spanned[-1]
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
    assert rad == FpSubspace(R.p, R.dim, want)
    assert len(calls) <= 2 * n_scale


@pytest.mark.parametrize("i", range(6))
def test_full_antidiag_rows_equal_the_one_row_loop(monkeypatch, i):
    from pinkforge.instances import full_antidiag_rows, ideal_block_rows
    from pinkforge.localring import SemiLocalRing
    R = _row_list_structures()[i]
    A = R.A
    ideal = A.radical.basis if isinstance(A, SemiLocalRing) else A.maxideal.basis
    for vectors in ([A.one], list(ideal)):
        want = _full_antidiag_rows_by_loop(R, vectors)
        got = full_antidiag_rows(R, vectors)
        assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
        calls = _count_module_act(monkeypatch, R)
        ideal_block_rows(R, vectors)
        assert len(calls) <= 2 * len(vectors)
        monkeypatch.undo()
