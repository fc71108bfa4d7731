"""Named finite instances wired through the whole stack: constant matrix
subgroups over the residue field, Lie data for each structure class, and
the parameter sets the verification driver sweeps."""

import numpy as np

from .gma import GmaStructure, m2_structure, reduced_residue_gma
from .localring import make_truncated_poly_ring
from .pseudorep import FiniteMatrixGroup


def diagonal_gma(A):
    """The GMA [[A, 0], [0, A]] with zero modules."""
    da = A.dim
    act = np.zeros((da, 0, 0), dtype=np.int64)
    pairing = np.zeros((0, 0, da), dtype=np.int64)
    return GmaStructure(A, act, act, pairing, name="diag")


def const_diag(R, lam, mu):
    """Constant diagonal matrix diag(s(lam), s(mu))."""
    A = R.A
    return R.assemble(A.constant(lam), np.zeros(R.db, dtype=np.int64),
                      np.zeros(R.dc, dtype=np.int64), A.constant(mu))


def const_matrix(R, entries):
    """Entrywise constant lift of ((a, b), (c, d)) in F_q codes; needs the
    matrix presentation B = C = A."""
    A = R.A
    if R.db != A.dim or R.dc != A.dim:
        raise ValueError("full matrix constants need B = C = A")
    (a, b), (c, d) = entries
    return R.assemble(A.constant(a), A.constant(b), A.constant(c), A.constant(d))


def gl2_constants(R, gens):
    """Constant lifts of the group generated by F_q matrices (entries as
    codes), as rows in BFS order."""
    return FiniteMatrixGroup.generate(R, [const_matrix(R, g) for g in gens]).elements


def sl2_fp_constants(R):
    """Constant lifts of SL_2(F_p) inside an M2-presented structure."""
    return gl2_constants(R, [((1, 1), (0, 1)), ((1, 0), (1, 1))])


def gl2_fp_constants(R):
    return gl2_constants(R, [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (0, R.p - 1))])


def diag_group_constants(R, pairs):
    """Closure of constant diagonal matrices given as (lam, mu) code pairs."""
    return FiniteMatrixGroup.generate(R, [const_diag(R, l, m) for l, m in pairs]).elements


def dihedral_constants(R, lam_code):
    """Closure of diag(lam, lam^-1) and the antidiagonal [[0, 1],[1, 0]]."""
    fq = R.A.fq
    gens = [((lam_code, 0), (0, fq.inv(lam_code))), ((0, 1), (1, 0))]
    return gl2_constants(R, gens)


def klein_constants(R, lam=1):
    """Scalars, J, and the swap [[0,1],[lam,0]]: projective Klein group."""
    fq = R.A.fq
    gen = fq.generator()
    gens = [
        ((gen, 0), (0, gen)),                        # scalars
        ((1, 0), (0, fq.p - 1)),                     # J
        ((0, 1), (lam % fq.p, 0)),                   # swap
    ]
    return gl2_constants(R, gens)


# -- Lie data per structure class ----------------------------------------------

def monomial(A, j):
    f = A.fq_block[0] if A.fq_block else 1
    v = np.zeros(A.dim, dtype=np.int64)
    v[j * f] = 1
    return v


def diag_rows(R, a_vectors):
    za = np.zeros(R.db, dtype=np.int64)
    zc = np.zeros(R.dc, dtype=np.int64)
    return [R.assemble(a, za, zc, (-a) % R.p) for a in a_vectors]


def antidiag_rows(R, bc_pairs):
    za = np.zeros(R.A.dim, dtype=np.int64)
    return [R.assemble(za, b, c, za) for (b, c) in bc_pairs]


def full_antidiag_rows(R, ideal_vectors):
    """Antidiagonal block [[0, I·B],[I·C, 0]] spanning rows."""
    rows = []
    za = np.zeros(R.A.dim, dtype=np.int64)
    zb = np.zeros(R.db, dtype=np.int64)
    zc = np.zeros(R.dc, dtype=np.int64)
    eb, ec = np.eye(R.db, dtype=np.int64), np.eye(R.dc, dtype=np.int64)
    for a in ideal_vectors:
        rows.extend(R.assemble(za, b, zc, za) for b in R.module_act(a, eb, "b"))
        rows.extend(R.assemble(za, zb, c, za) for c in R.module_act(a, ec, "c"))
    return rows


def ideal_block_rows(R, ideal_vectors):
    """[[I, I·B],[I·C, I]]^0 spanning rows (the congruence Lie block)."""
    return diag_rows(R, list(ideal_vectors)) + full_antidiag_rows(R, ideal_vectors)


def component_block_rows(R, vectors):
    """[[V, V],[V, V]]^0 for an F_p-subspace V of A, placing the same
    vectors in each matrix position; needs B = C = A."""
    if R.db != R.A.dim or R.dc != R.A.dim:
        raise ValueError("component blocks need the matrix presentation")
    za = np.zeros(R.A.dim, dtype=np.int64)
    rows = diag_rows(R, list(vectors))
    for v in vectors:
        rows.append(R.assemble(za, v, za, za))
        rows.append(R.assemble(za, za, v, za))
    return rows


def structure_parameter_sets():
    """Named (class, builder) pairs; each builder returns a dict with keys
    R, lie_rows, gbar for build_group_from_lie."""
    sets = []

    def order2_sets():
        out = []
        # diagonal GMA, nabla = 0, over several truncated rings
        for (q, k, js) in (((3), 2, (1,)), (3, 3, (1,)), (5, 2, (1,)), (3, 4, (1, 3)), (7, 2, (1,))):
            def build(q=q, k=k, js=js):
                A = make_truncated_poly_ring(q, k)
                R = diagonal_gma(A)
                rows = diag_rows(R, [monomial(A, j) for j in js])
                gbar = diag_group_constants(R, [(1, A.p - 1)])
                return {"R": R, "lie_rows": rows, "gbar": gbar}
            out.append(("order2", build))
        # reduced module case: nabla nonzero inside [[0, F_q],[F_q, 0]]
        def build_red():
            A = make_truncated_poly_ring(3, 2)
            R = reduced_residue_gma(A)
            rows = diag_rows(R, [monomial(A, 1)]) + antidiag_rows(
                R, [(np.array([1]), np.array([1]))])
            gbar = diag_group_constants(R, [(1, 2)])
            return {"R": R, "lie_rows": rows, "gbar": gbar}
        out.append(("order2", build_red))
        return out

    def cyclic_sets():
        out = []
        for (q, k) in ((9, 2), (5, 2), (7, 2), (9, 3)):
            def build(q=q, k=k):
                A = make_truncated_poly_ring(q, k)
                R = diagonal_gma(A)
                rows = diag_rows(R, [m for m in A.maxideal.basis])
                gen = A.fq.generator()
                gbar = diag_group_constants(R, [(gen, 1)])
                return {"R": R, "lie_rows": rows, "gbar": gbar}
            out.append(("cyclic", build))
        def build_mod():
            A = make_truncated_poly_ring(9, 2)
            R = reduced_residue_gma(A)
            rows = (diag_rows(R, list(A.maxideal.basis))
                    + full_antidiag_rows(R, [A.one]))
            gen = A.fq.generator()
            gbar = diag_group_constants(R, [(gen, 1)])
            return {"R": R, "lie_rows": rows, "gbar": gbar}
        out.append(("cyclic", build_mod))
        return out

    def klein_sets():
        out = []
        for (p, k) in ((3, 2), (3, 3), (5, 2), (5, 3)):
            def build(p=p, k=k):
                A = make_truncated_poly_ring(p, k)
                R = m2_structure(A)
                rows = (diag_rows(R, list(A.maxideal.basis))
                        + full_antidiag_rows(R, list(A.maxideal.basis)))
                gbar = klein_constants(R, lam=1)
                return {"R": R, "lie_rows": rows, "gbar": gbar}
            out.append(("klein", build))
        def build_partial():
            A = make_truncated_poly_ring(3, 3)
            R = m2_structure(A)
            X, X2 = monomial(A, 1), monomial(A, 2)
            rows = diag_rows(R, [X]) + antidiag_rows(
                R, [(X, X), (X2, X2), (X2, (-X2) % 3)])
            gbar = klein_constants(R, lam=1)
            return {"R": R, "lie_rows": rows, "gbar": gbar}
        out.append(("klein", build_partial))
        return out

    def dihedral_sets():
        out = []
        def build_full(ring=(9, 2), lam_power=1):
            A = make_truncated_poly_ring(*ring)
            R = m2_structure(A)
            rows = (diag_rows(R, list(A.maxideal.basis))
                    + full_antidiag_rows(R, list(A.maxideal.basis)))
            gen = A.fq.generator()
            lam = A.fq.pow(gen, lam_power)
            gbar = dihedral_constants(R, lam)
            return {"R": R, "lie_rows": rows, "gbar": gbar}
        out.append(("dihedral", lambda: build_full((9, 2), 1)))   # projective D8
        out.append(("dihedral", lambda: build_full((9, 2), 2)))   # projective D4
        out.append(("dihedral", lambda: build_full((25, 2), 3)))  # p = 5
        def build_diag_only():
            A = make_truncated_poly_ring(9, 2)
            R = m2_structure(A)
            rows = diag_rows(R, list(A.maxideal.basis))
            gbar = dihedral_constants(R, A.fq.generator())
            return {"R": R, "lie_rows": rows, "gbar": gbar}
        out.append(("dihedral", build_diag_only))
        def build_anti_only():
            A = make_truncated_poly_ring(9, 2)
            R = m2_structure(A)
            rows = full_antidiag_rows(R, list(A.maxideal.basis))
            gbar = dihedral_constants(R, A.fq.generator())
            return {"R": R, "lie_rows": rows, "gbar": gbar}
        out.append(("dihedral", build_anti_only))
        return out

    def large_sets():
        out = []
        def build(ring, gbar_kind, i1="m"):
            def inner():
                A = make_truncated_poly_ring(*ring)
                R = m2_structure(A)
                if i1 == "m":
                    rows = ideal_block_rows(R, list(A.maxideal.basis))
                else:
                    # prime-subfield multiples of X in every matrix position:
                    # an F_p-form of the maximal-ideal block
                    rows = component_block_rows(R, [monomial(A, 1)])
                if gbar_kind == "sl2":
                    gbar = sl2_fp_constants(R)
                else:
                    gbar = gl2_fp_constants(R)
                return {"R": R, "lie_rows": rows, "gbar": gbar}
            return inner
        out.append(("large", build((3, 2), "gl2")))
        out.append(("large", build((3, 2), "sl2")))
        out.append(("large", build((3, 3), "sl2")))
        out.append(("large", build((5, 2), "sl2")))
        out.append(("large", build((9, 2), "sl2", i1="fp")))
        return out

    sets.extend(order2_sets())
    sets.extend(cyclic_sets())
    sets.extend(klein_sets())
    sets.extend(dihedral_sets())
    sets.extend(large_sets())
    return sets
