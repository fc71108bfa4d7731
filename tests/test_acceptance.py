"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured quantities.  Tolerances are pinned here and nowhere else.

Convergence note for the density criteria: the sweep itself serves as the
oracle at X = 1e5 and 1e6 before the tolerance is applied at 2e6; the
checkpoint values are asserted to be inside the same window, which records
the convergence trail in the test output.
"""

import time

from pinkforge.cli import VERIFY_CHECKS, _lie_report
from pinkforge.instances import structure_parameter_sets
from pinkforge.modforms import (
    delta_expansion,
    density_sweep,
    hecke_T,
    hecke_span,
    nilpotency_check,
    series_pow,
)
from pinkforge.pinklie import essential_not_ideal_witness, structure_round_trip

CHECKS = dict(VERIFY_CHECKS)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_density_table(delta_powers_2m):
    """|estimate - table value| <= 0.02 at X = 2e6 for Delta^3, ^9, ^11."""
    t0 = time.time()
    targets = {3: 0.25, 9: 0.125, 11: 0.125}
    tol = 0.02
    lines = []
    ok = True
    for n, target in targets.items():
        rep = density_sweep(delta_powers_2m[n], 2_000_000)
        # convergence trail: the 1e6-checkpoint (and the quarter points)
        # must already sit inside the window
        cp = {c[0]: c[3] for c in rep.checkpoints}
        ok_n = abs(rep.estimate - target) <= tol and abs(cp[1_000_000] - target) <= tol
        ok = ok and ok_n
        lines.append(f"Delta^{n}: {rep.estimate:.5f} (target {target}, "
                     f"1e6 checkpoint {cp[1_000_000]:.5f})")
    report("criterion 1 (density table)",
           ok, "; ".join(lines) + f"; {time.time() - t0:.1f}s")


def test_criterion_2_delta_mod2_support():
    """Support of Delta mod 2 to 1e5 equals the odd squares, under 1 s."""
    t0 = time.time()
    d = delta_expansion(2, 100_000)
    got = set(d.support())
    want = {n * n for n in range(1, 317, 2)}
    dt = time.time() - t0
    report("criterion 2 (Delta mod 2 support)",
           got == want and dt < 1.0, f"{len(got)} odd squares, {dt:.3f}s")


def test_criterion_3_formula_battery():
    """Six theta/trace identities, >= 1000 tuples each, three structures,
    zero violations, under 10 s: `pink verify`'s theta_identities check at
    seed 2026."""
    t0 = time.time()
    ok, details = CHECKS["theta_identities"](2026)
    total_viol = sum(sum(res.values()) for res in details.values())
    identities = {len(res) for res in details.values()}
    dt = time.time() - t0
    report("criterion 3 (theta identity battery)",
           ok and total_viol == 0 and identities == {6} and dt < 10.0,
           f"{len(details)} structures x 6 identities x 1000 tuples, "
           f"{total_viol} violations, {dt:.1f}s")


def test_criterion_4_central_series_agreement():
    """20 seeded generator sets over rings of dim <= 5: the group central
    series equals theta^{-1} of the Lie derived series from n = 2,
    element for element, under 1 min: `pink verify`'s central_series_match
    check at seed 424242."""
    t0 = time.time()
    ok, details = CHECKS["central_series_match"](424242)
    agreed = sum(d["series_agree"] for d in details)
    dt = time.time() - t0
    report("criterion 4 (central series = Lie series)",
           ok and agreed == 20 and dt < 60.0,
           f"{agreed} seeded generator sets, exact agreement n = 2..4, {dt:.1f}s")


def test_criterion_5_converse_theorem():
    """For the ideal block of (X) over F3[X]/(X^4): theta^{-1}(L) is a group
    of size exactly 3^9, recomputing its Lie algebra returns L, and the
    series follows the ideal-power pattern 3·(4-n): `pink verify`'s
    converse_theorem check."""
    t0 = time.time()
    ok, details = CHECKS["converse_theorem"](0)
    dt = time.time() - t0
    report("criterion 5 (converse theorem, ideal block)",
           ok, f"|H| = {details['order']} = 3^9, L recovered, "
               f"series dims {details['series_dims']}, {dt:.1f}s")


def test_criterion_6_example_family(example_family):
    """k = 2..6: exact Lie shape; no congruence subgroup for k >= 4
    (exhaustive over the ideals (X^j)); at k = 6 the essential module is
    not an ideal, with an explicit witness."""
    t0 = time.time()
    ok = True
    lines = []
    reports = {}
    for k in (2, 3, 4, 5, 6):
        ex = example_family[k]
        lie = reports[k] = _lie_report(ex.G, ex.Gamma, ex.L)
        cong = (lie["congruence_subgroup"], lie["congruence_witness"])
        ok_k = ex.L_matches and ex.relations_ok
        if k >= 4:
            ok_k = ok_k and cong == (False, None)
        lines.append(f"k={k}: dim L={ex.L.dim} shape={ex.L_matches}"
                     + (f" congruence={cong[0]}" if k >= 4 else ""))
        ok = ok and ok_k
    ex6 = example_family[6]
    A_ess = reports[6]["A_ess"]
    wit = essential_not_ideal_witness(ex6.ring, A_ess)
    ok = ok and wit is not None
    if wit is not None:
        x, a = wit
        ok = ok and A_ess.contains(x) and not A_ess.contains(ex6.ring.mul_vec(a, x))
        lines.append(f"k=6 witness: x={ex6.ring.format_vec(x)}, a={ex6.ring.format_vec(a)}")
    dt = time.time() - t0
    report("criterion 6 (two-generator example family)",
           ok and dt < 120.0, "; ".join(lines) + f"; {dt:.1f}s")


def test_criterion_7_key_measure(example_family):
    """k in {4, 6}: every F_3-linear form nonzero on the essential module
    counts at least a (p-1)/(2p) = 1/3 fraction of nonzero traces over G,
    exactly and with zero exceptions."""
    t0 = time.time()
    ok = True
    lines = []
    for k in (4, 6):
        ex = example_family[k]
        m = _lie_report(ex.G, ex.Gamma, ex.L)["measure"]
        ok_k = m["passed"] and not m["vacuous"] and m["forms"] > 0
        ok = ok and ok_k
        lines.append(f"k={k}: min {m['min']} >= bound {m['bound']} over {m['forms']} forms")
    dt = time.time() - t0
    report("criterion 7 (key measure bound)", ok, "; ".join(lines) + f"; {dt:.1f}s")


def test_criterion_8_structure_round_trips():
    """>= 5 parameter sets per structure class: building the group from the
    Lie data and recomputing recovers the data exactly, and the induced
    pseudo-representation is admissible."""
    t0 = time.time()
    counts = {}
    ok = True
    for cls, build in structure_parameter_sets():
        data = build()
        rep = structure_round_trip(cls, data["R"], data["lie_rows"], data["gbar"])
        this = rep["lie_recovered"] and rep["admissible"]
        ok = ok and this
        counts[cls] = counts.get(cls, 0) + 1
    ok = ok and all(v >= 5 for v in counts.values())
    dt = time.time() - t0
    report("criterion 8 (structure-theorem round trips)",
           ok, f"counts per class {counts}, all recovered + admissible, {dt:.1f}s")


def test_criterion_9_hecke_consistency(rng):
    """a_1(T_ell f) = a_ell(f) and commutativity on 200 random cases; the
    span of Delta^3 under T_3, T_5 is commuting nilpotent at lambda = 0."""
    t0 = time.time()
    count = 0
    ok = True
    for p in (2, 3):
        primes = [ell for ell in (3, 5, 7, 11, 13) if ell != p]
        base = delta_expansion(p, 30000)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            f = series_pow(base, n)
            ell = primes[int(rng.integers(0, len(primes)))]
            k_eff = int(rng.integers(0, max(1, p - 1)))
            ok = ok and (hecke_T(ell, k_eff, f).coeff(1) == f.coeff(ell))
            count += 1
        f = series_pow(base, 3)
        for (l1, l2) in ((3, 5), (5, 7)) if p == 2 else ((5, 7), (7, 11)):
            ok = ok and (hecke_T(l2, 0, hecke_T(l1, 0, f))
                         == hecke_T(l1, 0, hecke_T(l2, 0, f)))
    span = hecke_span(2, 3, [3, 5])
    M3, M5 = span.matrices[3], span.matrices[5]
    commute = not ((M3 @ M5 - M5 @ M3) % 2).any()
    k3, _ = nilpotency_check(span, 3, 0)
    k5, _ = nilpotency_check(span, 5, 0)
    ok = ok and commute and k3 is not None and k5 is not None
    dt = time.time() - t0
    report("criterion 9 (Hecke consistency)",
           ok, f"{count} a_1 identities, commutativity, span dim {span.dim}, "
               f"nilpotency orders ({k3}, {k5}), {dt:.1f}s")
