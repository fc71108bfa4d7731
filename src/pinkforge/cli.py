"""Batch command-line surface.

Subcommands:
  verify       run the full assertion battery on a configured instance family
  example8     the two-generator example over F_p[X]/(X^k), full report
  density      prime-coefficient density of a named form
  delta-power  write Delta^n mod p to a file (bit-packed / byte payload)
  cyclotomic   residue-class constancy sweep of a_ell
  span         Hecke-stable span of a named form with operator matrices
  analyze      Lie report for a generated matrix group over F_q[X]/(X^k)

All reports are JSON with sorted keys; identical configuration (including
the seed) produces identical bytes.  Exit codes, one per class of
`errors`: 0 pass, 1 a mathematical check failed (a false assertion in the
report, or `CheckFailed`), 2 usage error (argparse, or `InvalidInput`),
3 cap reached, undecided (`TooLarge`).
"""

import argparse
import json
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import CheckFailed, InvalidInput, TooLarge
from .fp import FpSubspace, new_rows, row_key, saturate
from .gma import m2_structure, m2_quotient_map, reduced_residue_gma
from .localring import (
    FiniteAlgebra,
    batch_sqrt_one_plus_m,
    check_tensor_size,
    factor_prime_power,
    is_prime,
    make_truncated_poly_ring,
)
from .modforms import (
    P_LIMIT,
    cyclotomic_test,
    delta_expansion,
    density_sweep,
    hecke_T,
    hecke_span,
    nilpotency_check,
    series_pow,
)
from .pinklie import (
    MAX_FORMS,
    LieSubspace,
    batch_theta,
    batch_theta_inv,
    decompose,
    descending_series,
    essential_data,
    essential_not_ideal_witness,
    example8,
    example8_generators,
    generate_group,
    group_series,
    is_congruence_subgroup,
    key_measure_check,
    lie_of_subgroup,
    measure_change_psi,
    pink_converse,
    pink_formula_battery,
    random_rad0,
    star_quotient_checks,
    structure_round_trip,
    theta_star_morphism_check,
)
from .instances import structure_parameter_sets


def emit(report, out=None):
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out:
        write_out(out, (text + "\n").encode())
    else:
        print(text)


def write_out(path, data):
    """Write the bytes of an --out file; an unwritable path is a usage error."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InvalidInput(f"cannot write --out {path}: {exc.strerror}") from None


def _json_default(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, FpSubspace):
        return obj.basis.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


# -- argument types --------------------------------------------------------------

def prime(text):
    """--p: a prime below 2^31, where series coefficients stay exact."""
    p = int(text)
    if p >= P_LIMIT or not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not a prime below 2^31")
    return p


def odd_prime_power(text):
    """--q: a power of an odd prime (theta divides by 2)."""
    q = int(text)
    pf = factor_prime_power(q)
    if pf is None or pf[0] == 2:
        raise argparse.ArgumentTypeError(f"{q} is not a power of an odd prime")
    return q


def prime_list(text):
    """--primes: comma-separated primes."""
    primes = [int(t) for t in text.split(",")]
    bad = [ell for ell in primes if not is_prime(ell)]
    if bad:
        raise argparse.ArgumentTypeError(f"{bad[0]} is not prime")
    return primes


def parse_gens(text, p, dim):
    """--gens: a JSON list of flat coordinate rows (a | b | c | d) of
    M_2(A), dim entries each, as an array mod p.  `cmd_analyze` tests that
    they are units once A exists."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        rows = None
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and len(r) == dim and all(type(x) is int for x in r)
            for r in rows)):
        raise InvalidInput(f"--gens must be a JSON list of rows of {dim} integers")
    return np.array([[x % p for x in r] for r in rows], dtype=np.int64).reshape(-1, dim)


def at_least(lo):
    """An integer argument type that rejects values below lo."""
    def count(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"{text} is below {lo}")
        return int(text)
    return count


_FORM = re.compile(r"delta(\^(\d+))?")


def form(text):
    """--form: 'delta' or 'delta^N'; the text itself is kept for the report."""
    if not _FORM.fullmatch(text.strip().lower()):
        raise argparse.ArgumentTypeError(f"unknown form {text!r}; expected delta or delta^N")
    return text


def form_power(name):
    """'delta^N' -> N, 'delta' -> 1."""
    n = _FORM.fullmatch(name.strip().lower()).group(2)
    return 1 if n is None else int(n)


# -- verify battery ---------------------------------------------------------------

def _check_ring_axioms(seed):
    """F_q[X]/(X^k) is a ring: associativity and distributivity on 200
    seeded triples, the units are exactly the complement of m, and each
    element of 1 + m has exactly one square root in 1 + m (p odd, by
    exhaustion where |m| <= 3^5)."""
    rng = np.random.default_rng(seed)
    details = {}
    ok = True
    for (q, k) in ((3, 3), (9, 2), (5, 2), (3, 1)):
        A = make_truncated_poly_ring(q, k)
        X = rng.integers(0, A.p, size=(200, A.dim))
        Y = rng.integers(0, A.p, size=(200, A.dim))
        Z = rng.integers(0, A.p, size=(200, A.dim))
        assoc = np.array_equal(A.batch_mul(A.batch_mul(X, Y), Z),
                               A.batch_mul(X, A.batch_mul(Y, Z)))
        distr = np.array_equal(A.batch_mul(X, (Y + Z) % A.p),
                               (A.batch_mul(X, Y) + A.batch_mul(X, Z)) % A.p)
        # units are exactly the complement of the maximal ideal; the rank of
        # x's multiplication matrix decides a unit, as LocalRing's residue
        # shortcut never reads the tensor
        elems = A.elements(cap=10 ** 5)
        unit_mask = np.array([FiniteAlgebra.is_unit_vec(A, v) for v in elems])
        ideal_mask = np.array([A.maxideal.contains(v) for v in elems])
        units_ok = bool((unit_mask ^ ideal_mask).all())
        # square roots on 1+m: existence and uniqueness by exhaustion
        sq_ok = True
        if A.p > 2 and A.p ** A.maxideal.dim <= 3 ** 5:
            one_plus_m = (A.one + A.maxideal.enumerate()) % A.p
            squares = A.batch_mul(one_plus_m, one_plus_m)
            for x, y in zip(one_plus_m, batch_sqrt_one_plus_m(A, one_plus_m)):
                roots = one_plus_m[(squares == x).all(axis=1)]
                if len(roots) != 1 or not np.array_equal(roots[0], y):
                    sq_ok = False
        this = assoc and distr and units_ok and sq_ok
        details[f"F{q}[X]/(X^{k})"] = {"assoc": bool(assoc), "distr": bool(distr),
                                       "units_match_ideal": units_ok, "sqrt_unique": sq_ok}
        ok = ok and this
    return ok, details


def _battery_structures():
    A1 = make_truncated_poly_ring(3, 3)
    A2 = make_truncated_poly_ring(5, 2)
    A3 = make_truncated_poly_ring(3, 3)
    return [
        ("M2(F3[X]/(X^3))", m2_structure(A1)),
        ("M2(F5[eps])", m2_structure(A2)),
        ("reduced(F3[X]/(X^3))", reduced_residue_gma(A3)),
    ]


def _check_theta_identities(seed, n_tuples=1000, fault=None):
    """The six theta/trace identities of `pink_formula_battery` hold on
    n_tuples seeded tuples each, with zero violations, on M2(F3[X]/(X^3)),
    M2(F5[eps]) and the reduced GMA over F3[X]/(X^3).  fault="theta"
    corrupts theta, and the check must then fail."""
    details = {}
    ok = True
    for name, R in _battery_structures():
        theta_fn = None
        if fault == "theta":
            def theta_fn(X, R=R):
                out = batch_theta(R, X)
                out[:, 0] = (out[:, 0] + 1) % R.p   # corrupt the a-component
                return out
        res = pink_formula_battery(R, np.random.default_rng(seed), n=n_tuples,
                                   theta_fn=theta_fn)
        details[name] = res
        ok = ok and not any(res.values())
    return ok, details


def _central_series_seeds(seed):
    """Twenty seeded generator sets over rings of dimension <= 5, sized so
    that the generated groups stay exhaustively enumerable."""
    rings = [(3, 2, 2), (3, 3, 2), (5, 2, 2), (9, 2, 2), (7, 2, 2),
             (3, 4, 1), (5, 3, 1)]
    out = []
    rng = np.random.default_rng(seed)
    for i in range(20):
        q, k, ngens = rings[i % len(rings)]
        out.append((q, k, int(rng.integers(0, 2 ** 31)), ngens))
    return out


def _same_rows(X, Y, p):
    """Whether two arrays of distinct rows hold the same rows."""
    return np.array_equal(np.sort(row_key(X, p)), np.sort(row_key(Y, p)))


def _check_central_series(seed):
    """For twenty seeded generator sets in SR^1 over rings of dimension
    <= 5, the descending central series of the generated group Gamma equals
    theta^{-1} of the Lie series of L = span theta(Gamma), element for
    element, at n = 2, 3, 4.  Two generators are drawn only over rings with
    |m| <= 9, where Gamma lies in ker(SL_2(A) -> SL_2(A/m)) of order
    |m|^3 <= 729; one generator gives a cyclic group of order at most 25."""
    details = []
    ok = True
    for (q, k, s, ngens) in _central_series_seeds(seed):
        A = make_truncated_poly_ring(q, k)
        R = m2_structure(A)
        rng = np.random.default_rng(s)
        gens = batch_theta_inv(R, random_rad0(R, rng, ngens))
        G, _, L = generate_group(R, gens, cap=30000)
        gs = group_series(G, 4)
        ls = descending_series(L, 4)
        agree = all(_same_rows(batch_theta_inv(R, ls[n].enumerate(cap=10 ** 6)),
                               gs[n].elements, R.p) for n in range(1, 4))
        gamma_eq = G.n == R.p ** L.dim
        details.append({"ring": f"F{q}[X]/(X^{k})", "order": G.n,
                        "series_agree": agree, "gamma_is_full_preimage": gamma_eq})
        ok = ok and agree
    return ok, details


def _check_converse(seed):
    """The converse theorem on the ideal block of (X) over F3[X]/(X^4):
    H = theta^{-1}(L) is a group of order 3^9, the Lie algebra of H is L
    again, and its series has dimensions 9, 6, 3, 0.  The seed is unused."""
    A = make_truncated_poly_ring(3, 4)
    R = m2_structure(A)
    from .instances import component_block_rows
    rows = component_block_rows(R, list(A.maxideal.basis))
    L = LieSubspace(R, rows)
    H, P = pink_converse(L)
    LH = lie_of_subgroup(H)
    dims = [s.dim for s in descending_series(LH, 4)]
    ok = (H.n == 3 ** 9) and (LH == L) and dims == [9, 6, 3, 0]
    return ok, {"order": H.n, "series_dims": dims}


def _check_star_law(seed, ex):
    """On the k = 4 example ex, the star law is a group law on L/L_2 and
    theta is a morphism from Gamma to (L/L_2, *) on seeded samples."""
    L2 = descending_series(ex.L, 2)[1]
    ok1, _ = star_quotient_checks(ex.L, L2, cap=3 ** 3)
    ok2, _ = theta_star_morphism_check(ex.Gamma, ex.L, L2,
                                       rng=np.random.default_rng(seed))
    return ok1 and ok2, {"group_law": ok1, "morphism": ok2}


def _check_example_family(seed, ex):
    """The two-generator example at k = 2, 3 and at k = 4 (ex): L has the
    expected shape, J conjugates g and h as stated, the measure bound holds,
    and at k = 4 Gamma contains no congruence subgroup.  The seed is unused."""
    details = {}
    ok = True
    for k, ex in ((2, example8(3, 2)), (3, example8(3, 3)), (4, ex)):
        lie = _lie_report(ex.G, ex.Gamma, ex.L)
        measure_ok = lie["measure"]["passed"]
        d = {"gamma": ex.Gamma.n, "dim_L": ex.L.dim, "lie_shape": ex.L_matches,
             "relations": ex.relations_ok, "congruence": lie["congruence_subgroup"],
             "measure_ok": measure_ok}
        this = ex.L_matches and ex.relations_ok and measure_ok
        if k >= 4:
            this = this and not lie["congruence_subgroup"]
        details[f"k={k}"] = d
        ok = ok and this
    return ok, details


def _check_structure_round_trips(seed):
    """Structure theorems, on the smallest instance of each class: the group
    built from the Lie data gives back the same Lie algebra, and its
    pseudo-representation is admissible.  The seed is unused."""
    picks = {}
    for cls, build in structure_parameter_sets():
        picks.setdefault(cls, build)   # first (smallest) instance per class
    details = {}
    ok = True
    for cls, build in picks.items():
        data = build()
        rep = structure_round_trip(cls, data["R"], data["lie_rows"], data["gbar"])
        this = rep["lie_recovered"] and rep["admissible"]
        details[cls] = {"recovered": rep["lie_recovered"], "admissible": rep["admissible"],
                        "order": rep["group_order"]}
        ok = ok and this
    return ok, details


def _check_complements(seed, ex):
    """On the k = 4 example ex: tr(gamma)·L_n = L_n, theta carries
    Gamma_n-cosets to L_n-cosets inside Gamma_2, the series commutes with
    the truncation F3[X]/(X^4) -> F3[X]/(X^2), and P is the closed
    pseudo-ring generated by tr(gamma) - 2.  The seed is unused."""
    R, G, L = ex.R, ex.Gamma, ex.L
    series = descending_series(L, 4)
    traces = R.batch_trace(G.elements)
    ok_mult = True
    for t in traces[new_rows(row_key(traces, R.p))]:   # the check depends on tr(gamma) alone
        for Ln in series:
            scaled = FpSubspace(R.p, R.dim, R.ring_scale(t, Ln.basis))
            if not (scaled.dim == Ln.dim and Ln.contains(scaled.basis).all()):
                ok_mult = False
    # theta transports Gamma_n-cosets to L_n-cosets inside Gamma_2
    gs = group_series(G, 3)
    g2, g3 = gs[1], gs[2]
    L2, L3 = series[1], series[2]
    ok_coset = _same_rows(batch_theta(R, g2.elements), L2.enumerate(cap=10 ** 6), R.p)
    for i in range(min(g2.n, 8)):
        base = batch_theta(R, R.batch_mul_elem_left(g2.elements[i], g3.elements))
        want = (batch_theta(R, g2.elements[i][None, :])[0] + L3.enumerate(cap=10 ** 6)) % R.p
        ok_coset = ok_coset and _same_rows(want, base, R.p)
    # functoriality through truncation F3[X]/(X^4) -> F3[X]/(X^2)
    A = ex.ring
    xs = np.zeros(A.dim, dtype=np.int64)
    xs[2] = 1   # X^2 generates the truncation ideal
    Rq, apply = m2_quotient_map(R, [xs])
    Lq = generate_group(Rq, apply(np.array([ex.g, ex.h])))[2]
    ok_functo = True
    for n in range(4):
        pushed = FpSubspace(Rq.p, Rq.dim, apply(series[n].basis))
        target = descending_series(Lq, 4)[n]
        ok_functo = ok_functo and pushed == target.space
    # P equals the closed pseudo-ring generated by tr(gamma) - 2
    P = L.trace_pseudoring()
    A_ = R.A
    ok_pseudo = saturate(FpSubspace(R.p, A_.dim, (traces - 2 * A_.one) % R.p), A_.mul_tensor) == P
    ok = ok_mult and ok_coset and ok_functo and ok_pseudo
    return ok, {"trace_multiplication": ok_mult, "coset_transport": ok_coset,
                "functoriality": ok_functo, "pseudo_ring_description": ok_pseudo}


def _check_psi(seed, ex):
    """The measure change of variables Psi on the k = 4 example ex, at three
    seeded gamma in Gamma: Psi permutes L_2, h∘Psi^{-1} is affine, and the
    image of h is tr(J·gamma) + I_2 where that is decided."""
    L2 = descending_series(ex.L, 2)[1]
    rng = np.random.default_rng(seed)
    oks = []
    for _ in range(3):
        gamma = ex.Gamma.elements[int(rng.integers(0, ex.Gamma.n))]
        rep = measure_change_psi(ex.R, ex.L, L2, gamma)
        oks.append(rep["bijective"] and rep["affine"]
                   and rep["image_matches_trJg_plus_I2"] in (True, None))
    return all(oks), {"trials": len(oks)}


def _check_series_identities(seed):
    """Delta mod 2 to 10^5 is supported on the odd squares, Delta^3 =
    Delta(q^3) mod 3 (Frobenius), and a_1(T_3 f) = a_3(f) for f = Delta^5
    mod 2.  The seed is unused."""
    d = delta_expansion(2, 100000)
    supp_ok = set(d.support()) == {n * n for n in range(1, 317, 2)}
    d3 = delta_expansion(3, 64)
    frob = series_pow(d3, 3) == d3.dilate(3)
    f = series_pow(delta_expansion(2, 40000), 5)
    hecke_ok = hecke_T(3, 0, f).coeff(1) == f.coeff(3)
    return supp_ok and frob and hecke_ok, {
        "delta_mod2_support": supp_ok, "frobenius": bool(frob), "hecke_a1": hecke_ok}


# The one registry of checks: `pink verify` runs every entry in name order,
# and the acceptance tests call entries at pinned seeds.  Four entries take
# the k = 4 example as well, which `cmd_verify` builds once per run.
VERIFY_CHECKS = [
    ("ring_axioms", _check_ring_axioms),
    ("theta_identities", _check_theta_identities),
    ("central_series_match", _check_central_series),
    ("converse_theorem", _check_converse),
    ("star_law", _check_star_law),
    ("example_family", _check_example_family),
    ("structure_round_trips", _check_structure_round_trips),
    ("theory_complements", _check_complements),
    ("measure_change_of_variables", _check_psi),
    ("series_identities", _check_series_identities),
]


def cmd_verify(args):
    ex = example8(3, 4)
    extra = {"theta_identities": {"n_tuples": args.tuples, "fault": args.inject_fault},
             "star_law": {"ex": ex}, "example_family": {"ex": ex},
             "theory_complements": {"ex": ex}, "measure_change_of_variables": {"ex": ex}}
    results, seconds = {}, {}
    for name, fn in sorted(VERIFY_CHECKS):
        t0 = time.perf_counter()
        ok, details = fn(args.seed, **extra.get(name, {}))
        seconds[name] = time.perf_counter() - t0
        results[name] = {"passed": ok, "details": details}
    passed = all(r["passed"] for r in results.values())
    report = {
        "command": "verify",
        "version": __version__,
        "config": {"seed": args.seed, "tuples": args.tuples,
                   "inject_fault": args.inject_fault},
        "passed": passed,
        "checks": results,
    }
    emit(report, args.out)
    for name, r in results.items():
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] {name} ({seconds[name]:.2f} s)",
              file=sys.stderr)
    return 0 if passed else 1


def _lie_report(G, Gamma, L):
    """The keys the example8 and analyze reports share, for Gamma = G ∩ SR^1
    and its Lie algebra L: the dimensions of L's descending series, its
    decomposition, P = tr(L·L), the essential module, the congruence pair
    and the measure bound over G.  The one place a report computes them."""
    series = descending_series(L, 4)
    ess = essential_data(G, series[1])
    cong = is_congruence_subgroup(L)
    dec = decompose(L)
    measure = key_measure_check(G, ess.A_ess, Gamma.n)
    return {
        "dim_L": [s.dim for s in series],
        "decomposable": dec.decomposable,
        "strongly_decomposable": dec.strongly,
        "I1": dec.I1, "B1": dec.B1, "C1": dec.C1,
        "P": L.trace_pseudoring(),
        "A_ess": ess.A_ess,
        "weakly_odd": ess.weakly_odd,
        "congruence_subgroup": cong[0],
        "congruence_witness": cong[1],
        "measure": {"bound": measure.bound, "min": measure.min_measure,
                    "forms": measure.n_forms, "passed": measure.passed,
                    "vacuous": measure.vacuous},
    }


def cmd_example8(args):
    ex = example8(args.p, args.k, cap=args.cap)
    lie = _lie_report(ex.G, ex.Gamma, ex.L)
    wit = essential_not_ideal_witness(ex.ring, lie["A_ess"]) if lie["A_ess"].dim else None
    checks = {
        "conjugation_relations": ex.relations_ok,
        "lie_algebra_shape": ex.L_matches,
        "measure_bound": lie["measure"]["passed"],
    }
    report = {
        "command": "example8",
        "version": __version__,
        "config": {"p": args.p, "k": args.k, "cap": args.cap},
        "ring": ex.ring.descriptor(),
        "gamma_order": ex.Gamma.n,
        "group_order": ex.G.n,
        **lie,
        "essential_not_ideal_witness": None if wit is None else
            {"x": wit[0].tolist(), "a": wit[1].tolist()},
        "checks": checks,
    }
    emit(report, args.out)
    return 0 if all(checks.values()) else 1


def cmd_density(args):
    f = series_pow(delta_expansion(args.p, args.X), form_power(args.form))
    rep = density_sweep(f, args.X, Np=args.np)
    report = {
        "command": "density",
        "version": __version__,
        "config": {"p": args.p, "form": args.form, "X": args.X, "np": args.np},
        "report": rep.to_dict(),
    }
    emit(report, args.out)
    return 0


def cmd_delta_power(args):
    f = series_pow(delta_expansion(args.p, args.deg), args.n)
    header = f"{args.p} {args.deg}\n".encode()
    if args.p == 2:
        payload = f.bits.to_bytes(args.deg // 8 + 1, "little")
    else:
        width = 1 if args.p < 2 ** 8 else 2 if args.p < 2 ** 16 else 4
        payload = f.coeffs_array().astype(f"<u{width}").tobytes()
    write_out(args.out, header + payload)
    print(json.dumps({"command": "delta-power", "version": __version__,
                      "config": {"p": args.p, "n": args.n, "deg": args.deg},
                      "bytes": len(header) + len(payload), "out": args.out},
                     sort_keys=True))
    return 0


def cmd_cyclotomic(args):
    f = series_pow(delta_expansion(args.p, args.X), form_power(args.form))
    verdict, data = cyclotomic_test(f, args.M, args.X, Np=args.np or 1)
    report = {
        "command": "cyclotomic",
        "version": __version__,
        "config": {"p": args.p, "form": args.form, "M": args.M, "X": args.X},
        "cyclotomic": verdict,
        "table" if verdict else "violation": data if verdict else list(data),
    }
    emit(report, args.out)
    return 0


def cmd_span(args):
    primes = args.primes
    span = hecke_span(args.p, form_power(args.form), primes, max_dim=args.max_dim)
    nil = {}
    if args.p == 2:
        for ell in primes:
            order, _ = nilpotency_check(span, ell, 0)
            nil[str(ell)] = order
    report = {
        "command": "span",
        "version": __version__,
        "config": {"p": args.p, "form": args.form, "primes": primes,
                   "max_dim": args.max_dim},
        "dim": span.dim,
        "matrices": {str(ell): span.matrices[ell].tolist() for ell in primes},
        "nilpotency_order": nil,
    }
    emit(report, args.out)
    return 0


def cmd_analyze(args):
    p, f = factor_prime_power(args.q)
    check_tensor_size((f * args.k,) * 3)        # the ring build's own refusal comes first
    rows = None if args.gens_preset else parse_gens(args.gens, p, 4 * f * args.k)
    # the measure check enumerates the q^k forms on A: refuse before A is built
    if args.q ** args.k > MAX_FORMS:
        raise TooLarge("ring too large to enumerate")
    A = make_truncated_poly_ring(args.q, args.k)
    R = m2_structure(A)
    if rows is not None and not all(A.is_unit_vec(det) for det in R.batch_det(rows)):
        raise InvalidInput("--gens has a generator that is not invertible")
    gens = np.array([*example8_generators(R), R.J]) if rows is None else rows
    G, Gamma, L = generate_group(R, gens, cap=args.cap)
    lie = _lie_report(G, Gamma, L)
    from .pseudorep import classify_projective_image, residual_image_group
    try:
        residual_class = classify_projective_image(residual_image_group(G)).tag()
    except CheckFailed:
        residual_class = None
    report = {
        "command": "analyze",
        "version": __version__,
        "config": {"q": args.q, "k": args.k, "cap": args.cap,
                   "gens_preset": args.gens_preset},
        "generators": gens.tolist(),
        "ring": A.descriptor(),
        "residual_class": residual_class,
        "group_order": G.n,
        "gamma_order": Gamma.n,
        **lie,
    }
    emit(report, args.out)
    return 0 if lie["measure"]["passed"] else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="pink", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run the assertion battery")
    v.add_argument("--seed", type=at_least(0), default=0)
    v.add_argument("--tuples", type=at_least(1), default=1000)
    v.add_argument("--inject-fault", choices=["theta"], default=None,
                   help="test hook: corrupt a map and expect failure")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("example8", help="two-generator example report")
    e.add_argument("--p", type=prime, default=3)
    e.add_argument("--k", type=at_least(2), required=True)
    e.add_argument("--cap", type=at_least(1), default=2 * 10 ** 6)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_example8)

    d = sub.add_parser("density", help="prime-coefficient density sweep")
    d.add_argument("--p", type=prime, required=True)
    d.add_argument("--form", type=form, required=True, help="delta^N")
    d.add_argument("--X", type=at_least(1), required=True)
    d.add_argument("--np", type=at_least(1), default=None, help="level-characteristic product")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_density)

    dp = sub.add_parser("delta-power", help="write Delta^n mod p to a file")
    dp.add_argument("--p", type=prime, required=True)
    dp.add_argument("--n", type=at_least(0), required=True)
    dp.add_argument("--deg", type=at_least(1), required=True)
    dp.add_argument("--out", required=True)
    dp.set_defaults(fn=cmd_delta_power)

    c = sub.add_parser("cyclotomic", help="a_ell constancy mod M")
    c.add_argument("--p", type=prime, required=True)
    c.add_argument("--form", type=form, required=True)
    c.add_argument("--M", type=at_least(1), required=True)
    c.add_argument("--X", type=at_least(1), required=True)
    c.add_argument("--np", type=at_least(1), default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_cyclotomic)

    s = sub.add_parser("span", help="Hecke-stable span with matrices")
    s.add_argument("--p", type=prime, required=True)
    s.add_argument("--form", type=form, required=True)
    s.add_argument("--primes", type=prime_list, required=True, help="comma-separated")
    s.add_argument("--max-dim", type=at_least(1), default=64)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_span)

    a = sub.add_parser("analyze", help="Lie report for a generated group")
    a.add_argument("--q", type=odd_prime_power, required=True)
    a.add_argument("--k", type=at_least(1), required=True)
    a.add_argument("--gens", default=None, help="JSON list of flat coordinate rows")
    a.add_argument("--gens-preset", choices=["example8"], default=None)
    a.add_argument("--cap", type=at_least(1), default=2 * 10 ** 6)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_analyze)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "analyze" and not (args.gens or args.gens_preset):
        ap.error("analyze needs --gens or --gens-preset")
    if args.cmd == "analyze" and args.gens_preset == "example8" and not is_prime(args.q):
        ap.error("--gens-preset example8 is built over F_p and needs a prime --q")
    if args.cmd == "example8" and args.p == 2:
        ap.error("example8 needs an odd prime --p: theta divides by 2")
    if args.cmd in ("density", "cyclotomic") \
            and getattr(args, "M", 1) * (args.np or 1) * args.p >= 2 ** 63:
        ap.error("--np times --p (times --M) must be below 2^63: it is reduced mod each prime "
                 "in int64")
    try:
        return args.fn(args)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc} (cap reached, undecided)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
