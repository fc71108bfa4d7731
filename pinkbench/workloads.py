"""The benchmark's workloads: their operations, warm-ups and output checks.

Each operation runs a `pink` subcommand in process through
`pinkforge.cli.main`, or calls one public library function, on fixed
inputs.  Each check judges an output against `reference` (computed apart
from pinkforge) or against a property the mathematics guarantees, never
against a saved copy of an earlier output.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

# h of the p = 3 example lifted to F_9[X]/(X^3), then J, then diag(zeta, zeta^-1).
F9_GENS = ("[[1,0,0,0,1,0,0,0,1,0,0,0,0,0,2,0,0,0,1,0,0,0,1,0],"
           "[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0],"
           "[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,1,0,0,0,0]]")
GF2_POWERS = (3, 5, 7, 9, 11)
GF2_X = 2_000_000
DENSE_PRIMES = (3, 5, 7)
DENSE_X = 1_000_000
BIG_P = 65521
PRODUCT_DEG = 200_000


class Wrong(Exception):
    """An output that fails its check."""


def expect(cond, why):
    if not cond:
        raise Wrong(why)


@dataclass
class Op:
    name: str
    run: object            # () -> output
    check: object          # output -> None, raises Wrong


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list                          # untimed callables run once in set-up
    known_fault: str = None               # op whose failure is a named, counted fault
    facts: dict = field(default_factory=dict)


def run_cli(argv):
    """`pink <argv>` in process; returns (exit code, stdout text)."""
    import pinkforge.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pinkforge.cli.main(argv)
    return rc, out.getvalue()


def digest(output):
    """Fingerprint of an output, so that equal outputs are checked once."""
    h = hashlib.sha256()
    if isinstance(output, tuple):
        h.update(repr(output).encode())
    elif output.p == 2:
        h.update(b"2 %d " % output.deg + output.bits.to_bytes(output.deg // 8 + 1, "little"))
    else:
        h.update(b"%d %d " % (output.p, output.deg) + output.coef.tobytes())
    return h.hexdigest()


def _report(output):
    rc, text = output
    expect(rc == 0, f"exit code {rc}")
    return json.loads(text)


def _frac(d):
    return Fraction(d["num"], d["den"])


def _check_measure(m, p, group_order, gamma_order, forms):
    bound = _frac(m["bound"])
    expect(bound == ref.measure_bound(p, group_order, gamma_order),
           f"measure bound {bound} is not (p-1)/(p|Gbar|)")
    expect(not m["vacuous"] and m["forms"] > 0, "measure check is vacuous")
    expect(_frac(m["min"]) >= bound and m["passed"], "measure minimum below the bound")
    expect(m["forms"] == forms, f"{m['forms']} forms, expected {forms}")


# -- lie_example ------------------------------------------------------------------

def _check_example8(p, k):
    def check(output):
        r = _report(output)
        gamma, order, dim_l = r["gamma_order"], r["group_order"], r["dim_L"][0]
        expect(gamma == p ** dim_l, f"|Gamma| = {gamma} is not p^dim L = {p}^{dim_l}")
        expect(order == 2 * gamma, f"|G| = {order} is not 2|Gamma|")
        expect(dim_l == (k - 1) + k // 2, f"dim L = {dim_l} is not (k-1) + k//2")
        _check_measure(r["measure"], p, order, gamma,
                       forms=p ** k - p ** (k - len(r["A_ess"])))
        expect(all(r["checks"].values()), f"report checks {r['checks']}")
    return check


def _check_analyze_f9(output):
    r = _report(output)
    p, q, k = 3, 9, 3
    gamma, order, dim_l = r["gamma_order"], r["group_order"], r["dim_L"][0]
    expect(r["generators"] == json.loads(F9_GENS), "generators not echoed")
    expect(gamma == p ** dim_l, f"|Gamma| = {gamma} is not p^dim L")
    expect(order % gamma == 0, "|Gamma| does not divide |G|")
    rank = ref.fq_rank(r["A_ess"], p, r["ring"]["q_poly"]) if r["A_ess"] else 0
    _check_measure(r["measure"], p, order, gamma, forms=q ** k - q ** (k - rank))


def lie_example(seed):
    ops = [
        Op("example8_p3_k6", lambda: run_cli(["example8", "--p", "3", "--k", "6"]),
           _check_example8(3, 6)),
        Op("example8_p5_k4", lambda: run_cli(["example8", "--p", "5", "--k", "4"]),
           _check_example8(5, 4)),
        Op("analyze_q9_k3", lambda: run_cli(["analyze", "--q", "9", "--k", "3", "--gens", F9_GENS]),
           _check_analyze_f9),
    ]
    warmup = [lambda: run_cli(["example8", "--p", "3", "--k", "3"]),
              lambda: run_cli(["analyze", "--q", "3", "--k", "3", "--gens-preset", "example8"])]
    return Workload("lie_example", _shuffled(ops, seed), warmup)


# -- verify_battery -----------------------------------------------------------------

def _check_verify(seed):
    def check(output):
        r = _report(output)
        checks = r["checks"]
        expect(r["config"]["seed"] == seed, "seed not echoed")
        expect(r["passed"] and all(c["passed"] for c in checks.values()),
               f"failed checks {[n for n, c in checks.items() if not c['passed']]}")
        conv = checks["converse_theorem"]["details"]
        expect(conv["order"] == 3 ** 9 and conv["series_dims"] == [9, 6, 3, 0],
               f"converse group {conv}")
        fam = checks["example_family"]["details"]
        for k in (2, 3, 4):
            d = fam[f"k={k}"]
            expect(d["dim_L"] == (k - 1) + k // 2 and d["gamma"] == 3 ** d["dim_L"],
                   f"example family at k={k}: {d}")
        series = checks["central_series_match"]["details"]
        expect(len(series) == 20 and all(d["series_agree"] and d["gamma_is_full_preimage"]
                                         for d in series), "central series groups")
        for name, counts in checks["theta_identities"]["details"].items():
            expect(not any(counts.values()), f"theta identities on {name}: {counts}")
    return check


def verify_battery(seed):
    ops = [Op("verify", lambda: run_cli(["verify", "--seed", str(seed)]), _check_verify(seed))]
    warmup = [lambda: run_cli(["example8", "--p", "3", "--k", "3"]),
              lambda: run_cli(["density", "--p", "2", "--form", "delta", "--X", "1000"])]
    return Workload("verify_battery", ops, warmup)


# -- density checks shared by both forms workloads --------------------------------------

class _Refs:
    """Reference series and primes, built on first use and kept for the run."""

    def __init__(self):
        self._cache = {}

    def get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def primes(self, X):
        return self.get(("primes", X), lambda: ref.primes_upto(X))


def _check_density(refs, p, form, X, coeffs):
    def check(output):
        r = _report(output)
        rep = r["report"]
        expect(r["config"]["p"] == p and r["config"]["form"] == form and rep["X"] == X,
               "config not echoed")
        rows = ref.density_counts(coeffs(), refs.primes(X), p, X)
        got = [(c["X"], c["counted"], c["total"]) for c in rep["checkpoints"]]
        expect(got == rows, f"checkpoints {got} != recount {rows}")
        expect((rep["counted"], rep["total_primes"]) == rows[-1][1:],
               f"counted/total {rep['counted']}/{rep['total_primes']} != {rows[-1][1:]}")
        expect(rep["estimate"] == rows[-1][1] / rows[-1][2], "estimate")
    return check


def forms_gf2(seed):
    refs = _Refs()
    ops = []
    for n in GF2_POWERS:
        form = f"delta^{n}"
        coeffs = (lambda n=n: refs.get(("gf2", n), lambda: ref.delta_power_mod2(n, GF2_X)))
        ops.append(Op(f"density_p2_delta{n}",
                      lambda form=form: run_cli(["density", "--p", "2", "--form", form,
                                                 "--X", str(GF2_X)]),
                      _check_density(refs, 2, form, GF2_X, coeffs)))
    warmup = [lambda: run_cli(["density", "--p", "2", "--form", "delta^3", "--X", "20000"])]
    return Workload("forms_gf2", _shuffled(ops, seed), warmup)


# -- forms_dense ------------------------------------------------------------------------

def _delta_mod_p(refs, p):
    def build():
        a = ref.delta_mod_p(p, DENSE_X)
        bad = ref.hecke_violations(a, p)
        if bad:
            raise RuntimeError(f"reference Delta mod {p} breaks {bad} Hecke relations")
        return a
    return lambda: refs.get(("delta", p), build)


def _check_delta_big(output):
    expect(output.p == BIG_P and output.deg == DENSE_X, "wrong prime or degree")
    bad = ref.hecke_violations(output.coef, BIG_P)
    expect(bad == 0, f"{bad} Hecke relations violated by Delta mod {BIG_P}")


def _check_product(output):
    expect(output.p == 2 and output.deg == PRODUCT_DEG, "wrong prime or degree")
    want = ref.delta_power_mod2(8, PRODUCT_DEG)
    wrong = int((ref.int_to_bits(output.bits, PRODUCT_DEG) != want).sum())
    expect(wrong == 0, f"Delta^3·Delta^5 differs from sum q^(8m²) at {wrong} coefficients")


def forms_dense(seed):
    from pinkforge import modforms
    refs = _Refs()
    d3, d5 = (modforms.FpSeries(2, PRODUCT_DEG,
                                bits=ref.bits_to_int(ref.delta_power_mod2(n, PRODUCT_DEG)))
              for n in (3, 5))
    ops = [Op(f"density_p{p}_delta",
              lambda p=p: run_cli(["density", "--p", str(p), "--form", "delta",
                                   "--X", str(DENSE_X)]),
              _check_density(refs, p, "delta", DENSE_X, _delta_mod_p(refs, p)))
           for p in DENSE_PRIMES]
    ops.append(Op(f"delta_expansion_p{BIG_P}",
                  lambda: modforms.delta_expansion(BIG_P, DENSE_X), _check_delta_big))
    ops.append(Op("series_mul_gf2_dense", lambda: modforms.series_mul(d3, d5), _check_product))
    ones = modforms.FpSeries(2, 20000, bits=(1 << 20001) - 1)
    warmup = [lambda: run_cli(["density", "--p", "3", "--form", "delta", "--X", "20000"]),
              lambda: modforms.delta_expansion(BIG_P, 20000),
              lambda: modforms.series_mul(ones, ones)]
    facts = {"popcount_delta3": d3.bits.bit_count(), "popcount_delta5": d5.bits.bit_count()}
    return Workload("forms_dense", _shuffled(ops, seed), warmup,
                    known_fault=f"delta_expansion_p{BIG_P}", facts=facts)


def _shuffled(ops, seed):
    """The seed fixes the order of the operations in every pass of a run."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "lie_example": lie_example,
    "verify_battery": verify_battery,
    "forms_gf2": forms_gf2,
    "forms_dense": forms_dense,
}

# The parts of the calibration unit (calibrate.py) that scale each workload's
# times: those whose slowdowns in a slow period match the workload's own.
UNIT_PARTS = {
    "lie_example": ("python",),             # group closure, dicts and row keys in Python
    "verify_battery": ("python",),          # many small structures, per-call overhead
    "forms_gf2": ("numpy",),                # numpy shift-XOR products and sieves
    "forms_dense": ("python", "numpy"),     # FFT products and big-integer GF(2) products
}

# Every operation name of every workload, in a fixed order: the traced run
# reports op.<name>.s for each, 0 where its workload does not run it.
OP_NAMES = (["example8_p3_k6", "example8_p5_k4", "analyze_q9_k3", "verify"]
            + [f"density_p2_delta{n}" for n in GF2_POWERS]
            + [f"density_p{p}_delta" for p in DENSE_PRIMES]
            + [f"delta_expansion_p{BIG_P}", "series_mul_gf2_dense"])
