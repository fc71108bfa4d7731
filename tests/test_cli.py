import io
import json
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from pinkforge.cli import main


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args,
                          capture_output=True, text=True)


def test_usage_error_exit_2():
    r = run_cli(["--definitely-not-a-flag"])
    assert r.returncode == 2
    r2 = run_cli(["density", "--p", "2"])      # missing required flags
    assert r2.returncode == 2


@pytest.mark.parametrize("args", [
    ["density", "--p", "4", "--form", "delta", "--X", "100"],
    ["density", "--p", "1", "--form", "delta", "--X", "100"],
    ["delta-power", "--p", "2147483648", "--n", "1", "--deg", "10", "--out", "{tmp}/d.bin"],
    ["cyclotomic", "--p", "4294967311", "--form", "delta", "--M", "4", "--X", "100"],
    ["span", "--p", "0", "--form", "delta", "--primes", "3"],
    ["density", "--p", "3", "--form", "eta", "--X", "100"],
    ["analyze", "--q", "9", "--k", "3", "--gens-preset", "example8"],
    ["density", "--p", "3", "--form", "delta", "--X", "0"],
    ["cyclotomic", "--p", "3", "--form", "delta", "--M", "4", "--X", "0"],
    ["cyclotomic", "--p", "3", "--form", "delta", "--M", "0", "--X", "100"],
    ["delta-power", "--p", "3", "--n", "1", "--deg", "0", "--out", "{tmp}/d.bin"],
    # span takes neither --deg nor --k-eff: n and the weight 12n come from --form
    ["span", "--p", "2", "--form", "delta", "--primes", "3", "--deg", "100"],
    ["example8", "--p", "3", "--k", "1"],
    ["example8", "--p", "2", "--k", "3"],
    ["density", "--p", "3", "--form", "delta", "--X", "100", "--out", "{tmp}/no/d.json"],
    ["example8", "--p", "3", "--k", "3", "--out", "{tmp}/no/e.json"],
    ["delta-power", "--p", "3", "--n", "1", "--deg", "10", "--out", "{tmp}/no/d.bin"],
    ["delta-power", "--p", "3", "--n", "-1", "--deg", "10", "--out", "{tmp}/d.bin"],
    ["analyze", "--q", "4", "--k", "2", "--gens", "[]"],
    ["analyze", "--q", "3", "--k", "0", "--gens", "[]"],
    ["analyze", "--q", "3", "--k", "1", "--gens", "[[1, 0]]"],
    ["analyze", "--q", "3", "--k", "1", "--gens", "{{}}"],
    ["analyze", "--q", "3", "--k", "1", "--gens", "[[0, 0, 0, 0]]"],
    ["span", "--p", "2", "--form", "delta", "--primes", "3,x"],
    ["span", "--p", "2", "--form", "delta", "--primes", "4"],
    ["verify", "--seed", "-1"],
    ["verify", "--tuples", "0"],
    ["example8", "--p", "3", "--k", "3", "--cap", "0"],
    ["analyze", "--q", "3", "--k", "2", "--gens", "[]", "--cap", "0"],
    # a malformed --gens is a usage error even on a ring over the cap
    ["analyze", "--q", "3", "--k", "13", "--gens", "[[1]]"],
    # M·Np·p, reduced mod each prime in int64, overflowed: an OverflowError
    # traceback and exit 1
    ["cyclotomic", "--p", "3", "--form", "delta", "--M", "10000000000000000000", "--X", "1000"],
    ["density", "--p", "3", "--form", "delta", "--np", "10000000000000000000", "--X", "1000"],
    ["span", "--p", "11", "--form", "delta", "--primes", "2", "--k-eff", "12"],
    # a residue-field cap once refused this before --gens was read
    ["analyze", "--q", "4099", "--k", "1", "--gens", "[[1]]"],
])
def test_bad_input_is_a_usage_error(args, tmp_path):
    r = run_cli([a.format(tmp=tmp_path) for a in args])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert [line for line in r.stderr.splitlines() if "error:" in line] \
        == r.stderr.splitlines()[-1:]


def test_cap_reached_exit_3():
    r = run_cli(["example8", "--p", "3", "--k", "8", "--cap", "1000"])
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == ["error: group exceeds cap 1000 (cap reached, undecided)"]


def test_field_table_cap_exit_3():
    # allocated a 32 GiB table and died with a MemoryError traceback, then
    # refused the field's q x q table; with no table the group cap is reached
    r = run_cli(["example8", "--p", "65521", "--k", "2"])
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == ["error: group exceeds cap 2000000 (cap reached, undecided)"]


def _address_space_2gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _address_space_1gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("args", [
    ["density", "--p", "3", "--form", "delta", "--X", "10000000000000000000"],
    ["cyclotomic", "--p", "3", "--form", "delta", "--M", "4", "--X", "10000000000"],
])
def test_series_degree_cap_exit_3(args):
    # these asked numpy for 11.1 GiB and 24.8 GiB and exited 1 with an
    # _ArrayMemoryError traceback
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert re.fullmatch(r"error: series degree \d+ exceeds the cap \d+ \(cap reached, undecided\)",
                        r.stderr.strip())


@pytest.mark.parametrize("args, mib", [
    (["density", "--p", "65521", "--form", "delta", "--X", "20000000"], 1944),
    (["density", "--p", "2147483647", "--form", "delta", "--X", "16000000"], 1530),
])
def test_dense_product_budget_exit_3(args, mib):
    # the squaring of E_6 ran into the 2 GiB limit: exit 1 with a MemoryError
    # (1,828 MB after 7.0 s) and an _ArrayMemoryError (1,752 MB after 7.6 s)
    # traceback; its arrays and pocketfft's scratch are now sized before the
    # divisor-sum sieve
    t0 = time.time()
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.strip() == (f"error: a degree-{args[-1]} product needs {mib} MiB, above the "
                                "budget of 1280 MiB (cap reached, undecided)")
    assert time.time() - t0 < 2.0


def test_dense_product_below_the_budget_reports_within_2gib():
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli", "density", "--p", "65521",
                        "--form", "delta", "--X", "8000000"], capture_output=True, text=True,
                       preexec_fn=_address_space_2gib, timeout=300)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["config"]["X"] == 8000000
    assert (rep["report"]["counted"], rep["report"]["total_primes"]) == (539768, 539776)


@pytest.mark.parametrize("args", [
    ["span", "--p", "2", "--form", "delta^100000000000000", "--primes", "3"],
    ["span", "--p", "3", "--form", "delta", "--primes", "2147483647"],
])
def test_span_basis_budget_exit_3(args):
    # span's --deg 100000000000000 asked numpy for 243 TiB and exited 1 with
    # an _ArrayMemoryError traceback; its Sturm basis of (n + 1) forms to
    # degree ell_max·n is refused before any series exists
    t0 = time.time()
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert re.fullmatch(r"error: a basis of \d+ forms to degree \d+ exceeds the cap of 20000000 "
                        r"coefficients \(cap reached, undecided\)", r.stderr.strip())
    assert time.time() - t0 < 2.0


def test_span_at_a_large_prime_within_1gib():
    # the Sturm basis took E_4^3 by two dense products at degree 9,999,991:
    # 1,582 MB, and exit 1 with an _ArrayMemoryError traceback under 1 GiB
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli", "span", "--p", "7", "--form",
                        "delta", "--primes", "9999991"], capture_output=True, text=True,
                       preexec_fn=_address_space_1gib, timeout=300)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["dim"] == 1 and rep["matrices"] == {"9999991": [[2]]}


@pytest.mark.parametrize("args, message", [
    # a ring of more than 10^6 elements, which the essential module enumerates
    (["analyze", "--q", "3", "--k", "13", "--gens", "[]"], "ring too large to enumerate"),
    (["analyze", "--q", "9", "--k", "7", "--gens", "[]"], "ring too large to enumerate"),
    # asked numpy for 8.94 GiB and exited 1 with an _ArrayMemoryError traceback
    (["verify", "--tuples", "100000000"], "100000000 tuples exceed the battery cap 100000"),
])
def test_enumeration_caps_exit_3(args, message):
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [f"error: {message} (cap reached, undecided)"]


def test_group_cap_is_reached_within_2gib():
    # the BFS multiplied a whole level at once: a (827216, 40) float64
    # product failed to allocate, exit 1 with an _ArrayMemoryError traceback
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli", "analyze", "--q", "3", "--k", "10",
                        "--gens-preset", "example8"], capture_output=True, text=True,
                       preexec_fn=_address_space_2gib, timeout=300)
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == ["error: group exceeds cap 2000000 (cap reached, undecided)"]


@pytest.mark.parametrize("args", [
    ["analyze", "--q", "3", "--k", "1000", "--gens", "[]"],
    ["example8", "--p", "3", "--k", "1000"],
])
def test_structure_tensor_cap_exit_3(args):
    # allocated a 1000^3 int64 tensor (7.45 GiB): exit 1 with an
    # _ArrayMemoryError traceback under this limit
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == ["error: a 1000^3 structure tensor exceeds 16777216 bytes "
                                     "(cap reached, undecided)"]


@pytest.mark.parametrize("args, message", [
    # the f = 1 root search listed the powers of each candidate in a set of
    # up to p - 1 = 2^31 - 2 elements
    (["example8", "--p", "2147483647", "--k", "2"], "group exceeds cap 2000000"),
    # A = F_q would search for a degree-128 irreducible polynomial first
    (["analyze", "--q", str(3 ** 128), "--k", "1", "--gens", "[]"], "ring too large to enumerate"),
])
def test_large_residue_fields_exit_3_at_once(args, message):
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert time.perf_counter() - t0 < 2
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [f"error: {message} (cap reached, undecided)"]


@pytest.mark.parametrize("args, residual_class, order", [
    # the residual image's 26,208^2 int32 multiplication table failed to
    # allocate: exit 1 with an _ArrayMemoryError traceback
    (["analyze", "--q", "13", "--k", "1", "--gens", "[[2,0,0,1],[1,1,0,1],[0,1,1,0]]"],
     "LargeImage(PGL2(13))", 26208),
    # refused by a residue-field cap of q <= 4,096 that stood in for that
    # table and for a coset BFS of one level per coset
    (["analyze", "--q", "65537", "--k", "1", "--gens", "[[3,0,0,1]]"], "CyclicOrderN(65536)", 65536),
    (["analyze", "--q", "4099", "--k", "1", "--gens", "[[2,0,0,1]]"], "CyclicOrderN(4098)", 4098),
])
def test_analyze_reports_large_residual_images_within_2gib(args, residual_class, order):
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli"] + args, capture_output=True,
                       text=True, preexec_fn=_address_space_2gib, timeout=120)
    assert time.perf_counter() - t0 < 2
    assert r.returncode == 0 and "Traceback" not in r.stderr
    report = json.loads(r.stdout)
    assert report["residual_class"] == residual_class and report["group_order"] == order


def test_analyze_refuses_a_large_ring_before_building_m2():
    # built M_2(A)'s (4k)^3 product tensor first: 18.5 s at k = 40, then exit 3
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "pinkforge.cli", "analyze", "--q", "3", "--k", "40",
                        "--gens", "[]"], capture_output=True, text=True,
                       preexec_fn=_address_space_2gib, timeout=120)
    assert time.perf_counter() - t0 < 2
    assert r.returncode == 3
    assert r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == ["error: ring too large to enumerate (cap reached, undecided)"]



def test_verify_does_not_import_numpy_ma():
    # a plain np.unique(x), with no index output, imports numpy.ma (17-18 ms):
    # group_series and _index_closure made such calls in every pink verify
    code = ("import contextlib, io, sys\n"
            "from pinkforge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--seed', '1']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0 and r.stdout == "False\n"

def test_span_needs_no_degree():
    # with --deg 1 the usable degree ran out (exit 3, and exit 1 before that);
    # the span is fixed by a_0..a_n of M_12n
    r = run_cli(["span", "--p", "2", "--form", "delta", "--primes", "3"])
    assert r.returncode == 0 and "Traceback" not in r.stderr
    assert json.loads(r.stdout)["dim"] == 1


@pytest.mark.parametrize("p, ell, tau", [(11, 2, 9), (17, 3, 14)])
def test_span_weight_is_12n(p, ell, tau):
    # T_ell acts at weight 12 on Delta, with eigenvalue tau(ell) mod p:
    # tau(2) = -24 = 9 mod 11, tau(3) = 252 = 14 mod 17.  The --k-eff 0
    # default used weight 0, so these spans never closed and exited 3.
    r = run_cli(["span", "--p", str(p), "--form", "delta", "--primes", str(ell)])
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["dim"] == 1 and d["matrices"] == {str(ell): [[tau]]}


def test_analyze_over_a_field_with_no_generators():
    # generate() concatenated an empty list, and rad0() failed on a zero radical
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", "--q", "3", "--k", "1", "--gens", "[]"]) == 0
    d = json.loads(out.getvalue())
    assert d["group_order"] == 1 and d["dim_L"] == [0, 0, 0, 0]


def test_example8_report(tmp_path):
    out = tmp_path / "ex.json"
    rc = main(["example8", "--p", "3", "--k", "3", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["gamma_order"] == 27
    assert d["dim_L"][0] == 3
    assert d["decomposable"] and not d["strongly_decomposable"]
    assert d["checks"]["lie_algebra_shape"]


def test_density_report(tmp_path):
    out = tmp_path / "dens.json"
    rc = main(["density", "--p", "2", "--form", "delta^3", "--X", "100000",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    est = d["report"]["estimate"]
    assert abs(est - 0.25) < 0.02
    cps = d["report"]["checkpoints"]
    assert [c["X"] for c in cps] == [12500, 25000, 50000, 100000]


def test_density_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["density", "--p", "2", "--form", "delta^3", "--X", "50000", "--out", str(a)])
    main(["density", "--p", "2", "--form", "delta^3", "--X", "50000", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_delta_power_file_layout(tmp_path):
    out = tmp_path / "d3.bin"
    rc = main(["delta-power", "--p", "2", "--n", "3", "--deg", "1000",
               "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert header == b"2 1000"
    bits = int.from_bytes(payload, "little")
    from pinkforge.modforms import delta_expansion, series_pow
    want = series_pow(delta_expansion(2, 1000), 3)
    assert bits == want.bits
    # odd characteristic: one byte per coefficient
    out3 = tmp_path / "d1p3.bin"
    main(["delta-power", "--p", "3", "--n", "1", "--deg", "50", "--out", str(out3)])
    h3, pay3 = out3.read_bytes().split(b"\n", 1)
    assert h3 == b"3 50" and len(pay3) == 51 and pay3[1] == 1
    # p > 256: one little-endian uint16 per coefficient
    out257 = tmp_path / "d1p257.bin"
    main(["delta-power", "--p", "257", "--n", "1", "--deg", "100", "--out", str(out257)])
    h257, pay257 = out257.read_bytes().split(b"\n", 1)
    assert h257 == b"257 100"
    got = np.frombuffer(pay257, dtype="<u2")
    assert np.array_equal(got, delta_expansion(257, 100).coeffs_array())


def test_span_and_cyclotomic(tmp_path):
    out = tmp_path / "span.json"
    rc = main(["span", "--p", "2", "--form", "delta^3", "--primes", "3,5",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["dim"] == 2
    assert d["nilpotency_order"] == {"3": 2, "5": 1}
    out2 = tmp_path / "cyc.json"
    rc2 = main(["cyclotomic", "--p", "2", "--form", "delta^9", "--M", "8",
                "--X", "50000", "--out", str(out2)])
    assert rc2 == 0
    d2 = json.loads(out2.read_text())
    assert d2["cyclotomic"] is False and len(d2["violation"]) == 2


def test_analyze_report(tmp_path):
    out = tmp_path / "an.json"
    rc = main(["analyze", "--q", "3", "--k", "3", "--gens-preset", "example8",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["gamma_order"] == 27
    assert d["measure"]["passed"]
    assert d["congruence_subgroup"] is False


def test_verify_fault_injection(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", "--seed", "1", "--tuples", "100",
               "--inject-fault", "theta", "--out", str(out)])
    assert rc == 1
    d = json.loads(out.read_text())
    assert not d["checks"]["theta_identities"]["passed"]
    some = next(iter(d["checks"]["theta_identities"]["details"].values()))
    assert some["theta_bracket"] > 0


def test_verify_times_each_check_on_stderr_only(tmp_path):
    out = tmp_path / "v.json"
    r = run_cli(["verify", "--seed", "2", "--tuples", "60"])
    assert r.returncode == 0
    assert main(["verify", "--seed", "2", "--tuples", "60", "--out", str(out)]) == 0
    assert r.stdout.encode() == out.read_bytes()       # the report has no timings
    names = sorted(json.loads(r.stdout)["checks"])
    lines = r.stderr.splitlines()
    assert [re.fullmatch(r"\[PASS\] (\w+) \(\d+\.\d\d s\)", line).group(1)
            for line in lines] == names


def _report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("p, k", [(3, 4), (3, 5), (5, 3)])
def test_example8_and_the_analyze_preset_agree(p, k):
    ex = _report(["example8", "--p", str(p), "--k", str(k)])
    an = _report(["analyze", "--q", str(p), "--k", str(k), "--gens-preset", "example8"])
    shared = (ex.keys() & an.keys()) - {"command", "config"}
    assert {"ring", "gamma_order", "group_order", "dim_L", "A_ess", "P",
            "congruence_subgroup", "measure"} <= shared
    assert {key: ex[key] for key in shared} == {key: an[key] for key in shared}


def _count_calls(monkeypatch):
    """Record the rows of every batch_in_SR1 call, in every pinkforge module
    that binds it, and every FiniteMatrixGroup.generate call."""
    from pinkforge import gma
    from pinkforge.pseudorep import FiniteMatrixGroup
    calls = {"sr1": [], "generate": 0}
    in_sr1, generate = gma.batch_in_SR1, FiniteMatrixGroup.generate.__func__

    def counted_sr1(R, X):
        calls["sr1"].append(len(np.atleast_2d(X)))
        return in_sr1(R, X)

    def counted_generate(cls, *args, **kwargs):
        calls["generate"] += 1
        return generate(cls, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pinkforge") and getattr(mod, "batch_in_SR1", None) is in_sr1:
            monkeypatch.setattr(mod, "batch_in_SR1", counted_sr1)
    monkeypatch.setattr(FiniteMatrixGroup, "generate", classmethod(counted_generate))
    return calls


F9_GENS = ("[[1,0,0,0,1,0,0,0,1,0,0,0,0,0,2,0,0,0,1,0,0,0,1,0],"
           "[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0],"
           "[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,1,0,0,0,0]]")


def test_a_report_tests_sr1_membership_once_per_group(monkeypatch):
    # once, on the Schreier generators of Gamma = G ∩ SR^1, and no BFS of G
    calls = _count_calls(monkeypatch)
    d = _report(["example8", "--p", "3", "--k", "4"])
    # g and h: J·g·J^-1 = g, J·h·J^-1 = h^-1 and J^2 = 1 add none
    assert calls == {"sr1": [2], "generate": 0} and d["gamma_order"] == 243
    calls = _count_calls(monkeypatch)
    d = _report(["analyze", "--q", "9", "--k", "3", "--gens", F9_GENS])
    assert calls == {"sr1": [2], "generate": 0} and d["group_order"] == 432
    calls = _count_calls(monkeypatch)
    d = _report(["analyze", "--q", "3", "--k", "4", "--gens-preset", "example8"])
    assert calls == {"sr1": [2], "generate": 0} and d["group_order"] == 486


def test_group_cap_is_checked_before_theta_inverse_is_enumerated(monkeypatch, capsys):
    # |T|·p^dim L = 2·1009^2 exceeds the cap: this built H = theta^{-1}(L),
    # 1,018,081 rows, and took 3 s before it exited 3
    from pinkforge import pinklie

    def enumerate_preimage(*args, **kwargs):
        raise AssertionError("enumerate_preimage ran")

    monkeypatch.setattr(pinklie, "enumerate_preimage", enumerate_preimage)
    assert main(["example8", "--p", "1009", "--k", "2"]) == 3
    assert capsys.readouterr().err == \
        "error: group exceeds cap 2000000 (cap reached, undecided)\n"


def test_verify_makes_no_row_at_a_time_products(monkeypatch):
    """`pink verify --seed 1` batches its GMA products: the kernel calls it
    makes stay at or below the counts recorded here (4,525 `bilinear`, 600
    GMA `mul_vec` and 492 `module_act` calls when each product summed the
    component rule block by block and the radical, the antidiagonal blocks
    and the normaliser check went one row at a time)."""
    from pinkforge import fp
    from pinkforge.gma import GmaStructure
    calls = {"bilinear": 0, "mul_vec": 0, "module_act": 0}
    bilinear = fp.bilinear

    def counted_bilinear(*args):
        calls["bilinear"] += 1
        return bilinear(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pinkforge") and getattr(mod, "bilinear", None) is bilinear:
            monkeypatch.setattr(mod, "bilinear", counted_bilinear)
    for method in ("mul_vec", "module_act"):
        def counted(self, *args, _method=method, _fn=getattr(GmaStructure, method)):
            calls[_method] += 1
            return _fn(self, *args)
        monkeypatch.setattr(GmaStructure, method, counted)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--seed", "1"]) == 0
    assert calls["bilinear"] <= 2137 and calls["mul_vec"] <= 36 and calls["module_act"] <= 154, calls


def test_ring_axioms_decide_units_from_the_multiplication(monkeypatch):
    """`verify`'s units check reads the multiplication tensor: with X·X set
    to 1 in F_3[X]/(X^3), 1 + X (outside m) has a singular multiplication
    matrix, so the units no longer match the complement of m."""
    from pinkforge import cli
    build = cli.make_truncated_poly_ring

    def corrupted(q, k):
        A = build(q, k)
        if (q, k) == (3, 3):
            A.mul_tensor[1, 1] = [1, 0, 0]
        return A

    monkeypatch.setattr(cli, "make_truncated_poly_ring", corrupted)
    ok, details = cli._check_ring_axioms(0)
    assert not ok
    assert not details["F3[X]/(X^3)"]["units_match_ideal"]
    assert all(d["units_match_ideal"] for name, d in details.items() if name != "F3[X]/(X^3)")
