"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest -q pinkbench/selftest.py      (from the repository root)

Each check must accept pinkforge's real output and reject the same output
with one thing corrupted: a flipped coefficient, a wrong order, a wrong
count.  The file name keeps it out of the tier-1 collection, whose
pattern is test_*.py.
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Runs  # noqa: E402


def _op(workload, name):
    return next(op for op in workload.ops if op.name == name)


def _rejects(op, output):
    with pytest.raises(wl.Wrong):
        op.check(output)


def _edit(output, change):
    """A CLI output (rc, text) with its JSON report changed by change(report)."""
    rc, text = output
    report = json.loads(text)
    change(report)
    return rc, json.dumps(report)


@pytest.fixture(scope="module")
def lie():
    w = wl.lie_example(0)
    return w, {op.name: op.run() for op in w.ops}


@pytest.mark.parametrize("name", ["example8_p3_k6", "example8_p5_k4", "analyze_q9_k3"])
def test_lie_checks(lie, name):
    w, outs = lie
    op, out = _op(w, name), outs[name]
    op.check(out)
    _rejects(op, (1, out[1]))
    _rejects(op, _edit(out, lambda r: r.update(gamma_order=r["gamma_order"] * 3)))
    _rejects(op, _edit(out, lambda r: r["dim_L"].__setitem__(0, r["dim_L"][0] + 1)))
    _rejects(op, _edit(out, lambda r: r["measure"].update(forms=r["measure"]["forms"] - 1)))
    _rejects(op, _edit(out, lambda r: r["measure"].update(vacuous=True)))
    _rejects(op, _edit(out, lambda r: r["measure"].update(min={"num": 1, "den": 10 ** 6})))
    one = [1] + [0] * (len(json.loads(out[1])["A_ess"][0]) - 1)
    _rejects(op, _edit(out, lambda r: r.update(A_ess=r["A_ess"] + [one])))


def test_lie_example8_group_order(lie):
    w, outs = lie
    op = _op(w, "example8_p3_k6")
    _rejects(op, _edit(outs["example8_p3_k6"], lambda r: r.update(group_order=13121)))


def test_verify_check():
    w = wl.verify_battery(0)
    op = w.ops[0]
    out = op.run()
    op.check(out)

    def converse(r):
        r["checks"]["converse_theorem"]["details"]["order"] = 3 ** 8

    def family(r):
        r["checks"]["example_family"]["details"]["k=4"]["gamma"] = 81

    def theta(r):
        next(iter(r["checks"]["theta_identities"]["details"].values()))["theta_bracket"] = 1

    def series(r):
        r["checks"]["central_series_match"]["details"].pop()

    for change in (converse, family, theta, series):
        _rejects(op, _edit(out, change))


def test_gf2_density_check():
    w = wl.forms_gf2(0)
    op = _op(w, "density_p2_delta3")
    out = op.run()
    op.check(out)
    _rejects(op, _edit(out, lambda r: r["report"].update(counted=r["report"]["counted"] + 1)))
    _rejects(op, _edit(out, lambda r: r["report"]["checkpoints"][0].update(total=1)))


def test_reference_gf2_powers():
    assert ref.delta_power_mod2(1, 100).nonzero()[0].tolist() == [1, 9, 25, 49, 81]
    assert np.array_equal(ref.delta_power_mod2(2, 5000).nonzero()[0],
                          ref.odd_square_exponents(5000, 2))
    # Delta^3 ≡ sum over odd a, b of q^(a² + 2b²), by brute force
    X = 3000
    want = np.zeros(X + 1, dtype=np.uint8)
    for a in range(1, 60, 2):
        for b in range(1, 40, 2):
            if a * a + 2 * b * b <= X:
                want[a * a + 2 * b * b] ^= 1
    assert np.array_equal(ref.delta_power_mod2(3, X), want)


@pytest.fixture(scope="module")
def dense():
    return wl.forms_dense(0)


def test_dense_density_check(dense):
    op = _op(dense, "density_p3_delta")
    out = op.run()
    op.check(out)
    _rejects(op, _edit(out, lambda r: r["report"].update(counted=r["report"]["counted"] - 1)))


def test_hecke_relations_catch_one_flipped_coefficient():
    a = ref.delta_mod_p(7, 20000)
    assert ref.hecke_violations(a, 7) == 0
    for n in (1, 4347, 5793, 7272):
        b = a.copy()
        b[n] = (b[n] + 1) % 7
        assert ref.hecke_violations(b, 7) > 0


def test_known_fault_is_caught(dense):
    op = _op(dense, dense.known_fault)
    with pytest.raises(wl.Wrong, match="Hecke relations violated"):
        op.check(op.run())


def test_product_check(dense):
    op = _op(dense, "series_mul_gf2_dense")
    out = op.run()
    op.check(out)
    bad = copy.copy(out)
    bad.bits ^= 1 << 4096
    _rejects(op, bad)


class FixedUnits:
    """A stand-in for calibrate.Calibration whose units read from a list."""

    reference_s = 0.01

    def __init__(self, units):
        self.units = iter(units)

    def sample(self):
        return next(self.units)


def test_judge_counts_only_the_known_fault_as_correct():
    def fails():
        raise ArithmeticError("boom")

    def ok_check(out):
        return None

    ops = [wl.Op("good", lambda: (0, "{}"), ok_check), wl.Op("known", fails, ok_check)]
    runs = Runs(wl.Workload("t", ops, [], known_fault="known"), FixedUnits([1.0] * 6))
    runs.run(0)
    runs.run(0)
    assert runs.judge()[:3] == (4, 2, True)
    runs = Runs(wl.Workload("t", ops, [], known_fault=None), FixedUnits([1.0] * 3))
    runs.run(0)
    assert runs.judge()[:3] == (2, 1, False)


def test_operation_time_is_scaled_by_the_units_around_it():
    ops = [wl.Op(name, lambda: (0, "{}"), lambda out: None) for name in ("a", "b")]
    ref = FixedUnits.reference_s
    runs = Runs(wl.Workload("t", ops, []), FixedUnits([ref, 3 * ref, 2 * ref]))
    (scaled,) = runs.run(0)
    (wall,) = runs.wall
    assert scaled["a"] == pytest.approx(wall["a"] / 2)          # units ref and 3 ref: mean 2 ref
    assert scaled["b"] == pytest.approx(wall["b"] * 2 / 5)      # units 3 ref and 2 ref: mean 2.5 ref
    assert runs.units == [[[ref, 3 * ref], [3 * ref, 2 * ref]]]


def test_sampler_takes_units_inside_its_block_only():
    before = signal.getsignal(signal.SIGALRM)
    unit = calibrate.Calibration(["python", "numpy"])
    assert unit.reference_s == sum(calibrate.REFERENCE_S.values())
    with calibrate.Sampler(unit, 0.05) as inside:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
    taken = len(inside.units)
    assert taken >= 3 and all(u > 0 for u in inside.units)
    assert sum(inside.units) <= inside.spent < 0.5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    with calibrate.Sampler(unit, None) as idle:
        time.sleep(0.1)
    assert idle.units == [] and idle.spent == 0.0


def test_tracer_self_time_excludes_nested_calls(monkeypatch):
    import types
    inner_mod = types.ModuleType("pinkforge.bench_inner")
    outer_mod = types.ModuleType("pinkforge.bench_outer")
    inner_mod.inner = lambda: time.sleep(0.1)
    outer_mod.inner = inner_mod.inner            # bound as by "from .inner import inner"

    def outer():
        time.sleep(0.05)
        outer_mod.inner()
    outer_mod.outer = outer
    monkeypatch.setitem(sys.modules, inner_mod.__name__, inner_mod)
    monkeypatch.setitem(sys.modules, outer_mod.__name__, outer_mod)
    original = inner_mod.inner
    tracer = layers.Tracer([layers.Target("bench_inner", "inner"),
                            layers.Target("bench_outer", "outer")])
    tracer.install()
    try:
        assert outer_mod.inner is inner_mod.inner is not original
        outer_mod.outer()
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert outer_mod.inner is original and inner_mod.inner is original
    assert snap["bench_inner.inner.calls"] == snap["bench_outer.outer.calls"] == 1
    assert 0.1 <= snap["bench_inner.inner.s"] < 0.15
    assert 0.05 <= snap["bench_outer.outer.s"] < 0.1


def test_layer_targets_install_and_restore():
    from pinkforge import cli, fp, localring, modforms
    before = (fp.rref, localring.rref, modforms.series_mul, cli.emit, fp.FpSubspace.reduce)
    tracer = layers.Tracer(layers.TARGETS)
    tracer.install()
    try:
        assert localring.rref is fp.rref is not before[0]
        d = modforms.delta_expansion(3, 4000)
        tracer.reset()
        modforms.series_mul(d, d)
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert (fp.rref, localring.rref, modforms.series_mul, cli.emit,
            fp.FpSubspace.reduce) == before
    assert set(layers.LAYER_METRICS) <= set(snap)
    assert snap["modforms.series_mul.calls"] == 1
    assert snap["modforms.series_mul.coeffs"] == 4001
