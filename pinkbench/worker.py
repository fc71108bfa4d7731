"""One measured run of one workload, in one process.

run.py starts this from the root of a checkout, with one thread per
library (see run.py).  The worker imports pinkforge from ./src, builds the
workload's inputs, runs its untimed warm-up and prints "READY"; with
--setup-only it stops there.  Otherwise it repeats whole passes over the
workload's operations until --seconds have gone, then checks every
distinct output and prints one JSON line with the measurements.  Each
operation's time is scaled by the calibration units timed around and
during it (calibrate.py).

With --trace 1 the first half of the time runs untraced passes, which give
the per-operation times, and the second half runs passes with the layer
wrappers of layers.py installed.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import SAMPLE_INTERVAL_S, Calibration, Sampler

ROOT = Path.cwd()


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pinkforge
    except ImportError as exc:
        sys.exit(f"cannot import pinkforge from {ROOT / 'src'}: {exc}")
    where = Path(pinkforge.__file__).resolve()
    if (ROOT / "src").resolve() not in where.parents:
        sys.exit(f"pinkforge was imported from {where}, not from this checkout")


class Runs:
    """Passes over a workload's operations and the distinct outputs they gave."""

    def __init__(self, workload, calibration):
        self.workload = workload
        self.calibration = calibration
        self.passes = []          # per pass: {op name: seconds scaled to the reference unit}
        self.wall = []            # per pass: {op name: wall seconds, less the units inside}
        self.units = []           # per pass and op: the calibration units taken around and in it
        self.outcomes = []        # per pass and op: (op name, digest or None, error or None)
        self.outputs = {}         # (op name, digest) -> output
        self.snapshots = []       # per traced pass: the tracer's aggregates

    def run(self, seconds, tracer=None):
        """Whole passes until `seconds` have gone.  Traced passes take units
        only around their operations, so that no unit lands in a layer's
        self time."""
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            gc.collect()
            if tracer:
                tracer.reset()
            times, scaled, units = {}, {}, []
            inside = Sampler(self.calibration, None if tracer else SAMPLE_INTERVAL_S)
            before = self.calibration.sample()
            for op in self.workload.ops:
                with inside:
                    t0 = perf_counter()
                    try:
                        out, err = op.run(), None
                    except Exception as exc:      # an operation that raises has failed
                        out, err = None, f"{type(exc).__name__}: {exc}"
                    took = perf_counter() - t0 - inside.spent
                key = None if err else workloads.digest(out)
                if key is not None:
                    self.outputs.setdefault((op.name, key), out)
                self.outcomes.append((op.name, key, err))
                del out
                after = self.calibration.sample()
                around = [before, *inside.units, after]
                times[op.name] = took
                scaled[op.name] = took * self.calibration.reference_s * len(around) / sum(around)
                units.append(around)
                before = after
            self.wall.append(times)
            self.units.append(units)
            if tracer:
                self.snapshots.append(tracer.snapshot())
            passes.append(scaled)
        self.passes += passes
        return passes

    def judge(self):
        """Check every distinct output once; returns (attempted, failed,
        correct, failure reasons)."""
        ops = {op.name: op for op in self.workload.ops}
        verdict = {}
        for (name, key), out in self.outputs.items():
            try:
                ops[name].check(out)
                verdict[name, key] = None
            except Exception as exc:              # Wrong, or an output too malformed to read
                verdict[name, key] = f"{type(exc).__name__}: {exc}"
        failed, correct, reasons = 0, True, {}
        for name, key, err in self.outcomes:
            why = err or verdict[name, key]
            if why:
                failed += 1
                reasons.setdefault(name, why)
                correct = correct and name == self.workload.known_fault
        return len(self.outcomes), failed, correct, reasons


def median_pass(passes):
    return statistics.median(sum(t.values()) for t in passes)


def op_medians(passes):
    return {name: statistics.median(t[name] for t in passes) for name in passes[0]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    for warm in workload.warmup:
        warm()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runs = Runs(workload, Calibration(workloads.UNIT_PARTS[workload.name]))
    result = {"workload": workload.name, "seed": args.seed, "facts": workload.facts}
    if args.trace:
        import layers
        plain = runs.run(args.seconds / 2)
        tracer = layers.Tracer(layers.TARGETS)
        tracer.install()
        try:
            traced = runs.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        ops = op_medians(plain)
        per_layer = {name: statistics.median(s[name] for s in runs.snapshots)
                     for name in layers.LAYER_METRICS}
        per_layer.update({f"op.{name}.s": ops.get(name, 0.0) for name in workloads.OP_NAMES})
        per_layer["trace.pass_s"] = median_pass(traced)
        result.update(per_layer=per_layer, untraced_pass_s=median_pass(plain),
                      snapshots=runs.snapshots)
    else:
        runs.run(args.seconds)
        result.update(pass_s=median_pass(runs.passes))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = [u for pass_units in runs.units for around in pass_units for u in around]
    result["unit_scale"] = runs.calibration.reference_s / statistics.median(units)
    attempted, failed, correct, reasons = runs.judge()
    result.update(attempted=attempted, failed=failed, correct=correct, failures=reasons,
                  passes=[{k: round(v, 6) for k, v in t.items()} for t in runs.passes],
                  wall_passes=[{k: round(v, 6) for k, v in t.items()} for t in runs.wall],
                  wall_pass_s=median_pass(runs.wall),
                  units_s=[[[round(u, 6) for u in op] for op in us] for us in runs.units])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
