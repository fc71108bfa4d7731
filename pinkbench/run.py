"""Benchmark of pinkforge's `pink` reports, end to end and layer by layer.

Run from the root of a checkout:

    python3 pinkbench/run.py --workload lie_example --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s, pass_s, peak_rss_mb); with --trace 1 they are the
per-layer ones.  Every run also writes its full record, with per-pass times
and, when traced, per-pass layer aggregates, to .pinkbench/ in the checkout.

Each measurement runs in a fresh worker process (worker.py) with one
thread.  setup_s is the median, over SETUP_RUNS worker starts that stop
after set-up, of the time from starting the interpreter to the end of the
untimed warm-up.  Both times, setup_s and pass_s, are scaled to the
machine's speed as read by calibrate.py: an operation by the calibration
units timed around and during it, setup_s by the median of all the units
of the run that follows the set-ups.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5          # worker starts per untraced run whose set-up is timed
DEADLINE_S = 170        # a run ends, one way or the other, before this
THREAD_ENV = {"PINKFORGE_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def start_worker(args, deadline, setup_only):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=dict(os.environ, **THREAD_ENV))
    try:
        left = deadline - perf_counter()
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, left))
        line = proc.stdout.readline() if ready else b""
        took = perf_counter() - t0
        if line.strip() != b"READY":
            raise RunFailed(f"worker did not get ready (said {line[:200]!r})")
    except BaseException:
        stop(proc)
        raise
    return proc, took


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunFailed("worker ran past the deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    return out.decode()


def measure(args):
    deadline = perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            proc, took = start_worker(args, deadline, setup_only=True)
            finish(proc, deadline)
            setups.append(took)
    proc, _ = start_worker(args, deadline, setup_only=False)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    record = json.loads(lines[-1])
    record["setup_runs_s"] = setups
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups) * record["unit_scale"], "unit": "s"},
            "pass_s": {"value": record["pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    return record, metrics


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        record, metrics = measure(args)
    except (RunFailed, ValueError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    out_dir = Path.cwd() / ".pinkbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(dict(record, metrics=metrics), indent=1) + "\n")
    if record["failures"]:
        print(f"failed operations: {record['failures']}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
