"""Fuzz the `pink` command line with hypothesis: every subcommand, valid and
invalid values, small sizes and caps.  Whatever the input, `main` ends with
an exit code in {0, 1, 2, 3} and no uncaught exception, and a report
(rc 0 or 1) is valid JSON on stdout."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from pinkforge.cli import main

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# numbers as text, valid and not: small primes, composites, 0, 1, negatives, junk
PRIMES = st.sampled_from(["2", "3", "5", "7", "4", "9", "1", "0", "-3", "x", "2147483648"])
SMALL = st.integers(-2, 6).map(str) | st.sampled_from(["", "two", "1.5"])


def run(argv):
    """(exit code, stdout) of `pink argv` in process; argparse's exits count."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert "Traceback" not in err.getvalue()
    return rc, out.getvalue()


def check(argv):
    rc, out = run(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc in (0, 1):
        json.loads(out)
    return rc


def opt(name, values):
    """An optional flag: [] or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@FUZZ
@given(p=PRIMES, k=SMALL, cap=st.integers(-1, 3000).map(str))
def test_example8(p, k, cap):
    check(["example8", "--p", p, "--k", k, "--cap", cap])


@FUZZ
@example(p="3", form="delta", X="1000", np_=["--np", "10000000000000000000"])
@given(p=PRIMES,
       form=st.sampled_from(["delta", "delta^2", "Delta^3", "delta^0", "eta", "delta^-1", ""]),
       X=st.integers(-1, 3000).map(str), np_=opt("--np", SMALL))
def test_density(p, form, X, np_):
    check(["density", "--p", p, "--form", form, "--X", X] + np_)


@FUZZ
@given(p=PRIMES, n=SMALL, deg=st.integers(-1, 400).map(str))
def test_delta_power(p, n, deg):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "d.bin")
        rc = check(["delta-power", "--p", p, "--n", n, "--deg", deg, "--out", out])
        if rc == 0:
            header = Path(out).read_bytes().split(b"\n", 1)[0]
            assert header == f"{int(p)} {int(deg)}".encode()


@FUZZ
@example(p="3", form="delta", M="10000000000000000000", X="1000", np_=[])
@example(p="3", form="delta", M="4", X="1000", np_=["--np", "10000000000000000000"])
@given(p=PRIMES, form=st.sampled_from(["delta", "delta^3", "delta^9", "eta"]),
       M=SMALL, X=st.integers(-1, 2000).map(str), np_=opt("--np", SMALL))
def test_cyclotomic(p, form, M, X, np_):
    check(["cyclotomic", "--p", p, "--form", form, "--M", M, "--X", X] + np_)


@FUZZ
@example(p="2", form="delta^3", primes="3,5", max_dim=[])
@given(p=PRIMES, form=st.sampled_from(["delta", "delta^3", "delta^0", "eta"]),
       primes=st.lists(st.sampled_from(["3", "5", "7", "2", "0", "-1", "x", ""]), min_size=1,
                       max_size=3).map(",".join),
       max_dim=opt("--max-dim", SMALL))
def test_span(p, form, primes, max_dim):
    check(["span", "--p", p, "--form", form, "--primes", primes] + max_dim)


GENS = st.lists(st.lists(st.integers(-1, 9), min_size=0, max_size=9), min_size=0, max_size=3)


@FUZZ
@given(q=st.sampled_from(["3", "9", "5", "4", "6", "1", "0", "x"]), k=SMALL,
       gens=st.one_of(GENS.map(json.dumps), st.sampled_from(["[", "{}", "3", "[[1]]", "null"])),
       preset=st.booleans(), cap=st.integers(-1, 2000).map(str))
def test_analyze(q, k, gens, preset, cap):
    source = ["--gens-preset", "example8"] if preset else ["--gens", gens]
    check(["analyze", "--q", q, "--k", k, "--cap", cap] + source)


@settings(max_examples=4, deadline=None, derandomize=True)
@example(seed="0", tuples="20", fault=[])
@given(seed=st.integers(-1, 3).map(str), tuples=st.integers(-1, 40).map(str),
       fault=opt("--inject-fault", st.sampled_from(["theta", "nope"])))
def test_verify(seed, tuples, fault):
    check(["verify", "--seed", seed, "--tuples", tuples] + fault)
