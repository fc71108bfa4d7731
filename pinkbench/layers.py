"""Per-layer tracing from outside the program.

A `Tracer` replaces chosen public functions and methods of pinkforge's
modules with wrappers, in every pinkforge module namespace that binds the
same object, so calls made through `from .fp import rref` are caught too
and `src/` stays untouched.  A timed wrapper keeps self time: its own wall
time minus the time of the wrapped calls nested inside it.  A counting
wrapper only counts calls; its time stays in its caller's self time.
"""

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """One traced callable: `module` (under pinkforge), a dotted `attr`
    such as "FpSubspace.reduce", whether it is timed, and an optional work
    size read from the call as size(args, result, before), where before is
    what `before()` returned when the call started."""
    module: str
    attr: str
    timed: bool = True
    size_name: str = None
    size: object = None
    before: object = None

    @property
    def key(self):
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.stats = {}
        self._stack = [0.0]
        self._restore = []

    def reset(self):
        """Zero the aggregates, e.g. at the start of each traced pass."""
        self.stats = {t.key: [0.0, 0, 0] for t in self.targets}

    def install(self):
        self.reset()
        for t in self.targets:
            self._install(t)

    def uninstall(self):
        for holder, name, old in reversed(self._restore):
            setattr(holder, name, old)
        self._restore.clear()

    def _install(self, t):
        mod = importlib.import_module(f"pinkforge.{t.module}")
        owner_path, _, name = t.attr.rpartition(".")
        if owner_path:
            cls = getattr(mod, owner_path)
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                self._patch(cls, name, raw, classmethod(self._wrap(t, raw.__func__)))
            else:
                self._patch(cls, name, raw, self._wrap(t, raw))
            return
        fn = getattr(mod, name)
        wrapper = self._wrap(t, fn)
        for mname, other in list(sys.modules.items()):
            if mname == "pinkforge" or mname.startswith("pinkforge."):
                for attr, val in list(vars(other).items()):
                    if val is fn:
                        self._patch(other, attr, fn, wrapper)

    def _patch(self, holder, name, old, new):
        setattr(holder, name, new)
        self._restore.append((holder, name, old))

    def _wrap(self, t, fn):
        key = t.key
        tracer = self
        if not t.timed:
            def counted(*args, **kwargs):
                tracer.stats[key][1] += 1
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            stack = tracer._stack
            before = t.before() if t.before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                stack[-1] += dt
                rec = tracer.stats[key]
                rec[0] += dt - nested
                rec[1] += 1
            if t.size:
                rec[2] += int(t.size(args, result, before))
            return result
        return timed

    def snapshot(self):
        """{metric name: value} for the current aggregates."""
        out = {}
        for t in self.targets:
            s, calls, size = self.stats[t.key]
            if t.timed:
                out[f"{t.key}.s"] = s
            out[f"{t.key}.calls"] = calls
            if t.size_name:
                out[f"{t.key}.{t.size_name}"] = size
        return out


def _stdout_pos():
    return sys.stdout.tell()


def _rows(args, result, before):
    return len(args[1])


# The layer targets, module by module.  Each metric is named
# <module>.<attr>.<quantity>; a later optimisation is most likely to move
# these (see README.md for which end-to-end metric each should move).
TARGETS = [
    Target("fp", "rref", size_name="rows", size=lambda a, r, b: len(a[0])),
    Target("fp", "FpSubspace.reduce"),
    Target("fp", "row_key", timed=False),
    Target("localring", "FqData.digits", timed=False),
    Target("localring", "batch_sqrt_one_plus_m"),
    Target("gma", "GmaStructure.batch_mul_elem", size_name="rows", size=_rows),
    Target("gma", "batch_in_SR1"),
    Target("gma", "GmaStructure.mul_vec"),
    Target("pseudorep", "FiniteMatrixGroup.generate", size_name="elements",
           size=lambda a, r, b: r.n),
    Target("pseudorep", "FiniteMatrixGroup.mul_table"),
    Target("pseudorep", "FiniteMatrixGroup.verify_closure"),
    Target("pseudorep", "is_admissible"),
    Target("pinklie", "lie_of_subgroup"),
    Target("pinklie", "essential_data"),
    Target("pinklie", "key_measure_check", size_name="forms",
           size=lambda a, r, b: r.n_forms),
    Target("pinklie", "descending_series"),
    Target("pinklie", "group_series"),
    Target("pinklie", "pink_converse"),
    Target("pinklie", "pink_formula_battery"),
    Target("pinklie", "structure_round_trip"),
    Target("modforms", "series_mul", size_name="coeffs", size=lambda a, r, b: r.deg + 1),
    Target("modforms", "FpSeries.dilate"),
    Target("modforms", "delta_expansion"),
    Target("modforms", "density_sweep"),
    Target("modforms", "prime_sieve"),
    Target("cli", "emit", size_name="bytes",
           size=lambda a, r, b: _stdout_pos() - b, before=_stdout_pos),
]

# The subset of snapshot() that the benchmark reports.
LAYER_METRICS = [
    "fp.rref.s", "fp.rref.rows", "fp.FpSubspace.reduce.s", "fp.FpSubspace.reduce.calls",
    "fp.row_key.calls",
    "localring.FqData.digits.calls", "localring.batch_sqrt_one_plus_m.s",
    "gma.GmaStructure.batch_mul_elem.s", "gma.GmaStructure.batch_mul_elem.rows",
    "gma.batch_in_SR1.s", "gma.GmaStructure.mul_vec.s", "gma.GmaStructure.mul_vec.calls",
    "pseudorep.FiniteMatrixGroup.generate.s", "pseudorep.FiniteMatrixGroup.generate.elements",
    "pseudorep.FiniteMatrixGroup.mul_table.s", "pseudorep.FiniteMatrixGroup.verify_closure.s",
    "pseudorep.is_admissible.s",
    "pinklie.lie_of_subgroup.s", "pinklie.essential_data.s", "pinklie.key_measure_check.s",
    "pinklie.key_measure_check.forms", "pinklie.descending_series.s", "pinklie.group_series.s",
    "pinklie.pink_converse.s", "pinklie.pink_formula_battery.s",
    "pinklie.structure_round_trip.s",
    "modforms.series_mul.s", "modforms.series_mul.calls", "modforms.series_mul.coeffs",
    "modforms.FpSeries.dilate.s", "modforms.delta_expansion.s", "modforms.density_sweep.s",
    "modforms.prime_sieve.s",
    "cli.emit.s", "cli.emit.bytes",
]
