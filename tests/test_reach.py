"""Every public function, class and method of pinkforge is referenced, by
name (a method as an attribute), from the library itself or exported from
the package, and every attribute or dataclass field it stores is read by it.
Code that only tests call is deleted, except the names in KEPT and
KEPT_FIELDS.  Every defaulted parameter is passed by some call in src/ or
pinkbench/, except those in SET_INDIRECTLY.  The only exception classes are
the three of errors.py, one per non-zero exit code."""

import ast
import builtins
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pinkforge"

KEPT = {
    "eta_product_term",         # Euler's pentagonal series: Δ = q·η^24 is the reference for Δ
    "fq_coords",                # F_q coordinates of a ring row, for the measure check's reference
    "build_td_representation",  # the realization of (t, d) on A[G]/Ker(T, D) as a GMA
    "check_axioms",             # the axioms of a pseudo-representation (t, d) the realization takes
    "is_faithful",              # the non-degenerate pairing the realization must give
    "check_structure_theorem",  # the structure theorem's conditions, on realized images
}

KEPT_FIELDS = {
    # the set S of `essential_data`, which a test checks J lies in
    "S_indices",
}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef))


class _References(ast.NodeVisitor):
    """Names loaded or imported, and attributes, except inside a function of
    the same name (a recursive call reaches nothing new)."""

    def __init__(self):
        self.names, self.attrs, self._inside = set(), set(), []

    def _use(self, name, into=None):
        if name not in self._inside:
            (self.names if into is None else into).add(name)

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr, self.attrs)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name)


def test_every_public_name_is_reached():
    """A method counts as reached only through an attribute (x.name): a
    local variable of the same name reaches nothing."""
    defined, names, attrs = [], set(), set()
    for mod, tree in _trees():
        defined += [(mod, q, q.rpartition(".")[2]) for q in _definitions(tree)]
        refs = _References()
        refs.visit(tree)
        names |= refs.names
        attrs |= refs.attrs
    assert KEPT <= {name for _, _, name in defined}
    unreached = [f"{mod}.{q}" for mod, q, name in defined
                 if not name.startswith("_") and name not in KEPT | attrs
                 and ("." in q or name not in names)]
    assert unreached == []


def test_every_stored_attribute_is_loaded():
    stored, loaded = {}, set()
    for mod, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{mod}.{node.attr}")
                else:
                    loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d) == "dataclass" for d in node.decorator_list):
                for f in node.body:
                    if isinstance(f, ast.AnnAssign):
                        stored.setdefault(f.target.id, f"{mod}.{node.name}.{f.target.id}")
    assert KEPT_FIELDS <= set(stored)
    assert sorted(where for name, where in stored.items()
                  if name not in loaded | KEPT_FIELDS) == []


def test_errors_py_alone_defines_exceptions():
    classes = [(mod, node.name, [ast.unparse(b).rpartition(".")[2] for b in node.bases])
               for mod, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    bases = {name: b for _, name, b in classes}

    def is_exception(name):
        known = getattr(builtins, name, None)
        if isinstance(known, type):
            return issubclass(known, BaseException)
        return any(map(is_exception, bases.get(name, [])))

    assert sorted(f"{mod}.{name}" for mod, name, _ in classes if is_exception(name)) \
        == ["errors.CheckFailed", "errors.InvalidInput", "errors.TooLarge"]



def test_no_class_defines_element_arithmetic():
    """Ring and GMA elements are coordinate rows, multiplied by their
    structure's methods: no class wraps them with operators."""
    operators = {"__mul__", "__rmul__", "__pow__", "__neg__"}
    defined = [f"{mod}.{node.name}.{m.name}" for mod, tree in _trees()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for m in node.body if isinstance(m, ast.FunctionDef) and m.name in operators]
    assert defined == []


def test_one_inverse():
    """Units invert by `localring.batch_invert` and GMA elements by
    `GmaStructure.batch_inv` alone: no linear solve, no single-row alias."""
    deleted = {"solve", "invert_vec", "inv_vec", "is_unit", "det_vec", "trace_vec"}
    defined = [f"{mod}.{name}" for mod, tree in _trees() for name in _definitions(tree)
               if name.rpartition(".")[2] in deleted]
    assert defined == []


def test_one_row_set():
    """A set of rows is one sorted `fp.row_key` array, grown by `fp.new_rows`:
    no key list turned into Python ints or bytes for a set or dict."""
    def is_row_key(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "row_key"

    listed = [f"{mod}:{node.lineno}" for mod, tree in _trees() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "tolist" and is_row_key(node.func.value)]
    defined = [f"{mod}.{name}" for mod, tree in _trees() for name in _definitions(tree)
               if name.rpartition(".")[2] == "_key_set"]
    assert listed == [] and defined == []


def test_one_scalar_embedding():
    """t·Id comes from `GmaStructure.scalars` alone, and brackets and the
    star law take stacks of rows: no single-row twin, no private copy."""
    deleted = {"scalar_mat", "_scal", "_batch_star", "bracket"}
    defined = [f"{mod}.{name}" for mod, tree in _trees() for name in _definitions(tree)
               if name.rpartition(".")[2] in deleted]
    assert defined == []


PINKBENCH = SRC.parents[1] / "pinkbench"


def test_benchmark_targets_resolve():
    """Each traced name in pinkbench/layers.py resolves as its `Tracer`
    installs it: a method in its class's own __dict__ (one inherited or
    moved to a base class is not found there), else a module attribute."""
    spec = importlib.util.spec_from_file_location("_pinkbench_layers", PINKBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for t in layers.TARGETS:
        mod = importlib.import_module(f"pinkforge.{t.module}")
        owner, _, name = t.attr.rpartition(".")
        if not (name in vars(getattr(mod, owner)) if owner else callable(getattr(mod, name, None))):
            missing.append(t.key)
    assert len(layers.TARGETS) > 0 and missing == []

# Defaulted parameters set only through a call the name match cannot see
# (super().__init__, cls(...) in a classmethod, the VERIFY_CHECKS registry),
# or only by tests.
SET_INDIRECTLY = {
    ("localring", "FiniteAlgebra.__init__", "names"),       # super()
    ("localring", "FiniteAlgebra.__init__", "meta"),        # super()
    ("pseudorep", "PseudoRep.__init__", "matrix_group"),    # cls
    ("cli", "_check_theta_identities", "n_tuples"),         # VERIFY_CHECKS
    ("cli", "_check_theta_identities", "fault"),            # VERIFY_CHECKS
    ("pinklie", "pink_converse", "cap"),                    # tests
}


class _Options(ast.NodeVisitor):
    """The defaulted parameters a module defines, as {(module, qualified
    name, parameter): (called name, positional index or None)}, and the
    calls it makes, as (called name, positional count, [positional source],
    {keyword: source}).  A method's index does not count self or cls, an
    __init__ is called by its class's name, and a dataclass field is a
    parameter of its class.  A default that captures a loop variable (x=x)
    is not an option.  The source of an argument is the caller's own
    defaulted parameter when the argument merely forwards it, else None."""

    def __init__(self, mod):
        self.mod, self.options, self.calls = mod, {}, []
        self._scope = [None]         # (qualified name, {forwarded parameter name})

    def visit_ClassDef(self, node):
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
        if any(ast.unparse(d) == "dataclass" for d in node.decorator_list):
            for i, f in enumerate(fields):
                if f.value is not None:
                    self.options[self.mod, f"{node.name}.{f.target.id}", f.target.id] = \
                        (node.name, i)
        for m in node.body:
            if isinstance(m, ast.FunctionDef):
                self._function(m, f"{node.name}.{m.name}",
                               node.name if m.name == "__init__" else m.name, 1)
            else:
                self.visit(m)

    def visit_FunctionDef(self, node):
        self._function(node, node.name, node.name, 0)

    def _function(self, fn, qual, called, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        named = list(zip(pos[len(pos) - len(a.defaults):], a.defaults,
                         range(len(pos) - len(a.defaults) - skip, len(pos))))
        named += [(arg, d, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        mine = set()
        for arg, d, i in named:
            if not (isinstance(d, ast.Name) and d.id == arg.arg):
                self.options[self.mod, qual, arg.arg] = (called, i)
                mine.add(arg.arg)
        self._scope.append((qual, mine))
        self.generic_visit(fn)
        self._scope.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        scope = self._scope[-1]

        def source(value):
            if scope and isinstance(value, ast.Name) and value.id in scope[1]:
                return self.mod, scope[0], value.id
            return None

        npos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
            else len(node.args)
        self.calls.append((name, npos, [source(a) for a in node.args],
                           {k.arg: source(k.value) for k in node.keywords}))
        self.generic_visit(node)


def _source(call, param, i):
    """What a call passes for a parameter (keyword `param`, position i): the
    source of the value, or "unset" when the call leaves it at its default."""
    _, npos, pos, kws = call
    if param in kws:
        return kws[param]
    if i is not None and npos > i:
        return pos[i] if i < len(pos) else None
    return None if None in kws else "unset"          # **kwargs may pass it


def test_every_option_is_set_by_some_caller():
    options, calls = {}, []
    for mod, tree in [*_trees(), *(("pinkbench." + p.stem, ast.parse(p.read_text()))
                                   for p in sorted(PINKBENCH.glob("*.py")))]:
        v = _Options(mod)
        v.visit(tree)
        calls += v.calls
        if not mod.startswith("pinkbench."):
            options.update(v.options)
    # an option is set by a call that passes it, unless the value passed is
    # itself an option of the caller that nothing sets
    unset = {key for key, (called, _) in options.items()
             if called not in KEPT and key not in SET_INDIRECTLY}
    while True:
        still = {key for key in unset
                 if all(src == "unset" or src in unset
                        for src in (_source(call, key[2], options[key][1])
                                    for call in calls if call[0] == options[key][0]))}
        if still == unset:
            break
        unset = still
    unset = sorted(f"{mod}.{qual}({param})" for mod, qual, param in unset)
    assert unset == [], "unset options:\n" + "\n".join(unset)
