"""Every public function, class and method of pinkforge is referenced, by
name, from the library itself or exported from the package, and every
attribute or dataclass field it stores is read by it.  Code that only tests
call is deleted, except the names in KEPT and KEPT_FIELDS.  The only exception
classes are the three of errors.py, one per non-zero exit code."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pinkforge"

KEPT = {
    # references the tests compare against
    "eta_product_term", "one_elem", "fq_coords", "star_law", "bracket",
    # the realization of a pseudo-representation (t, d) as a GMA representation
    "build_td_representation", "QuotientAlgebra", "residual_multfree_data",
    "residual_eigendata", "check_axioms", "is_faithful",
    # the structure-theorem check
    "check_structure_theorem",
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
    """Names loaded, attributes and names imported, except inside a function
    of the same name (a recursive call reaches nothing new)."""

    def __init__(self):
        self.names, self._inside = set(), []

    def _use(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name)


def test_every_public_name_is_reached():
    defined, used = [], set()
    for mod, tree in _trees():
        defined += [(mod, q, q.rpartition(".")[2]) for q in _definitions(tree)]
        refs = _References()
        refs.visit(tree)
        used |= refs.names
    assert KEPT <= {name for _, _, name in defined}
    unreached = [f"{mod}.{q}" for mod, q, name in defined
                 if not name.startswith("_") and name not in used | KEPT]
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
