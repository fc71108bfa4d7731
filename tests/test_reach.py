"""Every public function, class and method of pinkforge is referenced, by
name, from the library itself or exported from the package.  Code that only
tests call is deleted, except the names in KEPT."""

import ast
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
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.stem, q, q.rpartition(".")[2]) for q in _definitions(tree)]
        refs = _References()
        refs.visit(tree)
        used |= refs.names
    assert KEPT <= {name for _, _, name in defined}
    unreached = [f"{mod}.{q}" for mod, q, name in defined
                 if not name.startswith("_") and name not in used | KEPT]
    assert unreached == []
