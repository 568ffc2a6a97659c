"""Every function and method of the package has a caller inside the package.

A reference is a ``Name`` or an ``Attribute`` anywhere in ``src/toda2`` outside
the definition's own body.  A method counts as referenced only through an
``Attribute`` (``obj.name``), so a local variable of the same name does not
hide it; a function counts through either.  Matching is by name alone, so a
method that shares its name with a referenced one (one class's ``to_text``
while another's is called) is not caught.  Dunder methods are exempt.
"""

import ast
from pathlib import Path

import toda2

SRC = Path(toda2.__file__).parent

# Kept without a caller in the package, and why.
ALLOWED = {
    "generator": "bench/test_bench.py builds single Weyl generators with it",
    "from_text": "the inverse of Scalar.to_text, which the text round-trip test uses",
    "table": "the bracket lookup of the fold reference in tests/test_poisson.py",
}


def _uncalled(src: Path) -> set[str]:
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    defs = []  # (function node, is a method)
    names, attrs = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((child, isinstance(node, ast.ClassDef)))
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
    out = set()
    for fn, is_method in defs:
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        inside = {id(n) for n in ast.walk(fn)}
        refs = attrs.get(fn.name, []) + ([] if is_method else names.get(fn.name, []))
        if all(id(r) in inside for r in refs):
            out.add(fn.name)
    return out


def test_every_function_has_a_caller_in_the_package():
    uncalled = _uncalled(SRC)
    assert uncalled - set(ALLOWED) == set(), "defined but never referenced"
    assert set(ALLOWED) - uncalled == set(), "allow-listed but referenced: drop the entry"


def test_the_scan_sees_an_uncalled_helper_and_ignores_a_same_named_local(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan():\n    return orphan\n\n"
        "class K:\n    def meth(self):\n        return used()\n\n"
        "def caller():\n    meth = K()\n    return meth\n\n"
        "run = caller\n")
    assert _uncalled(tmp_path) == {"orphan", "meth"}
