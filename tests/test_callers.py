"""Every function and method of the package has a caller inside the package,
and every defaulted parameter has a call that passes it.

A reference is a ``Name`` or an ``Attribute`` anywhere in ``src/toda2`` outside
the definition's own body.  A method counts as referenced only through an
``Attribute`` (``obj.name``), so a local variable of the same name does not
hide it; a function counts through either.  Matching is by name alone, so a
method that shares its name with a referenced one (one class's ``to_text``
while another's is called) is not caught.  Dunder methods are exempt.

A call passes a parameter by keyword, by position, or through a ``*`` or
``**`` spread; calls inside the function's own body count, since a builder may
recurse.  Calls match by the called name as above, and a method's ``self`` or
``cls`` takes no position of the call.  An ``__init__`` is the one dunder this
scan reads: its calls are those by the name of its class.

No module reads (``obj._name``) or imports (``from .x import _name``) an
underscore name that only another module defines: a module defines the names
it binds (functions, classes, methods, assignment targets, ``self._x = ...``),
and names match as above, so a module that defines a name of its own may read
another's of the same name.  Dunder names are exempt.
"""

import ast
from pathlib import Path

import toda2

SRC = Path(toda2.__file__).parent

# Kept without a caller in the package, and why.
ALLOWED = {
    "generator": "bench/test_bench.py builds single Weyl generators with it",
    "from_text": "the inverse of Scalar.to_text, which the text round-trip test uses",
}

_SWAPPED = "tests/test_classical.py swaps them to show that the orientation is unique"
# Defaulted parameters that no call in the package passes, and why.
ALLOWED_UNPASSED = {
    "main(argv)": "bench/child.py and the CLI tests pass the argument list",
    "generator(power)": "tests/test_weyl.py and tests/test_ring.py build other powers",
    "bracket_matrix(mu1)": _SWAPPED,
    "bracket_matrix(mu2)": _SWAPPED,
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _scan(src: Path):
    """The function definitions of ``src``, each with the name of its class
    (``None`` for a function), and its ``Name``, ``Attribute`` and ``Call``
    nodes by name."""
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    defs = []  # (function node, class name or None)
    names, attrs, calls = {}, {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((child, node.name if isinstance(node, ast.ClassDef) else None))
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return defs, names, attrs, calls


def _uncalled(src: Path) -> set[str]:
    defs, names, attrs, _ = _scan(src)
    out = set()
    for fn, cls in defs:
        if _dunder(fn.name):
            continue
        inside = {id(n) for n in ast.walk(fn)}
        refs = attrs.get(fn.name, []) + ([] if cls else names.get(fn.name, []))
        if all(id(r) in inside for r in refs):
            out.add(fn.name)
    return out


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(k.arg in (None, name) for k in call.keywords):  # by keyword or ``**``
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed(src: Path) -> set[str]:
    defs, _, _, calls = _scan(src)
    out = set()
    for fn, cls in defs:
        if fn.name == "__init__" and cls:
            called = cls
        elif _dunder(fn.name):
            continue
        else:
            called = fn.name
        a = fn.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        positional = (a.posonlyargs + a.args)[int(cls is not None and not static):]
        first = len(positional) - len(a.defaults)
        defaulted = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for position, name in defaulted:
            if not any(_passes(c, position, name) for c in calls.get(called, [])):
                out.add(f"{called}({name})")
    return out


def _foreign_private(src: Path) -> set[str]:
    """``module._name`` for each underscore name a module of ``src`` reads or
    imports that it does not define but another module does."""
    defined, used = {}, {}
    for p in sorted(src.glob("*.py")):
        own, uses = set(), set()
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute):
                (own if isinstance(node.ctx, ast.Store) else uses).add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                uses.update(a.name for a in node.names)
        defined[p.stem] = own
        used[p.stem] = {n for n in uses
                        if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}
    return {f"{mod}.{name}" for mod, names in used.items() for name in names - defined[mod]
            if any(name in own for other, own in defined.items() if other != mod)}


def test_every_function_has_a_caller_in_the_package():
    uncalled = _uncalled(SRC)
    assert uncalled - set(ALLOWED) == set(), "defined but never referenced"
    assert set(ALLOWED) - uncalled == set(), "allow-listed but referenced: drop the entry"


def test_every_defaulted_parameter_is_passed_in_the_package():
    unpassed = _unpassed(SRC)
    assert unpassed - set(ALLOWED_UNPASSED) == set(), "defaulted but never passed"
    assert set(ALLOWED_UNPASSED) - unpassed == set(), "allow-listed but passed: drop the entry"


def test_no_module_reaches_into_another_modules_private_names():
    assert _foreign_private(SRC) == set()


def test_the_scan_sees_a_private_name_from_another_module(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _helper():\n    return 1\n\n"
        "class K:\n"
        "    def __init__(self):\n        self._cache = 1\n\n"
        "    @classmethod\n    def _of(cls):\n        return cls()\n")
    (tmp_path / "b.py").write_text(
        "from .a import K, _helper\n\n"
        "def _own():\n    return 2\n\n"
        "def f(obj, k=K._of()):\n"
        "    return (_helper(), k._cache, obj._own, obj._elsewhere, obj.__dict__,\n"
        "            obj.__class__, obj._of)\n")
    (tmp_path / "c.py").write_text(
        "class M:\n    def _of(self):\n        return self._cache\n")
    # c defines its own _of; _elsewhere and the dunders are no module's names
    assert _foreign_private(tmp_path) == {"b._helper", "b._of", "b._cache", "c._cache"}


def test_the_scan_sees_an_uncalled_helper_and_ignores_a_same_named_local(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan():\n    return orphan\n\n"
        "class K:\n    def meth(self):\n        return used()\n\n"
        "def caller():\n    meth = K()\n    return meth\n\n"
        "run = caller\n")
    assert _uncalled(tmp_path) == {"orphan", "meth"}


def test_the_scan_sees_a_parameter_no_call_passes(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def g(a=1, b=2):\n    return g(b=a) if a else 0\n\n"
        "def h(a=1, b=2, *, c=3):\n    return a\n\n"
        "class K:\n"
        "    def meth(self, a=1, b=2):\n        return a\n\n"
        "    @classmethod\n    def make(cls, a=1):\n        return cls()\n\n"
        "    @staticmethod\n    def st(a=1, b=2):\n        return a\n\n"
        "class J:\n"
        "    def __init__(self, a=1, b=2):\n        self.a = a\n\n"
        "    def __add__(self, other=None):\n        return self\n\n"
        "args, kw = (1,), {}\n"
        "f(0, 1, d=2)\n"     # b by position, d by keyword
        "g()\n"              # b only in g's own body
        "h(*args)\n"         # a and b through a spread, but not c
        "f(0, **kw)\n"       # every keyword through a spread
        "K().meth(1)\n"      # a, after self
        "K.make()\n"
        "K.st(1)\n"
        "J(1)\n")            # __init__'s a, through the class name
    # other dunders stay exempt
    assert _unpassed(tmp_path) == {"g(a)", "h(c)", "meth(b)", "make(a)", "st(b)", "J(b)"}
