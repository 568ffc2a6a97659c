"""Per-layer span tracer for toda2, installed from outside the package.

:meth:`Tracer.install` replaces each traced public function of ``toda2`` with a
wrapper that records a span around the call.  Spans are aggregated in memory
by name: each name keeps its call count, its self time (the span's duration
minus the time of the traced spans nested inside it) and the work counters of
its layer.  The wrapper's own bookkeeping is timed outside every span, so the
self times of all spans, the root included, add up to no more than the traced
wall time.

Every binding of a traced function is rebound, not only the one it was
defined under: ``Scalar.__rmul__ = __mul__`` and ``__radd__ = __add__`` alias
the original function objects at class creation, and ``cli`` imports
``run_checks`` by name, so patching one attribute would let those calls
escape the trace.  Methods that reach a traced method through ordinary
attribute lookup (``__sub__``, ``__pow__``, ``WeylOp.__rmul__``,
``OpMatrix.__matmul__``) are left alone; the traced call inside them nests
under their caller's span and is counted once.
"""

from __future__ import annotations

import inspect
import sys
import time

# Import every module up front, so no later import binds a wrapper by name.
from toda2 import cli, matops, poisson, registry, reports, ring, stoch, weyl  # noqa: F401

ROOT = "cli.main"
SUITES = ("poisson", "classical", "quantum", "stoch")


class Stat:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "self_s", "pairs", "terms_out", "terms_max", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.pairs = 0       # operand term pairs visited
        self.terms_out = 0   # terms in the results, summed
        self.terms_max = 0   # largest result (or denominator), in terms
        self.hits = 0        # calls that took the layer's cheap case

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


# -- work counters, run after the span's clock has stopped ---------------------


def _count_scalar_mul(stat: Stat, args, result) -> None:
    a, b = args
    stat.calls += 1
    n = len(b.terms) if isinstance(b, ring.Scalar) else (1 if b else 0)
    stat.pairs += len(a.terms) * n
    stat.terms_out += len(result.terms)


def _count_fraction_mul(stat: Stat, args, result) -> None:
    a, b = args
    stat.calls += 1
    if a.den.is_one() or not isinstance(b, ring.ScalarFraction) or b.den.is_one():
        stat.hits += 1
    stat.terms_max = max(stat.terms_max, len(result.den.terms))


def _count_fraction_add(stat: Stat, args, result) -> None:
    a, b = args
    stat.calls += 1
    if (a.den.terms == b.den.terms) if isinstance(b, ring.ScalarFraction) else a.den.is_one():
        stat.hits += 1
    stat.terms_max = max(stat.terms_max, len(result.den.terms))


def _scalar_valued(op) -> bool:
    return all(k == () for k in op.terms)


def _count_weyl_mul(stat: Stat, args, result) -> None:
    a, b = args
    stat.calls += 1
    if not isinstance(b, weyl.WeylOp):  # a ring scalar
        stat.pairs += len(a.terms)
        stat.hits += 1
    else:
        stat.pairs += len(a.terms) * len(b.terms)
        if _scalar_valued(a) or _scalar_valued(b):
            stat.hits += 1
    stat.terms_max = max(stat.terms_max, len(result.terms))


def _count_matrix_mul(stat: Stat, args, result) -> None:
    a, b = args
    stat.calls += 1
    stat.pairs += a.rows * a.cols * b.cols
    for k in range(a.cols):
        col = sum(1 for i in range(a.rows) if not a.entries[i][k].is_zero())
        if col:
            stat.terms_out += col * sum(1 for x in b.entries[k] if not x.is_zero())


def _count_poly_bracket(stat: Stat, args, result) -> None:
    _, p, q = args
    stat.calls += 1
    stat.pairs += len(p.terms) * len(q.terms)


def _count_weyl_act(stat: Stat, args, result) -> None:
    v, op = args
    stat.calls += 1
    stat.pairs += len(op.terms) * len(v.coeffs)


class Tracer:
    """Span aggregates for one process; install, run, then read :meth:`layers`."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.self_s += clock() - t1 - stack.pop()
                stack[-1] += clock() - t0
                raise
            t2 = clock()
            stat.self_s += t2 - t1 - stack.pop()
            if count is None:
                stat.calls += 1
            elif result is not NotImplemented:
                count(stat, args, result)
            stack[-1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` and rebind every alias of it inside toda2."""
        original = vars(owner)[attr]
        wrapper = self._wrap(name, original, count)
        for module_name, module in list(sys.modules.items()):
            if module_name != "toda2" and not module_name.startswith("toda2."):
                continue
            namespaces = [module] + [c for c in vars(module).values()
                                     if inspect.isclass(c)
                                     and c.__module__ == module_name]
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def install(self) -> "Tracer":
        """Trace every layer boundary named in the benchmark's README."""
        self._patch(ring.Scalar, "__mul__", "ring.Scalar.mul", _count_scalar_mul)
        self._patch(ring.Scalar, "__add__", "ring.Scalar.add")
        self._patch(ring.ScalarFraction, "__mul__", "ring.ScalarFraction.mul",
                    _count_fraction_mul)
        self._patch(ring.ScalarFraction, "__add__", "ring.ScalarFraction.add",
                    _count_fraction_add)
        self._patch(weyl.WeylOp, "__mul__", "weyl.WeylOp.mul", _count_weyl_mul)
        self._patch(weyl.WeylOp, "__add__", "weyl.WeylOp.add")
        self._patch(matops.OpMatrix, "mul", "matops.OpMatrix.mul", _count_matrix_mul)
        self._patch(poisson.Chart, "poly_bracket", "poisson.Chart.poly_bracket",
                    _count_poly_bracket)
        self._patch(poisson.Chart, "bracket", "poisson.Chart.bracket")
        self._patch(stoch, "weyl_act", "stoch.weyl_act", _count_weyl_act)
        self._patch(stoch, "fock_act", "stoch.fock_act")
        for suite in SUITES:
            module = sys.modules[f"toda2.{suite}"]
            for fname, fn in list(vars(module).items()):
                if fname.startswith("check_") and inspect.isfunction(fn) \
                        and fn.__module__ == module.__name__:
                    self._patch(module, fname, f"{suite}.check")
        self._patch(reports, "report_from_residuals", "reports.report_from_residuals")
        self._patch(registry, "run_checks", "registry.run_checks")
        return self

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            setattr(ns, key, value)
        self._restore.clear()

    # -- running and reading ---------------------------------------------------

    def run(self, fn, *args):
        """Call ``fn`` as the root span; its self time is recorded as ``cli.main``."""
        root = self.stats.setdefault(ROOT, Stat())
        self._stack[:] = [0.0]
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            root.calls += 1
            root.self_s += wall - self._stack[0]

    def layers(self) -> dict[str, dict]:
        return {name: stat.as_dict() for name, stat in sorted(self.stats.items())}
