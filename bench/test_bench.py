"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# A few seconds of checks that between them enter every traced layer.
SMALL_ARGV = ["verify", "qq", "AD", "column_eigen", "omega_identity",
              "poissonL_explicit", "--seed", "0"]


@pytest.fixture
def tracer():
    t = Tracer().install()
    yield t
    t.uninstall()


def _calls(tracer, name):
    return tracer.stats[name].calls


def test_reflected_operators_are_traced_once(tracer):
    from toda2.ring import Scalar, ScalarFraction
    from toda2.weyl import Lattice, WeylOp

    x, y = Scalar.var("x"), Scalar.var("y")
    f = ScalarFraction(x, y)
    w = WeylOp.generator(Lattice(2, True), 1, "U")
    cases = [
        (lambda: x * 3, "ring.Scalar.mul"), (lambda: 3 * x, "ring.Scalar.mul"),
        (lambda: x + 2, "ring.Scalar.add"), (lambda: 2 + x, "ring.Scalar.add"),
        (lambda: x - y, "ring.Scalar.add"),
        (lambda: f * x, "ring.ScalarFraction.mul"),
        (lambda: Fraction(1, 2) * f, "ring.ScalarFraction.mul"),
        (lambda: f + 1, "ring.ScalarFraction.add"),
        (lambda: 1 + f, "ring.ScalarFraction.add"),
        (lambda: f - f, "ring.ScalarFraction.add"),
        (lambda: w * x, "weyl.WeylOp.mul"), (lambda: x * w, "weyl.WeylOp.mul"),
        (lambda: w + 1, "weyl.WeylOp.add"), (lambda: 1 + w, "weyl.WeylOp.add"),
    ]
    for op, name in cases:
        before = _calls(tracer, name)
        op()
        assert _calls(tracer, name) == before + 1, name


def test_uninstall_restores_every_binding(tracer):
    from toda2 import cli, registry
    from toda2.ring import Scalar

    assert Scalar.__rmul__ is Scalar.__mul__
    assert Scalar.__mul__.__wrapped__ is not None
    assert cli.run_checks is registry.run_checks
    tracer.uninstall()
    assert not hasattr(Scalar.__mul__, "__wrapped__")
    assert not hasattr(Scalar.__rmul__, "__wrapped__")
    assert not hasattr(cli.run_checks, "__wrapped__")


def test_two_traced_runs_agree_and_self_times_fit(tmp_path):
    session = run.Session(0, tmp_path)
    runs = [session.child(["--trace"], SMALL_ARGV) for _ in range(2)]
    assert all(r is not None and r["exit_code"] == 0 for r in runs)
    first, second = (run.span_metrics(r["layers"]) for r in runs)
    for name in run.COUNTERS:
        assert second[name] == first[name], name
    for layer in ("ring.Scalar.mul", "ring.ScalarFraction.add", "weyl.WeylOp.mul",
                  "matops.OpMatrix.mul", "poisson.Chart.poly_bracket",
                  "stoch.weyl_act", "stoch.fock_act"):
        assert first[f"{layer}.calls"] > 0, layer
    for r in runs:
        self_total = sum(stat["self_s"] for stat in r["layers"].values())
        assert 0 < self_total <= r["wall_s"]


def _as_report(rows, seed):
    out = copy.deepcopy(rows)
    for row in out:
        row["params"]["seed"] = seed
    return out


def test_compare_rows_counts_failures_and_witness_changes():
    ref = run.load_reference("catalogue")
    assert run.compare_rows(_as_report(ref, 7), ref, 7) == (0, 0, [])
    assert run.compare_rows(_as_report(ref, 7), ref, 8)[0] == len(ref)
    assert run.compare_rows(None, ref, 7)[0] == len(ref)

    rows = _as_report(ref, 7)
    rows[0]["status"] = "fail"
    rows[1]["residual_terms"] += 1
    rows[2]["witness"] = "reordered text"
    del rows[3]
    rows.append(dict(rows[-1], id="unexpected"))
    assert run.compare_rows(rows, ref, 7) == (3, 1, ["unexpected"])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    for workload in run.WORKLOADS:
        assert run.load_reference(workload)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sites4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
