"""toda2 benchmark: end-to-end and per-layer cost of ``toda2 verify``.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload sites4 --record-reference

Run it from the repository root.  The load is a closed loop with one client:
each CLI run (``toda2.cli.main``) happens in a fresh Python child process, one
at a time, so no run inherits another's caches, registry order or memory.

``--trace 0`` measures ``wall_s`` (the ``main()`` call), ``setup_s`` (importing
``toda2.cli``, median of many fresh imports) and ``peak_rss_mib``.
``--trace 1`` alternates an untraced and a traced child and reports the
per-layer metrics of ``PER_LAYER``.  Every run's report rows are checked
against ``bench/reference/<workload>.json``; see ``bench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "catalogue": ["verify", "all"],
    "sites4": ["verify", "ATT_TTD", "tau_commute", "tloc_commute", "commute",
               "--sites", "4"],
}

SETUP_SAMPLES_PER_RUN = 7
RUN_DEADLINE_S = 170.0
TIMED_CHECKS = ("Omega_H1", "zero_column_sum", "virlat", "pp", "qp", "ATT_TTD",
                "tau_commute", "tloc_commute", "commute")
ROW_KEYS = ("id", "params", "status", "residual_terms", "anchor", "witness")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


# -- metrics -------------------------------------------------------------------

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer(layers: dict, name: str) -> dict:
    return layers.get(name) or {"calls": 0, "self_s": 0.0, "pairs": 0,
                                "terms_out": 0, "terms_max": 0, "hits": 0}


def _calls_self(prefix: str):
    return [(f"{prefix}.calls", "count", "lower", lambda L, p=prefix: _layer(L, p)["calls"]),
            (f"{prefix}.self_s", "s", "lower", lambda L, p=prefix: _layer(L, p)["self_s"])]


def _field(prefix: str, suffix: str, field: str, unit: str):
    return (f"{prefix}.{suffix}", unit, "lower", lambda L: _layer(L, prefix)[field])


def _share(prefix: str, suffix: str, better: str, part):
    def value(L):
        st = _layer(L, prefix)
        return _ratio(part(st), st["calls"])
    return (f"{prefix}.{suffix}", "ratio", better, value)


# (name, unit, better, value from the traced span table); the per-check times,
# the runner overhead, witness_diff and the tracing overhead are added by
# ``trace_metrics`` from the untraced runs and the report rows.
PER_LAYER_FROM_SPANS = [
    *_calls_self("ring.Scalar.mul"),
    _field("ring.Scalar.mul", "pairs", "pairs", "count"),
    _field("ring.Scalar.mul", "terms_out", "terms_out", "count"),
    ("ring.Scalar.mul.merge_ratio", "ratio", "lower",
     lambda L: _ratio(_layer(L, "ring.Scalar.mul")["pairs"]
                      - _layer(L, "ring.Scalar.mul")["terms_out"],
                      _layer(L, "ring.Scalar.mul")["pairs"])),
    *_calls_self("ring.Scalar.add"),
    *_calls_self("ring.ScalarFraction.mul"),
    _share("ring.ScalarFraction.mul", "unit_den_ratio", "lower", lambda st: st["hits"]),
    *_calls_self("ring.ScalarFraction.add"),
    _share("ring.ScalarFraction.add", "same_den_ratio", "higher", lambda st: st["hits"]),
    ("ring.ScalarFraction.den_terms_max", "terms", "lower",
     lambda L: max(_layer(L, "ring.ScalarFraction.mul")["terms_max"],
                   _layer(L, "ring.ScalarFraction.add")["terms_max"])),
    *_calls_self("weyl.WeylOp.mul"),
    _field("weyl.WeylOp.mul", "pairs", "pairs", "count"),
    _field("weyl.WeylOp.mul", "terms_out_max", "terms_max", "terms"),
    _share("weyl.WeylOp.mul", "scalar_operand_ratio", "lower", lambda st: st["hits"]),
    *_calls_self("weyl.WeylOp.add"),
    *_calls_self("matops.OpMatrix.mul"),
    _field("matops.OpMatrix.mul", "entry_products", "terms_out", "count"),
    ("matops.OpMatrix.mul.zero_skip_ratio", "ratio", "higher",
     lambda L: _ratio(_layer(L, "matops.OpMatrix.mul")["pairs"]
                      - _layer(L, "matops.OpMatrix.mul")["terms_out"],
                      _layer(L, "matops.OpMatrix.mul")["pairs"])),
    *_calls_self("poisson.Chart.poly_bracket"),
    _field("poisson.Chart.poly_bracket", "pairs", "pairs", "count"),
    *_calls_self("poisson.Chart.bracket"),
    *_calls_self("stoch.weyl_act"),
    _field("stoch.weyl_act", "pairs", "pairs", "count"),
    *_calls_self("stoch.fock_act"),
    *[(f"{suite}.check.self_s", "s", "lower",
       lambda L, s=suite: _layer(L, f"{s}.check")["self_s"])
      for suite in ("poisson", "classical", "quantum", "stoch")],
    *_calls_self("reports.report_from_residuals"),
]

PER_LAYER_FROM_RUNS = [
    ("reports.witness_diff", "count", "lower"),
    *[(f"registry.check.{cid}.s", "s", "lower") for cid in TIMED_CHECKS],
    ("registry.run_checks.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

PER_LAYER = [(n, u, b) for n, u, b, _ in PER_LAYER_FROM_SPANS] + PER_LAYER_FROM_RUNS

# Span counters (every span metric but a time) that two traced runs of the
# same code must reproduce exactly.
COUNTERS = [n for n, u, _, _ in PER_LAYER_FROM_SPANS if u != "s"]


def span_metrics(layers: dict) -> dict[str, float]:
    return {name: value(layers) for name, _, _, value in PER_LAYER_FROM_SPANS}


# -- children ------------------------------------------------------------------


class Session:
    """Runs children for one benchmark invocation, inside the checkout."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.report = workdir / "report.json"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        PYTHONHASHSEED=str(seed))

    def child(self, flags: list[str], cli_argv: list[str]) -> dict | None:
        """Run bench/child.py; None when it crashes or overruns the deadline."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *flags, "--", *cli_argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print("child timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self, n: int) -> list[float]:
        samples = []
        for _ in range(n):
            res = self.child(["--setup-only"], [])
            if res is None:
                raise BenchError("toda2.cli cannot be imported")
            samples.append(res["setup_s"])
        return samples

    def verify(self, workload: str, flags: list[str], timings: bool = False):
        """One CLI run of the workload; returns (child result, report rows)."""
        self.report.unlink(missing_ok=True)
        argv = WORKLOADS[workload] + ["--seed", str(self.seed), "--json", str(self.report)]
        res = self.child(flags, argv + (["--timings"] if timings else []))
        rows = None
        if res is not None and self.report.exists():
            rows = json.loads(self.report.read_text())
        return res, rows


# -- correctness ---------------------------------------------------------------


def load_reference(workload: str) -> list[dict]:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference rows {path}")
    return json.loads(path.read_text())["rows"]


def _strip_seed(row: dict) -> dict:
    out = {k: row[k] for k in ROW_KEYS}
    out["params"] = {k: v for k, v in row["params"].items() if k != "seed"}
    return out


def compare_rows(rows: list[dict] | None, reference: list[dict], seed: int):
    """Return (failed, witness_diff, unexpected ids) against the reference.

    A row fails when it is missing, or its seed label, params, status,
    residual_terms or anchor differ; witness text is compared separately.
    """
    got = {r["id"]: r for r in rows or []}
    failed = witness_diff = 0
    for ref in reference:
        row = got.get(ref["id"])
        if row is None or row["params"].get("seed") != seed:
            failed += 1
            continue
        row = _strip_seed(row)
        if any(row[k] != ref[k] for k in ROW_KEYS if k != "witness"):
            failed += 1
        elif row["witness"] != ref["witness"]:
            witness_diff += 1
    unexpected = sorted(set(got) - {r["id"] for r in reference})
    return failed, witness_diff, unexpected


# -- the two modes -------------------------------------------------------------


def build() -> None:
    """Byte-compile the sources so no timed import pays for compilation."""
    if not (SRC / "toda2" / "cli.py").is_file():
        raise BenchError(f"no toda2 sources under {SRC}")
    if not compileall.compile_dir(str(SRC), quiet=2):
        raise BenchError("toda2 sources do not compile")


def within(seconds: float):
    """Yield once per run while another run, as long as the last, would be
    less than half done at ``seconds``; the first run always happens.

    A ``sites4`` run takes up to a third of ``seconds``, so stopping before
    every run that would end late would often leave a third unmeasured.
    """
    start = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now + (now - last) / 2 - start > seconds:
            return
        last = now
        yield


def measure(session: Session, workload: str, seconds: float, reference: list[dict]) -> dict:
    session.setup_samples(1)  # warm the file cache
    setups, walls, rss = [], [], []
    attempted = failed = 0
    correct = True
    for _ in within(seconds):
        # Import samples are spread over the whole run: the host's load varies
        # within seconds, and a burst of samples would catch only one phase.
        setups += session.setup_samples(SETUP_SAMPLES_PER_RUN)
        res, rows = session.verify(workload, [])
        bad, _, unexpected = compare_rows(rows, reference, session.seed)
        attempted += len(reference)
        failed += bad
        correct = correct and not unexpected
        if res is None:
            break
        setups.append(res["setup_s"])
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mib"])
    metrics = {"setup_s": statistics.median(setups)}
    if walls:
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mib"] = statistics.median(rss)
    summary = (f"{len(walls)} runs; wall_s per run: "
               + ", ".join(f"{w:.3f}" for w in walls))
    return _result(workload, correct and len(walls) > 0, attempted, failed, metrics,
                   dict(END_TO_END), summary)


def trace_metrics(plain: dict, traced: dict, plain_rows: list[dict],
                  witness_diff: int) -> dict[str, float]:
    """Per-layer metrics from one untraced and one traced run of the same argv."""
    layers = traced["layers"]
    metrics = span_metrics(layers)
    metrics["reports.witness_diff"] = witness_diff
    elapsed = {r["id"]: r["elapsed_ms"] / 1000.0 for r in plain_rows or []}
    for cid in TIMED_CHECKS:
        metrics[f"registry.check.{cid}.s"] = elapsed.get(cid, 0.0)
    metrics["registry.run_checks.overhead_s"] = _layer(layers, "registry.run_checks")["self_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return metrics


def measure_traced(session: Session, workload: str, seconds: float,
                   reference: list[dict]) -> dict:
    runs = []
    attempted = failed = 0
    correct = True
    for _ in within(seconds):
        pair = []
        for flags in ([], ["--trace"]):
            res, rows = session.verify(workload, flags, timings=True)
            bad, wdiff, unexpected = compare_rows(rows, reference, session.seed)
            attempted += len(reference)
            failed += bad
            correct = correct and not unexpected
            pair.append((res, rows, wdiff))
        (plain, plain_rows, wdiff), (traced, _, traced_wdiff) = pair
        if plain is None or traced is None:
            break
        runs.append(trace_metrics(plain, traced, plain_rows, max(wdiff, traced_wdiff)))
    correct = correct and all(len({r[name] for r in runs}) <= 1 for name in COUNTERS)
    metrics = {}
    for name, _, _ in PER_LAYER:
        if runs:  # median_low keeps a counter an int
            metrics[name] = statistics.median_low(r[name] for r in runs)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return _result(workload, correct and len(runs) > 0, attempted, failed, metrics,
                   units, f"{len(runs)} untraced/traced pairs")


def _result(workload, correct, attempted, failed, metrics, units, summary) -> dict:
    print(f"workload {workload}: {summary}")
    print(f"  rows attempted {attempted}, failed {failed}, "
          f"check_fail_ratio {_ratio(failed, attempted):.4f}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    return {"correct": bool(correct) and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def record_reference(session: Session, workload: str) -> None:
    res, rows = session.verify(workload, [])
    if res is None or rows is None:
        raise BenchError(f"workload {workload} did not produce a report")
    path = REFERENCE / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": workload, "argv": WORKLOADS[workload],
               "rows": [_strip_seed(r) for r in rows]}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} reference rows to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded as the CLI's --seed label and used as the "
                             "children's PYTHONHASHSEED; no check samples anything")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="start no run that would be less than half done "
                             "after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this commit's report rows as the reference")
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        build()
        with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
            for workload in workloads:
                session = Session(args.seed, Path(tmp))
                if args.record_reference:
                    record_reference(session, workload)
                    continue
                reference = load_reference(workload)
                run = measure_traced if args.trace else measure
                result = run(session, workload, args.seconds, reference)
                ok = ok and result["correct"]
                print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
