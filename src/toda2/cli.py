"""Command-line runner: list checks, run them, emit deterministic JSON reports."""

from __future__ import annotations

import argparse
import sys

from .registry import REGISTRY, RunConfig, run_checks
from .reports import DEGENERATE, FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toda2",
        description="Exact symbolic verification suites for the second-structure "
                    "Toda lattice and its quantisation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every check id with its defaults")

    defaults = RunConfig()
    p_ver = sub.add_parser("verify", help="run checks and write a JSON report")
    p_ver.add_argument("ids", nargs="+",
                       help="check ids to run, or 'all'")
    p_ver.add_argument("--sites", type=int, default=defaults.sites, metavar="N",
                       help="chain length for size-parameterised checks (default %(default)s)")
    p_ver.add_argument("--trunc", type=int, default=defaults.trunc, metavar="K",
                       help="level truncation for the oscillator suites (default %(default)s)")
    p_ver.add_argument("--max-terms", type=int, default=defaults.max_terms, metavar="M",
                       help="term-count guard for operator products (default %(default)s)")
    p_ver.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON report to this path")
    p_ver.add_argument("--seed", type=int, default=0, metavar="S",
                       help="label copied into every row's params; no check reads it")
    p_ver.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the JSON report "
                            "(off by default: reports stay byte-identical)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        default = RunConfig()
        for _, d in sorted(REGISTRY.items()):
            defaults = ", ".join(f"{k}={v}" for k, v in d.params(default).items()) or "-"
            print(f"{d.id:24s} [{d.module:9s}] {d.anchor}  (defaults: {defaults})")
        print(f"{len(REGISTRY)} checks registered")
        return 0

    ids = set(args.ids)
    if "all" in ids:
        ids = REGISTRY.keys() | ids - {"all"}
    try:
        cfg = RunConfig(sites=args.sites, trunc=args.trunc, max_terms=args.max_terms)
        reports = run_checks(ids, cfg)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    width = max(len(r.id) for r in reports)
    for r in reports:
        mark = {"pass": "ok", "fail": "FAIL", "degenerate": "degenerate"}[r.status]
        line = f"{r.id:{width}s}  {mark:10s}  residual_terms={r.residual_terms}" \
               f"  ({r.elapsed * 1000.0:.0f} ms)"
        if r.witness and r.status == FAIL:
            line += f"\n{'':{width}s}  witness: {r.witness}"
        print(line)

    if args.json:
        # imported here: at module level, json adds about 2 ms and 0.13 MiB
        # to every run that writes no report
        import json
        payload = []
        for r in reports:
            row = r.as_row()
            row["params"] = dict(sorted(row["params"].items()), seed=args.seed)
            row["elapsed_ms"] = round(r.elapsed * 1000.0, 3) if args.timings else None
            payload.append(row)
        try:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2

    failed = [r for r in reports if r.status == FAIL]
    degenerate = [r for r in reports if r.status == DEGENERATE]
    print(f"{len(reports) - len(failed) - len(degenerate)} passed, "
          f"{len(degenerate)} degenerate, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
