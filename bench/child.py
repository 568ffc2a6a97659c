"""Run one toda2 CLI invocation in this fresh interpreter and report its cost.

    python3 bench/child.py [--setup-only | --trace] -- <toda2 argv...>

``src`` must be on ``PYTHONPATH``.  The last line of standard output is one
JSON object: ``setup_s`` (import of ``toda2.cli``, which builds the check
registry), and unless ``--setup-only`` also ``wall_s`` (the ``main()`` call),
``exit_code``, ``peak_rss_mib`` (this process's ``ru_maxrss``) and, with
``--trace``, the per-layer span table of :mod:`tracing`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    flags, cli_argv = argv[:sep], argv[sep + 1:]
    traced = "--trace" in flags

    t0 = time.perf_counter()
    import toda2.cli
    out = {"setup_s": time.perf_counter() - t0}
    if "--setup-only" not in flags:
        tracer = None
        if traced:
            from tracing import Tracer
            tracer = Tracer().install()
        with contextlib.redirect_stdout(io.StringIO()):
            t1 = time.perf_counter()
            if tracer is None:
                code = toda2.cli.main(cli_argv)
            else:
                code = tracer.run(toda2.cli.main, cli_argv)
            out["wall_s"] = time.perf_counter() - t1
        out["exit_code"] = code
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["layers"] = tracer.layers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
