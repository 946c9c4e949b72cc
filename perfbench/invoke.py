"""One `leolora simulate` invocation in a fresh interpreter, timed.

Usage: python3 perfbench/invoke.py ROOT MODE RESULT_JSON -- <leolora CLI arguments>

MODE is `plain` (end-to-end timing only), `trace` (per-layer spans and
counts; spans are written next to RESULT_JSON) or `mem` (tracemalloc peak).
`leolora` is imported from ROOT/src.  The CLI's exit code is recorded in
the result, not returned.
"""

from __future__ import annotations

import json
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    root, mode, result_path = Path(argv[0]), argv[1], Path(argv[2])
    cli_args = argv[argv.index("--") + 1:]
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import leolora
    if src not in Path(leolora.__file__).resolve().parents:
        raise RuntimeError(f"leolora imported from {leolora.__file__}, not {src}")
    from leolora import cli
    import layertrace

    tracer = None
    if mode == "trace":
        tracer = layertrace.Tracer()
        tracer.install()
    clock = layertrace.SetupClock()
    clock.install()
    main_fn = cli.main
    if tracer is not None:
        main_fn = tracer.span("cli.main", main_fn)
    if mode == "mem":
        tracemalloc.start()

    t0 = perf_counter()
    clock.open(t0)
    rc = main_fn(cli_args)
    wall = perf_counter() - t0

    result = {
        "rc": rc,
        "wall_s": wall,
        "setup_s": clock.setup_s,
        "loops": clock.loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "mem":
        result["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        result["layers"] = tracer.layers()
        spans_path = result_path.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
