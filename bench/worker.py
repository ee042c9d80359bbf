"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py {setup|run|trace} WORKLOAD SEED

The engine package must be importable (``run.py`` puts ``src`` on
``PYTHONPATH``).  The worker imports it, builds every input, and prints
``ready``; ``setup`` stops there.  ``run`` then calls each operation once,
checks it, and prints one JSON line with the per-operation results, the
time from the first verdict call to the end of the last one, and the peak
resident set size.  ``trace`` does the same with the layer wrappers
installed before the inputs are built, and adds the per-layer figures.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def _attempt(op) -> tuple[str, "str | None"]:
    """(status, detail) of one call: "ok", "wrong" with the reason, or "raised"."""
    try:
        value = op.call()
    except Exception as exc:  # the pass must go on; the failure is reported
        return "raised", f"{type(exc).__name__}: {exc}"
    detail = op.check(value)
    return ("ok" if detail is None else "wrong"), detail


def run_ops(ops: list) -> tuple[list, float]:
    """Call and check each operation once, in list order.

    Each operation is dropped from ``ops`` as soon as it is done, so its
    algebra and memos are freed and the peak memory is that of the largest
    single verdict, whatever order the seed chose.
    """
    results = []
    first = last = time.perf_counter()
    while ops:
        op = ops.pop(0)
        start = time.perf_counter()
        status, detail = _attempt(op)
        last = time.perf_counter()
        results.append({"label": op.label, "status": status, "seconds": last - start,
                        **({"detail": detail} if detail else {})})
    return results, last - first


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode not in ("setup", "run", "trace") or name not in workloads.WORKLOADS:
        print(f"usage: worker.py {{setup|run|trace}} WORKLOAD SEED, got {argv}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer().install()
    try:
        import superkoszul as sk
        import superkoszul.cli  # noqa: F401  (the tor workload calls sk.cli.main)

        ops = workloads.prepare(sk, name, seed)
        print("ready", flush=True)
        if mode == "setup":
            return 0
        results, wall = run_ops(ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "ops": results,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["trace"] = tracer.summary()
        record["missing"] = tracer.missing
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
