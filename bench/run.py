"""Benchmark for superkoszul: four fixed exact-verdict workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds 1     # every workload, one table

Run from the root of a checkout; the engine is imported from ``src``, so
nothing is built or installed.  Load model: a closed loop with one caller.
Every pass of a workload runs in its own fresh interpreter, one at a time,
and calls each operation once in the order the seed permutes.  Passes repeat
while another fits in ``--seconds`` (at least one runs).

End-to-end metrics (``--trace 0``), medians over the run:

* ``wall_s``: time from the first verdict call to the end of the last one;
* ``setup_s``: process spawn to inputs ready (interpreter start, imports,
  every presentation built), over several spawns;
* ``peak_rss_mb``: the workload process's peak resident set size.

Operations that raise or disagree with the references are counted in
``failed`` against ``attempted``; their share is printed as
``ops_failed_frac``.  ``--trace 1`` adds one traced pass after the untraced
ones and reports the per-layer metrics of :mod:`layers` together with
``trace.overhead_frac`` (traced wall over untraced wall, minus one).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, prefixed
``#record``, holds the provenance and every per-operation result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 7
MAX_PASSES = 50
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A worker could not run the workload; no result is printed."""


def spawn(root: Path, mode: str, workload: str, seed: int) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to inputs ready, its record)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=root,
    ) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    if mode == "setup":
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def provenance(root: Path) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Every figure of one run of one workload."""
    setup = [spawn(root, "setup", workload, seed)[0] for _ in range(SETUP_SPAWNS)]
    passes = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        pass_start = time.perf_counter()
        passes.append(spawn(root, "run", workload, seed)[1])
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:  # the next pass would overrun
            break
    traced = spawn(root, "trace", workload, seed)[1] if trace else None

    runs = passes + ([traced] if traced else [])
    statuses = [op["status"] for r in runs for op in r["ops"]]
    wall = statistics.median(p["wall_s"] for p in passes)
    result = {
        "workload": workload,
        "passes": len(passes),
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": sum(s != "ok" for s in statuses),
        "e2e": {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
        },
        "setup_samples": setup,
        "pass_walls": [p["wall_s"] for p in passes],
        "ops": passes[0]["ops"],
        "failures": sorted({(op["label"], op.get("detail", "")) for r in runs for op in r["ops"]
                            if op["status"] != "ok"}),
    }
    if traced:
        result["layers"] = {**traced["layers"],
                            layers.OVERHEAD_METRIC: traced["wall_s"] / wall - 1}
        result["trace"] = traced["trace"]
        result["missing"] = traced["missing"]
    return result


def metric_block(result: dict, trace: bool) -> dict:
    if trace:
        units = layers.metric_units()
        return {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["e2e"].items()}


def print_table(result: dict, trace: bool):
    frac = result["failed"] / result["attempted"]
    print(f"# workload {result['workload']}: {result['passes']} pass(es), "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for name, m in metric_block(result, trace).items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'ops_failed_frac':40s} {frac:>14.6g} ratio")
    for label, detail in result["failures"]:
        print(f"# failed: {label}: {detail}")
    for role in result.get("missing", []):
        print(f"# missing boundary: {role}")
    if trace:
        top = sorted(result["trace"].items(), key=lambda kv: -kv[1]["self_s"])[:3]
        print("# top self_s: " + ", ".join(f"{role} {st['self_s']:.3f} s" for role, st in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "superkoszul" / "__init__.py").is_file():
        print(f"bench: no engine source at {root / 'src' / 'superkoszul'}; "
              "run from the root of a superkoszul checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    record = {**provenance(root), "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "loadavg_before": os.getloadavg()}
    try:
        results = [measure(root, n, args.seed, args.seconds, trace) for n in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    record["results"] = results

    for r in results:
        print_table(r, trace)
    if len(results) == 1:
        metrics = metric_block(results[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results
                   for k, m in metric_block(r, trace).items()}
    print("#record " + json.dumps(record))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
