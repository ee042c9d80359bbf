"""Tests of the benchmark itself (not of the engine).

    PYTHONPATH=src python3 -m pytest -q bench/tests

The workload tests run every operation at reduced degrees so they finish in
seconds; the benchmark proper always runs the acceptance degrees.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import references as ref  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

import superkoszul as sk  # noqa: E402
import superkoszul.cli  # noqa: E402,F401

SMALL = {"koszul": 5, "duality": 6, "tor": 5, "mt": 4}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_span_arithmetic_on_nested_and_recursive_calls():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    f = {}

    def leaf():
        clock.tick(3)

    def inner():
        clock.tick(2)
        f["leaf"]()

    def rec(n):
        clock.tick(0.5)
        if n:
            f["rec"](n - 1)

    def outer():
        clock.tick(1)
        f["inner"]()
        clock.tick(1)
        f["rec"](2)

    def boom():
        clock.tick(4)
        raise ValueError("boom")

    for name, fn in [("leaf", leaf), ("inner", inner), ("rec", rec), ("outer", outer),
                     ("boom", boom)]:
        f[name] = tracer.wrap(name, fn)
    f["outer"]()
    with pytest.raises(ValueError):
        f["boom"]()

    st = tracer.stats
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 8.5, 2.0)
    assert (st["inner"].calls, st["inner"].total_s, st["inner"].self_s) == (1, 5.0, 2.0)
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (1, 3.0, 3.0)
    # recursion: three calls, total counted once from the outermost call
    assert (st["rec"].calls, st["rec"].total_s, st["rec"].self_s) == (3, 1.5, 1.5)
    # self times of a tree add up to the root's duration
    assert sum(st[k].self_s for k in ("outer", "inner", "leaf", "rec")) == 8.5
    # a call that raises is still closed and counted
    assert (st["boom"].calls, st["boom"].total_s) == (1, 4.0)
    assert tracer._stack == []


def _bindings():
    """Bindings the tracer must patch: imports by name, the package namespace,
    and a second class name for one function."""
    from superkoszul import cli, homogeneous, koszul, superpoly, tensorspace

    return {
        "koszul.matrix_rank": koszul.matrix_rank,
        "koszul.kernel_of_vectors": koszul.kernel_of_vectors,
        "cli.tor_dims": cli.tor_dims,
        "cli.master_verify": cli.master_verify,
        "homogeneous.symmetrizer_image": homogeneous.symmetrizer_image,
        "superkoszul.master_verify": sk.master_verify,
        "SuperPolynomial.__rmul__": vars(superpoly.SuperPolynomial)["__rmul__"],
        "Subspace.insert": vars(tensorspace.Subspace)["insert"],
    }


def test_install_patches_every_binding_and_restores_them():
    before = _bindings()
    table = {**layers.BOUNDARIES,
             "gone.role": layers.Boundary("tensorspace.NoSuchEliminator.insert", ("calls",),
                                          "tor_resolution")}
    tracer = layers.Tracer().install(table)
    try:
        during = _bindings()
        assert tracer.missing == ["gone.role"]
        assert tracer.metrics(table)["gone.role.calls"] == 0
    finally:
        tracer.uninstall()
    assert all(during[k] is not before[k] for k in before)
    assert all(v is before[k] for k, v in _bindings().items())


def _small_ops(name):
    return [workloads.prepare_op(sk, op._replace(degree=min(op.degree, SMALL[op.kind])))
            for op in workloads.WORKLOADS[name]]


def _verdict(value):
    """A comparable digest of an operation's answer."""
    if isinstance(value, tuple):  # (exit code, stdout, stderr) from the command line
        code, out, _ = value
        return code, [line for line in out.splitlines() if "elapsed_s=" not in line]
    if hasattr(value, "series"):  # duality
        return value.passed, [str(c) for c in value.series.coeffs + value.dual_series.coeffs]
    if hasattr(value, "failures"):  # koszul
        return value.passed, value.failures
    return value.passed, [str(c) for c in value.product.coeffs]


def _answers(ops):
    out = []
    for op in ops:
        try:
            out.append((op.label, "ok", _verdict(op.call())))
        except Exception as exc:
            out.append((op.label, "raised", type(exc).__name__))
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_workload_checks_traced_equals_untraced_and_boundaries_fire(name):
    untraced = _answers(_small_ops(name))
    results, _ = worker.run_ops(_small_ops(name))
    expected_failures = {"tor YM(1|1) N=3 deg=5"} if name == "tor_resolution" else set()
    assert {r["label"] for r in results if r["status"] != "ok"} == expected_failures
    assert all(r["status"] != "wrong" for r in results)

    tracer = layers.Tracer().install()
    try:
        traced = _answers(_small_ops(name))
    finally:
        tracer.uninstall()
    assert traced == untraced
    for role, boundary in layers.BOUNDARIES.items():
        if boundary.workload == name:
            assert tracer.stats[role].calls >= 1, role
            assert not tracer.stats[role].counter_error, role
    assert tracer.missing == []


def test_reference_tables_agree_with_engine_at_small_degree():
    for (p, q) in workloads.FORMATS_3:
        for N in (2, 3):
            A = sk.n_symmetric(sk.SuperSpace.standard(p, q), N)
            dual = ref.sn_dual_series(p, q, N, 6)
            i = 0
            while ref.jump(N, i) <= 6:
                m = ref.jump(N, i)
                assert abs(dual[m]) == A.dual_star_component(m).dim, (p, q, N, m)
                assert dual[m] == (-1) ** i * sk.wedge_dimension(p, q, m)
                i += 1
            assert ref.sn_hilbert(p, q, N, 5) == A.dims(5), (p, q, N)
    Y = sk.yang_mills(sk.SuperSpace.standard(3, 0))
    assert ref.ym30_hilbert(5) == Y.dims(5)
    tor = sk.tor_dims(Y, 4, 5)
    assert {(i, n): v for i, row in tor.dims.items() for n, v in row.items() if v} == ref.YM30_TOR
    code, out, _ = workloads.run_cli(sk, workloads.tor_argv(workloads.Op("tor", "YM", 3, 0, 3, 5)))
    assert code == 0 and workloads.parse_tor(out) == ref.YM30_TOR


def test_run_refuses_a_directory_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tor_resolution", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
