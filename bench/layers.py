"""Outside-in layer trace: time the calls into each module's public functions
by wrapping them from the benchmark, without editing the engine.

One table, :data:`BOUNDARIES`, maps a role name to the dotted callable it
wraps.  Every module-level binding of the same function object inside the
``superkoszul`` package is patched too (``koszul`` imports ``matrix_rank``
and ``kernel_of_vectors`` by name, ``cli`` imports ``tor_dims`` and
``master_verify``, ``homogeneous`` imports ``symmetrizer_image``), and so is
every other name of the same class binding (``__rmul__ = __mul__``).  A role
whose callable no longer exists is reported as missing; it never stops the
run, and :meth:`Tracer.uninstall` always restores the original bindings.

Per role the tracer keeps ``calls``; ``total_s``, summed over outermost
calls only so recursion is not counted twice; ``self_s``, each call's
duration minus the spans of the traced calls nested directly inside it; and
the counts named in the table.  The engine is single-threaded, so no waiting
is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "superkoszul"


def _dim_of_first(stats, args, result):
    stats.counts["dim_sum"] += result[0].dim


def _dim(stats, args, result):
    stats.counts["dim_sum"] += result.dim


def _useful(stats, args, result):
    stats.counts["useful"] += bool(result)


def _vectors_in(stats, args, result):
    stats.counts["vectors_in"] += len(args[0])


def _nnz(stats, args, result):
    stats.counts["nnz"] += sum(len(col) for col in result.columns.values())


def _terms_out(stats, args, result):
    stats.counts["terms_out"] += len(result.terms)


class _DistinctWords:
    """Counts normal-form requests never seen before for the same algebra."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()

    def __call__(self, stats, args, result):
        algebra, word = args[0], tuple(args[1])
        words = self.seen.setdefault(algebra, set())
        if word not in words:
            words.add(word)
            stats.counts["distinct"] += 1


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: what it is, what to count, where it must run."""

    target: str  # dotted path below the package, e.g. "tensorspace.Subspace.insert"
    metrics: tuple  # metric suffixes reported for this role
    workload: str  # a workload on which the role records at least one call
    counter: object = None  # (stats, args, result) -> None, or a factory for one


BOUNDARIES = {
    "homogeneous.relations": Boundary(
        "homogeneous.HomogAlgebra.graded_component",
        ("calls", "total_s", "dim_sum"), "duality_sweep", _dim_of_first),
    "homogeneous.dual_star": Boundary(
        "homogeneous.HomogAlgebra.dual_star_component",
        ("calls", "total_s", "self_s", "dim_sum"), "koszul_sweep", _dim),
    "homogeneous.normal_form": Boundary(
        "homogeneous.HomogAlgebra.normal_form_word",
        ("calls", "self_s", "distinct_ratio"), "koszul_sweep", _DistinctWords),
    "homogeneous.confluence": Boundary(
        "homogeneous.HomogAlgebra.confluence_report",
        ("calls", "total_s"), "master_theorem"),
    "tensorspace.echelon_insert": Boundary(
        "tensorspace.Subspace.insert",
        ("calls", "self_s", "useful_ratio"), "duality_sweep", _useful),
    "tensorspace.forward_insert": Boundary(
        "tensorspace.RankCounter.insert",
        ("calls", "self_s", "useful_ratio"), "tor_resolution", _useful),
    "tensorspace.kernel": Boundary(
        "tensorspace.kernel_of_vectors",
        ("calls", "self_s", "vectors_in"), "tor_resolution", _vectors_in),
    "tensorspace.reduce": Boundary(
        "tensorspace.Subspace.reduce",
        ("calls", "self_s"), "koszul_sweep"),
    "tensorspace.coordinates": Boundary(
        "tensorspace.Subspace.coordinates",
        ("calls", "self_s"), "koszul_sweep"),
    "koszul.slice_assembly": Boundary(
        "koszul.koszul_matrix",
        ("calls", "self_s", "nnz"), "koszul_sweep", _nnz),
    "koszul.slice_rank": Boundary(
        "tensorspace.matrix_rank", ("total_s",), "koszul_sweep"),
    "koszul.tor": Boundary("koszul.tor_dims", ("total_s",), "tor_resolution"),
    "koszul.hilbert": Boundary("koszul.hilbert_series", ("total_s",), "duality_sweep"),
    "koszul.dual_series": Boundary(
        "koszul.alternating_dual_series", ("total_s",), "duality_sweep"),
    "superpoly.poly_mul": Boundary(
        "superpoly.SuperPolynomial.__mul__",
        ("calls", "self_s", "terms_out"), "master_theorem", _terms_out),
    "superpoly.poly_add": Boundary(
        "superpoly.SuperPolynomial.__add__", ("calls", "self_s"), "master_theorem"),
    "superpoly.series_mul": Boundary(
        "superpoly.TruncatedSeries.__mul__", ("total_s",), "master_theorem"),
    "superpoly.series_inverse": Boundary(
        "superpoly.TruncatedSeries.inverse", ("total_s",), "master_theorem"),
    "macmahon.bosonic": Boundary(
        "macmahon.diagonal_coefficients", ("total_s", "self_s"), "master_theorem"),
    "macmahon.char_function": Boundary(
        "macmahon.char_function", ("total_s",), "master_theorem"),
    "macmahon.berezinian": Boundary(
        "macmahon.berezinian_series", ("total_s",), "master_theorem"),
    "macmahon.master": Boundary(
        "macmahon.master_verify", ("calls", "total_s"), "master_theorem"),
    "hecke.symmetrizer": Boundary(
        "hecke.symmetrizer_image", ("total_s",), "koszul_sweep"),
    "cli.run": Boundary("cli.run", ("self_s",), "tor_resolution"),
}

# ratio metric -> the count it divides by the number of calls
RATIOS = {"useful_ratio": "useful", "distinct_ratio": "distinct"}

OVERHEAD_METRIC = "trace.overhead_frac"


def metric_units():
    """Every per-layer metric name with its unit, in table order."""
    units = {"calls": "count", "total_s": "s", "self_s": "s", "useful_ratio": "ratio",
             "distinct_ratio": "ratio"}
    out = {}
    for role, b in BOUNDARIES.items():
        for m in b.metrics:
            out[f"{role}.{m}"] = units.get(m, "count")
    out[OVERHEAD_METRIC] = "ratio"
    return out


@dataclass
class RoleStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    counter_error: str = ""


class Tracer:
    """Span bookkeeping for wrapped callables; ``clock`` is injectable so the
    arithmetic can be tested on a synthetic call tree."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, RoleStats] = {}
        self.missing: list[str] = []
        self._stack: list = []  # [seconds spent in nested spans] per open span
        self._depth: dict[str, int] = {}
        self._patches: list = []  # (owner, name, original)

    def wrap(self, role: str, fn, counter=None):
        """A callable that runs ``fn`` inside a span named ``role``."""
        stats = self.stats.setdefault(role, RoleStats())
        self._depth.setdefault(role, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            depth = self._depth[role]
            self._depth[role] = depth + 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                self._depth[role] = depth
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if depth == 0:
                    stats.total_s += elapsed
                if self._stack:
                    self._stack[-1][0] += elapsed
            if counter is not None and not stats.counter_error:
                try:
                    counter(stats, args, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    stats.counter_error = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    # -- installing the wrappers ------------------------------------------

    def install(self, boundaries=None):
        """Patch every boundary that exists; record the ones that do not."""
        boundaries = BOUNDARIES if boundaries is None else boundaries
        for role, b in boundaries.items():
            found = _resolve(b.target)
            if found is None:
                self.missing.append(role)
                self.stats.setdefault(role, RoleStats())
                continue
            owner, fn = found
            counter = b.counter() if isinstance(b.counter, type) else b.counter
            self._patch(owner, fn, self.wrap(role, fn, counter))
        return self

    def _patch(self, owner, fn, wrapper):
        """Rebind every name of ``fn`` in its class and in the package's modules."""
        targets = []
        if isinstance(owner, type):
            targets += [(owner, k) for k, v in vars(owner).items() if v is fn]
        for mod_name, module in list(sys.modules.items()):
            if module is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                targets += [(module, k) for k, v in vars(module).items() if v is fn]
        for tgt, key in targets:
            self._patches.append((tgt, key, fn))
            setattr(tgt, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting ----------------------------------------------------------

    def metrics(self, boundaries=None) -> dict:
        """Flat {metric name: number} for every role in the table."""
        boundaries = BOUNDARIES if boundaries is None else boundaries
        out = {}
        for role, b in boundaries.items():
            st = self.stats.get(role, RoleStats())
            for m in b.metrics:
                if m in RATIOS:
                    value = st.counts[RATIOS[m]] / st.calls if st.calls else 0.0
                elif m in ("calls", "total_s", "self_s"):
                    value = getattr(st, m)
                else:
                    value = st.counts[m]
                out[f"{role}.{m}"] = value
        return out

    def summary(self) -> dict:
        """Every role's raw figures, for the run record."""
        return {
            role: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                   "counts": dict(st.counts),
                   **({"counter_error": st.counter_error} if st.counter_error else {}),
                   **({"missing": True} if role in self.missing else {})}
            for role, st in self.stats.items()
        }


def _resolve(target: str):
    """(owner, plain function) for a dotted target, or None if it is gone."""
    parts = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    fn = vars(owner).get(parts[-1]) if owner is not None else None
    return (owner, fn) if inspect.isfunction(fn) else None
