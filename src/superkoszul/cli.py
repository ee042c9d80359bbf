"""Command-line front end.

Commands: dims, dual, koszul, tor, confluence, mt, hilbert, hecke-verify.
An algebra comes either from inline flags (--family, --p, --q, -N, ...) or
from a small line-oriented spec document (--spec FILE, '-' for stdin):

    family = quantum
    N = 2
    format = 0 1
    q[1,2] = 1/2

Rationals are written as strings "a/b" to stay exact.  Reports print a human
table plus stable machine-readable lines prefixed "#machine/v1:".  Exit codes:
0 all verdicts pass, 1 a mathematical verdict failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .hecke import dj_operator, supersymmetry_operator, verify_hecke_operator
from .homogeneous import (
    HomogAlgebra,
    custom_algebra,
    n_symmetric,
    quantum_superspace,
    s_operator_algebra,
    lambda_operator_algebra,
    tensor_algebra,
    yang_mills,
)
from .koszul import hilbert_series, koszul_check, koszul_duality_check, tor_dims
from .macmahon import closed_form_hilbert, master_verify
from .tensorspace import SuperSpace

MACHINE_PREFIX = "#machine/v1:"
FAMILIES = ("tensor", "quantum", "yang_mills", "n_symmetric", "lambda_RN", "s_RN", "custom")
DEFAULT_TRUNCATION_CEILING = 10  # the highest mt order admitted without --ceiling


class SpecError(ValueError):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class AlgebraSpec:
    family: str
    N: int | None = None  # None: the family's default, set below
    fmt: tuple = ()
    q_table: dict = field(default_factory=dict)  # (i, j) -> Fraction, i < j
    g_diag: list = field(default_factory=list)
    hecke_q: Fraction = Fraction(1)
    relations: list = field(default_factory=list)  # list of [(coeff, word), ...]

    def __post_init__(self):
        # Yang-Mills algebras are cubic, every other family defaults to quadratic
        if self.N is None:
            self.N = 3 if self.family == "yang_mills" else 2


def _parse_fraction(text: str, line=None) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational {text!r}: {exc}", line)


# spec keys read by some families only, with the families that read them
_FAMILY_KEYS = {
    "q[i,j]": ("quantum",),
    "G": ("yang_mills",),
    "hecke_q": ("lambda_RN", "s_RN"),
    "relation": ("custom",),
}


def parse_spec(text: str) -> AlgebraSpec:
    """Parse and validate a spec document; raises SpecError with a line
    number on malformed input."""
    data: dict = {"q_table": {}, "relations": []}
    seen: dict = {}  # key -> line of its first occurrence
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise SpecError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in seen and key != "relation":
            raise SpecError(f"repeated key {key!r}", lineno)
        if key == "family":
            if value not in FAMILIES:
                raise SpecError(f"unknown family {value!r}", lineno)
            data["family"] = value
        elif key == "N":
            try:
                data["N"] = int(value)
            except ValueError:
                raise SpecError(f"bad integer {value!r}", lineno)
        elif key == "format":
            try:
                data["fmt"] = tuple(int(x) for x in value.split())
            except ValueError:
                raise SpecError(f"bad format {value!r}", lineno)
            if any(x not in (0, 1) for x in data["fmt"]):
                raise SpecError("format entries must be 0 or 1", lineno)
        elif key in ("p", "q"):
            if not value.isdecimal():
                raise SpecError(f"bad nonnegative integer {value!r}", lineno)
            data[key] = int(value)
        elif key.startswith("q[") and key.endswith("]"):
            inner = key[2:-1]
            try:
                i, j = (int(x) for x in inner.split(","))
            except ValueError:
                raise SpecError(f"bad q-table key {key!r}", lineno)
            if not i < j:
                raise SpecError("q-table keys need i < j", lineno)
            if (i, j) in data["q_table"]:
                raise SpecError(f"repeated key 'q[{i},{j}]'", lineno)
            frac = _parse_fraction(value, lineno)
            if frac == 0:
                raise SpecError("quantum parameters must be nonzero", lineno)
            data["q_table"][(i, j)] = frac
        elif key == "G":
            data["g_diag"] = [_parse_fraction(x, lineno) for x in value.split()]
        elif key == "hecke_q":
            frac = _parse_fraction(value, lineno)
            if frac == 0:
                raise SpecError("the Hecke parameter must be nonzero", lineno)
            data["hecke_q"] = frac
        elif key == "relation":
            rel = []
            for chunk in value.split(";"):
                if ":" not in chunk:
                    raise SpecError("relation term needs 'coeff : letters'", lineno)
                coeff_text, word_text = chunk.split(":", 1)
                coeff = _parse_fraction(coeff_text, lineno)
                try:
                    word = tuple(int(x) for x in word_text.split())
                except ValueError:
                    raise SpecError(f"bad index sequence {word_text!r}", lineno)
                rel.append((coeff, word))
            data["relations"].append(rel)
        else:
            raise SpecError(f"unknown key {key!r}", lineno)
        seen.setdefault("q[i,j]" if key.startswith("q[") else key, lineno)
    if "family" not in data:
        raise SpecError("missing 'family'")
    # a key that nothing reads is an input error, never ignored
    for key, families in _FAMILY_KEYS.items():
        if key in seen and data["family"] not in families:
            raise SpecError(f"{key!r} applies only to family {' or '.join(families)}", seen[key])
    p, q = data.pop("p", None), data.pop("q", None)
    if "fmt" in data:
        for key in ("p", "q"):
            if key in seen:
                raise SpecError(f"{key!r} applies only to a spec without 'format'", seen[key])
    elif p is None and q is None:
        raise SpecError("missing 'format' (or p/q)")
    else:
        data["fmt"] = (0,) * (p or 0) + (1,) * (q or 0)
    spec = AlgebraSpec(**data)
    _validate_spec(spec)
    return spec


def _validate_spec(spec: AlgebraSpec):
    d = len(spec.fmt)
    if d == 0:
        raise SpecError("the format must name at least one generator")
    if spec.N < 2:
        raise SpecError("N must be at least 2")
    for (i, j) in spec.q_table:
        if not (1 <= i < j <= d):
            raise SpecError(f"q-table key ({i},{j}) out of range for d={d}")
    if spec.family == "yang_mills":
        if spec.N != 3:
            raise SpecError("yang_mills algebras are cubic: N must be 3")
        if spec.g_diag and len(spec.g_diag) != d:
            raise SpecError(f"G needs {d} diagonal entries")
        if any(x == 0 for x in spec.g_diag):
            raise SpecError("G entries must be nonzero")
    if spec.family == "quantum" and spec.N != 2:
        raise SpecError("quantum superspace is quadratic: N must be 2")
    if spec.family == "custom":
        if not spec.relations:
            raise SpecError("custom algebras need at least one relation")
        for rel in spec.relations:
            for _, word in rel:
                if len(word) != spec.N:
                    raise SpecError(
                        f"relation degree must equal N: word {word} has length {len(word)}"
                    )
                if any(not 1 <= a <= d for a in word):
                    raise SpecError(f"letters of {word} must lie in 1..{d}")


def build_algebra(spec: AlgebraSpec) -> HomogAlgebra:
    fmt = spec.fmt
    if spec.family == "tensor":
        return tensor_algebra(fmt, spec.N)
    if spec.family == "quantum":
        return quantum_superspace(fmt, spec.q_table)
    if spec.family == "yang_mills":
        return yang_mills(fmt, spec.g_diag or None)
    if spec.family == "n_symmetric":
        return n_symmetric(fmt, spec.N)
    if spec.family in ("lambda_RN", "s_RN"):
        space = SuperSpace(fmt)
        op = dj_operator(space.p, space.q, spec.hecke_q)
        if tuple(space.format) != tuple(op.space.format):
            raise SpecError("lambda_RN/s_RN require the standard format (evens first)")
        builder = lambda_operator_algebra if spec.family == "lambda_RN" else s_operator_algebra
        return builder(op, spec.N)
    if spec.family == "custom":
        return custom_algebra(fmt, spec.N, spec.relations)
    raise SpecError(f"unknown family {spec.family!r}")


@dataclass
class Report:
    command: str
    human: list = field(default_factory=list)
    machine: list = field(default_factory=list)
    verdict_fail: bool = False
    started: float = field(default_factory=time.perf_counter)

    def say(self, text=""):
        self.human.append(text)

    def record(self, **kv):
        chunk = " ".join(f"{k}={v}" for k, v in kv.items())
        self.machine.append(f"{MACHINE_PREFIX} {self.command} {chunk}")

    def print(self):
        elapsed = time.perf_counter() - self.started
        for line in self.human:
            print(line)
        for line in self.machine:
            print(line)
        print(f"{MACHINE_PREFIX} {self.command} elapsed_s={elapsed:.3f}")


def run(command: str, spec: AlgebraSpec | None, options: dict) -> tuple[Report, int]:
    """Dispatch one command; returns the report and the exit code."""
    report = Report(command)
    order = options.get("order")
    if order is None:
        order = 6
    _HANDLERS[command](report, spec, options, order)
    return report, (1 if report.verdict_fail else 0)


def _cmd_dims(report, spec, options, order):
    """dims and dual: the graded dimensions of A or of its dual A^!."""
    A = build_algebra(spec)
    title = A.label
    if report.command == "dual":
        A, title = A.dual_algebra(), f"the dual of {title}"
    report.say(f"graded dimensions of {title}")
    for n in range(order + 1):
        dim = A.dim_component(n)
        report.say(f"deg {n}: dim={dim}")
        report.record(deg=n, dim=dim)


def _cmd_confluence(report, spec, options, order):
    A = build_algebra(spec)
    conf = A.confluence_report()
    extra = A.extra_condition_report()
    report.say(f"rewriting checks for {A.label}")
    report.say(str(conf))
    report.say(str(extra))
    for i, lhs, rhs in conf.entries:
        report.record(check="confluence", overlap=i, lhs=lhs, rhs=rhs,
                      verdict="PASS" if lhs <= rhs else "FAIL")
    if extra.vacuous:
        report.record(check="extra_condition", verdict="PASS", vacuous=1)
    for n, ok, defect in extra.entries:
        report.record(check="extra_condition", n=n, verdict="PASS" if ok else "FAIL",
                      defect=defect)
    report.verdict_fail = not (conf.passed and extra.passed)


def _cmd_koszul(report, spec, options, order):
    A = build_algebra(spec)
    report.say(f"Koszul check for {A.label} through total degree {order}")
    extra = A.extra_condition_report()
    if not extra.passed:
        n, _, defect = next(e for e in extra.entries if not e[1])
        report.say(str(extra))
        report.say(f"verdict: FAIL (extra condition fails at n={n}; the algebra cannot be Koszul)")
        report.record(verdict="FAIL", witness="extra_condition", n=n, defect=defect)
        report.verdict_fail = True
        return
    duality = koszul_duality_check(A, order)
    if not duality.passed:
        bad = next(n for n in range(1, order + 1) if duality.product.coeffs[n] != 0)
        report.say(str(duality))
        report.say(
            f"verdict: FAIL (Hilbert-series duality breaks at t^{bad}; the algebra cannot be Koszul)"
        )
        report.record(verdict="FAIL", witness="duality", n=bad)
        report.verdict_fail = True
        return
    verdict = koszul_check(A, order)
    report.say(str(verdict))
    report.say(str(duality))
    for i, n, defect in verdict.failures:
        report.record(verdict="FAIL", i=i, n=n, defect=defect)
    if verdict.passed:
        report.record(verdict="PASS", deg_max=order)
    report.record(check="duality", verdict="PASS")
    report.verdict_fail = not verdict.passed


def _cmd_tor(report, spec, options, order):
    A = build_algebra(spec)
    i_max = options["i_max"]
    report.say(f"Tor dimensions for {A.label} (rows i=0..{i_max}, degrees 0..{order})")
    table = tor_dims(A, i_max, order)
    report.say(str(table))
    for i in range(i_max + 1):
        for n in range(order + 1):
            dim = table.dim(i, n)
            if dim:
                report.record(i=i, deg=n, dim=dim)


def _cmd_mt(report, spec, options, order):
    p, q, N, ceiling = options["p"], options["q"], options["N"], options["ceiling"]
    if order > ceiling:
        raise ValueError(f"truncation order {order} exceeds the cost ceiling {ceiling}; coefficient"
                         " counts grow quickly with the order, raise the ceiling knowingly")
    result = master_verify(p, q, N, order)
    status = "PASS" if result.passed else "FAIL"
    report.say(f"MT identity: {status} (order {order})")
    report.say(f"left factor:  {result.left}")
    report.say(f"right factor: {result.right}")
    report.record(p=p, q=q, N=N, order=order, verdict=status)
    report.verdict_fail = not result.passed


def _cmd_hilbert(report, spec, options, order):
    A = build_algebra(spec)
    series = hilbert_series(A, order)
    report.say(f"Hilbert series of {A.label}: {series}")
    for n in range(order + 1):
        report.record(deg=n, dim=series.coeffs[n])
    if spec.family == "n_symmetric":
        space = SuperSpace(spec.fmt)
        closed = closed_form_hilbert(space.p, space.q, spec.N, order, kind="dim")
        match = all(closed.coeffs[n] == series.coeffs[n] for n in range(order + 1))
        report.say(f"closed-form comparison: {'PASS' if match else 'FAIL'}")
        report.record(check="closed_form", verdict="PASS" if match else "FAIL")
        report.verdict_fail = not match


def _cmd_hecke_verify(report, spec, options, order):
    kind = options["operator"]
    p, q = options["p"], options["q"]
    if kind == "dj":
        op = dj_operator(p, q, options.get("q_param", Fraction(1)))
    else:  # --operator admits only dj and supersymmetry
        op = supersymmetry_operator(SuperSpace.standard(p, q))
    result = verify_hecke_operator(op)
    report.say(f"checks for {op.label} (associated q = {op.q})")
    report.say(str(result))
    report.record(
        operator=kind,
        even="PASS" if result.even else "FAIL",
        hecke="PASS" if result.hecke_equation else "FAIL",
        yang_baxter="PASS" if result.yang_baxter else "FAIL",
    )
    report.verdict_fail = not result.passed


_HANDLERS = {
    "dims": _cmd_dims,
    "dual": _cmd_dims,
    "koszul": _cmd_koszul,
    "tor": _cmd_tor,
    "confluence": _cmd_confluence,
    "mt": _cmd_mt,
    "hilbert": _cmd_hilbert,
    "hecke-verify": _cmd_hecke_verify,
}
COMMANDS = tuple(_HANDLERS)

_NEEDS_ALGEBRA = {"dims", "dual", "koszul", "tor", "confluence", "hilbert"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superkoszul",
        description="exact computations with N-homogeneous superalgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", help="algebra spec file ('-' for stdin)")
        cmd.add_argument("--family", choices=FAMILIES)
        cmd.add_argument("--p", type=int, help="number of even generators")
        cmd.add_argument("--q", type=int, help="number of odd generators")
        cmd.add_argument("--format", dest="fmt", help="parity list, e.g. '0,0,1'")
        cmd.add_argument("-N", dest="N", type=int, default=None, help="relation degree")
        cmd.add_argument("--order", type=int, default=None,
                         help="truncation / degree bound (default 6)")
        cmd.add_argument("--q-param", dest="q_param", default=None,
                         help="Hecke parameter as an exact rational, e.g. 1/2")
        cmd.add_argument("--G", dest="g_diag", default=None,
                         help="diagonal metric entries, e.g. '1,1,-1'")
        if name == "tor":
            cmd.add_argument("--i-max", dest="i_max", type=int, default=4)
        if name == "hecke-verify":
            cmd.add_argument("--operator", choices=("dj", "supersymmetry"), default="dj")
        if name == "mt":
            cmd.add_argument("--ceiling", type=int, default=DEFAULT_TRUNCATION_CEILING,
                             help="truncation cost ceiling (default %(default)s)")
    return parser


def _spec_from_args(args) -> AlgebraSpec | None:
    if args.spec:
        if args.spec == "-":
            return parse_spec(sys.stdin.read())
        with open(args.spec) as handle:
            return parse_spec(handle.read())
    if args.family is None:
        return None
    if args.fmt:
        fmt = tuple(int(x) for x in args.fmt.replace(",", " ").split())
    else:
        fmt = (0,) * (args.p or 0) + (1,) * (args.q or 0)
    spec = AlgebraSpec(family=args.family, N=args.N, fmt=fmt)
    if args.q_param is not None:
        spec.hecke_q = _parse_fraction(args.q_param)
    if args.g_diag is not None:
        spec.g_diag = [_parse_fraction(x) for x in args.g_diag.replace(",", " ").split()]
    _validate_spec(spec)
    return spec


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # out-of-range values are input errors, never replaced by defaults
        for flag in ("p", "q", "order", "i_max", "ceiling"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise SpecError(f"--{flag.replace('_', '-')} must be nonnegative")
        if args.N is not None and args.N < 2:
            raise SpecError("-N must be at least 2")
        # a parameter that nothing reads is an input error, never ignored
        family = args.family if args.command in _NEEDS_ALGEBRA and not args.spec else None
        hecke_dj = args.command == "hecke-verify" and args.operator == "dj"
        if args.q_param is not None and family not in ("lambda_RN", "s_RN") and not hecke_dj:
            raise SpecError(
                "--q-param applies only to --family lambda_RN or s_RN "
                "and to hecke-verify --operator dj"
            )
        if args.g_diag is not None and family != "yang_mills":
            raise SpecError("--G applies only to --family yang_mills")
        algebra_commands = ", ".join(c for c in COMMANDS if c in _NEEDS_ALGEBRA)
        if args.command not in _NEEDS_ALGEBRA:
            for flag, value in (("--spec", args.spec), ("--family", args.family),
                                ("--format", args.fmt)):
                if value is not None:
                    raise SpecError(f"{flag} applies only to {algebra_commands}")
        elif args.spec:
            for flag, value in (("--family", args.family), ("--format", args.fmt),
                                ("--p", args.p), ("--q", args.q), ("-N", args.N)):
                if value is not None:
                    raise SpecError(f"{flag} applies only to an algebra not given by --spec")
        elif args.fmt is not None:
            for flag, value in (("--p", args.p), ("--q", args.q)):
                if value is not None:
                    raise SpecError(
                        f"{flag} applies only to an algebra whose format is not given by --format"
                    )
        if args.command == "hecke-verify" and args.N is not None:
            raise SpecError(f"-N applies only to {algebra_commands} and mt")
        if args.order is not None and args.command in ("confluence", "hecke-verify"):
            bounded = ", ".join(c for c in COMMANDS if c not in ("confluence", "hecke-verify"))
            raise SpecError(f"--order applies only to {bounded}")
        spec = _spec_from_args(args)
        if args.command in _NEEDS_ALGEBRA and spec is None:
            raise SpecError("this command needs an algebra: give --family or --spec")
        if args.command in ("mt", "hecke-verify") and (args.p is None or args.q is None):
            raise SpecError("this command needs --p and --q")
        # command-only flags keep their argparse defaults; None where absent
        options = {
            key: getattr(args, key, None)
            for key in ("order", "p", "q", "i_max", "operator", "ceiling")
        }
        options["N"] = 2 if args.N is None else args.N
        if args.q_param is not None:
            options["q_param"] = _parse_fraction(args.q_param)
        report, code = run(args.command, spec, options)
    except (ValueError, OSError) as exc:  # SpecError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    report.print()
    return code


if __name__ == "__main__":
    sys.exit(main())
