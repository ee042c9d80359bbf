"""The four fixed workloads, built through the public API and checked against
:mod:`references`.

Each workload is a list of :class:`Op` specs at the acceptance degrees.
:func:`prepare` builds every presentation fresh (this is the set-up the
benchmark times) and returns the operations in an order permuted by the
seed; the seed changes nothing else.  An operation's check returns ``None``
when the answer is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import Callable, NamedTuple

import references as ref

FORMATS_3 = [(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3]
FORMATS_2 = [(p, q) for p in range(3) for q in range(3) if 1 <= p + q <= 2]
MACHINE_PREFIX = "#machine/v1:"
TOR_I_MAX = 4


class Op(NamedTuple):
    kind: str  # "koszul", "duality", "tor" or "mt"
    family: str  # "S" (N-symmetric), "L" (Lambda_N of dj_operator(p, q, 2)), "YM", "" for mt
    p: int
    q: int
    N: int
    degree: int  # truncation degree, Tor order, or master-identity order K

    @property
    def label(self) -> str:
        fam = f"{self.family}{self.N}" if self.family in ("S", "L") else self.family
        return f"{self.kind} {fam}({self.p}|{self.q}) N={self.N} deg={self.degree}"


WORKLOADS = {
    # exactness through degree 8: D_n, slice assembly, normal forms, rank;
    # S_N has +-1 coefficients, Lambda_N of dj_operator(p, q, 2) has
    # denominators up to 2^12
    "koszul_sweep": [
        Op("koszul", fam, p, q, N, 8)
        for fam in ("S", "L") for N in (2, 3) for (p, q) in FORMATS_3
    ],
    # the duality product mod t^9 on the criterion-5 set: bound by R_n, no
    # normal forms and no rank
    "duality_sweep": [
        *(Op("duality", "S", p, q, N, 8) for N in (2, 3) for (p, q) in FORMATS_3),
        *(Op("duality", "L", p, q, N, 8) for N in (2, 3) for (p, q) in FORMATS_2),
        Op("duality", "YM", 3, 0, 3, 8),
        Op("duality", "YM", 0, 3, 3, 8),
    ],
    # Tor through the command line: forward elimination and tagged kernels
    "tor_resolution": [
        Op("tor", "YM", 3, 0, 3, 7),
        Op("tor", "YM", 1, 1, 3, 7),
    ],
    # the super master identity: series and polynomial arithmetic, almost no
    # elimination
    "master_theorem": [
        *(Op("mt", "", p, q, N, 6)
          for (p, q, N) in [(1, 0, 2), (2, 0, 2), (0, 2, 2), (1, 1, 2), (2, 1, 2),
                            (1, 1, 3), (2, 0, 3)]),
        Op("mt", "", 2, 2, 2, 7),
        Op("mt", "", 2, 1, 3, 6),
    ],
}


class Prepared(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def build_algebra(sk, op: Op):
    space = sk.SuperSpace.standard(op.p, op.q)
    if op.family == "S":
        return sk.n_symmetric(space, op.N)
    if op.family == "L":
        return sk.lambda_operator_algebra(sk.dj_operator(op.p, op.q, 2), op.N)
    if op.family == "YM":
        return sk.yang_mills(space)
    raise ValueError(f"unknown family {op.family!r}")


def _expect_pass(result) -> "str | None":
    return None if result.passed is True else f"verdict did not pass: {result}"


def _duality_check(op: Op):
    K = op.degree
    if op.family == "S":
        want_h = ref.sn_hilbert(op.p, op.q, op.N, K)
        want_dual = ref.sn_dual_series(op.p, op.q, op.N, K)
    elif (op.family, op.p, op.q) == ("YM", 3, 0):
        want_h, want_dual = ref.ym30_hilbert(K), ref.ym30_dual_series(K)
    else:
        want_h = want_dual = None

    def check(result):
        if result.passed is not True:
            return f"duality product is not 1 through t^{K}"
        if want_h is not None and list(result.series.coeffs) != want_h:
            return f"Hilbert series {result.series.coeffs} != reference {want_h}"
        if want_dual is not None and list(result.dual_series.coeffs) != want_dual:
            return f"dual series {result.dual_series.coeffs} != reference {want_dual}"
        return None

    return check


def tor_argv(op: Op) -> list[str]:
    return ["tor", "--family", "yang_mills", "--p", str(op.p), "--q", str(op.q),
            "--order", str(op.degree), "--i-max", str(TOR_I_MAX)]


def run_cli(sk, argv):
    """``cli.main(argv)`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sk.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_tor(stdout: str) -> dict:
    """{(i, degree): dim} from the command's machine-readable lines."""
    table = {}
    for line in stdout.splitlines():
        if not line.startswith(MACHINE_PREFIX):
            continue
        fields = dict(f.split("=", 1) for f in line.split()[2:] if "=" in f)
        if {"i", "deg", "dim"} <= fields.keys():
            table[(int(fields["i"]), int(fields["deg"]))] = int(fields["dim"])
    return table


def _tor_check(op: Op):
    d = op.p + op.q
    full = ref.YM30_TOR if (op.p, op.q) == (3, 0) else None
    low = ref.ym_low_tor(d)

    def check(result):
        code, stdout, _ = result
        if code == 1 and "INCONCLUSIVE" in stdout:
            return None  # a non-confluent presentation, reported as such
        if code != 0:
            return f"exit code {code}"
        table = parse_tor(stdout)
        if full is not None:
            return None if table == full else f"Tor {table} != reference {full}"
        head = {k: v for k, v in table.items() if k[1] <= 3}
        return None if head == low else f"Tor in degrees <= 3 {head} != reference {low}"

    return check


def prepare_op(sk, op: Op) -> Prepared:
    """Build the inputs of one operation and bind its call and check."""
    if op.kind == "koszul":
        A = build_algebra(sk, op)
        return Prepared(op.label, lambda: sk.koszul_check(A, op.degree), _expect_pass)
    if op.kind == "duality":
        A = build_algebra(sk, op)
        return Prepared(op.label, lambda: sk.koszul_duality_check(A, op.degree),
                        _duality_check(op))
    if op.kind == "tor":
        argv = tor_argv(op)
        return Prepared(op.label, lambda: run_cli(sk, argv), _tor_check(op))
    if op.kind == "mt":
        return Prepared(op.label, lambda: sk.master_verify(op.p, op.q, op.N, op.degree),
                        _expect_pass)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def prepare(sk, name: str, seed: int) -> list[Prepared]:
    """Every operation of a workload, built fresh, in seed-permuted order."""
    ops = [prepare_op(sk, op) for op in WORKLOADS[name]]
    random.Random(seed).shuffle(ops)
    return ops
