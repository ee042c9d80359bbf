"""Answers the benchmark checks the engine against, computed here from closed
forms with integer arithmetic and never from the engine's own output.

* N-symmetric superalgebras S_N(p|q): the graded dual components D_m of the
  dual algebra are the antisymmetric m-tensors of a p|q space, of dimension
  sum_k C(p, k) * multichoose(q, m - k) (exterior on the even part,
  symmetric on the odd part).  The algebras are Koszul, so their Hilbert
  series is the reciprocal of the alternating series
  sum_i (-1)^i dim D_nu(i) t^nu(i).
* The even Yang-Mills algebra YM(3|0): H(t) = 1/(1 - 3t + 3t^3 - t^4), and
  the minimal resolution has Tor = 1, 3, 3, 1 in degrees 0, 1, 3, 4.
* Any cubic Yang-Mills algebra on d generators: its d relations are
  independent cubics, so in degrees <= 3 the Tor table is exactly
  Tor_0 = 1 (degree 0), Tor_1 = d (degree 1), Tor_2 = d (degree 3).
"""

from __future__ import annotations

from math import comb


def jump(N: int, i: int) -> int:
    """nu_N(i): homological degree i sits in internal degree nu_N(i)."""
    return (i // 2) * N + (i % 2)


def multichoose(q: int, j: int) -> int:
    return 1 if j == 0 else comb(q + j - 1, j)


def wedge_dim(p: int, q: int, m: int) -> int:
    """Dimension of the antisymmetric m-tensors of a p|q superspace."""
    return sum(comb(p, k) * multichoose(q, m - k) for k in range(min(p, m) + 1))


def sn_dual_series(p: int, q: int, N: int, K: int) -> list[int]:
    """sum_i (-1)^i dim D_nu(i) t^nu(i) for S_N(p|q), coefficients 0..K."""
    coeffs = [0] * (K + 1)
    i = 0
    while jump(N, i) <= K:
        m = jump(N, i)
        coeffs[m] = (-1) ** i * wedge_dim(p, q, m)
        i += 1
    return coeffs


def reciprocal(series: list[int]) -> list[int]:
    """1/series truncated to the same length; the constant term must be 1."""
    if series[0] != 1:
        raise ValueError("the constant term must be 1")
    out = [1]
    for n in range(1, len(series)):
        out.append(-sum(series[i] * out[n - i] for i in range(1, n + 1)))
    return out


def sn_hilbert(p: int, q: int, N: int, K: int) -> list[int]:
    return reciprocal(sn_dual_series(p, q, N, K))


def ym30_dual_series(K: int) -> list[int]:
    coeffs = [1, -3, 0, 3, -1] + [0] * max(0, K - 4)
    return coeffs[: K + 1]


def ym30_hilbert(K: int) -> list[int]:
    return reciprocal(ym30_dual_series(K))


YM30_TOR = {(0, 0): 1, (1, 1): 3, (2, 3): 3, (3, 4): 1}


def ym_low_tor(d: int) -> dict:
    """The Tor entries of a cubic Yang-Mills algebra in degrees <= 3."""
    return {(0, 0): 1, (1, 1): d, (2, 3): d}
