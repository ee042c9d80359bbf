"""The super MacMahon master theorem, verified symbolically.

Two power series over the supercommutative algebra of a generic supermatrix:
the generating series of diagonal expansion coefficients over the reduced
words of the N-symmetric algebra, and the alternating subseries of the
elementary supersymmetric functions (the coefficients of the characteristic
function ber(1 + tX)).  Their product is exactly 1, coefficient by
coefficient - no numerics, no truncation error below the cut-off.
"""

from superkoszul import (
    GenericSupermatrix,
    berezinian_series,
    char_function,
    closed_form_hilbert,
    lambda_set,
    master_verify,
)

X = GenericSupermatrix(1, 1)
print(f"generic supermatrix {X}: entries x[i,j] with parity i^+j^")
ber = berezinian_series(X, 3)
print(f"ber(1 + tX) = {ber}")
es = char_function(X, 3)
print(f"e_1 = {es[1]}")
print(f"e_2 = {es[2]}  (Newton route agrees with the eliminated Berezinian)")

print(f"\nindex words of length 2 avoiding the forbidden pattern: {lambda_set(1, 1, 2, 2)}")

for (p, q, N) in [(1, 0, 2), (1, 1, 2), (1, 1, 3), (2, 0, 3)]:
    result = master_verify(p, q, N, 5)
    print(f"master identity p|q = {p}|{q}, N = {N}: "
          f"{'PASS' if result.passed else 'FAIL'} through t^{result.K}")

result = master_verify(1, 1, 2, 4)
print(f"\nleft factor  (1|1, N=2): {result.left}")
print(f"right factor (1|1, N=2): {result.right}")
print(f"product:                 {result.product}")

print(f"\nclosed-form Hilbert series (dim) for 2|1, N=3: "
      f"{[int(c) for c in closed_form_hilbert(2, 1, 3, 6, 'dim').coeffs]}")
print(f"signed (sdim) series for the balanced 1|1 space is trivial: "
      f"{[int(c) for c in closed_form_hilbert(1, 1, 2, 6, 'sdim').coeffs]}")
