"""The Hecke algebra, its q-(anti)symmetrizers, and Yang-Baxter operators.

H_{n,q} deforms the symmetric group algebra: generators satisfy
(T_i + 1)(T_i - q) = 0 plus the braid relations.  A Hecke *operator* realizes
these relations on the tensor square of a superspace; placing it in adjacent
slots represents all of H_{n,q} on higher tensor powers.
"""

from fractions import Fraction

from superkoszul import (
    HeckeElement,
    SuperSpace,
    dj_operator,
    hecke_rep,
    q_idempotents,
    supersymmetry_operator,
    verify_hecke_operator,
)

q = Fraction(2)
T1 = HeckeElement.generator(3, q, 1)
T2 = HeckeElement.generator(3, q, 2)
print(f"T1*T1         = {T1 * T1}")
print(f"T1*T2*T1      = {T1 * T2 * T1}")
print(f"T2*T1*T2      = {T2 * T1 * T2}")

X3, Y3 = q_idempotents(3, q)
print(f"\nq-symmetrizer X3     = {X3}")
print(f"X3 idempotent: {X3 * X3 == X3},  X3*Y3 = 0: {not (X3 * Y3).terms}")
print(f"alpha(X3) == Y3: {X3.alpha() == Y3}")

print("\nbuilt-in operators:")
c = supersymmetry_operator(SuperSpace.standard(1, 1))
print(f"  {c.label}: {verify_hecke_operator(c).passed} (associated q = {c.q})")
dj = dj_operator(1, 1, q)
print(f"  {dj.label}: {verify_hecke_operator(dj).passed} (associated q = {dj.q})")

print("\ncolumns of the Drinfel'd-Jimbo operator:")
for pair, col in sorted(dj.columns.items()):
    print(f"  x{pair} -> {dict(sorted(col.items()))}")

rho = hecke_rep(dj, 3, q_idempotents(3, dj.q)[0])
print(f"\nrank of the represented q-symmetrizer on the tensor cube: {rho.rank()}")
