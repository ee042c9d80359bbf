"""N-homogeneous superalgebras: built-in families, duals, products, end(A).

An algebra is a format (parities of the generators), a degree N, and a
relation subspace inside the N-th tensor power.  Graded dimensions come from
exact row reduction of the degree-n relation space R_n (or, for a confluent
algebra from degree 2N on, from counting reduced words); the dual lives on
the dual space with the annihilator relations, and the dual-star components
intersect the placements of R by window rewriting.
"""

from fractions import Fraction

from superkoszul import (
    SuperSpace,
    end_algebra,
    homog_product,
    n_symmetric,
    quantum_superspace,
    tensor_algebra,
    yang_mills,
)

A = quantum_superspace(SuperSpace.standard(1, 1), {(1, 2): Fraction(1, 2)})
print(f"{A.label}: dims {A.dims(6)}")
dual = A.dual_algebra()
print(f"its dual:   dims {dual.dims(6)} (finite-dimensional)")

S = n_symmetric(SuperSpace.standard(2, 1), 2)
print(f"\n{S.label}: dims {S.dims(6)}")
print(f"dual-star components: {[S.dual_star_component(n).dim for n in range(7)]}")

Y = yang_mills(SuperSpace.standard(3, 0))
print(f"\n{Y.label}: {Y.R.dim} cubic relations, dims {Y.dims(5)}")
print(f"dual components {[Y.dual_star_component(n).dim for n in range(7)]} "
      "(three generators, then a line, then nothing)")

T = tensor_algebra(SuperSpace.standard(1, 0), 2)
P = homog_product("white", T, S)
print(f"\nSegre product dims: {[P.dim_component(n) for n in range(5)]}")
print(f"equal to products of dims: {[T.dim_component(n) * S.dim_component(n) for n in range(5)]}")

E = end_algebra(n_symmetric(SuperSpace.standard(2, 0), 2))
print(f"\n{E.label}: generators z[i,j], dims {E.dims(3)}")
print("the degree-2 component drops from 16 to 13: three shuffled relations")
