"""Superspaces, the rule of signs, and exact tensor linear algebra.

A vector superspace carries a parity on each basis vector.  Permuting tensor
factors costs a sign for every interchanged pair of odd factors; everything
downstream (antisymmetrizers, duals, relation subspaces) is built on that one
convention, so this demo spells it out on small examples.
"""

from superkoszul import (
    HeckeElement,
    Permutation,
    SuperSpace,
    dual_complement,
    hecke_rep,
    supersymmetry_operator,
    wedge_dimension,
)
from superkoszul.hecke import symmetrizer_image


def wedge(space, n):
    """The antisymmetric n-tensors: the image of the antisymmetrizer Y_n for
    the rule-of-signs flip at q = 1."""
    return symmetrizer_image(supersymmetry_operator(space), n, "Y")


def show(vec):
    """A nonzero vector {word: coefficient} as a sum of monomials x[i][j]..."""
    parts = []
    for w in sorted(vec):
        mono = "x" + "".join(f"[{i}]" for i in w)
        parts.append(f"{vec[w]}*{mono}" if vec[w] != 1 else mono)
    return " + ".join(parts)


# one even, one odd basis vector
V = SuperSpace.standard(1, 1)
print(f"V = Q^(1|1), format {V.format}, superdimension {V.superdim()}")

# the swap acts as T_sigma for the rule-of-signs flip at q = 1; column w of
# its operator is the image of the word w
swap = hecke_rep(supersymmetry_operator(V), 2, HeckeElement.basis(2, 1, Permutation((2, 1))))
for word in [(1, 2), (2, 2)]:
    print(f"  swap {show({word: 1})}  ->  {show(swap.columns[word])}")

print()
print("antisymmetric tensors (images of the antisymmetrizer):")
for n in range(5):
    im = wedge(V, n)
    print(f"  degree {n}: dim {im.dim} (closed form {wedge_dimension(1, 1, n)})")
print("the odd direction never dies: x_2 x x_2 x ... survives antisymmetrization")

print()
W = SuperSpace.standard(0, 1)
cube = wedge(W, 3)
basis = ", ".join(show(cube.rows[p]) for p in sorted(cube.rows))
print(f"pure odd line, cube: dim {cube.dim}, basis [{basis}]")

print()
print("duality pairs a word against the *reversal* of the other word;")
R = wedge(V, 2)
perp = dual_complement(R)
print(f"for R = antisymmetric square (dim {R.dim}), the annihilator has dim {perp.dim}")
print(f"double annihilator equals R again: {dual_complement(perp) == R}")
