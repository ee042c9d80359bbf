"""Reduction operators, normal forms, and the confluence test.

The echelon basis of the relation space doubles as a rewriting system: each
leading word rewrites to lexicographically smaller ones.  When overlapping
rewrites agree (confluence), the irreducible words form a basis of the algebra
and normal forms are canonical; the dimension counts then come for free.
Without confluence, normal forms are residuals modulo the echelon of R_n.
"""

from superkoszul import SuperSpace, n_symmetric, quantum_superspace
from superkoszul.homogeneous import custom_algebra

A = n_symmetric(SuperSpace.standard(1, 1), 2)
print(f"{A.label} rewrites:")
for pivot, tail in sorted(A.rewrite_map().items()):
    print(f"  x{pivot} -> {dict(tail) or 0}")

word = (2, 1, 2)
print(f"\nnormal form of x{word}: {A.normal_form_word(word)}")
print(f"normal form of x(2,2):  {A.normal_form_word((2, 2))}  (odd square dies)")

print(f"\nconfluence report for {A.label}:")
print(A.confluence_report())

print("\nreduced words of length 3:", A.reduced_words(3))
print("graded dimension by row reduction:", A.graded_component(3)[1])

B = custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]], label="x^2 -> xy")
print(f"\nan engineered overlap ({B.label}):")
print(B.confluence_report())
reduced = [w for w in B.space.words(3) if B.is_reduced(w)]
print(f"irreducible words of length 3: {len(reduced)}, true dimension: {B.dim_component(3)}")
print("the counts disagree, so B's normal forms come from the echelon of R_3:")
print(f"  basis of B_3: {B.reduced_words(3)}")
print(f"  normal form of x(1, 1, 1): {B.normal_form_word((1, 1, 1))}")

C = quantum_superspace(SuperSpace.standard(2, 1))
print(f"\n{C.label} has an ordered-monomial basis:")
print(C.confluence_report())
