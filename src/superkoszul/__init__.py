"""Exact computational algebra for N-homogeneous superalgebras.

Everything is computed over Q with exact rational arithmetic: superspace
tensor calculus with the rule of signs, Hecke algebras and Yang-Baxter
operators, algebra presentations with duals and products, Koszul complexes
and Tor tables, and the super MacMahon master theorem verified symbolically
to a chosen truncation order.
"""

from .superpoly import (
    SuperPolynomial,
    TruncatedSeries,
    VariableTable,
    newton_elementary,
)
from .tensorspace import (
    Subspace,
    SuperSpace,
    dual_complement,
    wedge_dimension,
)
from .hecke import (
    HeckeElement,
    Permutation,
    YangBaxterOperator,
    dj_operator,
    hecke_rep,
    q_idempotents,
    supersymmetry_operator,
    verify_hecke_operator,
)
from .homogeneous import (
    HomogAlgebra,
    custom_algebra,
    end_algebra,
    homog_product,
    n_symmetric,
    quantum_superspace,
    s_operator_algebra,
    lambda_operator_algebra,
    tensor_algebra,
    yang_mills,
)
from .koszul import (
    KoszulSlice,
    TorTable,
    hilbert_series,
    jump,
    koszul_check,
    koszul_duality_check,
    koszul_matrix,
    tor_dims,
)
from .macmahon import (
    GenericSupermatrix,
    berezinian_series,
    bosonic_factor,
    char_function,
    closed_form_hilbert,
    lambda_set,
    master_verify,
    supercharacter,
    supertrace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
