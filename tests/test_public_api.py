"""The package's public names are pinned: adding or removing one is a
deliberate edit of the list below."""

import inspect
import types

import pytest

import superkoszul

PUBLIC = [
    "GenericSupermatrix",
    "HeckeElement",
    "HomogAlgebra",
    "KoszulSlice",
    "Permutation",
    "Subspace",
    "SuperPolynomial",
    "SuperSpace",
    "TorTable",
    "TruncatedSeries",
    "VariableTable",
    "YangBaxterOperator",
    "berezinian_series",
    "bosonic_factor",
    "char_function",
    "closed_form_hilbert",
    "custom_algebra",
    "dj_operator",
    "dual_complement",
    "end_algebra",
    "hecke_rep",
    "hilbert_series",
    "homog_product",
    "jump",
    "koszul_check",
    "koszul_duality_check",
    "koszul_matrix",
    "lambda_operator_algebra",
    "lambda_set",
    "master_verify",
    "n_symmetric",
    "newton_elementary",
    "q_idempotents",
    "quantum_superspace",
    "s_operator_algebra",
    "supercharacter",
    "supersymmetry_operator",
    "supertrace",
    "tensor_algebra",
    "tor_dims",
    "verify_hecke_operator",
    "wedge_dimension",
    "yang_mills",
]


def test_public_names_are_the_pinned_list():
    names = [
        name
        for name in superkoszul.__all__
        if not isinstance(getattr(superkoszul, name), types.ModuleType)
    ]
    assert sorted(names) == PUBLIC


# the builders' parameters are pinned too: an option comes back only by a
# deliberate edit of this table
BUILDER_PARAMETERS = {
    "tensor_algebra": ["fmt", "N"],
    "quantum_superspace": ["fmt", "q_table"],
    "yang_mills": ["fmt", "G"],
    "n_symmetric": ["fmt", "N"],
    "lambda_operator_algebra": ["R", "N"],
    "s_operator_algebra": ["R", "N", "label"],
    "custom_algebra": ["fmt", "N", "relations", "label"],
}


@pytest.mark.parametrize("name", sorted(BUILDER_PARAMETERS))
def test_builder_parameters_are_the_pinned_list(name):
    params = inspect.signature(getattr(superkoszul, name)).parameters
    assert list(params) == BUILDER_PARAMETERS[name]
