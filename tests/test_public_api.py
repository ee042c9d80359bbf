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


def test_series_one_parameters_are_the_pinned_list():
    # the zero of the coefficients is built from ``one``, never passed
    assert list(inspect.signature(superkoszul.TruncatedSeries.one).parameters) == ["order", "one"]


# the arithmetic of the number types is pinned too: an operator comes back
# only by a deliberate edit of this table
ARITHMETIC = {
    f"__{side}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow")
    for side in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"}

OPERATORS = {
    "SuperPolynomial": ["__add__", "__eq__", "__mul__", "__neg__", "__radd__", "__rmul__", "__sub__"],
    "TruncatedSeries": ["__eq__", "__mul__", "__sub__"],
    "HeckeElement": ["__add__", "__eq__", "__mul__", "__sub__"],
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_number_type_operators_are_the_pinned_list(name):
    assert sorted(set(vars(getattr(superkoszul, name))) & ARITHMETIC) == OPERATORS[name]


def test_a_foreign_operand_raises_type_error():
    # a scalar operand gets NotImplemented back, so Python raises TypeError
    h, s = superkoszul.HeckeElement.one(2, 1), superkoszul.TruncatedSeries.one(3)
    for expression in (lambda: h + 1, lambda: h * 2, lambda: h - 1, lambda: s * 3, lambda: s - 1):
        with pytest.raises(TypeError):
            expression()
