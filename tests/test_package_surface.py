"""The package surface: ``liealg.__all__`` is the re-exported ``__all__`` of
five modules plus five ``fields`` names, three ``io`` names and the
version, and each name is the very object its module defines."""

import sys

import liealg
from liealg import core, family, fields, hats, io, linalg, selfdual

SURFACE = {
    "AlgebraFileError", "BalancedMod3", "BilinearForm", "ClassificationMismatchError",
    "ConstructionError", "ContractionInput", "DEFAULT_BRUTE_CAP", "Decomposition",
    "DeeperVerdict", "DerivationSpace", "DiagonalMetricResult", "DoubleExtensionInput",
    "FieldMismatchError", "FpElement", "HatPropertyReport", "HatScanWitness", "IDENTITY_HAT",
    "IdealClassification", "IdentityHat", "InvariantProfile", "JacobiWitness", "LieAlgebra",
    "MOD3_BALANCED", "Matrix", "NotAnIdealError", "PrimeField", "QQ", "RangeHat",
    "RationalField", "SelfDuality", "ShapeError", "Subspace", "Verdict", "ZModHat",
    "__version__", "canonical_metric", "classify_ideals", "decomposability_check",
    "deeper_verdict", "derived_suffix_check", "det", "direct_sum", "double_extend",
    "double_extension_candidates", "enumerate_coordinate_ideals", "form_block_sum",
    "hat_properties", "hat_shift_automorphism", "invariant_form_space", "invariant_profile",
    "is_self_dual", "jacobi_hat_scan", "load_algebra", "nondegenerate_invariant_metric",
    "nullspace", "orthogonal_complement", "rank", "rref", "save_algebra",
    "single_diagonal_metric_solve", "skip_subspace", "solve", "suffix_subspace",
    "truncated_algebra", "wigner_contract",
}


def test_the_surface_is_the_declared_names():
    assert len(SURFACE) == 65
    assert set(liealg.__all__) == SURFACE
    assert len(liealg.__all__) == len(set(liealg.__all__))
    assert all(hasattr(liealg, name) for name in liealg.__all__)


def test_each_module_list_is_re_exported_as_the_same_objects():
    for module in (linalg, core, hats, family, selfdual):
        for name in module.__all__:
            assert name in liealg.__all__, (module.__name__, name)
            assert getattr(liealg, name) is getattr(module, name), (module.__name__, name)
    picked = {fields: ("FieldMismatchError", "FpElement", "PrimeField", "QQ", "RationalField"),
              io: ("AlgebraFileError", "load_algebra", "save_algebra")}
    for module, names in picked.items():
        assert all(getattr(liealg, name) is getattr(module, name) for name in names)


def test_the_package_binds_no_other_public_name_than_its_submodules():
    others = {name: value for name, value in vars(liealg).items()
              if not name.startswith("_") and name not in SURFACE}
    assert {"core", "family", "fields", "hats", "io", "linalg", "selfdual"} <= set(others)
    assert all(value is sys.modules[f"liealg.{name}"] for name, value in others.items())
