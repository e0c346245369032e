"""The record contract of the twelve result and input records.

Each record keeps its field names, order and defaults, a ``repr`` of the
form ``Name(field=value, ...)`` (the strings below are pinned), equality
and hash of equal records, ``AttributeError`` on assignment, and a
pickle round trip.  ``HatPropertyReport.witnesses`` has no default, so
no two reports can share one mutable mapping.
"""

import pickle
from fractions import Fraction

import pytest

from liealg import (BilinearForm, ContractionInput, Decomposition, DeeperVerdict,
                    DerivationSpace, DiagonalMetricResult, DoubleExtensionInput,
                    IDENTITY_HAT, HatPropertyReport, HatScanWitness, IdealClassification,
                    InvariantProfile, JacobiWitness, LieAlgebra, Matrix, RangeHat,
                    SelfDuality, Subspace, canonical_metric, classify_ideals,
                    deeper_verdict, hat_properties, invariant_profile, is_self_dual,
                    jacobi_hat_scan, single_diagonal_metric_solve, truncated_algebra)
from liealg.fields import QQ

_HAT = RangeHat(3, [0, 1, 5])

# record: (fields, defaults, a builder of one instance, the instance's repr)
RECORDS = {
    JacobiWitness: (
        ("i", "j", "k", "defect"), {},
        lambda: JacobiWitness(0, 1, 2, (1, 0, Fraction(-1, 2))),
        "JacobiWitness(i=0, j=1, k=2, defect=(1, 0, Fraction(-1, 2)))"),
    DerivationSpace: (
        ("space", "inner_dim", "outer_dim"), {},
        lambda: DerivationSpace(Subspace.coordinate(QQ, 4, [0, 3]), 1, 1),
        "DerivationSpace(space=Subspace(dim 2 of 4: (1, 0, 0, 0), (0, 0, 0, 1)), "
        "inner_dim=1, outer_dim=1)"),
    DiagonalMetricResult: (
        ("n", "exists", "weights"), {},
        lambda: single_diagonal_metric_solve(3),
        "DiagonalMetricResult(n=3, exists=True, weights=(Fraction(1, 1), Fraction(1, 1), "
        "Fraction(1, 1), Fraction(1, 1)))"),
    IdealClassification: (
        ("n", "suffix_ideals", "skip_ideals"), {},
        lambda: classify_ideals(3),
        "IdealClassification(n=3, suffix_ideals=(0, 1, 2, 3, 4), skip_ideals=(3,))"),
    HatPropertyReport: (
        ("multiplicative", "add1", "add2", "witnesses"), {},
        lambda: hat_properties(_HAT, range(-2, 3)),
        "HatPropertyReport(multiplicative=False, add1=False, add2=True, "
        "witnesses={'multiplicative': (-1, -1), 'add1': (-2,)})"),
    HatScanWitness: (
        ("i", "j", "k", "hat_values"), {},
        lambda: jacobi_hat_scan(_HAT, range(-3, 4)),
        "HatScanWitness(i=-2, j=-3, k=-3, hat_values=(1, 0, 5))"),
    SelfDuality: (
        ("verdict", "metric", "certificate", "reason"),
        {"metric": None, "certificate": None, "reason": None},
        lambda: is_self_dual(LieAlgebra(QQ, 2, {(0, 1): {1: 1}})),
        "SelfDuality(verdict='no', metric=None, certificate={'kind': "
        "'generic-determinant-zero', 'space_dim': 1, 'matrix_dim': 2, 'grid_points': 3}, "
        "reason=None)"),
    Decomposition: (
        ("component", "complement"), {},
        lambda: Decomposition(Subspace.coordinate(QQ, 2, [0]), Subspace.coordinate(QQ, 2, [1])),
        "Decomposition(component=Subspace(dim 1 of 2: (1, 0)), "
        "complement=Subspace(dim 1 of 2: (0, 1)))"),
    DoubleExtensionInput: (
        ("abelian_dim", "omega", "acting", "action", "pairing"), {"pairing": None},
        lambda: DoubleExtensionInput(2, BilinearForm.from_entries(QQ, [[0, 1], [1, 0]]),
                                     LieAlgebra(QQ, 1, {}),
                                     (Matrix(QQ, [[1, 0], [0, -1]]),)),
        "DoubleExtensionInput(abelian_dim=2, omega=BilinearForm(Matrix(Q, 2x2: 0 1; 1 0)), "
        "acting=LieAlgebra(dim 1 over Q, 0 stored brackets), "
        "action=(Matrix(Q, 2x2: 1 0; 0 -1),), pairing=None)"),
    ContractionInput: (
        ("algebra", "metric", "subalgebra"), {},
        lambda: ContractionInput(truncated_algebra(3), canonical_metric(3),
                                 Subspace.coordinate(QQ, 4, [0])),
        "ContractionInput(algebra=LieAlgebra(dim 4 over Q, 3 stored brackets), "
        "metric=BilinearForm(Matrix(Q, 4x4: 0 0 0 1; 0 0 1 0; 0 1 0 0; 1 0 0 0)), "
        "subalgebra=Subspace(dim 1 of 4: (1, 0, 0, 0)))"),
    DeeperVerdict: (
        ("n", "candidates", "verdict"), {},
        lambda: deeper_verdict(3),
        "DeeperVerdict(n=3, candidates=(1, 2), "
        "verdict=<Verdict.WIGNER_OBTAINABLE: 'wigner-obtainable'>)"),
    InvariantProfile: (
        ("dim", "derived_dims", "lower_central_dims", "center_dim", "solvable",
         "nilpotent", "self_dual"), {},
        lambda: invariant_profile(truncated_algebra(3)),
        "InvariantProfile(dim=4, derived_dims=(4, 3, 1, 0), lower_central_dims=(4, 3), "
        "center_dim=1, solvable=True, nilpotent=False, self_dual='yes')"),
}

# records whose instance above holds a dict, so that, as for any dict, it has no hash
UNHASHABLE = {HatPropertyReport, SelfDuality}

_ids = pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)


@_ids
def test_fields_and_defaults(record):
    fields, defaults, _, _ = RECORDS[record]
    assert record._fields == fields
    assert record._field_defaults == defaults


@_ids
def test_repr(record):
    _, _, build, text = RECORDS[record]
    assert type(build()) is record
    assert repr(build()) == text


@_ids
def test_equal_records_compare_and_hash_equal(record):
    build = RECORDS[record][2]
    a, b = build(), build()
    assert a == b and not a != b
    if record in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@_ids
def test_assignment_raises(record):
    value = RECORDS[record][2]()
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


@_ids
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(record, protocol):
    value = RECORDS[record][2]()
    copy = pickle.loads(pickle.dumps(value, protocol))
    assert type(copy) is record
    assert copy == value and repr(copy) == repr(value)


def test_hat_property_witnesses_are_required_and_never_shared():
    with pytest.raises(TypeError):
        HatPropertyReport(True, True, True)
    window = range(-2, 3)
    first, second = (hat_properties(IDENTITY_HAT, window) for _ in range(2))
    assert first.witnesses == {} and first == second
    assert first.witnesses is not second.witnesses
