"""Every record type: built by keyword, read-only, and compared, hashed and
printed by its field values.  Records are named tuples, so they also iterate,
index and compare equal to a plain tuple of the same values."""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from belltest import (
    BlochAngle,
    ClassicalHiddenVariable,
    CondTriple,
    DesignVariant,
    FloorCertificate,
    FrequencyTable,
    InequalityKind,
    InequalityReport,
    InterferenceRegime,
    InterferenceResult,
    JointDistribution3,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    SearchResult,
    SymmetryReport,
    VariableIndex,
    interference_coefficient,
    maximize_quantum_violation,
    random_joint,
    violation_test,
    wilson_interval,
)
from belltest import stats
from belltest.protocol import SymmetryEntry

WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
ENTRY = SymmetryEntry(VariableIndex.B, 0.5, 10, False)

# Per record type: field values, already in normal form, and one other value
# for the first field.
RECORDS = [
    (ProtocolDesign, {"variant": DesignVariant.THREE_ENSEMBLE, "n_per_branch": 50},
     DesignVariant.TWO_ENSEMBLE),
    (ClassicalHiddenVariable, {"joint": JointDistribution3.uniform()},
     JointDistribution3.point_mass((1, 1, 1))),
    (QuantumUnpolarized, {"questions": WITNESS}, QuestionTriple.from_floats(0.0, 1.0, 2.0)),
    (FrequencyTable, {"nu_a_given_b_plus": (3, 10), "nu_c_given_b_minus": (4, 10),
                      "nu_a_given_c_plus": (5, 10)}, (2, 10)),
    (SymmetryEntry, {"question": VariableIndex.B, "plus_fraction": 0.5, "n_first_asked": 10,
                     "flagged": False}, VariableIndex.C),
    (SymmetryReport, {"entries": (ENTRY,), "tolerance": 0.05}, ()),
    (JointDistribution3, {"weights": (0.125,) * 8}, (0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0)),
    (BlochAngle, {"phi": 1.0}, 2.0),
    (QuestionTriple, {"a": BlochAngle(0.0), "b": BlochAngle(1.0), "c": BlochAngle(2.0)},
     BlochAngle(3.0)),
    (CondTriple, {"p_a_given_b_plus": 0.25, "p_c_given_b_minus": 0.25, "p_a_given_c_plus": 0.75},
     0.5),
    (InequalityReport, {"kind": InequalityKind.WIGNER_CONDITIONAL, "lhs_terms": (0.25, 0.25),
                        "rhs": 0.75, "margin": -0.25, "violated": True},
     InequalityKind.WIGNER_JOINT),
    (InterferenceResult, {"coefficient": 0.5, "regime": InterferenceRegime.TRIGONOMETRIC}, 0.0),
    (stats.TestResult, {"margin_estimate": -0.25, "standard_error": 0.1, "z_statistic": -2.5,
                  "p_value": 0.006, "significant_violation": True}, 0.25),
    (SearchResult, {"best_angles": WITNESS, "best_margin": -0.25, "evaluations": 100},
     QuestionTriple.from_floats(0.0, 1.0, 2.0)),
    (FloorCertificate, {"min_margin": 0.0, "samples_evaluated": 8}, 0.5),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_keyword_construction(cls, fields, other):
    record = cls(**fields)
    assert record == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, other):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_eq_and_hash_by_value(cls, fields, other):
    record, twin = cls(**fields), cls(**fields)
    assert record is not twin
    assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)
    changed = cls(**{**fields, next(iter(fields)): other})
    assert record != changed and repr(record) != repr(changed)


def test_repr_is_the_field_listing():
    assert (repr(ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 50))
            == "ProtocolDesign(variant=<DesignVariant.THREE_ENSEMBLE: 'three'>, n_per_branch=50)")
    assert repr(BlochAngle(7.0)) == "BlochAngle(phi=0.7168146928204138)"


def test_joint_takes_a_list_and_stores_a_normalized_float_tuple():
    weights = [0.125] * 7 + [0.125 + 4e-13]  # sums to 1 within the tolerance, not exactly
    total = math.fsum(weights)
    assert total != 1.0
    joint = JointDistribution3(weights)
    assert type(joint.weights) is tuple
    assert all(type(w) is float for w in joint.weights)
    assert joint.weights == tuple(w / total for w in weights)
    assert JointDistribution3([0, 1, 0, 0, 0, 0, 0, 0]).weights == (0.0, 1.0) + (0.0,) * 6


def test_records_are_tuples():
    design = ProtocolDesign(DesignVariant.TWO_ENSEMBLE, 7)
    assert design == (DesignVariant.TWO_ENSEMBLE, 7) and design[1] == 7
    assert list(BlochAngle(1.0)) == [1.0]
    assert json.dumps(CondTriple(0.25, 0.25, 0.75)) == "[0.25, 0.25, 0.75]"


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_pickle_and_copy_give_an_equal_record(cls, fields, other):
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


def test_pickle_and_copy_do_not_normalize_again():
    # About one flat-Dirichlet law in thirteen moves by a bit when its
    # normalized weights are normalized a second time.
    rng = np.random.default_rng(0)
    joint = next(j for j in iter(lambda: random_joint(rng), None)
                 if JointDistribution3(j.weights).weights != j.weights)
    for twin in (pickle.loads(pickle.dumps(joint)), copy.copy(joint), copy.deepcopy(joint),
                 ClassicalHiddenVariable(joint)._replace().joint):
        assert twin.weights == joint.weights


def test_replace_runs_the_checks():
    design = ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 5)
    assert design._replace(n_per_branch=7) == ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 7)
    with pytest.raises(ValueError, match="n_per_branch must be an integer of at least 1, got 0"):
        design._replace(n_per_branch=0)
    with pytest.raises(ValueError, match="must be a BlochAngle, got 1.0"):
        QuestionTriple._make([BlochAngle(0.0), 1.0, BlochAngle(2.0)])
    assert BlochAngle(1.0)._replace(phi=7.0) == BlochAngle(7.0)


@pytest.mark.parametrize("value", ["x", None, True, np.True_, [0.9]], ids=repr)
@pytest.mark.parametrize("check, message", [
    (lambda v: violation_test(FrequencyTable((1, 2), (1, 2), (1, 2)), alpha=v), "alpha must be"),
    (lambda v: wilson_interval(1, 2, v), "confidence must be"),
    (lambda v: maximize_quantum_violation(8, refine_tol=v), "refine_tol must be"),
    (lambda v: interference_coefficient(v, 0.25, 0.25), "p must be"),
    (lambda v: CondTriple(0.5, v, 0.5), "p_c_given_b_minus must be"),
    (BlochAngle, "angle must be"),
], ids=["alpha", "confidence", "refine_tol", "interference", "CondTriple", "BlochAngle"])
def test_number_checks_refuse_a_non_number_with_their_value_error(check, message, value):
    with pytest.raises(ValueError, match=message):
        check(value)
