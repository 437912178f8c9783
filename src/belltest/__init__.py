"""Toolkit for deciding whether dichotomic survey responses are consistent
with a single classical probability law or show quantum-like contextuality.

The library covers the full pipeline: finite probability machinery for
three +/-1 variables, the classical-bound checks, a minimal collapse model
of contextual agents, the two-question survey designs with their frequency
estimators, a significance layer, and violation-maximizing searches.

Public names load lazily (PEP 562): ``import belltest`` imports no submodule
and no numpy, and a name's module is imported the first time it is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "BellTestError DegenerateAlternatives DegenerateVariance"
                  " DuplicateRespondent EmptyConditioningBranch FormatError"
                  " ZeroConditioningEvent",
        "inequalities": "InequalityKind InequalityReport InterferenceRegime"
                        " InterferenceResult bell_covariance_check interference_coefficient"
                        " wigner_conditional_check wigner_joint_check",
        "probability": "ATOMS CondTriple JointDistribution3 Outcome VariableIndex conditional"
                       " covariance event_probability random_joint symmetrize",
        "protocol": "Branch ClassicalHiddenVariable DesignVariant FrequencyTable"
                    " PopulationModel ProtocolDesign QuantumUnpolarized ResponseDataset"
                    " SymmetryReport check_symmetry estimate_frequencies run_protocol",
        "qubit": "BlochAngle QuestionTriple predicted_conditional_triple",
        "search": "FloorCertificate SearchResult classical_margin_floor"
                  " maximize_quantum_violation",
        "stats": "TestResult violation_test wilson_interval",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
