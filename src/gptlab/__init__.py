"""gptlab: a simulation laboratory for computation in generalised probabilistic theories.

Representations are real-linear: states are vectors, effects covectors,
transformations matrices. On top of that sit closed-circuit evaluation by
foliation, affine Turing machines with quasi-probability weights, coherence
projectors and interference order, (n-)local tomography analysis, and oracle
query experiments with strict query accounting.
"""

from .core import (
    ALGEBRA_TOL,
    PHYSICAL_TOL,
    UNIT,
    CompositeRule,
    CompositeType,
    EffectVector,
    KroneckerRule,
    StateVector,
    SystemType,
    TransformationMatrix,
    apply,
    approx_matrix,
    pair,
)
from .theories import (
    DensityCarrier,
    RebitRule,
    StrategyHooks,
    TheoryDescriptor,
    bell_operators,
    boxworld_gbit,
    chsh_value,
    classical_theory,
    gbit_fiducial_settings,
    hermitian_basis,
    quantum_theory,
    real_quantum_theory,
    symmetric_pauli_basis,
    tsirelson_settings,
)
from .circuits import (
    Acceptor,
    CircuitDAG,
    Decision,
    Distribution,
    Gate,
    OutcomeString,
    acceptance_prob,
    decide,
    distribution,
    foliate,
    prob,
    validate,
)
from . import afftm, interference, querylab, serialization, tomography

__all__ = [
    "ALGEBRA_TOL",
    "PHYSICAL_TOL",
    "UNIT",
    "Acceptor",
    "CircuitDAG",
    "CompositeRule",
    "CompositeType",
    "Decision",
    "DensityCarrier",
    "Distribution",
    "EffectVector",
    "Gate",
    "KroneckerRule",
    "OutcomeString",
    "RebitRule",
    "StateVector",
    "StrategyHooks",
    "SystemType",
    "TheoryDescriptor",
    "TransformationMatrix",
    "acceptance_prob",
    "afftm",
    "apply",
    "approx_matrix",
    "bell_operators",
    "boxworld_gbit",
    "chsh_value",
    "classical_theory",
    "decide",
    "distribution",
    "foliate",
    "gbit_fiducial_settings",
    "hermitian_basis",
    "interference",
    "pair",
    "prob",
    "quantum_theory",
    "querylab",
    "real_quantum_theory",
    "serialization",
    "symmetric_pauli_basis",
    "tomography",
    "tsirelson_settings",
    "validate",
]

__version__ = "0.1.0"
