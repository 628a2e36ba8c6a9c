"""Quantum mechanics as Hamiltonian mechanics on a real symplectic manifold.

The package views a finite-dimensional complex Hilbert space as a flat real
symplectic space, associates expectation-value functions to Hermitian
operators, and verifies by direct computation that their Poisson brackets,
Hamiltonian flows and spectral data reproduce the standard quantum picture.
"""

from .spaces import (
    SymplecticSpace,
    to_real_coords,
    from_real_coords,
    hermitian_inner,
    symplectic_form,
)
from .operators import (
    HermitianOperator,
    SpectralData,
    make_hermitian,
    commutator,
    spectral_decompose,
    quadratic_form,
    reconstruct_from_spectrum,
    read_matrix_file,
)
from .brackets import (
    ObservableFunction,
    ComplexFunction,
    hamiltonian_vector_field,
    poisson_bracket,
    complex_bracket,
    bracket_commutator_report,
    BracketCommutatorReport,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    TrajectoryDiagnostics,
    integrate,
    phase_evolution_residual,
    spectral_residuals,
    trajectory_diagnostics,
)
from .quantum_function import (
    QuantumFunction,
    RowwiseMap,
    AxiomReport,
    ReconstructionReport,
    from_operator,
    verify_axioms,
    reconstruction_map,
    verify_reconstruction,
    qfe_residual,
    quantum_function_from_qfe,
)
from .pauli import (
    PauliFactor,
    PauliTerm,
    PauliSumExpr,
    parse_operator_expr,
)
from .scenario import Scenario, load_scenario, DEFAULT_TOLERANCES
from .sampling import random_unit_state, random_hermitian
from . import errors

__version__ = "0.1.0"
