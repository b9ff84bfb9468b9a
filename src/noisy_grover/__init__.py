"""Noisy Grover search: mixed-unitary channel simulation and analysis.

A pi/4-rotation Grover iteration is corrupted by a two-level environment
of strength chi, preconditioned by nearest-unitary replacement, and run
as a mixed-unitary channel on an N-item projector database.  The package
provides the channel constructions, the search dynamics (run on the Bloch
vector of the invariant search plane at any N, with the dense N-dimensional
channel kept as its oracle), fidelity/entropy/majorization analysis, a
verification suite, and a CLI.
"""

from .analysis import (
    BlochVector,
    FidelityPoint,
    Phi,
    TrajectoryReport,
    angular_fidelity,
    bloch_contraction_factor,
    bloch_from_density,
    closed_form_fidelities,
    entropy,
    entropy_from_spectrum,
    high_precision_bloch_norms,
    majorization_check,
    phase_terms,
    trajectory_report,
    trajectory_violations,
)
from .channels import (
    KrausChannel,
    apply_channel,
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    choi_rank,
    compose_channels,
    identity_channel,
    unitary_channel,
)
from .errors import (
    DegeneratePlane,
    DegeneratePolar,
    DimensionMismatch,
    InvalidDensityMatrix,
    LengthMismatch,
    NoisyGroverError,
    NotHermitian,
    NotNormalized,
    NotTracePreserving,
    OffPlaneSupport,
    ZeroBlochVector,
)
from .linalg import (
    eigvals_hermitian,
    matexp_i_hermitian,
    partial_trace_env,
    polar_unitary_factor,
)
from .noise import (
    PAULI_Y,
    PAULI_Z,
    ScalarProfile,
    chi_star,
    closed_form_kraus,
    hamiltonian_kraus,
    nearest_unitary_oracle,
    nearest_unitary_pair,
    psi_zero_scan,
    rotation_y,
    scalar_profile,
)
from .search import (
    SearchInstance,
    bloch_map,
    build_search_channel,
    check_density_matrix,
    ideal_grover_probability,
    iterate,
    plane_channel,
    reflection,
    success_probability,
    target_state,
    uniform_plane_vector,
    uniform_state,
)
from .verify import CheckResult, DiscrepancyRecord, VerificationReport, run_verification

__version__ = "0.1.0"
