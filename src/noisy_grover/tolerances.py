"""Central numerical tolerances.

Every module draws its thresholds from here so CI stability is a single
knob.  The three tiers: structural checks on inputs (hermiticity), checks
on constructed objects (unitarity, trace), and agreement between
independent computations of the same quantity (oracle).
"""

# Max |m - m^dagger| entry allowed before a matrix is rejected as input.
HERMITICITY_ATOL = 1e-12

# Unitarity, trace preservation, channel completeness (Frobenius norm).
UNITARITY_ATOL = 1e-10
TRACE_ATOL = 1e-10

# Agreement between a computation and its independent oracle.
ORACLE_ATOL = 1e-9

# Choi eigenvalues at or below this do not count towards a channel's rank.
CHOI_RANK_ATOL = 1e-8

# Smallest singular value below which a polar factor is considered
# undefined (the nearest unitary is non-unique at singularity).
SINGULARITY_FLOOR = 1e-10

# Density-matrix spectra: values below this are treated as exact zeros
# (guards entropy against -0 eigenvalues from floating point).
EIGENVALUE_FLOOR = 1e-14

# Most negative eigenvalue a state may carry and still count as positive.
POSITIVITY_ATOL = 1e-10

# Majorization partial-sum slack.
MAJORIZATION_ATOL = 1e-10

# Largest entropy drop between consecutive steps a trajectory may show.
ENTROPY_DROP_ATOL = 1e-12

# Search-plane support: residual outside the plane, and minimum plane
# trace, before Bloch extraction refuses the state.
PLANE_RESIDUAL_ATOL = 1e-8
PLANE_TRACE_ATOL = 1e-6

# Bloch vectors shorter than this have no direction.
BLOCH_ZERO_ATOL = 1e-10

# Largest noise strength accepted: above 2**52 consecutive doubles are at
# least 1 apart, so chi/2 no longer resolves an angle.
CHI_MAX = 2.0**52

# Both terms of the defining relation for the preconditioning angle below
# this means the angle is undefined.
PSI_INDETERMINATE_ATOL = 1e-14
