"""Shared numerical tolerances.

A bound that belongs to one check stays beside it: verify.py's
ORACLE_ATOL, 1e-12, 1e-8, 2e-3, 1e-5 and 1e-3, channels' SINGULARITY_FLOOR,
analysis's ENTROPY_DROP_ATOL, psi_zero_scan's 1e-2 and cli's strict 1e-8.
The shared ones live here: structural checks on inputs (hermiticity),
checks on constructed objects (unitarity, trace), and bounds on spectra,
Bloch vectors and noise strengths.
"""

# Max |m - m^dagger| entry allowed before a matrix is rejected as input.
HERMITICITY_ATOL = 1e-12

# Unitarity, trace preservation, channel completeness (Frobenius norm).
UNITARITY_ATOL = 1e-10
TRACE_ATOL = 1e-10

# Density-matrix spectra: values below this are treated as exact zeros
# (guards entropy against -0 eigenvalues from floating point).
EIGENVALUE_FLOOR = 1e-14

# Most negative eigenvalue a state may carry and still count as positive.
POSITIVITY_ATOL = 1e-10

# Majorization partial-sum slack.
MAJORIZATION_ATOL = 1e-10

# Bloch vectors shorter than this have no direction.
BLOCH_ZERO_ATOL = 1e-10

# Largest noise strength accepted: above 2**52 consecutive doubles are at
# least 1 apart, so chi/2 no longer resolves an angle.
CHI_MAX = 2.0**52

# Largest iteration count m accepted: up to 2**53 the float m in m * psi is
# m exactly, and every array of m + 1 rows has a size numpy can allocate or
# refuse as out of memory.
M_MAX = 2**53
