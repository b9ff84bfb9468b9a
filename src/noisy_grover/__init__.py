"""Noisy Grover search: mixed-unitary channel simulation and analysis.

A pi/4-rotation Grover iteration is corrupted by a two-level environment
of strength chi, preconditioned by nearest-unitary replacement, and run
as a mixed-unitary channel on an N-item projector database.  The package
provides the channel constructions, the search dynamics (run on the Bloch
vector of the invariant search plane at any N, with the dense N-dimensional
channel kept in verify as its oracle), fidelity/entropy/majorization analysis, a
verification suite, and a CLI.

Import names from their modules (noisy_grover.noise, .search, .analysis,
...); each module's __all__ lists its public names.
"""

__version__ = "0.1.0"
