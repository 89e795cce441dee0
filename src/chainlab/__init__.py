"""Numerical laboratory for exactly solvable models of quantum measurement.

Modules:
    specfun       Bessel evaluation and phase sums tuned for chain dynamics
    dense_oracle  brute-force dense Hamiltonians used as ground truth
    qdomino       quantum domino chain: Green functions and flip spreading
    xychain       x-y chain occupations from the half-filled step state
    packets       rotationally symmetric momentum-space wave packets
    detector      particle detector: Volterra amplitude, occupations, POVM
    radiating     finite chain decaying into a discretized continuum
    meanfield     BCS mean-field flow, gap equation, ground-state circle
    projection    classical projections of a projected two-level dynamics
    acceptance    the numbered verification suite
    cli           experiment runner (`chainlab` command)
"""

__version__ = "0.1.0"


class DomainError(ValueError):
    """A model parameter lies outside the model's domain (a configuration error)."""
