"""Regularized Gaussian product functionals and exact pairing combinatorics.

Two views of the same renormalization procedure:

* an analytic track: spectra with power-law tails, their cutoff
  deformations, the infinite-product characteristic functional, and the
  Gaussian-transform partition values, all with certified truncation
  errors;
* an exact combinatorial track: Wick-pairing moments as integer
  matching counts and the shift identity that keeps every renormalized
  series coefficient finite.

The two tracks cross-validate each other; ``renorm.verify`` runs the
whole acceptance suite.
"""

from .diagrams import (
    INFINITE,
    InfiniteCoefficient,
    MomentPolynomial,
    all_pairings,
    partial_sum_scan,
    renorm_identity_verdicts,
    series_coefficients,
    wick_moment,
    wick_moment_by_pairings,
)
from .partition import McConfig
from .quadrature import QuadratureConfig, QuadratureFailure
from .regulator import (
    DeformedSpectrum,
    Exponential,
    NoConvergence,
    SharpCutoff,
    constant_part,
    regulator_from_dict,
    regulator_to_dict,
    singular_part,
)
from .spectrum import (
    DivergentSum,
    ExplicitWithTail,
    PowerLaw,
    Spectrum,
    spectrum_from_dict,
    spectrum_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DivergentSum",
    "Spectrum",
    "PowerLaw",
    "ExplicitWithTail",
    "spectrum_to_dict",
    "spectrum_from_dict",
    "SharpCutoff",
    "Exponential",
    "DeformedSpectrum",
    "singular_part",
    "constant_part",
    "NoConvergence",
    "regulator_to_dict",
    "regulator_from_dict",
    "QuadratureConfig",
    "QuadratureFailure",
    "McConfig",
    "INFINITE",
    "InfiniteCoefficient",
    "MomentPolynomial",
    "all_pairings",
    "wick_moment",
    "wick_moment_by_pairings",
    "renorm_identity_verdicts",
    "series_coefficients",
    "partial_sum_scan",
]
