"""Shared 1-D adaptive quadrature plumbing and its failure modes."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

__all__ = [
    "QuadratureConfig",
    "QuadratureFailure",
    "OscillationBudgetExceeded",
    "quad_checked",
]


class QuadratureFailure(Exception):
    """An adaptive integral missed its requested tolerance."""


class OscillationBudgetExceeded(Exception):
    """The integrand oscillates faster than the node budget allows.

    Carries the estimated node count that would have been required, so
    callers can either raise the budget or shrink the problem.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the 1-D kernel integrals.

    ``half_width_sigmas`` is the integration window in units of the
    Gaussian kernel width; the default 8 keeps the discarded mass near
    exp(-32), well below the default tolerances.
    """

    half_width_sigmas: float = 8.0
    max_nodes: int = 1 << 16
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.half_width_sigmas < math.inf:
            raise ValueError("half_width_sigmas must be positive and finite")
        if not 64 <= self.max_nodes < math.inf:
            raise ValueError("max_nodes must be at least 64")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


def quad_checked(f, a, b, *, abs_tol, rel_tol, max_limit):
    """Adaptive quadrature that doubles its subdivision budget until the
    reported error meets the tolerance, and fails loudly otherwise.

    Returns (value, reported_error).
    """
    limit = 64
    while True:
        out = integrate.quad(
            f,
            a,
            b,
            epsabs=abs_tol,
            epsrel=rel_tol,
            limit=limit,
            full_output=1,
        )
        val, err = out[0], out[1]
        # A diagnostic message with an acceptable error estimate is fine
        # (e.g. roundoff-limited but already below tolerance).
        if err <= max(abs_tol, rel_tol * abs(val)) * 1.01 + 1e-300:
            return val, err
        if limit >= max_limit:
            raise QuadratureFailure(
                f"integral error {err:.3g} still above tolerance "
                f"(abs {abs_tol:.3g}, rel {rel_tol:.3g}) at limit={limit}"
            )
        limit = min(max_limit, 2 * limit)
