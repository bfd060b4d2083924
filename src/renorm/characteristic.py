"""Oscillatory Gaussian product functionals.

The n-factor product

    prod_{j<=n} (1 - i s / beta_j)**(-1/2)

is evaluated in polar form: log-modulus -(1/4) sum log1p((s/beta_j)**2)
and phase (1/2) sum arctan(s/beta_j), so no branch choices ever arise
and a million near-unit factors lose no precision.  On top of the
finite sections this module provides the renormalized limit (finite for
every spectrum whose squared reciprocals are summable) and the
regularized flow at a finite cutoff, whose counterterm phase removes
the divergent part of the reciprocal sum.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .quadrature import QuadratureConfig, QuadratureFailure, quad_checked
from .regulator import DeformedSpectrum, singular_part
from .spectrum import Spectrum, _tail_sums

__all__ = [
    "finite",
    "finite_polar",
    "finite_by_quadrature",
    "modulus_limit",
    "renormalized_phase",
    "renormalized",
    "renormalized_polar",
    "deformed",
    "deformed_polar",
    "flow",
    "flow_polar",
]


def finite_polar(spec: Spectrum, s: float, n: int) -> tuple[float, float]:
    """Modulus and (continuous, unwrapped) phase of the n-factor product."""
    if n < 1:
        raise ValueError("need at least one factor")
    return _polar(spec._spectral_sum(*_polar_pair(s), abs(s), upper=n))


def finite(spec: Spectrum, s: float, n: int) -> complex:
    """Value of the n-factor characteristic product at real s."""
    mod, phase = finite_polar(spec, s, n)
    return cmath.rect(mod, phase)


def finite_by_quadrature(
    spec: Spectrum, s: float, n: int, q: QuadratureConfig | None = None
) -> complex:
    """Independent oracle for :func:`finite` on small instances.

    Each factor is the 1-D integral of exp(-u**2 + i r u**2) / sqrt(pi)
    with r = s / beta_j, truncated at |u| = 8 where the envelope is
    exp(-64); the node budget doubles adaptively within ``q.max_nodes``.
    Products of per-factor errors stay below the configured tolerances
    because every factor has modulus at most 1.
    """
    if not 1 <= n <= 12:
        raise ValueError("quadrature oracle is limited to n <= 12")
    q = q or QuadratureConfig()
    max_limit = max(64, q.max_nodes // 21)
    abs_each = max(q.abs_tol / (2 * n), 1e-13)
    rel_each = max(q.rel_tol / (2 * n), 1e-12)
    result = complex(1.0, 0.0)
    err_budget = 0.0
    for j in range(1, n + 1):
        r = s / spec.value(j)
        re, ere = quad_checked(
            lambda u: math.exp(-u * u) * math.cos(r * u * u),
            0.0,
            8.0,
            abs_tol=abs_each,
            rel_tol=rel_each,
            max_limit=max_limit,
        )
        im, eim = quad_checked(
            lambda u: math.exp(-u * u) * math.sin(r * u * u),
            0.0,
            8.0,
            abs_tol=abs_each,
            rel_tol=rel_each,
            max_limit=max_limit,
        )
        result *= complex(re, im) * (2.0 / math.sqrt(math.pi))
        err_budget += ere + eim
    if err_budget > max(q.abs_tol, q.rel_tol * abs(result)):
        raise QuadratureFailure(
            f"factor errors accumulate to {err_budget:.3g}, above tolerance"
        )
    return result


def _log1p_and(s: float, second, e: int):
    """The summand rows log1p(r**2) and second(r), r = s/beta, of a
    spectral sum, and their tail expansions: the Taylor series
    sum_{k>=0} (-1)**k w r**m / m with (w, m) = (2, 2k + 2) for the
    first row and (1, 2k + e) for the second."""

    def rows(beta):
        r = s / beta
        return np.array((np.log1p(r * r), second(r)))

    def series(b, terms):
        orders, m, signed = _taylor_terms(e, terms)
        return orders, signed * (s / b) ** m / m

    return rows, series


@functools.lru_cache(maxsize=64)
def _taylor_terms(e: int, terms: int):
    """The orders of :func:`_log1p_and`'s series, as a tuple of rows and
    as an array, and its signed weights w (-1)**k."""
    k = np.arange(terms)
    m = np.array((2 * k + 2, 2 * k + e))
    signed = np.array([[2.0], [1.0]]) * (-1.0) ** k
    m.flags.writeable = signed.flags.writeable = False
    return tuple(map(tuple, m.tolist())), m, signed


def _polar_pair(s: float):
    """log1p((s/beta)**2) and arctan(s/beta)."""
    return _log1p_and(s, np.arctan, 1)


def _polar(sums) -> tuple[float, float]:
    """Modulus and phase of a product from its log1p and arctan sums."""
    log_mod, phase = sums
    return math.exp(-0.25 * log_mod), 0.5 * phase


# Node memos.  The quadratures of one command meet the same s-nodes
# again (the flow and the regularized transform at one cutoff, the
# renormalized transform at each theta), so the sums that depend on
# neither theta nor the constant part are kept; cli clears them when a
# subcommand starts.
_MEMO_SIZE = 1 << 13


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _renormalized_sums(spec: Spectrum, s: float) -> tuple[float, float]:
    """sum_j log1p((s/beta_j)**2) and sum_j (s/beta_j - arctan(s/beta_j))."""
    return spec._spectral_sum(*_log1p_and(s, lambda r: r - np.arctan(r), 3), abs(s))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _deformed_polar(d: DeformedSpectrum, s: float) -> tuple[float, float]:
    """Modulus and phase of the product over a deformed spectrum."""
    return _polar(d._deformed_sum(*_polar_pair(s), abs(s)))


def cache_clear() -> None:
    """Empty the node memos and the tail-sum cache, so that no value
    outlives a command."""
    _renormalized_sums.cache_clear()
    _deformed_polar.cache_clear()
    _tail_sums.cache_clear()


def _check_arguments(s: float, tol: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"argument s must be finite, got {s}")
    if not tol > 0:
        raise ValueError("tol must be positive")


def modulus_limit(spec: Spectrum, s: float, tol: float = 1e-10) -> float:
    """Limit modulus f of the infinite product, to absolute error tol.

    Needs the squared reciprocals of the spectrum to be summable.  The
    log-domain sum of log1p((s/beta_j)**2) is exact to rounding: a
    direct head and a power series whose tail sums are closed forms.
    """
    if s == 0.0:
        return 1.0
    _check_arguments(s, tol)
    return math.exp(-0.25 * _renormalized_sums(spec, s)[0])


def renormalized_phase(
    spec: Spectrum, const_part: float, s: float, tol: float = 1e-10
) -> float:
    """Odd phase function of the renormalized limit:

        -s * const_part + sum_j (s/beta_j - arctan(s/beta_j)),

    each term being the exact t-integral of the corresponding rational
    integrand; the sum is exact to rounding, with its tail in closed
    form.  Odd in s; vanishes at s = 0.
    """
    if s == 0.0:
        return 0.0
    _check_arguments(s, tol)
    return -s * const_part + _renormalized_sums(spec, s)[1]


def renormalized_polar(
    spec: Spectrum,
    const_part: float,
    s: float,
    theta: float = 0.0,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Modulus and phase of the renormalized limit functional."""
    mod = modulus_limit(spec, s, tol)
    phase = -0.5 * (s * theta + renormalized_phase(spec, const_part, s, tol))
    return mod, phase


def renormalized(
    spec: Spectrum,
    const_part: float,
    s: float,
    theta: float = 0.0,
    tol: float = 1e-10,
) -> complex:
    """Renormalized limit: modulus_limit * exp(-i (s theta + phase)/2)."""
    mod, phase = renormalized_polar(spec, const_part, s, theta, tol)
    return cmath.rect(mod, phase)


def deformed_polar(
    d: DeformedSpectrum, s: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Modulus and phase of the full product over a deformed spectrum.

    Exact to rounding, so tol is only checked, at a cost that does not
    grow with large cutoffs.  Sharp cutoff: the surviving factors form a
    finite product (dropped factors contribute 1) whose surviving
    power-law tail is summed in closed form.  Exponential profile: a
    direct head of factors, then the log1p and arctan Taylor series of
    the rest, whose power sums over the deformed tail are the Mellin
    series of ``spectrum._exp_power_tail``.
    """
    if s == 0.0:
        return 1.0, 0.0
    _check_arguments(s, tol)
    return _deformed_polar(d, s)


def deformed(d: DeformedSpectrum, s: float, tol: float = 1e-10) -> complex:
    """Value of the product functional over the deformed spectrum."""
    mod, phase = deformed_polar(d, s, tol)
    return cmath.rect(mod, phase)


def flow_polar(
    d: DeformedSpectrum, s: float, theta: float = 0.0, tol: float = 1e-10
) -> tuple[float, float]:
    """Modulus and phase of the renormalized flow at a finite cutoff:
    the deformed product times the counterterm phase
    exp(-i s (singular_part + theta) / 2).
    """
    mod, phase = deformed_polar(d, s, tol)
    return mod, phase - 0.5 * s * (singular_part(d) + theta)


def flow(
    d: DeformedSpectrum, s: float, theta: float = 0.0, tol: float = 1e-10
) -> complex:
    """Renormalized flow value; converges to :func:`renormalized` as the
    cutoff is removed."""
    mod, phase = flow_polar(d, s, theta, tol)
    return cmath.rect(mod, phase)
