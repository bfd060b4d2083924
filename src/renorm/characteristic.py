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

import functools
import math

import numpy as np

from .quadrature import QuadratureConfig, QuadratureFailure, quad_checked
from .regulator import DeformedSpectrum, singular_part
from .spectrum import Spectrum, _tail_sums

__all__ = [
    "finite_polar",
    "finite_by_quadrature",
    "renormalized_polar",
    "deformed_polar",
    "flow_polar",
]


def finite_polar(spec: Spectrum, s, n: int):
    """Modulus and (continuous, unwrapped) phase of the n-factor
    product, as numpy scalars for a float s and as arrays for an array
    s."""
    if n < 1:
        raise ValueError("need at least one factor")
    return _polar(spec._spectral_sum(*_POLAR_PAIR, s, upper=n))


def finite_by_quadrature(
    spec: Spectrum, s: float, n: int, q: QuadratureConfig | None = None
) -> complex:
    """Independent oracle for :func:`finite_polar` on small instances.

    Each factor is the 1-D integral of exp(-u**2 + i r u**2) / sqrt(pi)
    with r = s / beta_j, truncated at |u| = 8 where the envelope is
    exp(-64), in one complex adaptive pass within ``q.max_nodes``.
    Products of per-factor errors stay below the configured tolerances
    because every factor has modulus at most 1.
    """
    if not 1 <= n <= 12:
        raise ValueError("quadrature oracle is limited to n <= 12")
    q = q or QuadratureConfig()
    max_limit = max(64, q.max_nodes // 21)
    abs_each = max(q.abs_tol / n, 2e-13)
    rel_each = max(q.rel_tol / n, 2e-12)
    result = complex(1.0, 0.0)
    err_budget = 0.0
    for j in range(1, n + 1):
        r = s / spec.value(j)
        val, err = quad_checked(
            lambda u: np.exp(-u * u) * (np.cos(r * u * u) + 1j * np.sin(r * u * u)),
            0.0,
            8.0,
            abs_tol=abs_each,
            rel_tol=rel_each,
            max_limit=max_limit,
        )
        result *= val * (2.0 / math.sqrt(math.pi))
        err_budget += err
    if err_budget > max(q.abs_tol, q.rel_tol * abs(result)):
        raise QuadratureFailure(
            f"factor errors accumulate to {err_budget:.3g}, above tolerance"
        )
    return result


def _log1p_and(second, e: int):
    """The summand rows log1p(r**2) and second(r), r = s/beta, of a
    spectral sum, and their tail expansions: the Taylor series
    sum_{k>=0} (-1)**k w r**m / m with (w, m) = (2, 2k + 2) for the
    first row and (1, 2k + e) for the second."""

    def rows(s, beta):
        r = s / beta
        out = np.empty((2,) + r.shape)
        np.log1p(r * r, out=out[0])
        out[1] = second(r)
        return out

    def series(s, b, terms):
        orders, m, signed = _taylor_terms(e, terms)
        # r**(2k + 2) and r**(2k + e) from running products of r**2
        r = s[:, None] / b
        ladder = np.repeat(r * r, terms + 1, axis=1)
        ladder[:, 0] = 1.0
        np.cumprod(ladder, axis=1, out=ladder)
        powers = np.array((ladder[:, 1:], r**e * ladder[:, :-1]))
        return orders, signed[:, None] * powers / m[:, None]

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


# log1p((s/beta)**2) with arctan(s/beta), for the product, and with
# s/beta - arctan(s/beta), for its renormalized limit
_POLAR_PAIR = _log1p_and(np.arctan, 1)
_RENORMALIZED_PAIR = _log1p_and(lambda r: r - np.arctan(r), 3)


def _polar(sums):
    """Modulus and phase of a product from its log1p and arctan sums."""
    log_mod, phase = sums
    return np.exp(-0.25 * log_mod), 0.5 * phase


def cache_clear() -> None:
    """Empty the tail-sum cache, so that no value outlives a command."""
    _tail_sums.cache_clear()


def renormalized_polar(spec: Spectrum, const_part: float, s, theta: float = 0.0):
    """Modulus and phase of the renormalized limit functional
    f(s) exp(-i (s theta + phase(s)) / 2), from one pass over the
    spectrum; numpy scalars for a float s, arrays for an array s.

    The limit modulus f needs the squared reciprocals of the spectrum to
    be summable; its log-domain sum of log1p((s/beta_j)**2) is exact to
    rounding: a direct head and a power series whose tail sums are
    closed forms.  The odd phase function

        phase(s) = -s * const_part + sum_j (s/beta_j - arctan(s/beta_j))

    sums the exact t-integrals of the corresponding rational integrands,
    exact to rounding with its tail in closed form; it vanishes at s = 0.
    """
    log_mod, odd = spec._spectral_sum(*_RENORMALIZED_PAIR, s)
    return np.exp(-0.25 * log_mod), -0.5 * (s * theta + (-s * const_part + odd))


def deformed_polar(d: DeformedSpectrum, s):
    """Modulus and phase of the full product over a deformed spectrum,
    as numpy scalars for a float s and as arrays for an array s.

    Exact to rounding, at a cost that does not grow with large cutoffs.
    Sharp cutoff: the surviving factors form a finite product (dropped
    factors contribute 1) whose surviving power-law tail is summed in
    closed form.  Exponential profile: a direct head of factors, then
    the log1p and arctan Taylor series of the rest, whose power sums
    over the deformed tail are the Mellin series of
    ``spectrum._exp_power_tail``.
    """
    return _polar(d._deformed_sum(*_POLAR_PAIR, s))


def flow_polar(d: DeformedSpectrum, s, theta: float = 0.0):
    """Modulus and phase of the renormalized flow at a finite cutoff:
    the deformed product times the counterterm phase
    exp(-i s (singular_part + theta) / 2).  Converges to
    :func:`renormalized_polar` as the cutoff is removed.
    """
    mod, phase = deformed_polar(d, s)
    return mod, phase - 0.5 * s * (singular_part(d) + theta)
