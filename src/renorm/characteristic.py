"""Oscillatory Gaussian product functionals.

The n-factor product

    prod_{j<=n} (1 - i s / beta_j)**(-1/2)

is evaluated as its log, -(1/2) sum_j log(1 + w_j) with w_j = -i s /
beta_j, at a real s or on the strip Im s > -min_j beta_j, where every
principal log is analytic: the phase Im needs no unwrapping, the
modulus is exp(Re), and a million near-unit factors lose no precision.
On top of the finite sections this module provides the renormalized
limit (finite for every spectrum whose squared reciprocals are summable)
and the regularized flow at a finite cutoff, whose counterterm phase
removes the divergent part of the reciprocal sum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .quadrature import QuadratureConfig, QuadratureFailure, quad_checked
from .regulator import DeformedSpectrum, singular_part
from .spectrum import Spectrum

__all__ = [
    "finite_log",
    "finite_by_quadrature",
    "renormalized_log",
    "deformed_log",
    "flow_log",
]


def finite_log(spec: Spectrum, s, n: int):
    """Log of the n-factor product: a numpy complex for a scalar s and
    an array for an array s."""
    if n < 1:
        raise ValueError("need at least one factor")
    return _log_product(spec._spectral_sum(*_PRODUCT, s, upper=n))


def finite_by_quadrature(
    spec: Spectrum, s: float, n: int, q: QuadratureConfig | None = None
) -> complex:
    """Independent oracle for :func:`finite_log` on small instances.

    Each factor is the 1-D integral of exp(-u**2 + i r u**2) / sqrt(pi)
    with r = s / beta_j, truncated at |u| = 8 where the envelope is
    exp(-64), in one complex trapezoidal pass within ``q.max_nodes``.
    Products of per-factor errors stay below the configured tolerances
    because every factor has modulus at most 1.
    """
    if not 1 <= n <= 12:
        raise ValueError("quadrature oracle is limited to n <= 12")
    q = q or QuadratureConfig()
    abs_each = max(q.abs_tol / n, 2e-13)
    rel_each = max(q.rel_tol / n, 2e-12)
    result = complex(1.0, 0.0)
    err_budget = 0.0
    for j in range(1, n + 1):
        r = s / spec.value(j)
        # twice the factor: the even integrand over [-8, 8] has its peak
        # inside, not at an end of the interval
        val, err = quad_checked(
            lambda u: np.exp(-u * u) * (np.cos(r * u * u) + 1j * np.sin(r * u * u)),
            -8.0,
            8.0,
            abs_tol=abs_each,
            rel_tol=rel_each,
            max_nodes=q.max_nodes,
        )
        result *= val / math.sqrt(math.pi)
        err_budget += err / 2.0
    if err_budget > max(q.abs_tol, q.rel_tol * abs(result)):
        raise QuadratureFailure(
            f"factor errors accumulate to {err_budget:.3g}, above tolerance"
        )
    return result


def _log_terms(first: int):
    """The summand log(1 + w), w = -i s/beta, less w for first = 2, as
    the rows 2 Re and Im of a spectral sum, and its tail series
    -sum_{m>=first} (i s/b)**m (b/beta)**m / m.  On the strip Im s >
    -beta, 1 + Re w > 0: 2 Re is log1p(|1 + w|**2 - 1), or log |1 +
    w|**2 where Re w < -1/2, and Im is arctan(Im w / (1 + Re w)).
    """

    def rows(s, beta):
        x = -s.real / beta  # Im w
        y = s.imag / beta  # Re w
        re, im = out = np.empty((2,) + x.shape)
        # in place: a temporary the size of the block costs as much as a pass
        np.multiply(np.add(y, 2.0, out=re), y, out=re)
        re += np.multiply(x, x, out=im)
        np.add(y, 1.0, out=im)
        if y.min(initial=0.0) < -0.5:
            # there beta + Im s is exact, and log |1 + w|**2 does not cancel
            edge = y < -0.5
            np.log1p(re, out=re, where=~edge)
            im[edge] = ((beta + s.imag) / beta)[edge]
            re[edge] = np.log(im[edge] ** 2 + x[edge] ** 2)
        else:
            np.log1p(re, out=re)
        np.arctan(np.divide(x, im, out=im), out=im)
        if first == 2:
            re -= np.multiply(y, 2.0, out=y)
            im -= x
        return out

    def series(s, b, terms):
        orders, scale = _series_terms(first, 2 * terms)
        # (i s/b)**m from running products
        ladder = np.repeat((1j * s)[:, None] / b, first + 2 * terms - 1, axis=1)
        powers = np.cumprod(ladder, axis=1)[:, first - 1 :]
        return orders, np.array((powers.real, powers.imag)) * scale[:, None, :]

    return rows, series


@functools.lru_cache(maxsize=64)
def _series_terms(first: int, count: int):
    """The orders first, ..., first + count - 1 of :func:`_log_terms`'
    series, which its rows 2 Re and Im share, and their weights -2/m
    and -1/m."""
    m = np.arange(first, first + count)
    scale = np.array([[-2.0], [-1.0]]) / m
    scale.flags.writeable = False
    return tuple(m.tolist()), scale


# log(1 + w) for the product, log(1 + w) - w for its renormalized limit
_PRODUCT = _log_terms(1)
_RENORMALIZED = _log_terms(2)


def _log_product(sums):
    """-(1/2) sum_j log(1 + w_j) from the rows of :func:`_log_terms`."""
    twice_re, im = sums
    return -0.25 * twice_re - 0.5j * im


def renormalized_log(spec: Spectrum, const_part: float, s, theta: float = 0.0):
    """Log of the renormalized limit functional, from one pass over the
    spectrum; a numpy complex for a scalar s, an array for an array s:

        -(1/2) sum_j [log(1 + w_j) - w_j] - i s (theta - const_part) / 2.

    The sum converges once the squared reciprocals of the spectrum are
    summable and is exact to rounding: a direct head and a power series
    from order 2 whose tail sums are closed forms.  At real s the phase
    is -(s theta + phase(s)) / 2, with the odd phase function
    phase(s) = -s const_part + sum_j (s/beta_j - arctan(s/beta_j)).
    """
    sums = spec._spectral_sum(*_RENORMALIZED, s)
    return _log_product(sums) - 0.5j * (s * theta - s * const_part)


def deformed_log(d: DeformedSpectrum, s):
    """Log of the full product over a deformed spectrum: a numpy complex
    for a scalar s and an array for an array s.

    Exact to rounding, at a cost that does not grow with large cutoffs.
    Sharp cutoff: the surviving factors form a finite product (dropped
    factors contribute 1) whose surviving power-law tail is summed in
    closed form.  Exponential profile: a direct head of factors, then
    the Taylor series of the rest, whose power sums over the deformed
    tail are the Mellin series of ``spectrum._exp_power_tail``.
    """
    return _log_product(d._deformed_sum(*_PRODUCT, s))


def flow_log(d: DeformedSpectrum, s, theta: float = 0.0):
    """Log of the renormalized flow at a finite cutoff: the deformed
    product times the counterterm phase exp(-i s (singular_part +
    theta) / 2).  Converges to :func:`renormalized_log` as the cutoff
    is removed.
    """
    return deformed_log(d, s) - 0.5j * s * (singular_part(d) + theta)
