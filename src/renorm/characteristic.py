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
import math

import numpy as np

from .quadrature import QuadratureConfig, QuadratureFailure, quad_checked
from .regulator import DeformedSpectrum, NoConvergence, SharpCutoff, singular_part
from .spectrum import Spectrum, _MAX_TERMS

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
    log_mod = 0.0
    phase = 0.0
    for block in spec.chunks(1, n):
        r = s / block
        log_mod += float(np.sum(np.log1p(r * r)))
        phase += float(np.sum(np.arctan(r)))
    return math.exp(-0.25 * log_mod), 0.5 * phase


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


def _stable_v_minus_atan(v: np.ndarray) -> np.ndarray:
    """v - arctan(v), elementwise, without cancellation for small v.

    For |v| <= 1/2 the alternating series v**3 (1/3 - v**2/5 + ...) is
    summed to machine precision; the direct difference is fine beyond.
    """
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    big = np.abs(v) > 0.5
    out[big] = v[big] - np.arctan(v[big])
    w = v[~big]
    y = w * w
    acc = np.zeros_like(w)
    for m in range(27, -1, -1):
        acc = acc * y + ((-1.0) ** m) / (2 * m + 3)
    out[~big] = w * y * acc
    return out


def _check_arguments(s: float, tol: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"argument s must be finite, got {s}")
    if not tol > 0:
        raise ValueError("tol must be positive")


def _check_budget(n: int, s: float) -> None:
    """Refuse to grow a truncation index past the shared term budget."""
    if n > _MAX_TERMS:
        raise NoConvergence(
            f"renormalized limit at s = {s:g} needs more than {_MAX_TERMS} terms"
        )


def modulus_limit(spec: Spectrum, s: float, tol: float = 1e-10) -> float:
    """Limit modulus f of the infinite product, to absolute error tol.

    Needs the squared reciprocals of the spectrum to be summable.  The
    log-domain tail sum_{j>n} log1p((s/beta_j)**2) is replaced by its
    expansion through three inverse-power tails; the first dropped term
    and the tail-estimate bounds control the truncation index.
    """
    if s == 0.0:
        return 1.0
    _check_arguments(s, tol)
    s2 = s * s
    n = max(spec.tail_start, 256)
    while True:
        _check_budget(n, s)
        if abs(s) / spec.value(n + 1) <= 0.5:
            t2, e2 = spec.tail_inverse_power(2, n)
            t4, e4 = spec.tail_inverse_power(4, n)
            t6, e6 = spec.tail_inverse_power(6, n)
            t8, e8 = spec.tail_inverse_power(8, n)
            err = 0.25 * (
                s2 * e2
                + s2 * s2 * (0.5 * e4)
                + s2 * s2 * s2 * (e6 / 3.0)
                + s2 * s2 * s2 * s2 * (t8 + e8) / 4.0
            )
            if err <= tol:
                break
        n *= 2
    partial = 0.0
    for block in spec.chunks(1, n):
        r = s / block
        partial += float(np.sum(np.log1p(r * r)))
    tail = s2 * t2 - 0.5 * s2 * s2 * t4 + s2 * s2 * s2 * t6 / 3.0
    return math.exp(-0.25 * (partial + tail))


def renormalized_phase(
    spec: Spectrum, const_part: float, s: float, tol: float = 1e-10
) -> float:
    """Odd phase function of the renormalized limit:

        -s * const_part + sum_j (s/beta_j - arctan(s/beta_j)),

    with the per-term closed form (each term is the exact t-integral of
    the corresponding rational integrand) and a cubic inverse-power tail
    bound.  Odd in s; vanishes at s = 0.
    """
    if s == 0.0:
        return 0.0
    _check_arguments(s, tol)
    n = max(spec.tail_start, 256)
    while True:
        _check_budget(n, s)
        if abs(s) / spec.value(n + 1) <= 0.5:
            t3, e3 = spec.tail_inverse_power(3, n)
            t5, e5 = spec.tail_inverse_power(5, n)
            t7, e7 = spec.tail_inverse_power(7, n)
            a = abs(s)
            err = (a**3 / 3.0) * e3 + (a**5 / 5.0) * e5 + (a**7 / 7.0) * (t7 + e7)
            if err <= tol:
                break
        n *= 2
    partial = 0.0
    for block in spec.chunks(1, n):
        partial += float(np.sum(_stable_v_minus_atan(s / block)))
    tail = (s**3 / 3.0) * t3 - (s**5 / 5.0) * t5
    return -s * const_part + partial + tail


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

    Sharp cutoff: the surviving factors form a finite, exact product
    (dropped factors contribute 1).  Exponential profile: the sums are
    truncated where the first dropped reciprocal falls below tol and
    completed by midpoint comparison integrals.
    """
    if s == 0.0:
        return 1.0, 0.0
    if isinstance(d.reg, SharpCutoff):
        log_mod = 0.0
        phase = 0.0
        for block in d.survivor_chunks():
            r = s / block
            log_mod += float(np.sum(np.log1p(r * r)))
            phase += float(np.sum(np.arctan(r)))
        return math.exp(-0.25 * log_mod), 0.5 * phase

    spec = d.base
    scale = max(1.0, abs(s))
    n = max(spec.tail_start, 64)
    while scale * d._exp_recip(float(n)) > 0.25 * tol:
        if n >= _MAX_TERMS:
            raise NoConvergence(
                "truncation budget exhausted for the exponential profile"
            )
        n *= 2
    log_mod = 0.0
    phase = 0.0
    for block in d.value_chunks(1, n):
        r = s / block
        log_mod += float(np.sum(np.log1p(r * r)))
        phase += float(np.sum(np.arctan(r)))
    # The tails of both sums are governed by the deformed reciprocals:
    # arctan(s/b) ~ s/b and log1p((s/b)^2) ~ (s/b)^2 far out.
    t1 = d._exp_tail_integral(n + 0.5, power=1, abs_tol=0.25 * tol / scale)
    t2 = d._exp_tail_integral(n + 0.5, power=2, abs_tol=0.25 * tol / scale**2)
    phase += s * t1
    log_mod += s * s * t2
    return math.exp(-0.25 * log_mod), 0.5 * phase


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
