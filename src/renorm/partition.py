"""Quartic-weight partition values via the Gaussian convolution transform.

The finite-dimensional partition value is the transform

    T(phi)(lam) = (1/sqrt(4 pi lam)) * integral  exp(-s^2/(4 lam)) phi(s) ds

of the characteristic product.  This module evaluates that transform
for finite sections, for the renormalized limit, and for the
regularized flow, plus a direct Monte Carlo oracle for the defining
multidimensional integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import characteristic
from .quadrature import (
    OscillationBudgetExceeded,
    QuadratureConfig,
    QuadratureFailure,
    quad_checked,
)
from .regulator import DeformedSpectrum, singular_part
from .spectrum import Spectrum

__all__ = [
    "McConfig",
    "transform",
    "finite",
    "finite_window",
    "finite_bound",
    "mc_estimate",
    "renormalized",
    "renormalized_window",
    "flow",
    "flow_window",
    "regularized",
    "regularized_window",
]

_MC_CHUNK = 1 << 15


@dataclass(frozen=True)
class McConfig:
    """Sample budget and seed for the Monte Carlo oracle.

    The generator is counter-based, so a (seed, samples) pair fixes the
    estimate bit-for-bit.
    """

    samples: int = 100_000
    seed: int = 20_240_809

    def __post_init__(self):
        if not 1000 <= self.samples < math.inf:
            raise ValueError("need at least 1000 samples for a usable error bar")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _half_width(lam: float, q: QuadratureConfig) -> float:
    if lam <= 0:
        raise ValueError("coupling must be positive")
    return q.half_width_sigmas * math.sqrt(2.0 * lam)


def _window_and_limit(lam: float, q: QuadratureConfig, freq_hint: float):
    """Integration window and subdivision budget for the kernel integral.

    ``freq_hint`` is the dominant phase slope of the integrand in
    radians per unit s; the node estimate scales with the cycle count
    across the window, and the budget check fails loudly rather than
    alias the oscillation.  Cheap: the ``*_window`` functions give each
    transform's budget, so that callers can check every point of a grid
    before integrating any.
    """
    w = _half_width(lam, q)
    cycles = abs(freq_hint) * 2.0 * w / (2.0 * math.pi)
    est_nodes = int(21 * max(40.0, 8.0 * cycles))
    if est_nodes > q.max_nodes:
        raise OscillationBudgetExceeded(
            f"integrand needs ~{est_nodes} nodes across the window "
            f"(budget {q.max_nodes}); raise max_nodes or reduce the cycle count",
            required=est_nodes,
        )
    max_limit = max(64, q.max_nodes // 21)
    return w, max_limit


def transform(phi, lam: float, q: QuadratureConfig | None = None, freq_hint: float = 0.0) -> complex:
    """Gaussian-kernel transform of a complex-valued function of s.

    Integrates kernel(s) * phi(s) over the truncated window in one
    complex adaptive pass; the kernel is the centered Gaussian density
    with variance 2*lam.  ``phi`` maps an array of nodes to an array of
    values (or to one value for all of them).
    """
    q = q or QuadratureConfig()
    return _transform(phi, lam, q, _window_and_limit(lam, q, freq_hint))


def _transform(phi, lam: float, q: QuadratureConfig, window) -> complex:
    """:func:`transform` over a window and budget already checked."""
    w, max_limit = window
    norm = 1.0 / math.sqrt(4.0 * math.pi * lam)
    val, _ = quad_checked(
        lambda s: norm * np.exp(-s * s / (4.0 * lam)) * phi(s),
        -w,
        w,
        abs_tol=q.abs_tol,
        rel_tol=q.rel_tol,
        max_limit=max_limit,
    )
    return complex(val)


def _require_real(val: complex, q: QuadratureConfig, what: str) -> float:
    # the transformed value is real by symmetry; a large imaginary
    # residue means the quadrature went wrong
    if abs(val.imag) > q.abs_tol:
        raise QuadratureFailure(
            f"{what}: imaginary residue {val.imag:.3g} above abs_tol {q.abs_tol:.3g}"
        )
    return val.real


def finite(spec: Spectrum, lam: float, n: int, q: QuadratureConfig | None = None) -> float:
    """Partition value of the n-factor section at coupling lam.

    The integrand oscillates with phase slope about half the partial
    reciprocal sum, so the node budget scales with that frequency.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    q = q or QuadratureConfig()
    window = finite_window(spec, lam, n, q)
    val = _transform(lambda s: np.exp(characteristic.finite_log(spec, s, n)), lam, q, window)
    return _require_real(val, q, "finite partition value")


def finite_window(spec: Spectrum, lam: float, n: int, q: QuadratureConfig | None = None):
    """Integration window and subdivision budget of :func:`finite`,
    whose integrand's phase slope is half the partial reciprocal sum.

    Raises OscillationBudgetExceeded as :func:`finite` would, before
    any integration.
    """
    return _window_and_limit(lam, q or QuadratureConfig(), 0.5 * spec.partial_inverse_power(1, n))


def finite_bound(spec: Spectrum, lam: float, n: int, tol: float = 1e-10) -> float:
    """Closed-form decay certificate: |finite(spec, lam, n)| never
    exceeds this bound.

    One integration by parts against the oscillation exp(i s c_n / 2)
    leaves Gaussian moments of the envelope derivative; with E|s| =
    2 sqrt(lam/pi) and E s^2 = 2 lam under the kernel this is

        (2/c_n) * (E|s|/(2 lam) + E|s| b2 / 2 + E s^2 b2 / (2 mu)).
    """
    if lam <= 0:
        raise ValueError("coupling must be positive")
    c_n = spec.partial_inverse_power(1, n)
    b2 = spec.inverse_power_sum(2, tol)
    mu = spec.min_value()
    e_abs = 2.0 * math.sqrt(lam / math.pi)
    e_sq = 2.0 * lam
    return (2.0 / c_n) * (e_abs / (2.0 * lam) + e_abs * b2 / 2.0 + e_sq * b2 / (2.0 * mu))


def mc_estimate(
    spec: Spectrum, lam: float, n: int, mc: McConfig
) -> tuple[float, float]:
    """Monte Carlo oracle for the n-dimensional defining integral.

    Draws centered Gaussians with per-coordinate variance 1/(2 beta_j),
    averages exp(-lam * (sum_j x_j^2)^2) and returns (mean, standard
    error).  Deterministic for a fixed (seed, samples) pair.
    """
    if not 1 <= n <= 64:
        raise ValueError("Monte Carlo oracle is limited to n <= 64")
    if lam < 0:
        raise ValueError("coupling must be nonnegative")
    sig = 1.0 / np.sqrt(2.0 * spec.values(n))
    rng = np.random.Generator(np.random.Philox(mc.seed))
    total = 0.0
    total_sq = 0.0
    remaining = mc.samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        x = rng.standard_normal((m, n)) * sig
        s1 = np.einsum("ij,ij->i", x, x)
        v = np.exp(-lam * s1 * s1)
        total += float(np.sum(v))
        total_sq += float(np.dot(v, v))
        remaining -= m
    mean = total / mc.samples
    var = max(0.0, (total_sq - mc.samples * mean * mean) / (mc.samples - 1))
    return mean, math.sqrt(var / mc.samples)


def renormalized(
    spec: Spectrum,
    const_part: float,
    lam: float,
    theta: float = 0.0,
    q: QuadratureConfig | None = None,
) -> float:
    """Partition value of the renormalized limit functional.

    Real by construction: the even/odd split of the limit functional
    under the symmetric kernel leaves

        (1/sqrt(pi lam)) * integral_0^inf kernel-weight * f(s)
                            * cos(s theta / 2 + phase(s) / 2) ds,

    which is evaluated as the full-window transform of the even real
    integrand.
    """
    q = q or QuadratureConfig()
    w, max_limit = renormalized_window(spec, const_part, lam, theta, q)
    norm = 1.0 / math.sqrt(4.0 * math.pi * lam)

    def integrand(s):
        log_phi = characteristic.renormalized_log(spec, const_part, s, theta)
        return norm * np.exp(-s * s / (4.0 * lam) + log_phi.real) * np.cos(log_phi.imag)

    val, _ = quad_checked(
        integrand, -w, w, abs_tol=q.abs_tol, rel_tol=q.rel_tol, max_limit=max_limit
    )
    return val


def renormalized_window(
    spec: Spectrum,
    const_part: float,
    lam: float,
    theta: float = 0.0,
    q: QuadratureConfig | None = None,
):
    """Integration window and subdivision budget of :func:`renormalized`.

    The integrand's phase slope over the window is half of |theta| +
    |const_part| plus the slope of the odd phase term, sum_j (1/b_j)
    s^2/(b_j^2+s^2), which is at most sum_j min(1/b_j, w^2/b_j^3).
    Raises OscillationBudgetExceeded as :func:`renormalized` would,
    before any integration.
    """
    q = q or QuadratureConfig()
    w = _half_width(lam, q)
    split = max(spec.tail_start, int((w / spec.tail_c) ** (1.0 / spec.tail_p)) + 1)
    tail3 = spec.inverse_power_sum(3) - spec.partial_inverse_power(3, split)
    slope = spec.partial_inverse_power(1, split) + w * w * tail3
    return _window_and_limit(lam, q, 0.5 * (abs(theta) + abs(const_part) + slope))


def flow(
    d: DeformedSpectrum,
    lam: float,
    theta: float = 0.0,
    q: QuadratureConfig | None = None,
) -> float:
    """Partition value of the renormalized flow at a finite cutoff.

    Transform of the deformed product times the counterterm phase; the
    counterterm cancels the fast oscillation, so the node budget is set
    by the residual frequency only.  Converges to :func:`renormalized`
    as the cutoff is removed.
    """
    q = q or QuadratureConfig()
    window = flow_window(d, lam, theta, q)
    val = _transform(lambda s: np.exp(characteristic.flow_log(d, s, theta)), lam, q, window)
    return _require_real(val, q, "flow partition value")


def flow_window(
    d: DeformedSpectrum, lam: float, theta: float = 0.0, q: QuadratureConfig | None = None
):
    """Integration window and subdivision budget of :func:`flow`: the
    counterterm leaves a phase slope of half the residual reciprocal
    sum, plus 1/2.  Raises OscillationBudgetExceeded as :func:`flow`
    would, before any integration.
    """
    freq = 0.5 * abs(d.inverse_sum() - singular_part(d) - theta) + 0.5
    return _window_and_limit(lam, q or QuadratureConfig(), freq)


def regularized(
    d: DeformedSpectrum, lam: float, q: QuadratureConfig | None = None
) -> float:
    """Partition value of the raw deformed product, with no counterterm.

    Decays toward zero as the cutoff grows whenever the undeformed
    reciprocal sum diverges; emitted for comparison against the flow.
    """
    q = q or QuadratureConfig()
    window = regularized_window(d, lam, q)
    val = _transform(lambda s: np.exp(characteristic.deformed_log(d, s)), lam, q, window)
    return _require_real(val, q, "regularized partition value")


def regularized_window(d: DeformedSpectrum, lam: float, q: QuadratureConfig | None = None):
    """Integration window and subdivision budget of :func:`regularized`,
    whose integrand's phase slope is half the deformed reciprocal sum.
    Raises OscillationBudgetExceeded as :func:`regularized` would,
    before any integration.
    """
    return _window_and_limit(lam, q or QuadratureConfig(), 0.5 * d.inverse_sum())
