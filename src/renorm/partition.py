"""Quartic-weight partition values via the Gaussian convolution transform.

The finite-dimensional partition value is the transform

    T(phi)(lam) = (1/sqrt(4 pi lam)) * integral  exp(-s^2/(4 lam)) phi(s) ds

of the characteristic product.  This module evaluates that transform
for finite sections, for the renormalized limit, and for the
regularized flow, plus a direct Monte Carlo oracle for the defining
multidimensional integral.

The kernel is entire and every product is analytic on the strip Im s >
-beta_min, so each transform runs along a line Im s = y near its
saddle, where the integrand stops oscillating (de Bruijn, *Asymptotic
Methods in Analysis*; Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import characteristic
from .quadrature import QuadratureConfig, QuadratureFailure, quad_checked
from .regulator import DeformedSpectrum
from .spectrum import Spectrum

__all__ = [
    "McConfig",
    "transform",
    "finite",
    "finite_bound",
    "mc_estimate",
    "renormalized",
    "flow",
    "regularized",
]

_MC_CHUNK = 1 << 15
# Heights of each grid that locates a transform's saddle line
_SADDLE_NODES = 33
# The first grid tops out at this multiple of beta_min, and each next
# grid at this multiple of the last top
_SADDLE_GROWTH = 4.0


@dataclass(frozen=True)
class McConfig:
    """Sample budget and seed for the Monte Carlo oracle.

    The generator is counter-based, so a (seed, samples) pair fixes the
    estimate bit-for-bit.
    """

    samples: int = 100_000
    seed: int = 20_240_809

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"mc {name} must be an integer, not {value!r}")
        if self.samples < 1000:
            raise ValueError("need at least 1000 samples for a usable error bar")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _half_width(lam: float, q: QuadratureConfig) -> float:
    if lam <= 0:
        raise ValueError("coupling must be positive")
    return q.half_width_sigmas * math.sqrt(2.0 * lam)


def transform(phi, lam: float, q: QuadratureConfig | None = None, shift: float = 0.0) -> complex:
    """Gaussian-kernel transform of a complex-valued function of s,
    integrated along the line Im s = ``shift`` (the real axis by
    default).

    The kernel is the centered Gaussian density with variance 2*lam,
    continued to the line.  ``phi`` maps an array of nodes to an array
    of values (or to one value for all of them); a shifted line gives
    the real-axis value when phi is analytic between the two.
    """
    q = q or QuadratureConfig()
    return _line_integral(lambda s: np.exp(-s * s / (4.0 * lam)) * phi(s), lam, q, shift)


def _line_integral(f, lam: float, q: QuadratureConfig, y: float, cut: bool = False) -> complex:
    """norm * integral of f(x + i y) over |x| <= w, in one complex pass.
    With ``cut``, |norm f(x)| = norm rho(x) e^{-x^2/(4 lam)}, rho <= 1
    falling in |x|, so the mass beyond x is at most the lesser of
    |norm f(x)| 2 lam/|x| and rho(x)/2, and refinement stops there."""
    w = _half_width(lam, q)
    norm = 1.0 / math.sqrt(4.0 * math.pi * lam)

    def tail(x, fx):
        with np.errstate(divide="ignore", over="ignore"):  # an inf term has a finite partner
            return np.abs(fx) * np.minimum(
                2.0 * lam / np.abs(x), math.sqrt(math.pi * lam) * np.exp(x * x / (4.0 * lam))
            )

    val, _ = quad_checked(
        lambda x: norm * f(x + 1j * y),
        -w,
        w,
        abs_tol=q.abs_tol,
        rel_tol=q.rel_tol,
        max_nodes=q.max_nodes,
        tail=tail if cut else None,
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


def _saddle_transform(log_phi, lam: float, q: QuadratureConfig | None, mu: float,
                      what: str) -> float:
    """Transform of exp(log_phi) along its saddle line, for a product
    analytic on Im s > -mu.

    On the line Im s = y the integrand's modulus is at most e^{g(y)}
    times the kernel density, g(y) = y^2/(4 lam) + Re log_phi(i y),
    because |1 - i s/beta| >= 1 + y/beta there; g is convex with g(0) =
    0 and grows without bound.  One batched log_phi call puts g on an
    even grid of heights over [-mu/2, top], clear of the branch points,
    and 0, so that e^{g} <= 1; while the least g sits on the top and
    e^{g} has not underflowed, top grows by _SADDLE_GROWTH, so the least
    g ends below the top and brackets the minimum, the saddle.  The line
    runs there, where the integrand stops oscillating.  The quadrature
    runs on the integrand divided by e^{g}, so the value gets its
    tolerances relative to that bound, and a bound that underflows
    gives 0.0 without integrating.
    """
    q = q or QuadratureConfig()
    _half_width(lam, q)  # refuses a nonpositive coupling before any sum
    top = mu
    while True:
        top *= _SADDLE_GROWTH
        heights = np.append(np.linspace(-mu / 2.0, top, _SADDLE_NODES - 1), 0.0)
        g = heights * heights / (4.0 * lam) + log_phi(1j * heights).real
        k = int(np.argmin(g))
        bound = math.exp(g[k])
        if k != _SADDLE_NODES - 2 or bound == 0.0:
            break
    if bound == 0.0:
        return 0.0
    val = _line_integral(
        lambda s: np.exp(log_phi(s) - s * s / (4.0 * lam) - g[k]), lam, q, heights[k], cut=True
    )
    # the value is an expectation of a positive variable: a negative
    # quadrature value is within its error of 0, and 0 is nearer the truth
    return max(0.0, bound * _require_real(val, q, what))


def finite(spec: Spectrum, lam: float, n: int, q: QuadratureConfig | None = None) -> float:
    """Partition value of the n-factor section at coupling lam."""
    if n < 1:
        raise ValueError("need at least one factor")
    return _saddle_transform(
        lambda s: characteristic.finite_log(spec, s, n),
        lam,
        q,
        spec.min_value(),
        "finite partition value",
    )


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
    buf = np.empty((min(_MC_CHUNK, mc.samples), n))  # one draw buffer for every chunk
    total = 0.0
    total_sq = 0.0
    remaining = mc.samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        x = rng.standard_normal(out=buf[:m])
        x *= sig
        s1 = np.einsum("ij,ij->i", x, x)
        v = np.exp(-lam * s1 * s1)
        total += float(np.sum(v))
        total_sq += float(np.einsum("i,i->", v, v))  # not BLAS: free of its thread count
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
    """Partition value of the renormalized limit functional."""
    return _saddle_transform(
        lambda s: characteristic.renormalized_log(spec, const_part, s, theta),
        lam,
        q,
        spec.min_value(),
        "renormalized partition value",
    )


def flow(
    d: DeformedSpectrum,
    lam: float,
    theta: float = 0.0,
    q: QuadratureConfig | None = None,
) -> float:
    """Partition value of the renormalized flow at a finite cutoff.

    Transform of the deformed product times the counterterm phase.
    Converges to :func:`renormalized` as the cutoff is removed.
    """
    return _saddle_transform(
        lambda s: characteristic.flow_log(d, s, theta),
        lam,
        q,
        d.base.min_value(),
        "flow partition value",
    )


def regularized(
    d: DeformedSpectrum, lam: float, q: QuadratureConfig | None = None
) -> float:
    """Partition value of the raw deformed product, with no counterterm.

    Decays toward zero as the cutoff grows whenever the undeformed
    reciprocal sum diverges; emitted for comparison against the flow.
    """
    return _saddle_transform(
        lambda s: characteristic.deformed_log(d, s),
        lam,
        q,
        d.base.min_value(),
        "regularized partition value",
    )
