"""Shared 1-D adaptive quadrature and its failure modes.

The rule is QUADPACK's 21-point Gauss-Kronrod pair ``qk21`` with its
error estimate (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
*QUADPACK*, Springer 1983), run globally adaptively on whole arrays of
nodes: every refinement round evaluates the integrand once, on the 21
nodes of every new subinterval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureFailure",
    "quad_checked",
]

# qk21 on [-1, 1]: the Kronrod abscissae from the edge inwards (the
# even-indexed ones are the 10-point Gauss nodes), then the centre, with
# their Kronrod weights and the Gauss weights of the Gauss nodes
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208649983720, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# all 21 nodes in ascending order, with their Kronrod and Gauss weights
_X21 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_K21 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G11 = np.zeros(11)
_G11[1:10:2] = _WG
_G21 = np.concatenate((_G11[:-1], _G11[::-1]))
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class QuadratureFailure(Exception):
    """An adaptive integral missed its requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the 1-D kernel integrals.

    ``half_width_sigmas`` is the integration window in units of the
    Gaussian kernel width; the default 8 keeps the discarded mass near
    exp(-32) of the saddle bound, well below the default tolerances.
    A kernel transform's adaptive pass starts from ceil(half_width_sigmas)
    panels, one per two kernel widths.
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


def _qk21(f, lo: np.ndarray, hi: np.ndarray):
    """Values and error estimates of qk21 on the intervals [lo_i, hi_i],
    with one call of f on all their nodes.

    The error is QUADPACK's: |Kronrod - Gauss| scaled by resasc, the
    integral of |f - mean| over the interval, and floored at 50 eps
    times the integral of |f|.  A complex integrand's error is the sum
    of its real and imaginary parts' errors.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _X21
    fv = np.broadcast_to(f(x.ravel()), (x.size,)).reshape(x.shape)
    err = np.zeros(len(lo))
    # a non-finite value makes a nan error, which no tolerance accepts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = _rows(fv, _K21) * half
        for part in (fv.real, fv.imag) if np.iscomplexobj(fv) else (fv,):
            kronrod = _rows(part, _K21)
            gauss_err = np.abs((kronrod - _rows(part, _G21)) * half)
            resabs = _rows(np.abs(part), _K21) * np.abs(half)
            resasc = _rows(np.abs(part - 0.5 * kronrod[:, None]), _K21) * np.abs(half)
            scaled = resasc * np.minimum(1.0, (200.0 * gauss_err / resasc) ** 1.5)
            e = np.where((resasc != 0.0) & (gauss_err != 0.0), scaled, gauss_err)
            err += np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, e), e)
    return value, err


def _rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row of values summed against the weights, by ``einsum``:
    ``values @ weights`` goes to BLAS ``ddot`` for one row and ``gemv``
    for more, which round differently, so a row's sum would depend on
    how many intervals share its refinement round."""
    return np.einsum("ij,j->i", values, weights)


def _meets(val, err: float, abs_tol: float, rel_tol: float) -> bool:
    # 1.01 forgives an estimate a hair over; 1e-300 lets a zero integral
    # with a zero error estimate pass
    return err <= max(abs_tol, rel_tol * abs(val)) * 1.01 + 1e-300


def quad(f, a: float, b: float, *, epsabs: float, epsrel: float, limit: int, points=None,
         full_output=1):
    """Globally adaptive qk21 integral of f over [a, b].

    ``f`` maps an array of nodes to an array of real or complex values
    (or to one value for all of them).  The first round evaluates qk21
    on each panel between a, the ascending break ``points`` inside (a,
    b), and b.  Each later round bisects the subintervals whose error
    is above their length's share of the tolerance, worst first and
    only as many as it takes for the others' errors to fit the
    tolerance or the subintervals to reach ``limit``, and evaluates f
    once on the 21 nodes of each new half.  Stops when the summed error
    meets max(epsabs, epsrel |value|), at the budget, on a non-finite
    error, or when no subinterval can be halved further.

    Returns (value, error, info), info a dict with ``neval`` (integrand
    evaluations) and ``last`` (subintervals): the call and return shape
    of ``scipy.integrate.quad`` with ``full_output=1``.  ``full_output``
    is accepted for that call shape only; the info is always returned.
    """
    edges = np.concatenate(([a], [] if points is None else points, [b])).astype(float)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _qk21(f, lo, hi)
    neval = 21 * len(lo)
    while True:
        val, err = vals.sum(), float(errs.sum())
        if _meets(val, err, epsabs, epsrel) or len(lo) >= limit or not math.isfinite(err):
            break
        tol = max(epsabs, epsrel * abs(val))
        bad = np.flatnonzero(errs > tol * (hi - lo) / (b - a))
        bad = bad[np.argsort(-errs[bad], kind="stable")]
        # the worst of them, as many as leave the rest's error within tol
        fits = np.flatnonzero(err - np.cumsum(errs[bad]) <= tol)
        count = fits[0] + 1 if len(fits) else len(bad)
        bad = bad[: min(count, limit - len(lo))]
        mid = 0.5 * (lo[bad] + hi[bad])
        if len(bad) == 0 or np.any((mid <= lo[bad]) | (mid >= hi[bad])):
            break
        new_lo, new_hi = np.concatenate((lo[bad], mid)), np.concatenate((mid, hi[bad]))
        new_vals, new_errs = _qk21(f, new_lo, new_hi)
        neval += 21 * len(new_lo)
        keep = np.ones(len(lo), dtype=bool)
        keep[bad] = False
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
    return val.item(), err, {"neval": neval, "last": len(lo)}


# The rule's entry point under the name and call shape of
# ``scipy.integrate.quad``, which tracing tools wrap to count runs and
# integrand evaluations.
integrate = SimpleNamespace(quad=quad)


def quad_checked(f, a, b, *, abs_tol, rel_tol, max_limit, points=None):
    """One adaptive pass of :func:`quad` within ``max_limit``
    subintervals, from the panels that the break ``points`` cut, that
    fails loudly unless its error estimate meets the tolerance.

    ``f`` takes and returns arrays of nodes, real or complex.  Returns
    (value, reported_error).
    """
    panels = {} if points is None else {"points": points}
    val, err, _ = integrate.quad(
        f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=max_limit, full_output=1, **panels
    )
    if not _meets(val, err, abs_tol, rel_tol):
        raise QuadratureFailure(
            f"integral error {err:.3g} still above tolerance "
            f"(abs {abs_tol:.3g}, rel {rel_tol:.3g}) at limit={max_limit}"
        )
    return val, err
