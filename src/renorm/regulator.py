"""Cutoff deformations of a spectrum and their large-cutoff split.

A regulating profile rho maps [0, inf) into [0, 1] with rho(0) = 1.  At
cutoff L the spectrum deforms elementwise to

    beta_j(L) = beta_j / rho(sqrt(beta_j / L)),

which makes the reciprocal sum finite at every cutoff.  As L grows that
sum splits into a closed-form divergent piece (the singular part) plus
a constant (the constant part) plus a vanishing remainder.  The split
is normalized so the singular part carries no additive constant: all
profile- and scale-dependent constants live in the constant part.

Both pieces come from one Mellin integral (Flajolet, Gourdon & Dumas
1995).  With D(z) = sum_j beta_j**-z and the profile's Mellin data

    G(w) = 2 int_0^inf rho(u) u**(2w-1) du,

the deformed sum is (1/2 pi i) int G(w) L**w D(1+w) dw.  The singular
part is the residue at D's pole w0 = 1/p - 1 of a tail c j**p, and the
constant part the residue at G's simple pole w = 0; for p = 1 the two
poles meet, and the double pole gives ln(L) / c and the constant
together.  So every profile enters only through G and g0, the finite
part of G at 0: a sharp cutoff of width a has G(w) = a**(2w)/w and g0 =
2 ln a, the exponential profile G(w) = 2 Gamma(2w) and g0 = -2 gamma.

The deformed sums themselves are exact to rounding for both profiles:
a direct head, then a closed-form tail, the surviving power-law
stretch of a sharp cutoff or the convergent Mellin series of the
exponentially deformed tail (``spectrum._exp_power_tail``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .spectrum import NoConvergence, Spectrum, _number, _power

__all__ = [
    "NoConvergence",
    "SharpCutoff",
    "Exponential",
    "DeformedSpectrum",
    "singular_part",
    "singular_description",
    "constant_part",
    "regulator_to_dict",
    "regulator_from_dict",
]


@dataclass(frozen=True)
class SharpCutoff:
    """Profile equal to 1 on [0, a] (boundary included) and 0 beyond.

    The inclusive boundary is a measure-zero convention, fixed so runs
    are bit-reproducible.
    """

    a: float = 1.0

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("cutoff width a must be positive and finite")

    def mellin(self, w: float) -> float:
        """G(w) = a**(2w) / w, for w > 0."""
        return self.a ** (2.0 * w) / w

    @property
    def mellin_finite_part(self) -> float:
        """g0 = 2 ln a, the finite part of G at its pole w = 0."""
        return 2.0 * math.log(self.a)


@dataclass(frozen=True)
class Exponential:
    """Profile exp(-x)."""

    def mellin(self, w: float) -> float:
        """G(w) = 2 Gamma(2w), for w > 0."""
        return 2.0 * math.gamma(2.0 * w)

    @property
    def mellin_finite_part(self) -> float:
        """g0 = -2 gamma, the finite part of G at its pole w = 0."""
        return -2.0 * np.euler_gamma


Regulator = SharpCutoff | Exponential


@dataclass(frozen=True)
class DeformedSpectrum:
    """A base spectrum deformed by a regulating profile at a finite cutoff."""

    base: Spectrum
    reg: Regulator
    cutoff: float

    def __post_init__(self):
        if not 0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be positive and finite")

    # -- elementwise ------------------------------------------------------

    def value(self, j: int) -> float:
        """Deformed element beta_j / rho(sqrt(beta_j / cutoff)).

        Returns math.inf where the profile vanishes (or the exponential
        overflows); its reciprocal 0 is exactly the term's contribution.
        """
        b = self.base.value(j)
        if isinstance(self.reg, SharpCutoff):
            return b if b <= self.reg.a**2 * self.cutoff else math.inf
        x = math.sqrt(b / self.cutoff)
        if x > 700.0:
            return math.inf
        return b * math.exp(x)

    # -- sharp-cutoff support ---------------------------------------------

    def sharp_tail_max_index(self) -> int:
        """Largest tail index surviving a sharp cutoff (0 if none)."""
        if not isinstance(self.reg, SharpCutoff):
            raise TypeError("only meaningful for the sharp cutoff")
        return self._sharp_top

    @functools.cached_property
    def _sharp_top(self) -> int:
        # once per instance: every survivor sum asks for it
        spec = self.base
        thresh = self.reg.a**2 * self.cutoff
        first = spec.tail_start
        if spec.value(first) > thresh:
            return 0
        m = int((thresh / spec.tail_c) ** (1.0 / spec.tail_p))
        m = max(m, first)
        # fix up float rounding at the boundary
        while spec.tail_c * float(m + 1) ** spec.tail_p <= thresh:
            m += 1
        while m >= first and spec.tail_c * float(m) ** spec.tail_p > thresh:
            m -= 1
        return max(m, 0)

    def _deformed_sum(self, f, series, s=0.0) -> np.ndarray:
        """``Spectrum._spectral_sum`` over the deformed elements: the
        sharp cutoff's survivors, the tail ending at
        :meth:`sharp_tail_max_index`, or the exponentially deformed
        sequence."""
        spec = self.base
        if isinstance(self.reg, SharpCutoff):
            return spec._spectral_sum(
                f, series, s, upper=max(self.sharp_tail_max_index(), spec.tail_start - 1),
                thresh=self.reg.a**2 * self.cutoff,
            )
        return spec._spectral_sum(f, series, s, exp_cutoff=self.cutoff)

    # -- reciprocal sum -----------------------------------------------------

    def inverse_sum(self) -> float:
        """sum_j 1/beta_j(cutoff), finite for every positive cutoff.

        Exact to rounding, at a cost that does not grow with large
        cutoffs.  Sharp cutoff: the finite sum over the survivors, with
        the surviving power-law tail in closed form (a difference of two
        Hurwitz zeta values).  Exponential profile: a direct head, then
        the Mellin series of the deformed tail in continued Hurwitz zeta
        values (``spectrum._exp_power_tail``).
        """
        return float(self._deformed_sum(*_power((1,)))[0])


def singular_part(d: DeformedSpectrum) -> float:
    """Closed-form divergent component of the deformed reciprocal sum.

    The residue of G(w) L**w D(1+w) at w0 = 1/p - 1 for the tail
    exponent p, normalized to carry no constant term: 0 when the
    undeformed reciprocal sum already converges (p > 1), ln(L) / c at
    p = 1, where D's pole meets G's, and G(w0) L**w0 / (p c**(1/p)) for
    p < 1.  Raises NoConvergence where that leaves the float range.
    """
    p, c, lam = d.base.tail_p, d.base.tail_c, d.cutoff
    if p > 1.0:
        return 0.0
    if p == 1.0:
        return math.log(lam) / c
    w0 = 1.0 / p - 1.0
    try:
        value = d.reg.mellin(w0) * lam**w0 / (p * c ** (1.0 / p))
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise NoConvergence(
            f"singular part G(w0) L**w0 leaves the float range at tail exponent "
            f"p = {p} (w0 = {w0}) and cutoff L = {lam}"
        )
    return value


def singular_description(spec: Spectrum) -> str:
    """:func:`singular_part` as a report cell: a text free of commas."""
    p, c = spec.tail_p, spec.tail_c
    if p > 1.0:
        return "0 (reciprocal sum already converges)"
    if p == 1.0:
        return f"ln(L) / {c:.17g}"
    return (
        "G(w0) L^w0 / (p c^(1/p)) with w0 = 1/p - 1 and G(w) = 2 int rho(u) u^(2w-1) du; "
        f"c={c:.17g}; p={p:.17g}"
    )


def constant_part(spec: Spectrum, reg: Regulator, tol: float = 1e-8) -> float:
    """Cutoff-independent part of the deformed reciprocal sum.

    The residue of G(w) L**w D(1+w) at w = 0, normalized as in
    :func:`singular_part`.  With H the head's reciprocal sum and m the
    first tail index it is, for tail exponent p > 1, the plain
    reciprocal sum, exact to rounding (tol is only validated); for p =
    1, H + (gamma - ln c + g0 - sum_{j<m} 1/j) / c; for p < 1, H +
    (zeta(p) - sum_{j<m} j**-p) / c with the continued Riemann zeta,
    the same for every profile.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    p, c = spec.tail_p, spec.tail_c
    if p > 1.0:
        return spec.inverse_power_sum(1, tol)
    head = sum(1.0 / v for v in spec.head_values)
    below = range(1, spec.tail_start)
    if p == 1.0:
        harmonic = sum(1.0 / j for j in below)
        return head + (np.euler_gamma - math.log(c) + reg.mellin_finite_part - harmonic) / c
    return head + (float(special.zeta(p)) - sum(j**-p for j in below)) / c


def regulator_to_dict(reg: Regulator) -> dict:
    """JSON-ready descriptor of a regulating profile."""
    if isinstance(reg, SharpCutoff):
        return {"kind": "sharp_cutoff", "a": reg.a}
    if isinstance(reg, Exponential):
        return {"kind": "exponential"}
    raise ValueError(f"unknown regulator type {type(reg)!r}")


def regulator_from_dict(d: dict) -> Regulator:
    """Inverse of :func:`regulator_to_dict`, with validation."""
    try:
        kind = d["kind"]
    except (TypeError, KeyError):
        raise ValueError("regulator descriptor needs a 'kind' field") from None
    if kind == "sharp_cutoff":
        return SharpCutoff(_number(d.get("a", 1.0), "sharp_cutoff field 'a'"))
    if kind == "exponential":
        return Exponential()
    raise ValueError(f"unknown regulator kind {kind!r}")
