"""Cutoff deformations of a spectrum and their large-cutoff split.

A regulating profile rho maps [0, inf) into [0, 1] with rho(0) = 1.  At
cutoff L the spectrum deforms elementwise to

    beta_j(L) = beta_j / rho(sqrt(beta_j / L)),

which makes the reciprocal sum finite at every cutoff.  As L grows that
sum splits into a closed-form divergent piece (the singular part) plus
a constant (the constant part) plus a vanishing remainder.  The split
is normalized so the singular part carries no additive constant: all
profile- and scale-dependent constants live in the constant part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import quad_checked
from .spectrum import Spectrum, _MAX_TERMS

__all__ = [
    "UnsupportedRegulatorTail",
    "NoConvergence",
    "SharpCutoff",
    "Exponential",
    "DeformedSpectrum",
    "singular_part",
    "constant_part",
    "regulator_to_dict",
    "regulator_from_dict",
]


class UnsupportedRegulatorTail(Exception):
    """No closed-form singular part for this profile/tail combination."""


class NoConvergence(Exception):
    """A truncated sum exceeded its term budget, or an extrapolated
    cutoff limit failed to stabilize."""


@dataclass(frozen=True)
class SharpCutoff:
    """Profile equal to 1 on [0, a] (boundary included) and 0 beyond.

    The inclusive boundary is a measure-zero convention, fixed so runs
    are bit-reproducible.
    """

    a: float = 1.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("cutoff width a must be positive")

    def profile(self, x: float) -> float:
        return 1.0 if x <= self.a else 0.0


@dataclass(frozen=True)
class Exponential:
    """Profile exp(-x)."""

    def profile(self, x: float) -> float:
        return math.exp(-x)


Regulator = SharpCutoff | Exponential


@dataclass(frozen=True)
class DeformedSpectrum:
    """A base spectrum deformed by a regulating profile at a finite cutoff."""

    base: Spectrum
    reg: Regulator
    cutoff: float

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")

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

    def value_chunks(self, lo: int, hi: int):
        """Deformed elements for indices lo..hi in blocks (inf allowed)."""
        for block in self.base.chunks(lo, hi):
            if isinstance(self.reg, SharpCutoff):
                yield np.where(block <= self.reg.a**2 * self.cutoff, block, np.inf)
            else:
                with np.errstate(over="ignore"):
                    yield block * np.exp(np.sqrt(block / self.cutoff))

    # -- sharp-cutoff support ---------------------------------------------

    def sharp_tail_max_index(self) -> int:
        """Largest tail index surviving a sharp cutoff (0 if none)."""
        if not isinstance(self.reg, SharpCutoff):
            raise TypeError("only meaningful for the sharp cutoff")
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

    def survivor_chunks(self):
        """Blocks of the finitely many elements kept by a sharp cutoff.

        Raises NoConvergence, before yielding anything, if more than
        ``_MAX_TERMS`` elements survive.
        """
        if not isinstance(self.reg, SharpCutoff):
            raise TypeError("only meaningful for the sharp cutoff")
        spec = self.base
        thresh = self.reg.a**2 * self.cutoff
        head = np.asarray(spec.head_values, dtype=float)
        kept = head[head <= thresh]
        m = self.sharp_tail_max_index()
        if kept.size + max(0, m - spec.tail_start + 1) > _MAX_TERMS:
            raise NoConvergence(
                "cutoff too large for direct summation of the sharp sum"
            )
        if kept.size:
            yield kept
        if m >= spec.tail_start:
            yield from spec.chunks(spec.tail_start, m)

    # -- exponential-profile tail machinery ---------------------------------

    def _exp_recip(self, x: float, power: int = 1) -> float:
        """(1/deformed value)**power at real tail coordinate x."""
        b = self.base.tail_c * x**self.base.tail_p
        return (math.exp(-math.sqrt(b / self.cutoff)) / b) ** power

    def _exp_tail_integral(self, start: float, power: int = 1, abs_tol: float = 1e-13) -> float:
        val, _ = quad_checked(
            lambda x: self._exp_recip(x, power),
            start,
            np.inf,
            abs_tol=abs_tol,
            rel_tol=1e-9,
            max_limit=400,
        )
        return val

    # -- reciprocal sum -----------------------------------------------------

    def inverse_sum(self, tol: float = 1e-12) -> float:
        """sum_j 1/beta_j(cutoff), finite for every positive cutoff.

        Sharp cutoff: an exact finite sum of at most ``_MAX_TERMS``
        terms (NoConvergence beyond).  Exponential profile: a
        truncated sum plus the midpoint comparison integral of the tail,
        truncated once the first dropped term falls below tol (the
        sandwich between neighbouring comparison integrals bounds the
        correction error by that term).
        """
        if isinstance(self.reg, SharpCutoff):
            total = 0.0
            for block in self.survivor_chunks():
                total += float(np.sum(1.0 / block))
            return total

        spec = self.base
        total = 0.0
        for v in spec.head_values:
            x = math.sqrt(v / self.cutoff)
            if x <= 700.0:
                total += math.exp(-x) / v
        n = max(spec.tail_start, 64)
        while self._exp_recip(float(n)) > 0.5 * tol:
            n *= 2
            if n > _MAX_TERMS:
                raise NoConvergence(
                    "truncation budget exhausted for the exponential profile"
                )
        start = spec.tail_start
        for block in spec.chunks(start, n):
            total += float(np.sum(np.exp(-np.sqrt(block / self.cutoff)) / block))
        return total + self._exp_tail_integral(n + 0.5, abs_tol=0.25 * tol)


def singular_part(d: DeformedSpectrum) -> float:
    """Closed-form divergent component of the deformed reciprocal sum.

    Normalized to carry no constant term: a pure log for tail exponent
    1, a pure power for exponents below 1, and identically 0 when the
    undeformed reciprocal sum already converges (tail exponent above 1).

    Raises
    ------
    UnsupportedRegulatorTail
        For profile/tail combinations without an implemented form.
    """
    spec, lam = d.base, d.cutoff
    p, c = spec.tail_p, spec.tail_c
    if p > 1.0:
        return 0.0
    if isinstance(d.reg, SharpCutoff):
        if p == 1.0:
            return math.log(lam) / c
        edge = (d.reg.a**2 * lam / c) ** (1.0 / p)
        return edge ** (1.0 - p) / (c * (1.0 - p))
    if isinstance(d.reg, Exponential) and p == 1.0:
        return math.log(lam) / c
    raise UnsupportedRegulatorTail(
        f"no closed-form singular part for {type(d.reg).__name__} "
        f"with tail exponent {p}"
    )


def constant_part(
    spec: Spectrum,
    reg: Regulator,
    tol: float = 1e-8,
    first_cutoff: float = 1024.0,
    max_doublings: int = 26,
) -> float:
    """Cutoff-independent part of the deformed reciprocal sum.

    Evaluates ``inverse_sum - singular_part`` on a doubling cutoff grid
    and accelerates the sequence with Aitken's delta-squared (the decay
    rate of the remainder is not known a priori, so an order-agnostic
    accelerator is used).  Stops once consecutive accelerated values
    agree within tol.

    Raises
    ------
    NoConvergence
        If the estimates fail to stabilize within the grid budget.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    inner = min(tol * 1e-2, 1e-10)
    raw: list[float] = []
    accel: list[float] = []
    lam = first_cutoff
    for _ in range(max_doublings):
        d = DeformedSpectrum(spec, reg, lam)
        raw.append(d.inverse_sum(tol=inner) - singular_part(d))
        if len(raw) >= 3:
            x0, x1, x2 = raw[-3:]
            d21, d10 = x2 - x1, x1 - x0
            dd = d21 - d10
            accel.append(x2 if abs(dd) < 1e-300 else x2 - d21 * d21 / dd)
            if len(accel) >= 2 and abs(accel[-1] - accel[-2]) <= tol:
                return accel[-1]
        if len(raw) >= 2 and abs(raw[-1] - raw[-2]) <= 0.1 * tol:
            return raw[-1]
        lam *= 2.0
    raise NoConvergence(
        f"constant part did not stabilize within {max_doublings} doublings "
        f"from cutoff {first_cutoff:g}"
    )


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
        return SharpCutoff(float(d.get("a", 1.0)))
    if kind == "exponential":
        return Exponential()
    raise ValueError(f"unknown regulator kind {kind!r}")
