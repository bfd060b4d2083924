"""Positive spectra with power-law tails and their inverse-power sums.

A spectrum is a positive sequence beta_1, beta_2, ... whose only
accumulation point is infinity.  Both families implemented here end in
an exact power law ``c * j**p``; that makes every convergence question
decidable and every truncation error boundable by a comparison
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivergentSum",
    "Spectrum",
    "PowerLaw",
    "ExplicitWithTail",
    "spectrum_to_dict",
    "spectrum_from_dict",
]

_CHUNK = 1 << 20
# Hard stop for truncation growth; sums needing more terms than this are
# refused rather than silently degraded.
_MAX_TERMS = 1 << 28


class DivergentSum(Exception):
    """The requested inverse-power sum diverges for this spectrum."""


class Spectrum:
    """Shared engine for sequences that are an explicit head followed by
    an exact power-law tail.

    Subclasses provide ``head_values`` (possibly empty), ``tail_c`` and
    ``tail_p``; the tail rule ``c * j**p`` applies from index
    ``tail_start`` on.
    """

    @property
    def head_values(self) -> tuple[float, ...]:
        raise NotImplementedError

    @property
    def tail_c(self) -> float:
        raise NotImplementedError

    @property
    def tail_p(self) -> float:
        raise NotImplementedError

    @property
    def tail_start(self) -> int:
        """First index governed by the power-law rule."""
        return len(self.head_values) + 1

    # -- element access -------------------------------------------------

    def value(self, j: int) -> float:
        """The j-th element (1-based)."""
        if j < 1:
            raise ValueError("indices are 1-based")
        head = self.head_values
        if j <= len(head):
            return head[j - 1]
        return self.tail_c * float(j) ** self.tail_p

    def values(self, n: int) -> np.ndarray:
        """Elements 1..n as a float64 array."""
        return np.concatenate(list(self.chunks(1, n))) if n >= 1 else np.empty(0)

    def chunks(self, lo: int, hi: int, size: int = _CHUNK):
        """Yield the elements for indices lo..hi (inclusive) in blocks."""
        if lo < 1 or hi < lo:
            if hi < lo:
                return
            raise ValueError("indices are 1-based")
        head = self.head_values
        m = len(head)
        if lo <= m:
            yield np.asarray(head[lo - 1 : min(hi, m)], dtype=float)
        start = max(lo, m + 1)
        while start <= hi:
            stop = min(hi, start + size - 1)
            j = np.arange(start, stop + 1, dtype=float)
            yield self.tail_c * j**self.tail_p
            start = stop + 1

    # -- global quantities ----------------------------------------------

    def min_value(self) -> float:
        """Smallest element of the sequence.

        The tail is strictly increasing, so once it starts only its
        first element can compete with the head.
        """
        best = self.tail_c * float(self.tail_start) ** self.tail_p
        for v in self.head_values:
            best = min(best, v)
        return best

    def converges(self, k: int) -> bool:
        """Whether the k-th inverse-power sum is finite.

        Finiteness only depends on the tail: k * p > 1.  Monotone in k,
        so convergence at k implies convergence at every larger order.
        """
        if k < 1:
            raise ValueError("order must be a positive integer")
        return k * self.tail_p > 1.0

    def partial_inverse_power(self, k: float, n: int) -> float:
        """sum_{j<=n} beta_j**-k, summed blockwise."""
        total = 0.0
        for block in self.chunks(1, n):
            total += float(np.sum(block ** (-float(k))))
        return total

    def tail_inverse_power(self, k: float, start: int) -> tuple[float, float]:
        """Estimate sum_{j>start} beta_j**-k together with an error bound.

        Requires ``start >= tail_start - 1`` so the whole tail obeys the
        power rule.  The tail of the decreasing term sequence is
        replaced by the comparison integral through the cell midpoints;
        the midpoint rule on unit cells leaves an error controlled by
        the second derivative of the comparison integrand.
        """
        if start < self.tail_start - 1:
            raise ValueError("tail estimate starts before the power-law region")
        q = self.tail_p * k
        if q <= 1.0:
            raise DivergentSum(
                f"sum of beta**-{k} diverges: tail exponent {self.tail_p} "
                f"gives k*p = {q} <= 1"
            )
        a = self.tail_c ** float(k)
        x = start + 0.5
        est = x ** (1.0 - q) / (a * (q - 1.0))
        d1 = q * x ** (-q - 1.0) / a
        d2 = q * (q + 1.0) * x ** (-q - 2.0) / a
        return est, (d1 + d2) / 24.0

    def inverse_power_sum(self, k: int, tol: float = 1e-10) -> float:
        """sum_j beta_j**-k with absolute error at most tol.

        Truncates at an index n chosen so the comparison-integral bound
        on the dropped-tail correction falls below tol, then adds the
        midpoint-integral estimate of the tail.

        Raises
        ------
        DivergentSum
            If k * tail_p <= 1, i.e. the sum is infinite.
        """
        if tol <= 0:
            raise ValueError("tol must be positive")
        if not self.converges(k):
            raise DivergentSum(
                f"order-{k} inverse-power sum diverges for tail exponent {self.tail_p}"
            )
        n = max(self.tail_start, 64)
        while True:
            est, err = self.tail_inverse_power(k, n)
            if err <= 0.5 * tol:
                break
            if n >= _MAX_TERMS:
                raise ValueError(
                    f"tolerance {tol:g} needs more than {_MAX_TERMS} terms"
                )
            n *= 2
        return self.partial_inverse_power(k, n) + est


@dataclass(frozen=True)
class PowerLaw(Spectrum):
    """beta_j = c * j**p with c, p > 0."""

    c: float
    p: float

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.p < math.inf):
            raise ValueError("power-law spectrum needs finite c > 0 and p > 0")

    @property
    def head_values(self) -> tuple[float, ...]:
        return ()

    @property
    def tail_c(self) -> float:
        return self.c

    @property
    def tail_p(self) -> float:
        return self.p


@dataclass(frozen=True)
class ExplicitWithTail(Spectrum):
    """Finitely many explicit positive values, then tail_c * j**tail_p.

    Lets callers distort a handful of elements without giving up the
    rigor of the power-law tail bounds.
    """

    head: tuple[float, ...]
    c: float
    p: float

    def __init__(self, head, tail_c: float, tail_p: float):
        object.__setattr__(self, "head", tuple(float(v) for v in head))
        object.__setattr__(self, "c", float(tail_c))
        object.__setattr__(self, "p", float(tail_p))
        if not all(0 < v < math.inf for v in self.head):
            raise ValueError("head values must be positive and finite")
        if not (0 < self.c < math.inf and 0 < self.p < math.inf):
            raise ValueError("tail needs finite tail_c > 0 and tail_p > 0")

    @property
    def head_values(self) -> tuple[float, ...]:
        return self.head

    @property
    def tail_c(self) -> float:
        return self.c

    @property
    def tail_p(self) -> float:
        return self.p


def spectrum_to_dict(spec: Spectrum) -> dict:
    """JSON-ready descriptor of a spectrum."""
    if isinstance(spec, PowerLaw):
        return {"family": "power_law", "c": spec.c, "p": spec.p}
    if isinstance(spec, ExplicitWithTail):
        return {
            "family": "explicit_tail",
            "head": list(spec.head),
            "tail_c": spec.c,
            "tail_p": spec.p,
        }
    raise ValueError(f"unknown spectrum type {type(spec)!r}")


def spectrum_from_dict(d: dict) -> Spectrum:
    """Inverse of :func:`spectrum_to_dict`, with validation."""
    try:
        family = d["family"]
    except (TypeError, KeyError):
        raise ValueError("spectrum descriptor needs a 'family' field") from None
    if family == "power_law":
        try:
            return PowerLaw(float(d["c"]), float(d["p"]))
        except KeyError as e:
            raise ValueError(f"power_law descriptor missing {e}") from None
    if family == "explicit_tail":
        try:
            return ExplicitWithTail(d["head"], float(d["tail_c"]), float(d["tail_p"]))
        except KeyError as e:
            raise ValueError(f"explicit_tail descriptor missing {e}") from None
    raise ValueError(f"unknown spectrum family {family!r}")
