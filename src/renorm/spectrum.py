"""Positive spectra with power-law tails and their inverse-power sums.

A spectrum is a positive sequence beta_1, beta_2, ... whose only
accumulation point is infinity.  Both families implemented here end in
an exact power law ``c * j**p``; that makes every convergence question
decidable and every tail sum a closed form: the sums of j**-x over a
range of the tail are differences of Hurwitz zeta values, taken by
Euler-Maclaurin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "DivergentSum",
    "NoConvergence",
    "Spectrum",
    "PowerLaw",
    "ExplicitWithTail",
    "spectrum_to_dict",
    "spectrum_from_dict",
]

_CHUNK = 1 << 20
# Hard stop for direct summation; sums needing more direct terms than
# this are refused rather than silently degraded.
_MAX_TERMS = 1 << 28
# Tail indices summed directly before the closed form takes over; from
# index 257 on five Bernoulli terms give the tail to rounding.
_HEAD_TERMS = 256
# Direct ranges up to this length are built once per spectrum and kept.
_CACHED_HEAD = 1 << 12
# B_2k / (2k)! for k = 1..5, and the powers 2k - 1 they go with
_BERNOULLI = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160])
_ODD = np.arange(1.0, 10.0, 2.0)
# Tail series terms beyond log_4(tail length): since radius/b <= 1/2,
# the dropped terms then sum to at most 4**-28 = 2**-56 in all.
_SERIES_TERMS = 28


class DivergentSum(Exception):
    """The requested inverse-power sum diverges for this spectrum."""


class NoConvergence(Exception):
    """A truncated sum exceeded its term budget."""


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
        """sum_{j<=n} beta_j**-k."""
        return self._spectral_sum(*_power(k), upper=n)[0]

    def inverse_power_sum(self, k: int, tol: float = 1e-10) -> float:
        """sum_j beta_j**-k with absolute error at most tol.

        The power-law tail is a Hurwitz zeta value, so the sum is exact
        to rounding whatever tol asks.

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
        return self._spectral_sum(*_power(k))[0]

    # -- summation engine -------------------------------------------------

    def _spectral_sum(
        self, f, series, radius: float = 0.0, upper=math.inf, thresh: float = math.inf
    ) -> tuple[float, ...]:
        """Row sums of f(beta_j) over the j <= upper with beta_j <= thresh.

        ``f`` maps a block of elements to an array of shape (rows,
        len(block)), one row per summand, so several sums over the same
        elements share one pass.  Elements up to the tail index J =
        max(256, first j with radius / beta_j <= 1/2), capped at
        ``upper``, are summed directly, block by block, and masked by
        ``thresh``; past J the caller caps ``upper`` at the threshold.
        There ``series(b, K)`` gives the orders m, a tuple of rows of K
        numbers, and the weights w, an array of shape (rows, K), with
        row i of f(beta) = sum_k w_ik (b/beta)**m_ik, b = beta_{J+1},
        truncated after K terms of an expansion in radius/beta; each
        distinct order is summed once, in closed form, for every row
        that uses it.  K follows from the geometric bound
        (radius/b)**(2K) <= 4**-K <= 2**-56 / n, with n the tail length
        (2 (J+1) for an infinite tail, which bounds sum_{j>J}
        (b/beta_j)**m once m p >= 2), so each sum is exact to rounding.

        Raises NoConvergence, before summing, if J exceeds the term
        budget, and DivergentSum if an infinite tail diverges.
        """
        c, p = self.tail_c, self.tail_p
        far = max(_HEAD_TERMS, self.tail_start - 1)
        if radius > 0.0:
            need = (math.log(2.0 * radius) - math.log(c)) / p
            far = max(far, math.ceil(math.exp(min(need, 100.0))))
        last = min(far, upper)
        if last > _MAX_TERMS:
            raise NoConvergence(
                f"sum at |s| = {radius:g} needs more than {_MAX_TERMS} direct terms"
            )
        total = 0.0
        for block in _head(self, last) if last <= _CACHED_HEAD else self.chunks(1, last):
            total = total + np.add.reduce(f(block[block <= thresh]), axis=1)
        if upper <= far:
            return tuple(total.tolist())
        a = far + 1
        b = c * float(a) ** p
        count = upper - far if upper < math.inf else 2 * a
        orders, weights = series(b, math.ceil(math.log(count, 4) + _SERIES_TERMS))
        tail = _tail_sums(orders, p, a, upper)
        return tuple(
            t + float(np.dot(w, row)) for t, w, row in zip(total.tolist(), weights, tail)
        )


# Kept between calls: every sum over a spectrum sums the same leading
# elements, most often the first 256.
@functools.lru_cache(maxsize=64)
def _head(spec: Spectrum, last: int) -> tuple[np.ndarray, ...]:
    """Elements 1..last in the blocks of :meth:`Spectrum.chunks`; at
    least one block, so that the row sums of an empty range are zeros."""
    blocks = tuple(spec.chunks(1, last)) or (np.empty(0),)
    for block in blocks:
        block.flags.writeable = False  # shared by every caller through the cache
    return blocks


def _power(k: float):
    """The summand beta**-k, as a single row, and its tail expansion,
    the single power b**-k (b/beta)**k."""
    return (
        lambda beta: (beta ** (-float(k)))[None],
        lambda b, terms: (((k,),), np.array([[b ** (-float(k))]])),
    )


# Cached: the tail sums do not depend on s, and a quadrature asks for
# the same ones at every node.
@functools.lru_cache(maxsize=256)
def _tail_sums(orders: tuple, p: float, a: int, upper) -> np.ndarray:
    """a**x * sum_{j=a}^{upper} j**-x at x = p m for the orders m of
    each row; an order shared by rows is summed once."""
    distinct = sorted({m for row in orders for m in row})
    x = p * np.array(distinct, dtype=float)
    if upper == math.inf and x[0] <= 1.0:
        raise DivergentSum(f"sum diverges: tail exponent {p} gives exponent {x[0]} <= 1")
    index = {m: i for i, m in enumerate(distinct)}
    out = _scaled_power_tail(x, a, upper)[[[index[m] for m in row] for row in orders]]
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _scaled_power_tail(x: np.ndarray, a: int, upper) -> np.ndarray:
    """a**x * sum_{j=a}^{upper} j**-x, elementwise in x, for a > 256.

    The sum is F_x(a) - F_x(upper + 1) with the Euler-Maclaurin form
    of the Hurwitz zeta, F_x(a) = a**(1-x)/(x-1) + a**-x/2 + sum_{k<=5}
    B_2k/(2k)! (x)_{2k-1} a**(-x-2k+1) (DLMF 25.11), accurate to
    rounding from a = 257 on for every x > 0.  The difference of the
    leading terms, the integral of t**-x from a to upper + 1, is taken
    as a L expm1(y)/y with L = ln((upper+1)/a) and y = (1-x) L, which
    holds through x = 1 without cancellation.  An infinite ``upper``
    needs every x > 1.
    """
    # rising factorials (x)_1, (x)_3, ..., (x)_9
    rising = np.cumprod(x[:, None] + np.arange(9.0), axis=1)[:, ::2]

    def corrections(t: float) -> np.ndarray:
        return 0.5 + rising @ (_BERNOULLI * t ** -_ODD)

    if upper == math.inf:
        return a / (x - 1.0) + corrections(a)
    top = float(upper) + 1.0
    span = math.log1p((top - a) / a)
    lead = a * span * special.exprel((1.0 - x) * span)
    return lead + corrections(a) - np.exp(-x * span) * corrections(top)


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
    closed-form sums of the power-law tail.
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
