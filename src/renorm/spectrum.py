"""Positive spectra with power-law tails and their inverse-power sums.

A spectrum is a positive sequence beta_1, beta_2, ... whose only
accumulation point is infinity.  Every spectrum here is a finite
explicit head followed by an exact power law ``c * j**p``; that makes
every convergence question decidable and every tail sum a closed form:
the sums of j**-x over a range of the tail are differences of Hurwitz
zeta values, taken by Euler-Maclaurin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
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
# Node-by-element pairs one step of a batched sum evaluates at most, so
# that many nodes against a long direct head stay in bounded memory.
_BATCH = 1 << 16
# Float indices are exact up to 2**53; sums reaching past it are refused.
_EXACT = 1 << 53
# Tail indices an s-free sum (and the exponential profile) sums directly
# before the closed form takes over; from index 257 on five Bernoulli
# terms give the tail to rounding.
_HEAD_TERMS = 256
# Indices a sum over nodes sums directly at least, before its series in
# radius/beta; of 16, 32, 64 and 128 the fastest for the z and flow
# transforms of the benchmark's sharp-cutoff tables.
_NODE_HEAD = 32
# B_2k / (2k)! for k = 1..10, and the powers 2k - 1 they go with
_BERNOULLI = np.array([
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
    43867 / 5109094217170944000, -174611 / 802857662698291200000,
])
_ODD = np.arange(1.0, 20.0, 2.0)
# Tail series terms beyond log_4(tail length): since radius/b <= 1/2,
# the dropped terms then sum to at most 4**-28 = 2**-56 in all.
_SERIES_TERMS = 28


class DivergentSum(Exception):
    """The requested inverse-power sum diverges for this spectrum."""


class NoConvergence(Exception):
    """A sum needs indices past 2**53, where float indices stop being
    exact, or its value leaves the float range."""


@dataclass(frozen=True)
class Spectrum:
    """Finitely many explicit positive values ``head_values`` (possibly
    none), then the exact power law ``tail_c * j**tail_p`` from index
    ``tail_start`` on.

    Explicit head values let callers distort a handful of elements
    without giving up the closed-form sums of the power-law tail.
    """

    head_values: tuple[float, ...]
    tail_c: float
    tail_p: float

    def __post_init__(self):
        object.__setattr__(self, "head_values", tuple(float(v) for v in self.head_values))
        object.__setattr__(self, "tail_c", float(self.tail_c))
        object.__setattr__(self, "tail_p", float(self.tail_p))
        if not all(0 < v < math.inf for v in self.head_values):
            raise ValueError("head values must be positive and finite")
        if not (0 < self.tail_c < math.inf and 0 < self.tail_p < math.inf):
            raise ValueError("tail needs finite tail_c > 0 and tail_p > 0")

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
        return np.concatenate(list(self.chunks(n)))

    def chunks(self, last: int):
        """Yield elements 1..last in blocks: the explicit head's, then
        the tail's ``_CHUNK`` at a time; at least one block, so that the
        row sums of an empty range are zeros."""
        if self.head_values or last < 1:
            yield np.asarray(self.head_values[: max(last, 0)], dtype=float)
        for start in range(self.tail_start, last + 1, _CHUNK):
            j = np.arange(start, min(last + 1, start + _CHUNK), dtype=float)
            yield self.tail_c * j**self.tail_p

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
        return float(self._spectral_sum(*_power((k,)), upper=n)[0])

    def inverse_power_sum(self, k: int) -> float:
        """sum_j beta_j**-k: :meth:`inverse_power_sums` at one order."""
        return self.inverse_power_sums((k,))[0]

    def inverse_power_sums(self, orders) -> list[float]:
        """sum_j beta_j**-k for each order k, each exact to rounding.

        The power-law tail is a Hurwitz zeta value.  All orders share
        one pass over the elements, one row each, and a sum does not
        depend on the other orders asked for with it.

        Raises
        ------
        DivergentSum
            If k * tail_p <= 1, i.e. the sum is infinite, for an order k.
        NoConvergence
            If a sum exceeds the float range.
        """
        orders = tuple(orders)
        for k in orders:
            if not self.converges(k):
                raise DivergentSum(
                    f"order-{k} inverse-power sum diverges for tail exponent {self.tail_p}"
                )
        if not orders:
            return []
        with np.errstate(over="ignore"):  # an overflow is refused below
            sums = self._spectral_sum(*_power(orders)).tolist()
        for k, v in zip(orders, sums):
            if not math.isfinite(v):
                raise NoConvergence(f"order-{k} inverse-power sum exceeds the float range")
        return sums

    # -- summation engine -------------------------------------------------

    def _spectral_sum(
        self,
        f,
        series,
        analytic,
        s=0.0,
        upper=math.inf,
        thresh: float = math.inf,
        exp_cutoff: float | None = None,
    ) -> np.ndarray:
        """Row sums of f(s, beta_j) over the j <= upper with beta_j <=
        thresh, at every node of s: an array of shape (rows,) +
        np.shape(s), a scalar s being a batch of one node.  Nodes may be
        complex, with Im s > -min_value() (a bound for deformed spectra
        too).

        ``f`` maps a column of nodes and a block of elements to an array
        of shape (rows, nodes, len(block)), one row per summand, so
        several sums over the same elements share one pass; the nodes go
        in slices of at most ``_BATCH`` node-element pairs per block (one
        node at a time against blocks longer than that).  One plan, set
        by radius = the largest |s|, serves every node.  The elements up
        to the floor, 32 (256 for an s-free sum) and never before the
        explicit head ends, are summed directly, block by block, and
        masked by ``thresh``; past it the caller caps ``upper`` at the
        threshold.  From there to the tail index J = first j with
        radius / beta_{j+1} <= 1/2, capped at ``upper``, :meth:`_bridge`
        sums each row at O(log J) points per node (or the terms do,
        where fewer), with ``analytic`` (f if None) the summand at
        complex beta, whose real parts at real beta are the rows.  Past
        J, ``series(s, b, K)`` gives the orders m, one tuple for all
        rows, and the real weights w, of shape (rows, nodes, orders)
        (one node, broadcast, for a summand free of s), with row i of
        f(s, beta) = sum_k w_ik (b/beta)**m_k, b = beta_{J+1}, cut past
        order 2K in radius/beta; each order is summed once, in closed
        form and free of s, for every row and node.  K follows from
        (radius/b)**(2K) <= 4**-K <= 2**-56 / n, n the tail length (2
        (J+1) for an infinite tail, which bounds sum_{j>J} (b/beta_j)**m
        once m p >= 2), so each sum is exact to rounding.

        With ``exp_cutoff`` L the sums run over the exponentially
        deformed elements beta_j e^{x_j}, x_j = sqrt(beta_j / L), to
        infinity: J and whether a series follows come from
        :func:`_exp_head`, b is the deformed beta_{J+1}, the ratio
        radius / b is at most e^{-2 x_{J+1}} / 2, which sets K, and the
        tail sums are :func:`_exp_power_tail`'s.

        Raises ValueError if a node is not finite or lies on or below
        the branch points, NoConvergence, before summing, if min(J,
        upper) passes 2**53, where float indices stop being exact, or if
        the deformed tail sums overflow, and DivergentSum if an infinite
        tail diverges.
        """
        shape = np.shape(s)
        nodes = np.ravel(s).astype(complex if np.iscomplexobj(s) else float, copy=False)
        if not np.all(np.isfinite(nodes)):
            raise ValueError(f"argument s must be finite, got {nodes[~np.isfinite(nodes)][0]}")
        if np.iscomplexobj(nodes):
            below = nodes[nodes.imag <= -self.min_value()]
            if below.size:
                raise ValueError(f"argument s = {below[0]} is on or below the branch "
                                 f"points: need Im s > -mu = {-self.min_value():g}")
        c, p = self.tail_c, self.tail_p
        radius = float(np.max(np.abs(nodes), initial=0.0))
        floor = max(_NODE_HEAD if radius and exp_cutoff is None else _HEAD_TERMS,
                    self.tail_start - 1)
        if exp_cutoff is not None:
            far, upper = _exp_head(c, p, self.tail_start - 1, max(radius, c), exp_cutoff)
        else:
            far = max(floor, _index(math.log(2.0 * radius) - math.log(c), p) if radius else 0)
        last = min(far, upper)
        if last > _EXACT:
            raise NoConvergence(f"sum at |s| = {radius:g} needs indices past 2**53")

        def deformed(beta):
            if exp_cutoff is None:
                return beta
            with np.errstate(over="ignore"):  # an element past the float range adds 0
                return beta * np.exp(np.sqrt(beta / exp_cutoff))

        # the summand is analytic within pi/3 of the real log beta axis
        # once beta >= e**(pi/3) |s| for the nodes with i s within pi/3
        # of the positive axis (they have |s| < 2 mu)
        near = np.abs(nodes[-nodes.imag > 0.5 * np.abs(nodes)])
        if near.size:
            floor = max(floor, _index(math.pi / 3.0 + math.log(near.max()) - math.log(c), p))
        total = 0.0
        if last > floor:
            points, weights, ring, ring_weights = self._bridge(floor + 1, last, exp_cutoff)
            if points.size + ring.size < last - floor:  # else cheaper term by term
                beta, ring = deformed(c * points**p), deformed(c * ring**p)
                analytic = analytic or f

                def bridge(part):
                    part = part[:, None]
                    return np.add.reduce(f(part, beta) * weights, axis=-1) + np.add.reduce(
                        analytic(part, ring) * ring_weights, axis=-1).real

                total, last = _by_nodes(bridge, nodes, beta.size + ring.size), floor
        for block in self.chunks(last):
            block = deformed(block)
            kept = block[block <= thresh]
            total = total + _by_nodes(
                lambda part: np.add.reduce(f(part[:, None], kept), axis=-1), nodes, kept.size
            )
        if upper > far:
            a = far + 1
            b = c * float(a) ** p
            if exp_cutoff is None:
                count = upper - far if upper < math.inf else 2 * a
                terms, x = math.ceil(math.log(count, 4) + _SERIES_TERMS), None
            else:
                x = math.sqrt(b / exp_cutoff)
                bits = math.log(2 * a) + 2 * _SERIES_TERMS * math.log(2.0)
                terms = math.ceil(bits / (2.0 * (math.log(2.0) + 2.0 * x)))
                b *= math.exp(x)

            def tail(part):
                orders, weights = series(part, b, terms)
                sums = _tail_sums(orders, p, a, upper, x)
                if not np.all(np.isfinite(sums)):
                    at = "" if exp_cutoff is None else f", cutoff L = {exp_cutoff:g}"
                    raise NoConvergence(
                        f"tail sums overflow the float range at tail exponent p = {p:g}{at}"
                    )
                return np.einsum("rnk,k->rn", weights, sums)

            total = total + _by_nodes(tail, nodes, terms)
        return total.reshape(total.shape[:1] + shape)

    def _bridge(self, lo: int, hi: int, exp_cutoff: float | None):
        """Euler-Maclaurin for a row sum over lo <= j <= hi (DLMF 2.10.1),
        int_lo^hi h + (h(lo) + h(hi)) / 2 + sum_{k<=10} B_2k / (2k)!
        (h^(2k-1)(hi) - h^(2k-1)(lo)), as real indices and weights for
        the rows and complex ones for the analytic summand.  The summand
        is analytic within pi/3 of the real log beta axis, and log beta
        moves by kappa <= p (1 + x_j) per unit of u = log j: so the
        integral is 16-point Gauss-Legendre on panels 1/2 wide in log
        beta, and the odd derivatives are Taylor coefficients from 64
        points on a circle of radius rho j <= 4 around each end (Bornemann,
        Found. Comput. Math. 11, 2011), with -log(1 - rho) = pi / (6
        kappa) for aliasing near 2**-64."""
        c, p = self.tail_c, self.tail_p
        shift = math.inf if exp_cutoff is None else math.log(exp_cutoff) - math.log(c)

        def kappa(u: float) -> float:  # p (1 + x_j) at j = e**u
            return p * (1.0 + math.exp(0.5 * (p * u - shift)))

        edges, top = [math.log(lo)], math.log(hi)
        while edges[-1] < top:
            edges.append(edges[-1] + 0.5 / kappa(edges[-1]))
        # each panel's points from its left end: an absolute u = log j
        # would carry u units of rounding into j
        edges[-1] = top
        edges = np.exp(edges)
        edges[0], edges[-1] = lo, hi
        half = 0.5 * np.log(edges[1:] / edges[:-1])
        j = (edges[:-1, None] * np.exp(half[:, None] * (1.0 + _KNOTS))).ravel()
        rings, ring_weights = [], []
        for t, sign in ((hi, 1.0), (lo, -1.0)):
            r = min(4.0, 0.5 * t, -math.expm1(-math.pi / (6.0 * kappa(math.log(t)))) * t)
            rings.append(t + r * _ROOTS)
            ring_weights.append(sign * (_FOURIER @ (_EULER_MACLAURIN * r**-_ODD)))
        return (np.concatenate((j, [lo, hi])),
                np.concatenate(((half[:, None] * _GAUSS).ravel() * j, [0.5, 0.5])),
                np.concatenate(rings), np.concatenate(ring_weights))


# The bridge's Gauss-Legendre rule; 64 roots of unity and the Cauchy
# integrals at them for the Taylor coefficients of the odd orders n <= 19,
# whose Euler-Maclaurin weights are B_2k / (2k)! (2k - 1)!
_KNOTS, _GAUSS = leggauss(16)
_ROOTS = np.exp(2j * math.pi * np.arange(64) / 64)
_FOURIER = _ROOTS[:, None] ** -_ODD / 64
_EULER_MACLAURIN = _BERNOULLI * np.array([math.factorial(int(n)) for n in _ODD])


def _index(log_ratio: float, p: float) -> float:
    """The first index j with j**p >= e**log_ratio, or inf past 2**53."""
    e = log_ratio / p
    return math.ceil(math.exp(e)) if e < math.log(_EXACT) else math.inf


def _by_nodes(fn, nodes: np.ndarray, width: int) -> np.ndarray:
    """fn over slices of the nodes, max(1, _BATCH // width) nodes each,
    so that a (slice, width) temporary holds at most ``_BATCH``
    elements, or one node's ``width``; the results, of shape (rows,
    nodes in the slice), are joined along the nodes."""
    step = max(1, _BATCH // max(width, 1))
    if len(nodes) <= step:
        return fn(nodes)
    return np.concatenate([fn(nodes[i : i + step]) for i in range(0, len(nodes), step)], axis=1)


def _exp_head(c: float, p: float, head: int, radius: float, cutoff: float):
    """Last index before the series of an exponentially deformed sum,
    and the upper end of its series: infinity, or that index when none
    follows.

    The series may start at index a >= 257 (and past the ``head``
    explicit values) once radius e**x_a / beta_a <= 1/2, x_a =
    sqrt(beta_a / cutoff): its alternating terms lose a factor
    e**(2 q x_a) to cancellation at order q, which the weight
    (radius / (beta_a e**x_a))**q repays, and x_a <= 32 keeps that
    factor far from overflow.  The ratio falls up to beta = 4 cutoff
    and rises after: past a first candidate only its minimum can
    qualify.  Without a start the sum runs on to x_j = 40 + log max(1,
    radius / cutoff), past which every |w_j| <= radius / (x_j**2 cutoff
    e**x_j) is below e**-40 / 1600.
    """

    a = max(_HEAD_TERMS, head) + 1
    for j in (a, max(a, _index(math.log(4.0) + math.log(cutoff) - math.log(c), p))):
        b = c * float(j) ** p
        if math.sqrt(b / cutoff) <= 32.0 and radius * math.exp(math.sqrt(b / cutoff)) <= 0.5 * b:
            return j - 1, math.inf
    x = 40.0 + max(0.0, math.log(radius / cutoff))
    last = max(head, _index(math.log(x * x * cutoff / c), p))
    return last, last


def _power(orders: tuple):
    """The s-free summands beta**-k for the given orders k, one row each
    at a single node, and their tail expansions, the single powers
    b**-k (b/beta)**k: b**-k on the diagonal of the weights, whose
    zeros add nothing.  Each row is its own scalar-exponent power, which
    rounds as it does alone (an array of exponents may not); at complex
    beta the rows are the analytic summand."""
    return (
        lambda s, beta: np.stack([beta ** (-float(k)) for k in orders])[:, None],
        lambda s, b, terms: (
            orders,
            np.diag([b ** (-float(k)) for k in orders])[:, None, :],
        ),
        None,
    )


# Cached for the life of the process: the tail sums do not depend on s,
# and every batch of nodes of a quadrature asks for the same ones.
@functools.lru_cache(maxsize=256)
def _tail_sums(orders: tuple, p: float, a: int, upper, x_a: float | None = None) -> np.ndarray:
    """a**x * sum_{j=a}^{upper} j**-x at x = p m, one for each order m,
    or, given x_a, the exponentially deformed sums of
    :func:`_exp_power_tail` (which needs the orders ascending)."""
    m = np.array(orders, dtype=float)
    if x_a is not None:
        sums = _exp_power_tail(m, p, a, x_a)
    else:
        x = p * m
        if upper == math.inf and x.min() <= 1.0:
            raise DivergentSum(f"sum diverges: tail exponent {p} gives exponent {x.min()} <= 1")
        sums = _scaled_power_tail(x, a, upper)
    sums.flags.writeable = False  # shared by every caller through the cache
    return sums


def _corrections(x: np.ndarray, t: float, terms: int) -> np.ndarray:
    """1/2 + sum_{k<=terms} B_2k/(2k)! (x)_{2k-1} t**(1-2k), the
    Euler-Maclaurin terms of t**x zeta(x, t) after t/(x-1)."""
    # rising factorials (x)_1, (x)_3, ..., (x)_{2 terms - 1}
    rising = np.cumprod(x[:, None] + np.arange(2.0 * terms - 1.0), axis=1)[:, ::2]
    # einsum, not a BLAS product: a row's value then does not depend on
    # how many rows share the call
    return 0.5 + np.einsum("ij,j->i", rising, _BERNOULLI[:terms] * t ** -_ODD[:terms])


def _scaled_power_tail(x: np.ndarray, a: int, upper) -> np.ndarray:
    """a**x * sum_{j=a}^{upper} j**-x, elementwise in x.

    From a > 256 on the sum is F_x(a) - F_x(upper + 1) with the
    Euler-Maclaurin form of the Hurwitz zeta, F_x(a) = a**(1-x)/(x-1) +
    a**-x/2 + sum_{k<=5} B_2k/(2k)! (x)_{2k-1} a**(-x-2k+1) (DLMF
    25.11), accurate to rounding from a = 257 on for every x > 0.  The
    difference of the leading terms, the integral of t**-x from a to
    upper + 1, is taken as a L expm1(y)/y with L = ln((upper+1)/a) and
    y = (1-x) L, which holds through x = 1 without cancellation.  A
    smaller a sums (a/j)**x = exp(-x log1p((j-a)/a)) directly up to j =
    256, each term to a few ulps, and adds (a/257)**x times the sum
    from 257.  An infinite ``upper`` needs every x > 1.
    """
    if a <= _HEAD_TERMS:
        last = min(_HEAD_TERMS, upper)
        steps = np.log1p(np.arange(last - a + 1.0) / a)
        head = np.add.reduce(np.exp(-x[:, None] * steps), axis=1)
        if upper == last:
            return head
        a_next = _HEAD_TERMS + 1
        return head + np.exp(-x * math.log1p((a_next - a) / a)) * _scaled_power_tail(
            x, a_next, upper
        )
    if upper == math.inf:
        return a / (x - 1.0) + _corrections(x, a, 5)
    top = float(upper) + 1.0
    span = math.log1p((top - a) / a)
    lead = a * span * special.exprel((1.0 - x) * span)
    return lead + _corrections(x, a, 5) - np.exp(-x * span) * _corrections(x, top, 5)


# (-1)**n zeta(n) / n for n = 2..19: ln Gamma(1 + d) = -gamma d + sum_n
# of these times d**n, to rounding for |d| < 0.1
_LOG_GAMMA_1P = np.array([(-1) ** n * float(special.zeta(n)) / n for n in range(2, 20)])


def _exp_power_tail(q: np.ndarray, p: float, a: int, x_a: float) -> np.ndarray:
    """sum_{j>=a} (b/beta_j)**q, elementwise in q (ascending, q p > 0),
    over exponentially deformed elements beta_j = c j**p e**x_j with
    x_j = x_a (j/a)**(p/2), and b = beta_a; for a > 256.

    Expanding e**(-q x_j) in powers of x_j turns the sum into continued
    Hurwitz zetas, plus the residue of the pole of zeta at w0 = 2/p -
    2q in the Mellin variable (Flajolet, Gourdon & Dumas 1995): with
    lam = q x_a and Z(x) = a**x zeta(x, a),

        sum_k (-1)**k e**lam lam**k / k! Z(p (q - k/2))
            + (2/p) a Gamma(w0) lam**-w0 e**lam.

    Z comes from Euler-Maclaurin with ten Bernoulli terms, valid while
    |x| << 2 pi a; the k-sum stops where its Poisson weights fall below
    rounding.  The k-th term and the residue both diverge as w0 + k ->
    0, which happens at k* = 2q - r, r = round(2/p), at the distance d
    = 2/p - r for every q: a double pole (d = 0) for p = 1 and p = 2 at
    every q, a near collision for other p.  There the two are summed
    in the confluent form

        (-1)**k e**lam lam**k / k! [Z(x) - a**x/(x-1)
                                    + (2/p) a**x expm1(d phi')/d],

    x = 1 - p d/2, phi' = ln Gamma(1+d)/d + sum_{i<=k} ln(1 - d/i)/(-d)
    - ln lam + (p/2) ln a, each piece free of cancellation; at d = 0 it
    is the double-pole residue.  The terms reach about e**(2 lam) times
    the result, a loss callers repay with the weight ratio**q, ratio <=
    e**(-2 x_a) / 2.
    """
    lam = q * x_a
    r = round(2.0 / p)
    d = 2.0 / p - r
    top = max(math.ceil(math.e**2 * lam[-1]) + 45, int(2 * q[-1]) + 2)
    k = np.arange(top + 1.0)
    n = (2 * q[:, None] - k).astype(int)  # orders of the power sums, x = p n / 2
    low = int(n.min())
    x = 0.5 * p * np.arange(low, int(n.max()) + 1.0)
    weights = (1.0 - 2.0 * (k % 2)) * np.exp(
        lam[:, None] + k * np.log(lam)[:, None] - special.gammaln(k + 1.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # at x = 1, replaced below
        terms = weights * (a / (x - 1.0) + _corrections(x, a, 10))[n - low]

    # the pole pairs: k* = 2q - r where that is a term, the lone residue elsewhere
    star = (2 * q - r).astype(int)
    rows, lone = np.flatnonzero(star >= 0), np.flatnonzero(star < 0)
    ln_a = math.log(a)
    x_star = 1.0 - 0.5 * p * d
    reg = -a * ln_a * special.exprel((x_star - 1.0) * ln_a) + _corrections(
        np.array([x_star]), a, 10
    )[0]
    if d == 0.0:
        lgam = -np.euler_gamma
    elif abs(d) < 0.1:
        lgam = -np.euler_gamma + float(_LOG_GAMMA_1P @ d ** np.arange(1.0, 19.0))
    else:
        lgam = math.lgamma(1.0 + d) / d
    i = np.arange(1.0, max(int(star.max()), 0) + 1.0)
    log_ratio = np.log1p(-d / i) / (-d / i) if d else np.ones_like(i)
    harmonic = np.concatenate(([0.0], np.cumsum(log_ratio / i)))
    phi = lgam + harmonic[star[rows]] - np.log(lam[rows]) + 0.5 * p * ln_a
    bracket = reg + (2.0 / p) * a**x_star * special.exprel(d * phi) * phi
    terms[rows, star[rows]] = weights[rows, star[rows]] * bracket
    out = terms.sum(axis=1)
    w0 = 2.0 / p - 2.0 * q[lone]
    with np.errstate(over="ignore"):  # past the float range: callers refuse the inf
        out[lone] += (2.0 / p) * a * special.gamma(w0) * np.exp(lam[lone] - w0 * np.log(lam[lone]))
    return out


def PowerLaw(c: float, p: float) -> Spectrum:
    """beta_j = c * j**p with c, p > 0: a spectrum without a head."""
    return Spectrum((), c, p)


def ExplicitWithTail(head, tail_c: float, tail_p: float) -> Spectrum:
    """The explicit positive values ``head``, then tail_c * j**tail_p."""
    return Spectrum(head, tail_c, tail_p)


def spectrum_to_dict(spec: Spectrum) -> dict:
    """JSON-ready descriptor of a spectrum: the ``power_law`` family
    when the head is empty, ``explicit_tail`` otherwise."""
    if not spec.head_values:
        return {"family": "power_law", "c": spec.tail_c, "p": spec.tail_p}
    return {
        "family": "explicit_tail",
        "head": list(spec.head_values),
        "tail_c": spec.tail_c,
        "tail_p": spec.tail_p,
    }


def _number(value, field: str) -> float:
    """``float(value)`` for a config value; one of the wrong type raises
    ValueError naming its field."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be a number, not {value!r}") from None


def spectrum_from_dict(d: dict) -> Spectrum:
    """Inverse of :func:`spectrum_to_dict`, with validation: a missing
    field or a value of the wrong type raises ValueError naming it."""
    try:
        family = d["family"]
    except (TypeError, KeyError):
        raise ValueError("spectrum descriptor needs a 'family' field") from None
    if family == "power_law":
        keys = ("c", "p")
    elif family == "explicit_tail":
        keys = ("head", "tail_c", "tail_p")
    else:
        raise ValueError(f"unknown spectrum family {family!r}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{family} descriptor missing {missing[0]!r}")
    head = d["head"] if family == "explicit_tail" else []
    if not isinstance(head, (list, tuple)):
        raise ValueError(f"explicit_tail field 'head' must be a list, not {head!r}")
    c, p = (_number(d[k], f"{family} field {k!r}") for k in keys[-2:])
    return Spectrum([_number(v, "explicit_tail field 'head'") for v in head], c, p)
