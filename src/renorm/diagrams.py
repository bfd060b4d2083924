"""Exact Wick-pairing moments of the quadratic source.

A single vertex carries two external lines; the Gaussian moment of the
k-th power of the source is the sum over all perfect matchings of the
2k lines.  Every matching decomposes into closed loops, an l-line loop
evaluating to the loop value b_l / 2**l, so moment k is a polynomial in
the loop symbols b1, b2, ... whose coefficients are integer matching
counts over the one denominator 2**k.

Everything here is exact: moments are integer counts, and series
coefficients come from an integer recurrence over one power-of-two
rescaled common denominator; floating point enters only in the one
correctly rounded division that ends each coefficient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "INFINITE",
    "InfiniteCoefficient",
    "MomentPolynomial",
    "all_pairings",
    "wick_moment",
    "wick_moment_by_pairings",
    "renorm_identity_verdicts",
    "series_coefficients",
    "partial_sum_scan",
]

SERIES_KINDS = ("phi", "z", "phi_renorm", "z_renorm")


class InfiniteCoefficient(Exception):
    """A series coefficient references the divergent single-loop value."""


class _Infinite:
    """Tagged stand-in for a divergent loop value.

    Deliberately supports no arithmetic: using it outside the allowed
    substitution paths must raise, not propagate a NaN.
    """

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()


@dataclass(frozen=True)
class MomentPolynomial:
    """Moment k as exact integer matching counts over the denominator 2**k.

    ``terms`` maps each loop exponent vector (the exponent of b_m at
    position m-1, trailing zeros trimmed) to the number of perfect
    matchings of the 2k half-lines with that loop type, so the moment is
    sum(count * prod_m b_m**e_m) / 2**k.
    """

    k: int
    terms: dict[tuple[int, ...], int]

    def drop_tadpoles(self) -> "MomentPolynomial":
        """Delete every monomial containing the single-line loop b1."""
        return MomentPolynomial(
            self.k, {loops: c for loops, c in self.terms.items() if not (loops and loops[0])}
        )


# -- moments ------------------------------------------------------------------


def wick_moment(k: int) -> MomentPolynomial:
    """Moment of the k-th power of the source, as exact matching counts.

    The moment generating function is exp(sum_m b_m t**m / (2m)) (the
    m-th cumulant of a squared centered Gaussian summed over modes is
    (m-1)! b_m / 2), so by the exponential formula the moment is the
    cycle index of S_k: each integer partition of k with k_m parts of
    size m contributes k! / prod_m k_m! (2m)**k_m times prod_m b_m**k_m,
    that is k! 2**k // prod_m k_m! (2m)**k_m matchings (an exact
    division).  The pairing enumerator below validates this term by
    term on small orders.

    The partitions are walked from the largest part size down in one
    exponent vector, each level multiplying its k_m! (2m)**k_m into the
    weight it passes on.
    """
    if not 0 <= k <= 60:
        raise ValueError("moment order limited to k <= 60")
    total = math.factorial(k) << k
    terms = {}
    exps = [0] * k

    def fill(n, m, size, weight):
        # parts of size <= m (m <= n unless n = 0) summing to n, below the
        # counts already in exps, whose nonzero prefix is size long
        if n == 0:
            terms[tuple(exps[:size])] = total // weight
        elif m == 1:
            exps[0] = n
            terms[tuple(exps[: size or 1])] = total // ((weight * math.factorial(n)) << n)
            exps[0] = 0
        else:
            for c in range(n // m + 1):
                if c:
                    weight *= 2 * m * c
                exps[m - 1] = c
                fill(n - c * m, min(n - c * m, m - 1), size or (m if c else 0), weight)
            exps[m - 1] = 0

    fill(k, k, 0, 1)
    return MomentPolynomial(k, terms)


def all_pairings(items):
    """Yield every pairing (partition into blocks of two) of the items.

    The pairs chosen so far live on one shared stack; a pairing is
    copied only once it is complete.
    """
    items = list(items)
    if not items:
        yield []
        return
    pairs = []

    def extend(rest):
        first = rest[0]
        if len(rest) == 2:
            yield pairs + [(first, rest[1])]
            return
        for i in range(1, len(rest)):
            pairs.append((first, rest[i]))
            yield from extend(rest[1:i] + rest[i + 1 :])
            pairs.pop()

    yield from extend(items)


def _loop_sizes(pairing, k: int) -> list[int]:
    """Loop decomposition of a matching of 2k half-lines.

    Half-lines 2v and 2v+1 belong to vertex v; a loop alternates a
    matched line with the passage through a vertex, and its size is the
    number of lines traversed.  Walked lines are marked by overwriting
    their ends' partners with -1.
    """
    partner = [0] * (2 * k)
    for x, y in pairing:
        partner[x] = y
        partner[y] = x
    sizes = []
    for start in range(0, 2 * k, 2):
        size = 0
        h = start
        while partner[h] >= 0:
            p = partner[h]
            partner[h] = partner[p] = -1
            size += 1
            h = p ^ 1
        if size:
            sizes.append(size)
    return sizes


def wick_moment_by_pairings(k: int) -> MomentPolynomial:
    """Brute-force oracle for :func:`wick_moment`.

    Enumerates all (2k-1)!! matchings, decomposes each into loops and
    counts the matchings of each loop type.  Exponential cost; keep k
    small.
    """
    if not 0 <= k <= 8:
        raise ValueError("pairing enumeration limited to k <= 8")
    counts: dict[tuple[int, ...], int] = {}
    for pairing in all_pairings(range(2 * k)):
        sizes = _loop_sizes(pairing, k)
        vec = [0] * (max(sizes) if sizes else 0)
        for size in sizes:
            vec[size - 1] += 1
        key = tuple(vec)
        counts[key] = counts.get(key, 0) + 1
    return MomentPolynomial(k, counts)


def renorm_identity_verdicts(moments) -> list[bool]:
    """Exact check of the rearrangement that finances the shift, at
    every order n < len(moments), with ``moments[j]`` = wick_moment(j).

    The full moment of (source - zeta)^n equals the tadpole-free moment of
    (source + xi - zeta)^n, xi = b1/2, iff E_k holds for each k <= n (match
    powers of zeta; C(n,i) C(n-i,r) = C(n,r) C(n-r,i)): the b1^e part of
    moment k is C(k,e) 2^-e b1^e times the tadpole-free moment k-e.  Over
    the denominators 2^k and 2^(k-e) that is the integer statement
    count_k[(e,) + rest] == C(k,e) count_(k-e)[(0,) + rest].  Each E_k
    is checked once: verdict n is the running AND of E_0..E_n.
    """
    if len(moments) > 21:
        raise ValueError("identity check limited to n <= 20")
    verdicts, holds = [], True
    for k in range(len(moments)):
        if holds:
            expected = {}
            for e in range(k + 1):
                binom = math.comb(k, e)
                for loops, c in moments[k - e].terms.items():
                    if not (loops and loops[0]):  # tadpole-free
                        expected[(e,) + loops[1:] if e else loops] = c * binom
            holds = expected == moments[k].terms
        verdicts.append(holds)
    return verdicts


def series_coefficients(
    kind: str, order: int, loop_values, shift_value: float = 0.0
) -> list[float]:
    """Numeric coefficients 0..order of a formal series.

    kind selects the series: "phi" uses moment(j)/j!, "z" uses
    moment(2j)/j!; the "_renorm" variants use the tadpole-free moment of
    the shifted source, evaluated at the finite net shift
    ``shift_value`` (the value of xi - zeta), so the single-loop value
    never appears.

    ``loop_values[m-1]`` supplies b_m; b1 may be the INFINITE marker,
    which is only legal for the renormalized kinds.  Loop values and
    shift may be integers, floats or rationals (anything with
    ``as_integer_ratio``); each coefficient is exact until one final
    division, which rounds it correctly, as ``float`` of the exact
    rational does.

    No polynomial is built: moment(n) = n! a_n, where a_0 = 1 and
    a_n = (1/2n) sum_{m<=n} b_m a_{n-m} are the Taylor coefficients of
    exp(sum_m b_m t**m / (2m)).  Dropping tadpoles sets b1 to 0, and
    shifting the source multiplies that series by exp(shift_value t), so
    a renormalized series is the same one at b1 = 2 shift_value.  The
    recurrence runs in integers: t is rescaled by 2**k, which multiplies
    b_m by 2**(km) and a_n by 2**(kn) and is exact (k puts the rescaled
    loop values near 1, which keeps the integers short); over their
    common denominator D, b_m 2**(km) = B_m / D, the integers
    A_n = n! (2D)**n 2**(kn) a_n obey

        A_n = sum_{m<=n} B_m A_{n-m} (2D)**(m-1) (n-1)! / (n-m)!,

    and coefficient j is A_{sj} / (j! (2D)**(sj) 2**(k sj)) at stride s.

    Raises
    ------
    InfiniteCoefficient
        If a plain (non-renormalized) kind touches an INFINITE b1.
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"kind must be one of {SERIES_KINDS}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    for m, v in enumerate(loop_values, start=1):
        if v is INFINITE and m != 1:
            raise ValueError("only b1 may be INFINITE")
    renorm = kind.endswith("_renorm")
    stride = 2 if kind.startswith("z") else 1
    needed = stride * order
    if len(loop_values) < needed:
        raise ValueError(f"need loop values b1..b{needed} for order {order}")
    if not renorm and needed and loop_values[0] is INFINITE:
        raise InfiniteCoefficient(
            f"coefficient 1 contains b1^{stride}, a divergent loop value"
        )
    # renormalized: b1 = 2 shift, doubled exactly (2.0 * shift overflows above 8.99e307)
    ratios = [_times_power_of_two(shift_value.as_integer_ratio(), 1) if renorm and m == 1
              else v.as_integer_ratio() for m, v in enumerate(loop_values[:needed], start=1)]
    # k from a least-squares fit of the binary exponents e_m of |b_m| to
    # -k m, so that b_m 2**(km) sits near 1
    fit = [(m, abs(num).bit_length() - den.bit_length())
           for m, (num, den) in enumerate(ratios, start=1) if num]
    k = -round(sum(m * e for m, e in fit) / sum(m * m for m, _ in fit)) if fit else 0
    # b_m 2**(km) for every m over their common denominator D
    scaled = [_times_power_of_two(r, k * m) for m, r in enumerate(ratios, start=1)]
    d = math.lcm(*(den for _, den in scaled))
    two_d = 2 * d
    steps = [num * (d // den) * two_d ** (m - 1) for m, (num, den) in enumerate(scaled, start=1)]
    a = [1]
    for n in range(1, needed + 1):
        total, falling = 0, 1  # falling = (n-1)! / (n-m)!
        for m in range(1, n + 1):
            if m > 1:
                falling *= n - m + 1
            if steps[m - 1]:
                total += steps[m - 1] * falling * a[n - m]
        a.append(total)
    out = []
    for j, n in enumerate(range(0, needed + 1, stride)):  # n = stride * j
        num, den = _times_power_of_two((a[n], math.factorial(j) * two_d**n), -k * n)
        out.append(num / den)  # int / int: correctly rounded
    return out


def _times_power_of_two(ratio: tuple[int, int], e: int) -> tuple[int, int]:
    """The integer ratio (num, den) times 2**e, with the factors of two
    that cancel taken out."""
    num, den = ratio
    if not num:
        return 0, 1
    if e >= 0:
        t = min(e, (den & -den).bit_length() - 1)
        return num << (e - t), den >> t
    t = min(-e, (num & -num).bit_length() - 1)
    return num >> t, den << (-e - t)


def partial_sum_scan(s: float, max_order: int):
    """Partial sums of the single-mode series against its closed form.

    For the one-factor spectrum with unit frequency every loop value is
    1, the order-k series coefficient is (2k)! / (k!^2 4^k), and the
    closed form is (1 - i s)^(-1/2).  Inside |s| < 1 the partial sums
    converge to it; outside they blow up, which the scan exhibits.

    Returns rows (order, partial_sum, reference, abs_error).
    """
    if not 0 <= max_order <= 300:
        raise ValueError("max_order limited to 300")
    ref = cmath.exp(-0.5 * cmath.log(1.0 - 1j * s))
    rows = []
    acc = complex(0.0, 0.0)
    term = complex(1.0, 0.0)  # (is)^k * (2k)!/(k!^2 4^k), built incrementally
    for k in range(max_order + 1):
        if k > 0:
            ratio = (2.0 * k) * (2.0 * k - 1.0) / (4.0 * k * k)
            term *= 1j * s * ratio
        acc += term
        rows.append((k, acc, ref, abs(acc - ref)))
    return rows
