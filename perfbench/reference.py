"""Independent reference values for the benchmark's output checks.

Nothing here imports ``renorm``.  Values come from closed forms
(log-Gamma, Hurwitz zeta, digamma, exponential integrals, sine),
from direct sums taken along a different route than the program's, or
from exact rational recursions, so every check compares two separate
computations.  The closed forms used:

* ``c*j`` tails: prod_{j<=M} (1 - z/j) = Gamma(M+1-z) / (Gamma(M+1) Gamma(1-z))
  and prod_j (1 - z/j) e^{z/j} = e^{gamma z} / Gamma(1-z);
* ``c*j**2`` tails: prod_j (1 - w**2/j**2) = sin(pi w) / (pi w);
* constant parts: (gamma - ln c + 2 ln a)/c for the sharp profile,
  (-gamma - ln c)/c for the exponential one, zeta for convergent tails;
* exponential-profile sums: a direct sum plus the exact tail
  int_x^inf e^{-sqrt(c t/L)}/(c t) dt = (2/c) E1(sqrt(c x/L));
* moments: the cycle index n!/prod_m k_m! (2m)^{k_m};
* series: a_n = (1/2n) sum_m b_m a_{n-m}.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import integrate, special

EULER_GAMMA = float(np.euler_gamma)

# Stirling coefficients B_{2k} / (2k (2k-1)) for k = 1..4.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)
# Direct terms summed before a tail formula takes over in phase estimates.
_DIRECT_TERMS = 64
# Exponential-profile sums run to the index where sqrt(c j / L) reaches
# this value; the rest is the closed-form E1 / E3 tail.
_EXP_SUM_EDGE = 12.0
_CHUNK = 1 << 20


class Spec(NamedTuple):
    """A spectrum: explicit head values, then c * j**p from index m on."""

    head: tuple
    c: float
    p: float

    @property
    def m(self) -> int:
        return len(self.head) + 1

    def beta(self, j: int) -> float:
        if j <= len(self.head):
            return self.head[j - 1]
        return self.c * float(j) ** self.p


def spec_from_config(d: dict) -> Spec:
    if d["family"] == "power_law":
        return Spec((), float(d["c"]), float(d["p"]))
    return Spec(tuple(float(v) for v in d["head"]), float(d["tail_c"]), float(d["tail_p"]))


# -- log-Gamma differences without cancellation --------------------------------


def _clog1p(x: complex) -> complex:
    """log(1 + x) for small complex x, accurate to full relative precision."""
    re = 0.5 * math.log1p(2.0 * x.real + x.real * x.real + x.imag * x.imag)
    return complex(re, math.atan2(x.imag, 1.0 + x.real))


def lgamma_shift(z: float, a: complex) -> complex:
    """ln Gamma(z + a) - ln Gamma(z) for real z >= 1 and moderate complex a.

    Large z uses the Stirling difference, which avoids subtracting two
    huge log-Gamma values.
    """
    if z < 40.0:
        return complex(special.loggamma(z + a)) - float(special.gammaln(z))
    za = z + a
    out = (z - 0.5) * _clog1p(a / z) + a * cmath.log(za) - a
    for k, coef in enumerate(_STIRLING, start=1):
        e = 2 * k - 1
        out += coef * (za**-e - z**-e)
    return out


def _unwrap(angle: float, estimate: float) -> float:
    """The representative of angle (mod 2 pi) nearest to estimate."""
    return angle + 2.0 * math.pi * round((estimate - angle) / (2.0 * math.pi))


def _atan_sum(spec: Spec, s: float, lo: int, hi: float) -> float:
    """Rough sum_{lo<=j<=hi} arctan(s/beta_j) for a c*j**2 tail (branch picking only)."""
    top = int(min(hi, lo + _DIRECT_TERMS - 1))
    total = sum(math.atan(s / spec.beta(j)) for j in range(lo, top + 1))
    if hi > top:
        rest = special.zeta(2.0, top + 1) - (special.zeta(2.0, hi + 1) if math.isfinite(hi) else 0.0)
        total += s * rest / spec.c
    return total


# -- product sections -----------------------------------------------------------


def tail_log(spec: Spec, s: float, lo: int, hi: int) -> complex:
    """sum_{j=lo}^{hi} log(1 - i s / (c j**p)) over the tail, principal logs."""
    if hi < lo or s == 0.0:
        return 0j
    if spec.p == 1.0:
        w = 1j * s / spec.c
        return lgamma_shift(hi + 1.0, -w) - lgamma_shift(float(lo), -w)
    if spec.p == 2.0:
        w = cmath.sqrt(1j * s / spec.c)
        val = (
            lgamma_shift(hi + 1.0, -w)
            + lgamma_shift(hi + 1.0, w)
            - lgamma_shift(float(lo), -w)
            - lgamma_shift(float(lo), w)
        )
        return complex(val.real, _unwrap(val.imag, -_atan_sum(spec, s, lo, hi)))
    raise ValueError("closed forms exist for tail exponents 1 and 2 only")


def _head_log(values, s: float) -> complex:
    return complex(sum(cmath.log(1.0 - 1j * s / h) for h in values))


def log_finite(spec: Spec, s: float, n: int) -> complex:
    """log of prod_{j<=n} (1 - i s/beta_j)**(-1/2), the n-factor section."""
    head = spec.head[: min(n, len(spec.head))]
    return -0.5 * (_head_log(head, s) + tail_log(spec, s, spec.m, n))


def _tail_log_regularized(spec: Spec, s: float) -> complex:
    """sum_{j>=m} [log(1 - i s/beta_j) + i s/beta_j] over the whole tail."""
    if s == 0.0:
        return 0j
    m = spec.m
    if spec.p == 1.0:
        w = 1j * s / spec.c
        full = EULER_GAMMA * w - complex(special.loggamma(1.0 - w))
        return full - sum(cmath.log(1.0 - w / j) + w / j for j in range(1, m))
    if spec.p == 2.0:
        w2 = 1j * s / spec.c
        w = cmath.sqrt(w2)
        full = cmath.log(cmath.sin(math.pi * w) / (math.pi * w)) + w2 * math.pi**2 / 6.0
        val = full - sum(cmath.log(1.0 - w2 / j**2) + w2 / j**2 for j in range(1, m))
        top = m + _DIRECT_TERMS
        est = sum(s / spec.beta(j) - math.atan(s / spec.beta(j)) for j in range(m, top))
        est += (s / spec.c) ** 3 * special.zeta(6.0, top) / 3.0
        return complex(val.real, _unwrap(val.imag, est))
    raise ValueError("closed forms exist for tail exponents 1 and 2 only")


def log_renormalized(spec: Spec, kappa: float, s: float, theta: float) -> complex:
    """log of the renormalized limit functional at s.

    The limit is prod_j (1 - i s/beta_j)**(-1/2) e^{-i s/(2 beta_j)}
    times e^{i s (kappa - theta)/2}.
    """
    head = sum(cmath.log(1.0 - 1j * s / h) + 1j * s / h for h in spec.head)
    total = head + _tail_log_regularized(spec, s)
    return -0.5 * total + 0.5j * s * (kappa - theta)


# -- cutoffs --------------------------------------------------------------------


def sharp_survivors(spec: Spec, a: float, cutoff: float):
    """Head values and the last tail index kept by the inclusive sharp cutoff."""
    thresh = a**2 * cutoff
    head = tuple(h for h in spec.head if h <= thresh)
    c, p, m = spec.c, spec.p, spec.m
    top = max(int((thresh / c) ** (1.0 / p)), m - 1)
    while c * float(top + 1) ** p <= thresh:
        top += 1
    while top >= m and c * float(top) ** p > thresh:
        top -= 1
    return head, top


def singular(spec: Spec, cutoff: float) -> float:
    """Counterterm of the flow: ln(L)/c for c*j tails, 0 for convergent ones."""
    return math.log(cutoff) / spec.c if spec.p == 1.0 else 0.0


def log_sharp_deformed(spec: Spec, a: float, cutoff: float, s: float) -> complex:
    """log of the product over the factors a sharp cutoff keeps."""
    head, top = sharp_survivors(spec, a, cutoff)
    return -0.5 * (_head_log(head, s) + tail_log(spec, s, spec.m, top))


def log_sharp_flow(spec: Spec, a: float, cutoff: float, s: float, theta: float) -> complex:
    return log_sharp_deformed(spec, a, cutoff, s) - 0.5j * s * (singular(spec, cutoff) + theta)


def exp_tail_integrals(c: float, cutoff: float, x: float) -> tuple[float, float]:
    """Exact int_x^inf r(t)^k dt for k = 1, 2 with r(t) = e^{-sqrt(c t/L)}/(c t)."""
    u = math.sqrt(c * x / cutoff)
    t1 = 2.0 / c * float(special.exp1(u))
    t2 = 2.0 / (c * cutoff) * float(special.expn(3, 2.0 * u)) / (u * u)
    return t1, t2


def _exp_terms(c: float, cutoff: float) -> int:
    return int(math.ceil(_EXP_SUM_EDGE**2 * cutoff / c))


@functools.lru_cache(maxsize=8)
def _exp_recips(c: float, cutoff: float) -> np.ndarray:
    j = np.arange(1, _exp_terms(c, cutoff) + 1, dtype=float)
    b = c * j
    return np.exp(-np.sqrt(b / cutoff)) / b


def _exp_log_from(recips_blocks, s_values, c, cutoff, count):
    acc = np.zeros(len(s_values), dtype=complex)
    for r in recips_blocks:
        for i, s in enumerate(s_values):
            x = s * r
            acc[i] += complex(0.5 * np.sum(np.log1p(x * x)), -np.sum(np.arctan(x)))
    t1, t2 = exp_tail_integrals(c, cutoff, count + 0.5)
    return [complex(v) - 1j * s * t1 + 0.5 * s * s * t2 for v, s in zip(acc, s_values)]


def exp_log_deformed(c: float, cutoff: float, s_values) -> list[complex]:
    """log prod_j (1 - i s/beta_j(L)) for beta_j = c j under the exponential
    profile, for each s: a direct sum in blocks plus the exact tail."""
    count = _exp_terms(c, cutoff)

    def blocks():
        for lo in range(1, count + 1, _CHUNK):
            j = np.arange(lo, min(count, lo + _CHUNK - 1) + 1, dtype=float)
            b = c * j
            yield np.exp(-np.sqrt(b / cutoff)) / b

    return _exp_log_from(blocks(), list(s_values), c, cutoff, count)


def _exp_log_one(c: float, cutoff: float, s: float) -> complex:
    return _exp_log_from([_exp_recips(c, cutoff)], [s], c, cutoff, _exp_terms(c, cutoff))[0]


# -- constant parts and sums -------------------------------------------------------


def kappa(spec: Spec, regulator: dict) -> float:
    """Constant part of the deformed reciprocal sum as the cutoff is removed."""
    head = sum(1.0 / h for h in spec.head)
    if spec.p > 1.0:
        return head + float(special.zeta(spec.p, spec.m)) / spec.c
    if spec.p != 1.0:
        raise ValueError("closed-form constant parts need tail exponent >= 1")
    harmonic = sum(1.0 / j for j in range(1, spec.m))
    if regulator["kind"] == "sharp_cutoff":
        width = 2.0 * math.log(float(regulator.get("a", 1.0)))
        return head + (EULER_GAMMA - math.log(spec.c) + width - harmonic) / spec.c
    if spec.head:
        raise ValueError("exponential-profile reference has no head correction")
    return (-EULER_GAMMA - math.log(spec.c)) / spec.c


def inverse_power_sum(spec: Spec, k: int) -> float:
    """sum_j beta_j**-k (convergent orders only)."""
    head = sum(h ** (-k) for h in spec.head)
    return head + float(special.zeta(k * spec.p, spec.m)) / spec.c**k


def partial_reciprocal_sum(spec: Spec, n: int) -> float:
    """sum_{j<=n} 1/beta_j."""
    head = sum(1.0 / h for h in spec.head[: min(n, len(spec.head))])
    m = spec.m
    if n < m:
        return head
    if spec.p == 1.0:
        return head + float(special.digamma(n + 1.0) - special.digamma(m)) / spec.c
    return head + float(special.zeta(spec.p, m) - special.zeta(spec.p, n + 1.0)) / spec.c


def min_value(spec: Spec) -> float:
    return min((*spec.head, spec.c * float(spec.m) ** spec.p))


def finite_bound(spec: Spec, lam: float, n: int) -> float:
    """The integration-by-parts decay certificate from closed-form sums."""
    c_n = partial_reciprocal_sum(spec, n)
    b2 = inverse_power_sum(spec, 2)
    mu = min_value(spec)
    e_abs = 2.0 * math.sqrt(lam / math.pi)
    return (2.0 / c_n) * (e_abs / (2.0 * lam) + e_abs * b2 / 2.0 + 2.0 * lam * b2 / (2.0 * mu))


# -- kernel transforms ------------------------------------------------------------


def kernel_transform(log_phi, lam: float) -> float:
    """(4 pi lam)**(-1/2) int e^{-s^2/(4 lam)} phi(s) ds for phi(-s) = conj(phi(s)).

    Integrates 2 Re(phi) over [0, 12 sqrt(2 lam)], beyond which the
    kernel mass is below e^{-72}.
    """
    width = 12.0 * math.sqrt(2.0 * lam)
    norm = 2.0 / math.sqrt(4.0 * math.pi * lam)

    def integrand(s: float) -> float:
        return norm * math.exp(-s * s / (4.0 * lam)) * cmath.exp(log_phi(s)).real

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(integrand, 0.0, width, epsabs=1e-13, epsrel=1e-12, limit=4000)
    return val


@functools.lru_cache(maxsize=None)
def z_finite(spec: Spec, lam: float, n: int) -> float:
    return kernel_transform(lambda s: log_finite(spec, s, n), lam)


@functools.lru_cache(maxsize=None)
def z_renormalized(spec: Spec, kap: float, lam: float, theta: float) -> float:
    return kernel_transform(lambda s: log_renormalized(spec, kap, s, theta), lam)


def _log_flow_fn(spec: Spec, regulator: tuple, cutoff: float, theta: float, counterterm: bool):
    kind, a = regulator
    shift = singular(spec, cutoff) + theta if counterterm else 0.0
    if kind == "sharp_cutoff":
        return lambda s: log_sharp_deformed(spec, a, cutoff, s) - 0.5j * s * shift
    if spec.head or spec.p != 1.0:
        raise ValueError("exponential-profile reference needs a pure c*j spectrum")
    return lambda s: -0.5 * _exp_log_one(spec.c, cutoff, s) - 0.5j * s * shift


@functools.lru_cache(maxsize=None)
def z_flow(spec: Spec, regulator: tuple, cutoff: float, lam: float, theta: float) -> float:
    """Transform of the flow; regulator is ("sharp_cutoff", a) or ("exponential", None)."""
    return kernel_transform(_log_flow_fn(spec, regulator, cutoff, theta, True), lam)


@functools.lru_cache(maxsize=None)
def z_regularized(spec: Spec, regulator: tuple, cutoff: float, lam: float) -> float:
    return kernel_transform(_log_flow_fn(spec, regulator, cutoff, 0.0, False), lam)


# -- exact track -------------------------------------------------------------------


def _partitions(n: int, largest: int | None = None):
    """Multiplicity vectors {part: count} of the integer partitions of n."""
    largest = n if largest is None else largest
    if n == 0:
        yield {}
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            out = dict(rest)
            out[part] = out.get(part, 0) + 1
            yield out


def moment(n: int) -> dict[tuple, Fraction]:
    """Moment of the n-th power of the source by the cycle index:
    the coefficient of prod b_m^{k_m} is n! / prod_m k_m! (2m)^{k_m}."""
    out = {}
    for mult in _partitions(n):
        coef = Fraction(math.factorial(n))
        for part, count in mult.items():
            coef /= math.factorial(count) * (2 * part) ** count
        exps = tuple(mult.get(part, 0) for part in range(1, max(mult, default=0) + 1))
        out[exps] = coef
    return out


def _series_a(loops, order: int) -> list[Fraction]:
    """a_0 = 1, a_n = (1/2n) sum_{m<=n} b_m a_{n-m}: coefficients of
    exp(sum_m b_m t^m / (2m)), i.e. moment(n)/n!."""
    a = [Fraction(1)]
    for n in range(1, order + 1):
        a.append(sum(loops[m - 1] * a[n - m] for m in range(1, n + 1)) / (2 * n))
    return a


def series(kind: str, order: int, loops, shift: Fraction) -> list[Fraction] | None:
    """Series coefficients 0..order as exact rationals.

    ``loops[m-1]`` is b_m (a Fraction, or None for a divergent b1).  The
    "_renorm" kinds set b1 to 0 and multiply by exp(shift t).  Returns
    None for a plain kind whose b1 diverges.
    """
    stride = 2 if kind.startswith("z") else 1
    top = stride * order
    renorm = kind.endswith("_renorm")
    b = list(loops[:top])
    if renorm:
        b[0] = Fraction(0)
    elif top >= 1 and b[0] is None:
        return None
    a = _series_a(b, top)
    if renorm:
        ex = [Fraction(1)]
        for k in range(1, top + 1):
            ex.append(ex[-1] * shift / k)
        a = [sum(a[i] * ex[n - i] for i in range(n + 1)) for n in range(top + 1)]
    return [a[stride * j] * Fraction(math.factorial(stride * j), math.factorial(j)) for j in range(order + 1)]
