"""The benchmark's reference functions against 30-digit mpmath values."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

import reference as ref

mp.mp.dps = 30


def _mp_log_product(betas, s):
    return mp.fsum(mp.log(1 - 1j * mp.mpf(s) / b) for b in betas)


@pytest.mark.parametrize("z", [5.0, 39.0, 1e3, 1e6])
@pytest.mark.parametrize("a", [0.7j, 1.3 + 1.3j, -2.0 - 2.0j])
def test_lgamma_shift(z, a):
    want = mp.loggamma(mp.mpf(z) + mp.mpc(a)) - mp.loggamma(z)
    got = ref.lgamma_shift(z, a)
    assert abs(got - complex(want)) < 1e-13 * max(1.0, abs(complex(want)))


@pytest.mark.parametrize("spec", [ref.Spec((), 1.0, 1.0), ref.Spec((0.7, 2.3), 4.0, 1.0),
                                  ref.Spec((), 1.0, 2.0), ref.Spec((1.3, 0.4), 0.25, 2.0)])
@pytest.mark.parametrize("s", [0.3, 1.7, 4.0])
def test_log_finite_matches_direct_product(spec, s):
    n = 2000
    want = -0.5 * complex(_mp_log_product([mp.mpf(spec.beta(j)) for j in range(1, n + 1)], s))
    got = ref.log_finite(spec, s, n)
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("s", [0.5, 2.5])
def test_sharp_flow_survivor_count_and_value(s):
    spec, a, cutoff = ref.Spec((0.7,), 4.0, 1.0), 2.0, 1000.0
    head, top = ref.sharp_survivors(spec, a, cutoff)
    assert head == (0.7,) and top == 1000
    betas = [mp.mpf(0.7)] + [4 * mp.mpf(j) for j in range(2, 1001)]
    want = -0.5 * _mp_log_product(betas, s) - 0.5j * s * (mp.log(cutoff) / 4 + 0.3)
    assert abs(ref.log_sharp_flow(spec, a, cutoff, s, 0.3) - complex(want)) < 1e-13


def test_renormalized_harmonic_is_gamma_closed_form():
    # phi_ref = Gamma(1 - i s)^(1/2) for beta_j = j, a = 1, kappa = gamma, theta = 0
    for s in (0.4, 1.0, 3.0):
        want = complex(mp.loggamma(1 - 1j * mp.mpf(s)) / 2)
        got = ref.log_renormalized(ref.Spec((), 1.0, 1.0), ref.EULER_GAMMA, s, 0.0)
        assert abs(got - want) < 1e-14


@pytest.mark.parametrize("s", [0.5, 2.0, 4.0])
def test_renormalized_square_tail_is_sine_closed_form(s):
    # beta_j = 0.25 j^2 with head (1.3,): compare with a 30-digit direct
    # product plus the zeta-function tail of the log series
    spec = ref.Spec((1.3,), 0.25, 2.0)
    kap = ref.kappa(spec, {"kind": "sharp_cutoff", "a": 1.0})
    n = 4000
    betas = [mp.mpf(1.3)] + [mp.mpf(0.25) * j * j for j in range(2, n + 1)]
    x = 1j * mp.mpf(s) / mp.mpf(0.25)
    head = mp.fsum(mp.log(1 - 1j * mp.mpf(s) / b) + 1j * mp.mpf(s) / b for b in betas)
    tail = -x**2 * mp.zeta(4, n + 1) / 2 - x**3 * mp.zeta(6, n + 1) / 3
    want = -0.5 * (head + tail) + 0.5j * mp.mpf(s) * mp.mpf(kap)
    assert abs(ref.log_renormalized(spec, kap, s, 0.0) - complex(want)) < 1e-12


def test_constant_parts():
    c, a = 1.7, 0.8
    want = (mp.euler - mp.log(c) + 2 * mp.log(a)) / c
    cutoff = mp.mpf(10) ** 14  # survivors floor(a^2 L / c); remainder O(1/L)
    direct = mp.harmonic(mp.floor(a * a * cutoff / c)) / c - mp.log(cutoff) / c
    assert abs(ref.kappa(ref.Spec((), c, 1.0), {"kind": "sharp_cutoff", "a": a}) - float(want)) < 1e-15
    assert abs(direct - want) < 1e-12
    assert abs(ref.kappa(ref.Spec((), c, 1.0), {"kind": "exponential"})
               - float((-mp.euler - mp.log(c)) / c)) < 1e-15
    spec = ref.Spec((0.5, 2.0), 3.0, 2.0)
    assert abs(ref.kappa(spec, {"kind": "sharp_cutoff", "a": 1.0})
               - float(2 + 0.5 + mp.zeta(2, 3) / 3)) < 1e-15
    assert abs(ref.inverse_power_sum(spec, 3) - float(8 + 0.125 + mp.zeta(6, 3) / 27)) < 1e-14


@pytest.mark.parametrize("cutoff,x", [(100.0, 2.0**15 + 0.5), (1e5, 2.0**23 + 0.5)])
def test_exponential_tail_integrals(cutoff, x):
    c = 0.9
    r = lambda t: mp.exp(-mp.sqrt(c * t / cutoff)) / (c * t)  # noqa: E731
    t1, t2 = ref.exp_tail_integrals(c, cutoff, x)
    assert abs(t1 - mp.quad(r, [x, 4 * x, 64 * x, mp.inf])) < 1e-14 * abs(t1) + 1e-300
    assert abs(t2 - mp.quad(lambda t: r(t) ** 2, [x, 4 * x, 64 * x, mp.inf])) < 1e-12 * abs(t2)


def test_exponential_deformed_sum():
    # cutoff 30, the smallest the workloads use; the midpoint-rule
    # remainder of the closed-form tail is about f'/24 ~ 1e-13 there
    c, cutoff, s = 1.1, 30.0, 1.5
    rj = lambda j: mp.exp(-mp.sqrt(c * j / cutoff)) / (c * j)  # noqa: E731
    want = mp.fsum(mp.log(1 - 1j * s * rj(j)) for j in range(1, 45000))
    got = ref.exp_log_deformed(c, cutoff, [s])[0]
    assert abs(got - complex(want)) < 1e-12


def test_kernel_transform_of_two_factor_section():
    spec, lam = ref.Spec((0.6,), 1.5, 1.0), 0.7

    def integrand(s):
        phi = 1 / mp.sqrt((1 - 1j * s / mp.mpf(0.6)) * (1 - 1j * s / mp.mpf(3.0)))
        return mp.exp(-s * s / (4 * lam)) * mp.re(phi)

    want = 2 * mp.quad(integrand, [0, 2, 6, mp.inf]) / mp.sqrt(4 * mp.pi * lam)
    assert abs(ref.z_finite(spec, lam, 2) - float(want)) < 1e-12


def test_moments_by_cycle_index():
    assert ref.moment(2) == {(2,): Fraction(1, 4), (0, 1): Fraction(1, 2)}
    assert ref.moment(3) == {(3,): Fraction(1, 8), (1, 1): Fraction(3, 4), (0, 0, 1): Fraction(1)}
    # with every loop value 1 the moment is the (2n-1)!! matchings over 2^n
    for n in range(8):
        assert sum(ref.moment(n).values()) == Fraction(math.prod(range(1, 2 * n, 2)), 2**n)


def test_series_single_mode():
    # every loop value 1: the order-k phi coefficient is (2k)!/(k!^2 4^k)
    coeffs = ref.series("phi", 8, [Fraction(1)] * 8, Fraction(0))
    assert coeffs == [Fraction(math.comb(2 * k, k), 4**k) for k in range(9)]
    # renormalized kind: b1 dropped, exp(shift t) convolved
    loops = [Fraction(3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    got = ref.series("phi_renorm", 2, loops, Fraction(1, 5))
    assert got == [1, Fraction(1, 5), Fraction(1, 50) + Fraction(1, 8)]
    assert ref.series("phi", 2, [None, Fraction(1), Fraction(1)], Fraction(0)) is None
