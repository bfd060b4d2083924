"""Finite product sections, the renormalized limit, and the flow."""

import cmath
import hashlib
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import atan, euler, exp, inf, log, loggamma, mp, mpc, mpf, nsum, pi, quad, sinh, sqrt

import renorm as rn
from renorm import characteristic as ch
from renorm import partition as pt
from renorm import spectrum

mp.dps = 40

GAMMA = 0.5772156649015328606
HARMONIC = rn.PowerLaw(1.0, 1.0)
SQUARES = rn.PowerLaw(1.0, 2.0)
SHARP = rn.SharpCutoff(1.0)

# frozen golden values, cross-checked below against independent
# high-precision routes
F_LIMIT_HARMONIC_S1 = 0.72219391223198485  # (sinh(pi)/pi)^(-1/4)
PHASE_HARMONIC_S1 = -0.30164032046753320  # -gamma + sum (1/j - atan(1/j))


def test_single_factor_closed_form():
    for s in (0.3, -1.7, 4.0):
        got = cmath.exp(ch.finite_log(rn.PowerLaw(1.0, 1.0), s, 1))
        ref = cmath.exp(-0.5 * cmath.log(1.0 - 1j * s))
        assert abs(got - ref) < 1e-14


def test_value_at_zero_is_one():
    assert ch.finite_log(HARMONIC, 0.0, 17) == 0.0
    assert ch.renormalized_log(HARMONIC, GAMMA, 0.0) == 0.0


def test_two_factor_polar_values():
    log_phi = ch.finite_log(HARMONIC, 1.0, 2)
    assert np.exp(log_phi.real) == pytest.approx((2.0 * 1.25) ** -0.25, abs=1e-15)
    assert log_phi.imag == pytest.approx((math.atan(1.0) + math.atan(0.5)) / 2.0, abs=1e-15)


def test_sections_monotone_decreasing_random():
    rng = np.random.default_rng(101)
    for _ in range(10):
        spec = rn.PowerLaw(rng.uniform(0.5, 3.0), rng.uniform(0.6, 2.0))
        s = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        mods = [np.exp(ch.finite_log(spec, s, n).real) for n in range(1, 30)]
        assert all(b < a for a, b in zip(mods, mods[1:]))
        assert all(m < 1.0 for m in mods)


def test_modulus_lower_bound():
    b2 = float(HARMONIC.inverse_power_sum(2, 1e-12))
    for s in (0.25, 1.0, 4.0):
        f = np.exp(ch.renormalized_log(HARMONIC, 0.0, s).real)
        assert math.exp(-s * s * b2 / 4.0) <= f < 1.0


def test_modulus_limit_golden_and_closed_form():
    got = np.exp(ch.renormalized_log(HARMONIC, 0.0, 1.0).real)
    assert abs(got - F_LIMIT_HARMONIC_S1) <= 1e-10
    # independent route: product over (1 + s^2/j^2) telescopes to sinh
    ref = float((sinh(pi) / pi) ** mpf("-0.25"))
    assert abs(got - ref) <= 1e-10
    got4 = np.exp(ch.renormalized_log(HARMONIC, 0.0, 4.0).real)
    ref4 = float((sinh(4 * pi) / (4 * pi)) ** mpf("-0.25"))
    assert abs(got4 - ref4) <= 1e-11


def test_modulus_limit_with_head_matches_brute_force():
    spec = rn.ExplicitWithTail([0.3, 9.0], 2.0, 1.5)
    s = 2.4
    got = np.exp(ch.renormalized_log(spec, 0.0, s).real)
    vals = spec.values(400_000)
    ref = math.exp(-0.25 * float(np.sum(np.log1p((s / vals) ** 2))))
    # the brute-force product still misses its own tail, of size
    # ~ s^2/4 * sum_{j>N} beta_j^-2
    assert abs(got - ref) < 1e-7
    assert got < ref  # truncation of a decreasing product overshoots


def test_modulus_limit_even():
    for s in (0.7, 2.3):
        up = ch.renormalized_log(HARMONIC, 0.0, s).real
        dn = ch.renormalized_log(HARMONIC, 0.0, -s).real
        assert up == dn


def test_rapid_decay_with_many_factors():
    # with n factors the section falls off like |s|^(-n/2), so adding
    # factors beats any fixed power of s
    s = 1e3
    m = 3
    vals = [np.exp(ch.finite_log(HARMONIC, s, n).real) * s**m for n in (8, 12, 16, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_phase_divergence_without_summable_reciprocals():
    # the raw phase grows like the partial reciprocal sum
    g_small = ch.finite_log(HARMONIC, 1.0, 10**2).imag
    g_large = ch.finite_log(HARMONIC, 1.0, 10**4).imag
    assert g_large - g_small > 1.0
    # with summable reciprocals the phase settles
    h_small = ch.finite_log(SQUARES, 1.0, 10**2).imag
    h_large = ch.finite_log(SQUARES, 1.0, 10**4).imag
    assert abs(h_large - h_small) < 1e-2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.floats(0.6, 2.5),
    c=st.floats(0.5, 4.0),
    head=st.lists(st.floats(0.1, 50.0), max_size=3),
    s=st.floats(-14.0, 14.0),
    top=st.integers(1, 200_000),
)
def test_closed_form_sums_match_direct_sums(p, c, head, s, top):
    # the direct survivor sums stay here as the oracle of the summation
    # engine: finite sections up to n = top, and the sharp cutoff whose
    # threshold is the top-th tail value
    spec = rn.ExplicitWithTail(head, c, p)
    r = s / spec.values(top)
    log_phi = ch.finite_log(spec, s, top)
    assert abs(log_phi.real + 0.25 * math.fsum(np.log1p(r * r))) <= 1e-12
    assert abs(log_phi.imag - 0.5 * math.fsum(np.arctan(r))) <= 1e-12
    assert ch.finite_log(spec, -s, top) == log_phi.conjugate()

    d = rn.DeformedSpectrum(spec, SHARP, c * float(top) ** p)
    vals = spec.values(len(head) + top + 1)
    kept = vals[vals <= d.cutoff]
    assert abs(d.inverse_sum() - math.fsum(1.0 / kept)) <= 1e-12
    r = s / kept
    log_phi = ch.deformed_log(d, s)
    assert abs(log_phi.real + 0.25 * math.fsum(np.log1p(r * r))) <= 1e-12
    assert abs(log_phi.imag - 0.5 * math.fsum(np.arctan(r))) <= 1e-12
    assert ch.deformed_log(d, -s) == log_phi.conjugate()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.1, 1.9)),
    c=st.floats(0.5, 4.0),
    head=st.lists(st.floats(0.1, 50.0), max_size=3),
    lam_cut=st.floats(1.0, 1e3),
    s=st.floats(-14.0, 14.0),
)
def test_exponential_sums_match_direct_sums(p, c, head, lam_cut, s):
    # the direct sums over the exponentially deformed elements stay here
    # as the oracle of the Mellin tail; they stop at x_j = 40, past
    # which e**-x_j is below rounding
    spec = rn.ExplicitWithTail(head, c, p)
    d = rn.DeformedSpectrum(spec, rn.Exponential(), lam_cut)
    vals = spec.values(len(head) + math.ceil((1600.0 * lam_cut / c) ** (1.0 / p)))
    beta = vals * np.exp(np.sqrt(vals / lam_cut))
    assert abs(d.inverse_sum() - math.fsum(1.0 / beta)) <= 1e-12
    r = s / beta
    log_phi = ch.deformed_log(d, s)
    assert abs(np.exp(log_phi.real) - math.exp(-0.25 * math.fsum(np.log1p(r * r)))) <= 1e-12
    assert abs(log_phi.imag - 0.5 * math.fsum(np.arctan(r))) <= 1e-12
    assert ch.deformed_log(d, -s) == log_phi.conjugate()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1.0, 2.0]),
    c=st.floats(0.5, 4.0),
    head=st.lists(st.floats(0.1, 50.0), max_size=3),
    s=st.floats(-14.0, 14.0),
)
def test_renormalized_pair_matches_gamma_closed_forms(p, c, head, s):
    # sum_j [log(1 - i r_j) + i r_j], r_j = s/beta_j, is half the log1p
    # sum plus i times the r - arctan r sum.  Over the whole tail c j**p
    # it is log(e**(gamma z) / Gamma(1 - z)) with z = i s/c for p = 1,
    # and log(sin(pi w) / (pi w)) + i zeta(2) s/c with w**2 = i s/c for
    # p = 2; the tail's first len(head) factors are divided out and the
    # explicit head's factors multiplied in
    spec = rn.ExplicitWithTail(head, c, p)
    y = mpf(s) / c
    if p == 1.0:
        z = mpc(0, y)
        total = euler * z - loggamma(1 - z)
    else:
        w = sqrt(mpc(0, y))
        total = -loggamma(1 + w) - loggamma(1 - w) + mpc(0, y) * pi**2 / 6

    def factor(r):
        return log(1 - mpc(0, r)) + mpc(0, r)

    total -= sum(factor(y / mpf(j) ** int(p)) for j in range(1, len(head) + 1))
    total += sum(factor(mpf(s) / h) for h in head)
    log_phi = ch.renormalized_log(spec, 0.0, s)
    assert abs(np.exp(log_phi.real) - float(exp(-total.real / 2))) <= 1e-12
    assert abs(-2.0 * log_phi.imag - float(total.imag)) <= 1e-12


def _spectrum_with_head(p, c, head):
    return rn.ExplicitWithTail(head, c, p) if head else rn.PowerLaw(c, p)


def _batch_nodes(xs):
    # mixed signs, s = 0 and repeated nodes in one batch
    return np.array(xs + [0.0] + xs[:2] + [-x for x in xs] + [0.0])


def _batch_values(spec, s):
    """Every batched characteristic log of the spectrum at the nodes s:
    finite sections, both deformations and the renormalized limit."""
    sharp = rn.DeformedSpectrum(spec, rn.SharpCutoff(1.5), 4e3)
    expo = rn.DeformedSpectrum(spec, rn.Exponential(), 70.0)
    return {
        "finite": ch.finite_log(spec, s, 1000),
        "sharp": ch.deformed_log(sharp, s),
        "exponential": ch.deformed_log(expo, s),
        "renormalized": ch.renormalized_log(spec, 0.3, s),
    }


BATCH_SPECTRA = dict(
    p=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.6, 2.5)),
    c=st.floats(0.5, 4.0),
    head=st.lists(st.floats(0.1, 50.0), max_size=3),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(-14.0, 14.0), min_size=1, max_size=12), **BATCH_SPECTRA)
def test_batch_matches_scalar_evaluation(xs, p, c, head):
    # a batch node sums its head up to the index set by the largest |s|
    # of its run, a lone node up to its own, so the two agree to
    # rounding (the exponential Mellin tail to about 1e-14), not to the bit
    spec = _spectrum_with_head(p, c, head)
    s = _batch_nodes(xs)
    batch = _batch_values(spec, s)
    for i, x in enumerate(s):
        scalar = _batch_values(spec, float(x))
        for key, log_phi in batch.items():
            want = scalar[key]
            assert isinstance(want, np.complex128)
            assert abs(np.exp(log_phi[i].real) - np.exp(want.real)) <= 3e-14
            assert abs(log_phi[i].imag - want.imag) <= 3e-14 * max(1.0, abs(want.imag))


def test_batch_nodes_pay_for_their_own_head(monkeypatch):
    # at |s| > 2 L / e**2 the exponential profile's series cannot start
    # and the direct head runs to x_j = 40 (64,000 terms at L = 40);
    # the other nodes of the batch keep their own short heads
    expo = rn.DeformedSpectrum(HARMONIC, rn.Exponential(), 40.0)
    s = np.linspace(-11.3, 11.3, 43)
    pairs = []
    by_nodes = spectrum._by_nodes

    def counting(fn, nodes, width):
        pairs.append(len(nodes) * width)
        return by_nodes(fn, nodes, width)

    monkeypatch.setattr(spectrum, "_by_nodes", counting)
    log_phi = ch.deformed_log(expo, s)
    batch = sum(pairs)
    pairs.clear()
    scalar = np.array([ch.deformed_log(expo, float(x)) for x in s])
    assert batch <= 2 * sum(pairs)
    assert np.max(np.abs(np.exp(log_phi.real) - np.exp(scalar.real))) <= 3e-14
    assert np.max(np.abs(log_phi.imag - scalar.imag)) <= 3e-14


def test_small_nodes_sum_only_the_floor_directly():
    # at |s| <= 14 on beta_j = j every node's series may start at index
    # 33, so each node sums only the floor's terms directly; the rows
    # against the Weierstrass product sum_j [log(1 - z/j) + z/j] = gamma
    # z - log Gamma(1 - z), z = i s
    s = np.concatenate((np.linspace(-14.0, 14.0, 29), np.linspace(-7.0, 7.0, 9) + 0.4j))
    rows, series = ch._log_terms(2)
    terms = []

    def counting(nodes, beta):
        terms.append(nodes.size * beta.size)
        return rows(nodes, beta)

    got = HARMONIC._spectral_sum(counting, series, s)
    assert sum(terms) <= len(s) * spectrum._NODE_HEAD
    for x, (twice_re, im) in zip(s, got.T):
        z = 1j * complex(x)
        want = euler * z - loggamma(1 - z)
        assert abs(twice_re - 2 * want.real) <= 1e-15 * max(1.0, abs(2 * want.real))
        assert abs(im - want.imag) <= 1e-15 * max(1.0, abs(want.imag))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(-14.0, 14.0), min_size=1, max_size=12), **BATCH_SPECTRA)
def test_batch_modulus_even_and_phase_odd(xs, p, c, head):
    spec = _spectrum_with_head(p, c, head)
    s = np.array(xs)
    values = _batch_values(spec, np.concatenate((s, -s)))
    for key, log_phi in values.items():
        assert np.array_equal(log_phi[: len(s)], log_phi[len(s):].conjugate())
        mod = np.exp(log_phi.real)
        assert np.all((0.0 < mod) & (mod <= 1.0))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    p=st.floats(0.6, 2.5),
    c=st.floats(0.5, 4.0),
    head=st.lists(st.floats(0.3, 50.0), max_size=3),
    lam=st.floats(0.1, 3.0),
    n=st.integers(1, 2000),
)
def test_decay_certificate_bounds_partition_value(p, c, head, lam, n):
    spec = _spectrum_with_head(p, c, head)
    assert pt.finite_bound(spec, lam, n) >= abs(pt.finite(spec, lam, n))


def test_quadrature_oracle_matches():
    q = rn.QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    rng = np.random.default_rng(55)
    for _ in range(10):
        spec = rn.PowerLaw(rng.uniform(0.5, 3.0), rng.uniform(0.6, 2.0))
        s = rng.uniform(-5.0, 5.0)
        n = int(rng.integers(1, 9))
        a = cmath.exp(ch.finite_log(spec, s, n))
        b = ch.finite_by_quadrature(spec, s, n, q)
        assert abs(a - b) <= 1e-8


def test_quadrature_oracle_trivial_cases():
    assert abs(ch.finite_by_quadrature(rn.PowerLaw(1, 1), 0.0, 1) - 1.0) < 1e-12
    ref = cmath.exp(-0.5 * cmath.log(1.0 - 0.5j))
    assert abs(ch.finite_by_quadrature(rn.PowerLaw(1, 1), 0.5, 1) - ref) < 1e-10


def test_quadrature_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        ch.finite_by_quadrature(HARMONIC, 1.0, 13)


def test_renormalized_phase_golden():
    got = -2.0 * ch.renormalized_log(HARMONIC, GAMMA, 1.0).imag
    assert abs(got - PHASE_HARMONIC_S1) <= 1e-10
    # independent route via a high-precision term sum
    ref = float(-mpf(GAMMA) + nsum(lambda j: 1 / j - atan(1 / j), [1, inf]))
    assert abs(got - ref) <= 1e-10


def test_renormalized_phase_odd():
    for s in (0.4, 1.0, 3.3):
        a = -2.0 * ch.renormalized_log(HARMONIC, GAMMA, s).imag
        b = -2.0 * ch.renormalized_log(HARMONIC, GAMMA, -s).imag
        assert abs(a + b) < 1e-12


def test_renormalized_at_zero_and_conjugation():
    for theta in (0.0, 2.0):
        assert cmath.exp(ch.renormalized_log(HARMONIC, GAMMA, 0.0, theta)) == 1.0 + 0.0j
    for s in (0.5, 1.9):
        up = cmath.exp(ch.renormalized_log(HARMONIC, GAMMA, s, 0.7))
        dn = cmath.exp(ch.renormalized_log(HARMONIC, GAMMA, -s, 0.7))
        assert abs(up - dn.conjugate()) < 1e-12


def test_renormalization_preserves_existing_limit():
    # when the plain limit exists, renormalizing with the full
    # reciprocal sum as constant part and no extra phase returns it
    b1 = SQUARES.inverse_power_sum(1, 1e-13)
    for s in (1.0, -2.2):
        lim = cmath.exp(ch.finite_log(SQUARES, s, 10**6))
        got = cmath.exp(ch.renormalized_log(SQUARES, b1, s))
        assert abs(got - lim) < 1e-6


def test_finite_rejects_bad_n():
    with pytest.raises(ValueError):
        ch.finite_log(HARMONIC, 1.0, 0)


def test_sharp_flow_is_rephased_section():
    # a sharp cutoff keeps exactly the first M factors of a head-free
    # spectrum, so the flow equals the M-factor section times the
    # counterterm phase
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 777.0)
    m = d.sharp_tail_max_index()
    assert m == 777
    r = rn.singular_part(d)
    for s, theta in ((0.8, 0.0), (-2.1, 1.4)):
        section = cmath.exp(ch.finite_log(HARMONIC, s, m))
        expect = section * cmath.exp(-0.5j * s * (r + theta))
        assert abs(cmath.exp(ch.flow_log(d, s, theta)) - expect) < 1e-14


def test_sharp_flow_with_masked_head():
    # an oversized head element is cut away while later tail elements
    # survive; the flow must match the manual product over survivors
    spec = rn.ExplicitWithTail([500.0, 2.0], 1.0, 1.0)
    d = rn.DeformedSpectrum(spec, SHARP, 100.0)
    s, theta = 1.3, 0.7
    survivors = [2.0] + [float(j) for j in range(3, 101)]
    log_mod = sum(math.log1p((s / b) ** 2) for b in survivors)
    phase = sum(math.atan(s / b) for b in survivors)
    r = rn.singular_part(d)
    manual = math.exp(-0.25 * log_mod) * cmath.exp(0.5j * (phase - s * (r + theta)))
    assert abs(cmath.exp(ch.flow_log(d, s, theta)) - manual) < 1e-13
    # a cutoff below every element masks whole blocks: an empty product,
    # at real and complex s alike
    d = rn.DeformedSpectrum(spec, SHARP, 1.5)
    r = rn.singular_part(d)
    for x in (s, 0.4 - 0.9j, np.array([s, 2.0 + 3.0j])):
        assert np.all(ch.deformed_log(d, x) == 0.0)
        assert np.array_equal(ch.flow_log(d, x, theta), -0.5j * x * (r + theta))


def test_renormalized_limit_term_budget():
    # s = 1e9 needs about 2e9 harmonic terms before the tail expansion
    # applies; the shared budget refuses before summing any of them
    t0 = time.perf_counter()
    with pytest.raises(rn.NoConvergence):
        ch.renormalized_log(HARMONIC, 0.0, 1e9)
    with pytest.raises(rn.NoConvergence):
        ch.renormalized_log(HARMONIC, 0.0, np.array([0.5, 1e9]))
    assert time.perf_counter() - t0 < 1.0


def test_renormalized_limit_rejects_nonfinite_argument():
    # every characteristic quantity, at a lone node and at one bad node
    # of an array: a non-finite s, and a complex s on or below the
    # branch points at Im s = -mu = -1, where the principal logs would
    # silently take the wrong branch
    sharp = rn.DeformedSpectrum(HARMONIC, SHARP, 1e3)
    expo = rn.DeformedSpectrum(HARMONIC, rn.Exponential(), 1e3)
    quantities = [
        lambda s: ch.finite_log(HARMONIC, s, 10),
        lambda s: ch.renormalized_log(HARMONIC, GAMMA, s, 0.3),
        lambda s: ch.deformed_log(sharp, s),
        lambda s: ch.deformed_log(expo, s),
        lambda s: ch.flow_log(sharp, s, 0.3),
        lambda s: ch.flow_log(expo, s, 0.3),
    ]
    cases = [(bad, "must be finite") for bad in (math.nan, math.inf, -math.inf)]
    cases += [(bad, r"branch points.*-mu = -1") for bad in (1.0 - 1.0j, 2.0 - 1.5j, -3j)]
    for quantity in quantities:
        for bad, message in cases:
            for s in (bad, np.array([0.0, 1.5, bad, -2.0])):
                with pytest.raises(ValueError, match=message):
                    quantity(s)


def _mp_log_sum(s, betas, renormalized=False):
    """sum_j log(1 + w_j), less the w_j for the renormalized limit,
    w_j = -i s / beta_j, in the working precision."""
    minus_is = -1j * mpc(s)
    if renormalized:
        return mp.fsum(log(1 + minus_is / b) - minus_is / b for b in betas)
    return mp.fsum(log(1 + minus_is / b) for b in betas)


def test_no_warning_at_the_branch_points():
    # |1 + w|**2 - 1 rounds to -1 at s = -i mu (1 - 1e-9), where log1p
    # would divide by zero: those entries take log |1 + w|**2 alone, and
    # every value keeps its bits (the float.hex() of the first, and the
    # sha256 of all of them, batched and one node at a time)
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (HARMONIC, rn.ExplicitWithTail([0.7, 2.5], 1.0, 1.0)):
            mu = spec.min_value()
            s = np.array([-1j * mu * (1 - 1e-9), -0.99j * mu, 0.02 - 0.999j * mu, -3.0 - 0.9j * mu])
            sharp = rn.DeformedSpectrum(spec, SHARP, 1e3)
            expo = rn.DeformedSpectrum(spec, rn.Exponential(), 5.0)
            for quantity in (
                lambda x: ch.finite_log(spec, x, 1000),
                lambda x: ch.renormalized_log(spec, GAMMA, x, 0.3),
                lambda x: ch.flow_log(sharp, x, 0.3),
                lambda x: ch.flow_log(expo, x, 0.3),
            ):
                values += [f"{float(z.real).hex()} {float(z.imag).hex()}" for z in quantity(s)]
                values += [float(quantity(complex(u)).real).hex() for u in s]
    assert values[0] == "0x1.ba18a99e952acp+3 0x0.0p+0"
    assert hashlib.sha256(" ".join(values).encode()).hexdigest()[:32] == (
        "1accff4b9bb5799d179012422bee37ca"
    )


def test_complex_arguments_match_mpmath_sums():
    # all four logs on the strip Im s > -mu, against 30-digit sums: the
    # direct products, and for the renormalized limit of a c j tail the
    # closed form sum_j [log(1 - i s/j) + i s/j] = i gamma s -
    # log Gamma(1 - i s), with the explicit head's factors swapped in
    theta, kap = 0.3, GAMMA
    for spec in (HARMONIC, rn.ExplicitWithTail([0.7, 2.5], 1.0, 1.0)):
        mu = spec.min_value()
        s = np.array([0.05 + 0.03j, 0.7 - 0.5j * mu, -2.5 + 0.3j, 12.0 - 0.4j * mu,
                      -40.0 + 50.0j, 150.0 + 7.0j, 299.0 - 0.5j * mu,
                      -0.99j * mu, 0.02 - 0.999j * mu, -3.0 - 0.9j * mu])
        sharp = rn.DeformedSpectrum(spec, SHARP, 1e3)
        expo = rn.DeformedSpectrum(spec, rn.Exponential(), 5.0)
        quantities = {
            "finite": lambda x: ch.finite_log(spec, x, 1000),
            "renormalized": lambda x: ch.renormalized_log(spec, kap, x, theta),
            "sharp": lambda x: ch.deformed_log(sharp, x),
            "sharp flow": lambda x: ch.flow_log(sharp, x, theta),
            "exponential": lambda x: ch.deformed_log(expo, x),
            "exponential flow": lambda x: ch.flow_log(expo, x, theta),
        }
        batch = {key: quantity(s) for key, quantity in quantities.items()}
        with mp.workdps(30):
            # 1000 sections, all of them below the sharp cutoff; the
            # exponentially deformed elements out to x_j = 40
            sections = [mpf(v) for v in spec.values(1000)]
            deformed = [b * exp(sqrt(b / 5)) for b in (mpf(v) for v in spec.values(8000))]
            head = [mpf(v) for v in spec.head_values]
            swapped = [mpf(j) for j in range(1, len(head) + 1)]
            for i, u in enumerate(s):
                z = mpc(u)
                product = -_mp_log_sum(z, sections) / 2
                profile = -_mp_log_sum(z, deformed) / 2
                limit = 1j * euler * z - loggamma(1 - 1j * z)
                limit += _mp_log_sum(z, head, True) - _mp_log_sum(z, swapped, True)
                want = {
                    "finite": product,
                    "renormalized": -(limit + 1j * z * (theta - mpf(kap))) / 2,
                    "sharp": product,
                    "sharp flow": product - 0.5j * z * (mpf(rn.singular_part(sharp)) + theta),
                    "exponential": profile,
                    "exponential flow": profile - 0.5j * z * (mpf(rn.singular_part(expo)) + theta),
                }
                for key, quantity in quantities.items():
                    ref = complex(want[key])
                    bound = 1e-15 * max(1.0, abs(ref))
                    assert abs(batch[key][i] - ref) <= bound, (key, u)
                    assert abs(quantity(u) - ref) <= bound, (key, u)
        # a complex s on the real axis is summed as its real part
        for quantity in quantities.values():
            x = s.real
            assert np.array_equal(quantity(x.astype(complex)), quantity(x))
            assert quantity(complex(x[3])) == quantity(x[3])


def test_flow_at_zero_argument():
    for lam_cut in (10.0, 1e4):
        d = rn.DeformedSpectrum(HARMONIC, SHARP, lam_cut)
        assert cmath.exp(ch.flow_log(d, 0.0, 0.9)) == 1.0 + 0.0j


def test_flow_modulus_ignores_counterterm():
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 500.0)
    for s in (0.5, 2.0):
        mod_flow = np.exp(ch.flow_log(d, s, 1.3).real)
        mod_raw = np.exp(ch.deformed_log(d, s).real)
        assert mod_flow == mod_raw
        assert abs(abs(cmath.exp(ch.flow_log(d, s, 1.3))) - mod_raw) < 1e-14


def test_flow_converges_to_renormalized_limit():
    kap = rn.constant_part(HARMONIC, SHARP, tol=1e-9)
    for s in (0.5, 1.0, 2.0):
        ref = cmath.exp(ch.renormalized_log(HARMONIC, kap, s))
        dists = []
        for lam_cut in (1e3, 1e4, 1e5):
            d = rn.DeformedSpectrum(HARMONIC, SHARP, lam_cut)
            dists.append(abs(cmath.exp(ch.flow_log(d, s)) - ref))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4


def test_flow_distances_match_gamma_closed_forms():
    # acceptance criterion 9's setting (harmonic spectrum, sharp cutoff
    # a = 1, s = lam = 1, theta = 0) with the exact constant part gamma.
    # There the flow and the limit are Gamma ratios:
    #   phi_flow = [G(L+1) G(1-is) / G(L+1-is)]^(1/2) * L^(-is/2)
    #   phi_ref  = G(1-is)^(1/2)
    # and z is their kernel transform at lam = 1.  The 30-digit
    # distances must match the program's, and their two-decade ratios
    # sit just above 1e-2, so a strict "100x over two decades" cannot
    # hold at these cutoffs.
    s = 1.0
    cutoffs = (10**3, 10**4, 10**5)
    q = rn.QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11, max_nodes=1 << 17)
    phi_ref = cmath.exp(ch.renormalized_log(HARMONIC, GAMMA, s))
    z_ref = pt.renormalized(HARMONIC, GAMMA, 1.0, 0.0, q)
    with mp.workdps(30):

        def exact_ref(u):
            return exp(loggamma(1 - 1j * u) / 2)

        def exact_flow(u, lam_cut):
            lam_cut = mpf(lam_cut)
            log_ratio = (
                loggamma(lam_cut + 1) + loggamma(1 - 1j * u) - loggamma(lam_cut + 1 - 1j * u)
            )
            return exp(log_ratio / 2 - 0.5j * u * log(lam_cut))

        def exact_z_dist(lam_cut):
            # the difference is Hermitian in u, so its transform is real
            def f(u):
                return exp(-u * u / 4) * (exact_flow(u, lam_cut) - exact_ref(u)).real

            return abs(2 * quad(f, [0, 4, 8, 16, inf]) / sqrt(4 * pi))

        exact_phi = [abs(exact_flow(s, c) - exact_ref(s)) for c in cutoffs]
        exact_z = [exact_z_dist(c) for c in cutoffs]
        phi_ratio = exact_phi[2] / exact_phi[0]
        z_ratio = exact_z[2] / exact_z[0]
    for lam_cut, e_phi, e_z in zip(cutoffs, exact_phi, exact_z):
        d = rn.DeformedSpectrum(HARMONIC, SHARP, float(lam_cut))
        got_phi = abs(cmath.exp(ch.flow_log(d, s)) - phi_ref)
        got_z = abs(pt.flow(d, 1.0, 0.0, q) - z_ref)
        assert abs(got_phi / float(e_phi) - 1.0) <= 1e-6
        assert abs(got_z / float(e_z) - 1.0) <= 1e-6
    assert phi_ratio > 1e-2 and z_ratio > 1e-2
    assert abs(float(phi_ratio) - 1.00004144e-2) <= 1e-10
    assert abs(float(z_ratio) - 1.00002003e-2) <= 1e-10


def test_flow_converges_with_exponential_profile():
    kap = rn.constant_part(HARMONIC, rn.Exponential(), tol=1e-5)
    ref = cmath.exp(ch.renormalized_log(HARMONIC, kap, 1.0))
    dists = []
    for lam_cut in (1e2, 1e3, 1e4):
        d = rn.DeformedSpectrum(HARMONIC, rn.Exponential(), lam_cut)
        dists.append(abs(cmath.exp(ch.flow_log(d, 1.0)) - ref))
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_exponential_deformed_value_example():
    d = rn.DeformedSpectrum(HARMONIC, rn.Exponential(), 100.0)
    got = cmath.exp(ch.deformed_log(d, 1.0))
    # brute-force partial product over the deformed elements
    js = np.arange(1, 2_000_001, dtype=float)
    bl = js * np.exp(np.sqrt(js / 100.0))
    ref = math.exp(-0.25 * float(np.sum(np.log1p(1.0 / bl**2)))) * cmath.exp(
        0.5j * float(np.sum(np.arctan(1.0 / bl)))
    )
    assert abs(got - ref) < 1e-9


def test_exponential_extreme_cutoffs_finish():
    # tiny cutoffs end in a short direct head, huge ones in the Mellin
    # tail; neither runs out of terms
    for p in (1.0, 2.0, 3.0):
        for lam_cut in (1e-3, 1.0, 1e8, 1e12):
            d = rn.DeformedSpectrum(rn.PowerLaw(1.0, p), rn.Exponential(), lam_cut)
            assert 0.0 < d.inverse_sum() < math.inf
            for s in (0.3, 4.0, 14.0):
                log_phi = ch.deformed_log(d, s)
                assert 0.0 < np.exp(log_phi.real) <= 1.0 and 0.0 < log_phi.imag < math.inf
