"""Cutoff deformations and the singular/constant split."""

import json
import math
import time
import warnings

import pytest
import numpy as np
from mpmath import atan, digamma, exp, factorial, gamma, harmonic, im, log, loggamma, mp, mpf, re, sqrt, zeta

import renorm as rn
from renorm import characteristic as ch

mp.dps = 40

GAMMA = 0.5772156649015328606
HARMONIC = rn.PowerLaw(1.0, 1.0)
SQUARES = rn.PowerLaw(1.0, 2.0)
SHARP = rn.SharpCutoff(1.0)


def test_deformed_values_sharp():
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 100.0)
    assert d.value(50) == 50.0
    assert d.value(100) == 100.0  # boundary is included
    assert d.value(200) == math.inf
    assert 1.0 / d.value(200) == 0.0


def test_deformed_values_exponential():
    d = rn.DeformedSpectrum(HARMONIC, rn.Exponential(), 100.0)
    assert abs(d.value(100) - 100.0 * math.e) < 1e-12
    # far beyond overflow the element is reported as infinite
    big = rn.DeformedSpectrum(rn.PowerLaw(1.0, 3.0), rn.Exponential(), 1e-6)
    assert big.value(10**4) == math.inf


def test_inverse_sum_harmonic_partial():
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 1000.0)
    ref = float(harmonic(1000))
    assert abs(d.inverse_sum() - ref) <= 1e-12


def test_inverse_sum_single_survivor():
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 1.0)
    assert d.inverse_sum() == 1.0


def test_inverse_sum_exponential_converges_to_plain_sum():
    # for a summable spectrum the deformation washes out as the cutoff
    # grows, at the slow rate log(cutoff)/sqrt(cutoff)
    ref = float(zeta(2))
    gaps = []
    for lam_cut, tol in ((1e4, 0.08), (1e6, 0.01)):
        d = rn.DeformedSpectrum(SQUARES, rn.Exponential(), lam_cut)
        gaps.append(abs(d.inverse_sum() - ref))
        assert gaps[-1] < tol
    assert gaps[1] < gaps[0]


def test_explicit_head_membership_is_elementwise():
    # a large head element drops out of the sharp sum even though later
    # tail elements survive
    spec = rn.ExplicitWithTail([500.0, 2.0], 1.0, 1.0)
    d = rn.DeformedSpectrum(spec, SHARP, 100.0)
    expected = 1.0 / 2.0 + sum(1.0 / j for j in range(3, 101))
    assert abs(d.inverse_sum() - expected) <= 1e-12


def test_singular_part_forms():
    assert rn.singular_part(rn.DeformedSpectrum(HARMONIC, SHARP, math.exp(10))) == pytest.approx(10.0, abs=1e-12)
    assert rn.singular_part(rn.DeformedSpectrum(rn.PowerLaw(2.0, 1.0), SHARP, math.exp(10))) == pytest.approx(5.0, abs=1e-12)
    assert rn.singular_part(rn.DeformedSpectrum(SQUARES, SHARP, 123.0)) == 0.0
    assert rn.singular_part(rn.DeformedSpectrum(SQUARES, rn.Exponential(), 9.0)) == 0.0
    assert rn.singular_part(rn.DeformedSpectrum(HARMONIC, rn.Exponential(), math.exp(4))) == pytest.approx(4.0, abs=1e-12)
    # sub-linear tail with the sharp profile has the pure power form
    d = rn.DeformedSpectrum(rn.PowerLaw(1.0, 0.5), SHARP, 50.0)
    edge = 50.0**2.0
    assert rn.singular_part(d) == pytest.approx(edge**0.5 / 0.5, rel=1e-12)
    # sub-linear tails with the exponential profile: G(w0) L**w0 / (p c**(1/p))
    # with G(w) = 2 Gamma(2w) and w0 = 1/p - 1
    d = rn.DeformedSpectrum(rn.PowerLaw(1.0, 0.5), rn.Exponential(), 10.0)
    assert rn.singular_part(d) == pytest.approx(2.0 * 10.0 / 0.5, rel=1e-12)
    d = rn.DeformedSpectrum(rn.PowerLaw(2.0, 0.5), rn.Exponential(), 10.0)
    assert rn.singular_part(d) == pytest.approx(2.0 * 10.0 / (0.5 * 4.0), rel=1e-12)
    for p, c, lam_cut in ((0.7, 1.3, 1e3), (0.9, 0.4, 1e5)):
        w0 = 1 / mpf(p) - 1
        want = 2 * gamma(2 * w0) * mpf(lam_cut) ** w0 / (p * mpf(c) ** (1 / mpf(p)))
        d = rn.DeformedSpectrum(rn.PowerLaw(c, p), rn.Exponential(), lam_cut)
        assert rn.singular_part(d) == pytest.approx(float(want), rel=1e-12)
        # the sharp profile's G(w) = a**(2w) / w in the same formula
        want = mpf(2) ** (2 * w0) / w0 * mpf(lam_cut) ** w0 / (p * mpf(c) ** (1 / mpf(p)))
        d = rn.DeformedSpectrum(rn.PowerLaw(c, p), rn.SharpCutoff(2.0), lam_cut)
        assert rn.singular_part(d) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize(
    "reg, p, lam_cut",
    [
        (rn.Exponential(), 0.01, 10.0),  # G(99) = 2 Gamma(198) overflows
        (SHARP, 0.001, 10.0),  # L**999 overflows
        (SHARP, 0.05, 1e300),  # L**19 overflows
    ],
)
def test_singular_part_out_of_float_range_is_no_convergence(reg, p, lam_cut):
    d = rn.DeformedSpectrum(rn.PowerLaw(1.0, p), reg, lam_cut)
    with pytest.raises(rn.NoConvergence) as info:
        rn.singular_part(d)
    assert f"p = {p} " in str(info.value)
    assert f"cutoff L = {lam_cut}" in str(info.value)


def test_singular_part_matches_inverse_sum_growth():
    # deformed reciprocal sum minus the singular part stays bounded
    d1 = rn.DeformedSpectrum(HARMONIC, SHARP, math.exp(10))
    est = d1.inverse_sum() - rn.singular_part(d1)
    assert abs(est - GAMMA) < 1e-3


def test_constant_part_harmonic_sharp_is_gamma():
    kap = rn.constant_part(HARMONIC, SHARP)
    assert abs(kap - GAMMA) <= 1e-12


def test_constant_part_scaled_harmonic():
    kap = rn.constant_part(rn.PowerLaw(2.0, 1.0), SHARP)
    assert abs(kap - (GAMMA - math.log(2.0)) / 2.0) <= 1e-12


def test_constant_part_summable_spectrum_is_plain_sum():
    ref = math.pi**2 / 6.0
    assert abs(rn.constant_part(SQUARES, SHARP) - ref) <= 1e-12
    assert abs(rn.constant_part(SQUARES, rn.Exponential()) - ref) <= 1e-12


def test_constant_part_depends_on_profile_width():
    # widening the sharp window by a shifts the constant by 2 ln(a) / c
    for a, c in ((2.0, 1.0), (0.5, 2.0), (1.155, 0.948)):
        spec = rn.PowerLaw(c, 1.0)
        ka = rn.constant_part(spec, rn.SharpCutoff(a))
        k1 = rn.constant_part(spec, rn.SharpCutoff(1.0))
        assert abs((ka - k1) - 2.0 * math.log(a) / c) <= 1e-12


def test_constant_part_exponential_profile_differs():
    # same spectrum, different profile: the constant flips to -gamma
    kap = rn.constant_part(HARMONIC, rn.Exponential())
    assert abs(kap - (-GAMMA)) <= 1e-12


def test_constant_part_sublinear_tail():
    # tail exponent 0.7: the constant is the analytically continued
    # inverse-power sum at the tail exponent, for every profile and width
    for reg in (SHARP, rn.SharpCutoff(2.0), rn.Exponential()):
        kap = rn.constant_part(rn.PowerLaw(1.0, 0.7), reg)
        assert abs(kap - float(zeta(0.7))) <= 1e-12
        kap = rn.constant_part(rn.ExplicitWithTail([3.0], 2.0, 0.7), reg)
        assert abs(kap - (1 / 3 + (float(zeta(0.7)) - 1) / 2)) <= 1e-12


def test_constant_part_shifts_exactly_with_head_distortion():
    # replacing finitely many elements moves the constant part by the
    # exact difference of the reciprocals
    spec = rn.ExplicitWithTail([10.0, 20.0], 1.0, 1.0)
    kap = rn.constant_part(spec, SHARP)
    expect = GAMMA + (1.0 / 10.0 - 1.0) + (1.0 / 20.0 - 0.5)
    assert abs(kap - expect) <= 1e-12


def _remainder(spec, reg, lam_cut):
    # the direct route: deformed reciprocal sum minus its singular part
    d = rn.DeformedSpectrum(spec, reg, lam_cut)
    return d.inverse_sum() - rn.singular_part(d)


def test_sharp_constant_part_matches_direct_sums():
    # H_N - ln x with N = floor(x), x = a^2 L / c, stays within 1/x of
    # gamma, so r(L) is within 1/(a^2 L) of the constant part
    for a, c in ((1.155, 0.948), (0.8, 1.25), (2.0, 4.0)):
        spec, reg = rn.PowerLaw(c, 1.0), rn.SharpCutoff(a)
        kap = rn.constant_part(spec, reg)
        for lam_cut in (1e4, 1e5, 1e6):
            assert abs(_remainder(spec, reg, lam_cut) - kap) <= 2.0 / (a * a * lam_cut)


def test_exponential_constant_part_matches_direct_sums():
    # Mellin asymptotics: r(L) - kappa = -zeta(1/2)/sqrt(cL) + O(1/L),
    # the leading term from the pole of 2 Gamma(2s) at s = -1/2
    zeta_half = float(zeta(0.5))
    reg = rn.Exponential()
    for c in (1.0, 0.87):
        spec = rn.PowerLaw(c, 1.0)
        kap = rn.constant_part(spec, reg)
        for lam_cut in (1e2, 1e3, 1e4):
            root = math.sqrt(c * lam_cut)
            r = _remainder(spec, reg, lam_cut)
            assert abs(root * (r - kap) + zeta_half) <= 0.5 / root
        # the check resolves a constant part 1e-4 off at L = 1e4
        for shift in (1e-4, -1e-4):
            assert abs(root * (r - kap - shift) + zeta_half) > 0.5 / root


def test_exponential_sublinear_remainder_law():
    # the next poles of G(w) = 2 Gamma(2w), at w = -1/2 and w = -1, give
    # the remainder -zeta(p/2) / sqrt(c L) - 1/(4L) + O(L**-3/2)
    reg = rn.Exponential()
    for p in (0.5, 0.7, 0.9):
        for c in (0.5, 1.0, 2.5):
            spec = rn.PowerLaw(c, p)
            kap = rn.constant_part(spec, reg)
            zeta_half = float(zeta(p / 2))
            for lam_cut in (1e2, 1e3, 1e4, 1e5):
                law = -zeta_half / math.sqrt(c * lam_cut) - 0.25 / lam_cut
                r = _remainder(spec, reg, lam_cut) - kap
                assert abs(r - law) <= 0.1 * lam_cut**-1.5, (p, c, lam_cut)


def _exp_power_sum(q, c, lam_cut, start):
    # sum_{j>=start} (c j e^{x_j})**-q, x_j = sqrt(c j / L), as its
    # Mellin series in 30 digits: the k-th term carries the Hurwitz zeta
    # at q - k/2, and k = 2q - 2, where that zeta's pole meets Gamma's,
    # is replaced by the double-pole residue (start 1: the Riemann zeta)
    c, lam_cut = mpf(c), mpf(lam_cut)
    total, k = mpf(0), 0
    while True:
        coef = (-1) ** k * q**k * (c / lam_cut) ** (mpf(k) / 2) / (c**q * factorial(k))
        if k == 2 * q - 2:
            term = coef * (2 * (digamma(k + 1) - log(q) + log(lam_cut / c) / 2) - digamma(start))
        else:
            term = coef * zeta(q - mpf(k) / 2, start)
        total += term
        if k > 0 and abs(term) < mpf(10) ** -25 * abs(total):
            return total
        k += 1


def _exp_polar_reference(c, lam_cut, s):
    # the log1p and arctan sums by their Taylor series in s past the
    # first index with |s| / (c j) <= 1/4, directly before it
    start = max(1, math.ceil(4 * abs(s) / c))
    beta = [mpf(c) * j * exp(sqrt(mpf(c) * j / lam_cut)) for j in range(1, start)]
    log_mod = sum(log(1 + (mpf(s) / b) ** 2) for b in beta)
    phase = sum(atan(mpf(s) / b) for b in beta)
    for q in range(1, 31):  # the weights fall as 4**-q
        weight = (-1) ** ((q - 1) // 2) * mpf(s) ** q / q
        if q % 2:
            phase += weight * _exp_power_sum(q, c, lam_cut, start)
        else:
            log_mod += 2 * weight * _exp_power_sum(q, c, lam_cut, start)
    return float(exp(-log_mod / 4)), float(phase / 2)


def test_exponential_tail_sums_match_references():
    # below 1e3 against direct sums out to x_j = 40, where e^{-x_j} is
    # below rounding; at 1e5, where those would need 3e8 terms, against
    # the Mellin series in 30 digits
    for lam_cut in (1e2, 1e3, 1e5):
        for c in (1.0, 0.5):
            d = rn.DeformedSpectrum(rn.PowerLaw(c, 1.0), rn.Exponential(), lam_cut)
            if lam_cut <= 1e3:
                j = np.arange(1.0, 1600.0 * lam_cut / c + 1.0)
                beta = c * j * np.exp(np.sqrt(c * j / lam_cut))
                ref = math.fsum(1.0 / beta)
            else:
                with mp.workdps(30):
                    ref = float(_exp_power_sum(1, c, lam_cut, 1))
            assert abs(d.inverse_sum() - ref) <= 1e-12
            for s in (0.3, 1.3, 4.0):
                if lam_cut <= 1e3:
                    r = s / beta
                    ref = (
                        math.exp(-0.25 * math.fsum(np.log1p(r * r))),
                        0.5 * math.fsum(np.arctan(r)),
                    )
                else:
                    with mp.workdps(30):
                        ref = _exp_polar_reference(c, lam_cut, s)
                log_phi = ch.deformed_log(d, s)
                assert abs(np.exp(log_phi.real) - ref[0]) <= 1e-12
                assert abs(log_phi.imag - ref[1]) <= 1e-12


def test_exponential_tail_overflow_is_refused():
    # for tail exponents below about 0.47 the deformed tail sums grow
    # like L**(1/p - 1) and leave the float range at huge cutoffs: the
    # sums refuse, naming p and L, with no inf returned and no warning
    d = rn.DeformedSpectrum(rn.PowerLaw(1857.0, 0.41), rn.Exponential(), 1.06e244)
    calls = (
        d.inverse_sum,
        lambda: ch.deformed_log(d, 1.0),
        lambda: ch.deformed_log(d, np.array([0.0, -2.0, 3.0])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(rn.NoConvergence, match=r"p = 0\.41, cutoff L = 1\.06e\+244"):
                call()
        # p >= 1 stays finite at the largest cutoffs
        for p in (1.0, 1.5, 2.0):
            e = rn.DeformedSpectrum(rn.ExplicitWithTail([0.5], 1.3, p), rn.Exponential(), 1e300)
            assert 0.0 < e.inverse_sum() < math.inf
            log_phi = ch.deformed_log(e, np.array([-2.5, 0.0, 2.5]))
            mod = np.exp(log_phi.real)
            assert np.all((0.0 < mod) & (mod <= 1.0)) and np.all(np.isfinite(log_phi.imag))


def test_sharp_tail_index_brackets_threshold():
    rng = np.random.default_rng(31415)
    for _ in range(200):
        spec = rn.PowerLaw(rng.uniform(0.05, 5.0), rng.uniform(0.3, 2.5))
        reg = rn.SharpCutoff(rng.uniform(0.2, 3.0))
        cutoff = 10.0 ** rng.uniform(0.5, 6.0)
        d = rn.DeformedSpectrum(spec, reg, cutoff)
        m = d.sharp_tail_max_index()
        thresh = reg.a**2 * cutoff
        if m >= 1:
            assert spec.value(m) <= thresh
        assert spec.value(m + 1) > thresh


def test_sharp_tail_index_is_exact_where_floats_resolve_it():
    # up to cutoff 1e15 every boundary index is below 2**53, where
    # neighbouring indices have distinct values
    rng = np.random.default_rng(2718)
    for _ in range(200):
        spec = rn.PowerLaw(rng.uniform(0.5, 5.0), rng.uniform(1.0, 2.5))
        cutoff = 10.0 ** rng.uniform(6.0, 15.0)
        m = rn.DeformedSpectrum(spec, SHARP, cutoff).sharp_tail_max_index()
        assert spec.value(m) <= cutoff < spec.value(m + 1)
    for cutoff, top in ((1e15, 10**15), (1e15 - 0.5, 10**15 - 1)):
        assert rn.DeformedSpectrum(HARMONIC, SHARP, cutoff).sharp_tail_max_index() == top
    squares = rn.DeformedSpectrum(SQUARES, SHARP, 1e15)
    assert squares.sharp_tail_max_index() == math.isqrt(10**15)


@pytest.mark.parametrize("cutoff", [1e24, 1e300])
def test_sharp_tail_index_at_huge_cutoffs_returns_at_once(cutoff):
    # past 2**53 survivors neighbouring indices round to one value, and
    # the boundary search stops where floats no longer tell them apart
    for spec in (HARMONIC, rn.PowerLaw(3.0, 1.0), SQUARES):
        t0 = time.perf_counter()
        m = rn.DeformedSpectrum(spec, SHARP, cutoff).sharp_tail_max_index()
        assert time.perf_counter() - t0 < 1.0
        assert spec.value(m) == pytest.approx(cutoff, rel=1e-12)


@pytest.mark.parametrize(
    "reg, p, lam_cut, what",
    [
        (rn.SharpCutoff(1e200), 1.0, 1e3, "threshold"),  # a * a overflows
        (SHARP, 0.7, 1e300, "survivor count"),  # L**(1/p) overflows
    ],
)
def test_sharp_cutoff_out_of_float_range_is_no_convergence(reg, p, lam_cut, what):
    d = rn.DeformedSpectrum(rn.PowerLaw(1.0, p), reg, lam_cut)
    for call in (d.sharp_tail_max_index, d.inverse_sum):
        with pytest.raises(rn.NoConvergence, match=what) as info:
            call()
        assert f"a = {reg.a} and L = {lam_cut}" in str(info.value)


def test_deformation_never_shrinks_elements():
    for reg in (SHARP, rn.Exponential()):
        d = rn.DeformedSpectrum(HARMONIC, reg, 37.0)
        for j in (1, 5, 36, 37, 38, 1000):
            assert d.value(j) >= HARMONIC.value(j)


def test_sharp_inverse_sum_monotone_in_cutoff():
    sums = [
        rn.DeformedSpectrum(HARMONIC, SHARP, lam).inverse_sum()
        for lam in (10.0, 40.0, 160.0, 640.0)
    ]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_remainder_vanishes_with_cutoff():
    kap = rn.constant_part(HARMONIC, SHARP)
    gaps = []
    for lam in (1e3, 1e4, 1e5):
        d = rn.DeformedSpectrum(HARMONIC, SHARP, lam)
        gaps.append(abs(d.inverse_sum() - rn.singular_part(d) - kap))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_sharp_sums_at_huge_cutoff_match_closed_forms():
    # 1e12 survivors: the surviving tail is summed in closed form, so the
    # cost does not grow with the cutoff; the references are H_M and the
    # log-Gamma forms of prod_{j<=M} (1 - i s/j)
    top = 10**12
    d = rn.DeformedSpectrum(HARMONIC, SHARP, float(top))
    t0 = time.perf_counter()
    assert abs(d.inverse_sum() - float(harmonic(top))) <= 1e-12
    for s in (0.3, 1.3, 4.0):
        log_phi = ch.deformed_log(d, s)
        upper = loggamma(top + 1 + 1j * s) - loggamma(1 + 1j * s)
        log_mod = -0.25 * 2 * (re(upper) - loggamma(top + 1))
        assert abs(log_phi.real - float(log_mod)) <= 1e-12
        assert abs(log_phi.imag - float(0.5 * im(upper))) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_regulator_serialization():
    for reg in (rn.SharpCutoff(2.0), rn.Exponential()):
        d = rn.regulator_to_dict(reg)
        json.dumps(d)
        assert rn.regulator_from_dict(d) == reg
    with pytest.raises(ValueError):
        rn.regulator_from_dict({"kind": "mystery"})
    with pytest.raises(ValueError):
        rn.regulator_from_dict({})
    for a in (None, [1.0], "wide"):
        with pytest.raises(ValueError, match="sharp_cutoff field 'a' must be a number"):
            rn.regulator_from_dict({"kind": "sharp_cutoff", "a": a})
