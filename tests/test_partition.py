"""Partition values: transform, decay certificate, Monte Carlo oracle."""

import math

import numpy as np
import pytest
from scipy import integrate

import renorm as rn
from renorm import characteristic as ch
from renorm import partition as pt

GAMMA = 0.5772156649015328606
HARMONIC = rn.PowerLaw(1.0, 1.0)
SQUARES = rn.PowerLaw(1.0, 2.0)
SHARP = rn.SharpCutoff(1.0)
TIGHT = rn.QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)

# golden value computed by this package at tight tolerances and
# cross-checked against the complex-transform route (agreement 2e-14)
Z_RENORM_HARMONIC = 0.686373255579815


def test_kernel_normalization():
    # a constant phi returns one value for every node, which broadcasts
    for q in (TIGHT, None):
        for lam in (1e-6, 0.5, 1.0, 7.0):
            val = pt.transform(lambda s: 1.0 + 0.0j, lam, q)
            assert abs(val - 1.0) < 1e-10


def test_transform_rejects_bad_coupling():
    with pytest.raises(ValueError):
        pt.transform(lambda s: 1.0 + 0.0j, 0.0)


def test_finite_small_coupling_limit():
    assert abs(pt.finite(HARMONIC, 1e-12, 3) - 1.0) < 1e-6


def test_finite_single_mode_against_direct_integral():
    # one factor: the partition value is the expectation of exp(-a^4)
    # under the weight exp(-a^2)/sqrt(pi)
    ref, _ = integrate.quad(
        lambda a: math.exp(-a * a - a**4) / math.sqrt(math.pi), -8.0, 8.0, epsabs=1e-13
    )
    assert abs(pt.finite(rn.PowerLaw(1.0, 1.0), 1.0, 1, TIGHT) - ref) < 1e-10


def test_finite_decays_for_divergent_reciprocals():
    for lam in (0.5, 1.0, 2.0):
        z10 = pt.finite(HARMONIC, lam, 10)
        z1000 = pt.finite(HARMONIC, lam, 1000)
        assert abs(z1000) < abs(z10)


def test_bound_certifies_finite_values():
    for n in (10, 100, 1000):
        z = pt.finite(HARMONIC, 1.0, n)
        assert abs(z) <= pt.finite_bound(HARMONIC, 1.0, n)


def test_bound_scales_with_reciprocal_sum():
    # the only n-dependence is the 2/c_n prefactor
    vals = []
    for n in (10, 100, 1000):
        c_n = HARMONIC.partial_inverse_power(1, n)
        vals.append(pt.finite_bound(HARMONIC, 1.0, n) * c_n)
    assert max(vals) - min(vals) < 1e-12


def test_bound_no_decay_for_summable_spectrum():
    # a finite limiting reciprocal sum leaves the bound bounded away
    # from zero in n
    b10 = pt.finite_bound(SQUARES, 1.0, 10)
    b4000 = pt.finite_bound(SQUARES, 1.0, 4000)
    assert b4000 > 0.5 * b10


def test_bound_closed_form_matches_quadrature():
    lam, n = 0.7, 25
    c_n = HARMONIC.partial_inverse_power(1, n)
    b2 = HARMONIC.inverse_power_sum(2, 1e-12)
    mu = HARMONIC.min_value()

    def env(s):
        k = math.exp(-s * s / (4 * lam)) / math.sqrt(4 * math.pi * lam)
        return k * (abs(s) / (2 * lam) + abs(s) * b2 / 2 + s * s * b2 / (2 * mu))

    ref, _ = integrate.quad(env, -40, 40, epsabs=1e-12, limit=200)
    assert abs(pt.finite_bound(HARMONIC, lam, n) - (2 / c_n) * ref) < 1e-9


def test_mc_zero_coupling_exact():
    est, se = pt.mc_estimate(HARMONIC, 0.0, 3, rn.McConfig(samples=2000, seed=1))
    assert est == 1.0
    assert se == 0.0


def test_mc_deterministic_given_seed():
    mc = rn.McConfig(samples=50_000, seed=777)
    a = pt.mc_estimate(HARMONIC, 1.0, 4, mc)
    b = pt.mc_estimate(HARMONIC, 1.0, 4, mc)
    assert a == b
    c = pt.mc_estimate(HARMONIC, 1.0, 4, rn.McConfig(samples=50_000, seed=778))
    assert c != a


def test_mc_agrees_with_quadrature():
    for n in (1, 2, 4, 8):
        est, se = pt.mc_estimate(HARMONIC, 1.0, n, rn.McConfig(samples=200_000, seed=n))
        z = pt.finite(HARMONIC, 1.0, n, TIGHT)
        assert abs(est - z) <= 3.0 * se


def test_mc_validation():
    with pytest.raises(ValueError):
        rn.McConfig(samples=10, seed=1)
    with pytest.raises(ValueError):
        pt.mc_estimate(HARMONIC, 1.0, 65, rn.McConfig())
    with pytest.raises(ValueError):
        pt.mc_estimate(HARMONIC, -1.0, 4, rn.McConfig())


def test_renormalized_matches_complex_transform_route():
    val = pt.renormalized(HARMONIC, GAMMA, 1.0, 0.0, TIGHT)

    def phi(s):
        return np.exp(ch.renormalized_log(HARMONIC, GAMMA, s))

    via_transform = pt.transform(phi, 1.0, TIGHT, freq_hint=0.3)
    assert abs(via_transform.imag) < 1e-10
    assert abs(val - via_transform.real) < 1e-8
    assert abs(val - Z_RENORM_HARMONIC) < 1e-9


def test_renormalized_nonzero_for_divergent_spectrum():
    assert abs(pt.renormalized(HARMONIC, GAMMA, 1.0, 0.0)) > 0.1


def test_renormalized_theta_profile_is_smooth():
    # second finite difference in theta is stable under step halving
    q = rn.QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)

    def second_diff(h):
        up = pt.renormalized(HARMONIC, GAMMA, 1.0, h, q)
        mid = pt.renormalized(HARMONIC, GAMMA, 1.0, 0.0, q)
        dn = pt.renormalized(HARMONIC, GAMMA, 1.0, -h, q)
        return (up - 2.0 * mid + dn) / (h * h)

    d1 = second_diff(0.2)
    d2 = second_diff(0.1)
    assert abs(d1 - d2) < 5e-3 * max(1.0, abs(d2))


def test_flow_small_coupling_limit():
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 50.0)
    assert abs(pt.flow(d, 1e-12, 0.0) - 1.0) < 1e-6


def test_flow_approaches_renormalized_value():
    q = rn.QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
    ref = pt.renormalized(HARMONIC, GAMMA, 1.0, 0.0, q)
    dists = []
    for lam_cut in (1e3, 1e4):
        d = rn.DeformedSpectrum(HARMONIC, SHARP, lam_cut)
        dists.append(abs(pt.flow(d, 1.0, 0.0, q) - ref))
    assert dists[1] < dists[0]
    assert dists[1] < 2e-4


def test_regularized_sharp_cutoff_equals_finite_section():
    # the sharp deformation of a head-free spectrum is plain truncation,
    # so the raw regularized value is the finite section's value
    d = rn.DeformedSpectrum(HARMONIC, SHARP, 64.0)
    a = pt.regularized(d, 1.0, TIGHT)
    b = pt.finite(HARMONIC, 1.0, 64, TIGHT)
    assert abs(a - b) < 1e-10


def test_regularized_value_decays_without_counterterm():
    q = rn.QuadratureConfig()
    vals = [
        abs(pt.regularized(rn.DeformedSpectrum(HARMONIC, SHARP, lam_cut), 1.0, q))
        for lam_cut in (10.0, 100.0, 1000.0)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_oscillation_budget_failure_reports_requirement():
    q = rn.QuadratureConfig(max_nodes=64)
    with pytest.raises(rn.OscillationBudgetExceeded) as exc:
        pt.finite(HARMONIC, 1.0, 1000, q)
    assert exc.value.required is not None
    assert exc.value.required > 64


def test_finite_validation():
    with pytest.raises(ValueError):
        pt.finite(HARMONIC, -1.0, 10)
    with pytest.raises(ValueError):
        pt.finite(HARMONIC, 1.0, 0)
