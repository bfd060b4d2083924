"""Partition values: transform, decay certificate, Monte Carlo oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

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


def test_transform_is_the_same_on_every_line_of_the_strip():
    # the kernel is entire and the section analytic above Im s = -1, so
    # lines above and below the real axis give the real-axis value
    def phi(s):
        return np.exp(ch.finite_log(HARMONIC, s, 10))

    ref = pt.transform(phi, 1.0, TIGHT)
    for shift in (-0.5, 0.8, 2.0):
        assert abs(pt.transform(phi, 1.0, TIGHT, shift=shift) - ref) <= 1e-12


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


def test_mc_estimate_does_not_depend_on_blas_threads():
    # a (seed, samples) pair fixes the estimate bit for bit, whatever
    # thread count the BLAS library runs with
    code = (
        "import renorm as rn; from renorm import partition as pt; "
        "print([repr(pt.mc_estimate(rn.PowerLaw(1.0, 1.0), 1.0, 10, "
        "rn.McConfig(samples=100_000, seed=seed))) for seed in range(8)])"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(rn.__file__).parents[1]),
                     OPENBLAS_NUM_THREADS=threads),
        )
        for threads in ("1", "2")
    ]
    outs = [proc.communicate(timeout=60)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert outs[0] == outs[1]


# repr of mc_estimate(PowerLaw(1, 1), 1.0, n, McConfig(samples, seed=20_240_809
# + n)) for samples under one chunk, two whole chunks, and three chunks
# with a partial last one
MC_PINNED = {
    (1_000, 1): "(0.7837542405447421, 0.009926422286012867)",
    (1_000, 10): "(0.2846040253171072, 0.008584783813000168)",
    (1_000, 64): "(0.03975469699379238, 0.0020478607884171166)",
    (65_536, 1): "(0.7694805451285629, 0.0012537071488572863)",
    (65_536, 10): "(0.2830272678171762, 0.0010548074261264473)",
    (65_536, 64): "(0.037993341009756855, 0.00025443301985064666)",
    (100_000, 1): "(0.7707172114830256, 0.0010125994370925422)",
    (100_000, 10): "(0.2830034341313201, 0.0008531797884224944)",
    (100_000, 64): "(0.03829379195307516, 0.00020833466619338514)",
}


def test_mc_estimate_bits_are_pinned():
    for (samples, n), want in MC_PINNED.items():
        mc = rn.McConfig(samples=samples, seed=20_240_809 + n)
        assert repr(pt.mc_estimate(HARMONIC, 1.0, n, mc)) == want


def test_mc_agrees_with_quadrature():
    for n in (1, 2, 4, 8):
        est, se = pt.mc_estimate(HARMONIC, 1.0, n, rn.McConfig(samples=200_000, seed=n))
        z = pt.finite(HARMONIC, 1.0, n, TIGHT)
        assert abs(est - z) <= 3.0 * se


def test_mc_validation():
    with pytest.raises(ValueError):
        rn.McConfig(samples=10, seed=1)
    with pytest.raises(ValueError, match="samples"):
        rn.McConfig(samples=2000.0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        rn.McConfig(samples=2000, seed=False)
    with pytest.raises(ValueError):
        pt.mc_estimate(HARMONIC, 1.0, 65, rn.McConfig())
    with pytest.raises(ValueError):
        pt.mc_estimate(HARMONIC, -1.0, 4, rn.McConfig())


def test_renormalized_matches_complex_transform_route():
    val = pt.renormalized(HARMONIC, GAMMA, 1.0, 0.0, TIGHT)

    def phi(s):
        return np.exp(ch.renormalized_log(HARMONIC, GAMMA, s))

    via_transform = pt.transform(phi, 1.0, TIGHT)
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


def test_quadrature_failure_reports_limit():
    # no quadrature meets a tolerance below its rounding floor: the
    # failure names the error estimate and the node budget, which is
    # never below 1344
    q = rn.QuadratureConfig(max_nodes=64, abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(rn.QuadratureFailure, match="still above tolerance .* within 1344 nodes"):
        pt.finite(HARMONIC, 1.0, 1000, q)


@pytest.mark.parametrize("lam", [1e7, 3e7, 1e8, 1e9])
def test_renormalized_value_at_large_coupling(lam, mp_kernel_transform):
    # beta_j = j with kappa = gamma: phi_ren(s) = Gamma(1 - is)^(1/2),
    # whose mass lies in |s| <~ 30, a sliver of the kernel window
    # +-8 sqrt(2 lam); sqrt(lam) Z tends to 0.998904...
    ref = mp_kernel_transform(lam, lambda s: mp.loggamma(1 - 1j * s) / 2)
    assert abs(pt.renormalized(HARMONIC, GAMMA, lam) / ref - 1.0) <= 1e-8


def test_flow_value_at_large_coupling(mp_kernel_transform):
    # sharp cutoff L = 1e5 on beta_j = j: phi_flow is the Gamma ratio
    # [G(L + 1) G(1 - is) / G(L + 1 - is)]^(1/2) L^(-is/2)
    lam_cut = 1e5
    d = rn.DeformedSpectrum(HARMONIC, SHARP, lam_cut)

    def log_flow(s):
        ratio = mp.loggamma(lam_cut + 1) - mp.loggamma(lam_cut + 1 - 1j * s)
        return (ratio + mp.loggamma(1 - 1j * s)) / 2 - 0.5j * s * mp.log(lam_cut)

    ref = mp_kernel_transform(1e8, log_flow)
    assert abs(pt.flow(d, 1e8) / ref - 1.0) <= 1e-8


def test_finite_validation():
    with pytest.raises(ValueError):
        pt.finite(HARMONIC, -1.0, 10)
    with pytest.raises(ValueError):
        pt.finite(HARMONIC, 1.0, 0)


HEADED = rn.ExplicitWithTail([0.7, 2.5], 4.0, 1.0)
P07 = rn.PowerLaw(1.0, 0.7)


def _transforms():
    """name: (value at (lam, q), log of the transformed product)"""
    sharp = rn.DeformedSpectrum(HARMONIC, SHARP, 64.0)
    expo = rn.DeformedSpectrum(HEADED, rn.Exponential(), 60.0)
    kappa = rn.constant_part(HEADED, rn.Exponential())
    return {
        "finite": (lambda lam, q: pt.finite(HEADED, lam, 50, q),
                   lambda s: ch.finite_log(HEADED, s, 50)),
        "finite_p07": (lambda lam, q: pt.finite(P07, lam, 10, q),
                       lambda s: ch.finite_log(P07, s, 10)),
        "renormalized": (lambda lam, q: pt.renormalized(HEADED, kappa, lam, 0.3, q),
                         lambda s: ch.renormalized_log(HEADED, kappa, s, 0.3)),
        "renormalized_below_axis": (lambda lam, q: pt.renormalized(SQUARES, 1.0, lam, 1.6, q),
                                    lambda s: ch.renormalized_log(SQUARES, 1.0, s, 1.6)),
        "flow_sharp": (lambda lam, q: pt.flow(sharp, lam, -0.4, q),
                       lambda s: ch.flow_log(sharp, s, -0.4)),
        "flow_exponential": (lambda lam, q: pt.flow(expo, lam, 0.2, q),
                             lambda s: ch.flow_log(expo, s, 0.2)),
        "regularized_sharp": (lambda lam, q: pt.regularized(sharp, lam, q),
                              lambda s: ch.deformed_log(sharp, s)),
        "regularized_exponential": (lambda lam, q: pt.regularized(expo, lam, q),
                                    lambda s: ch.deformed_log(expo, s)),
    }


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("name", list(_transforms()))
def test_saddle_line_matches_real_axis_transform(name, lam):
    # the real-axis transform is the oracle wherever the value is well
    # above abs_tol; the saddle line runs above the axis, and below it
    # where the counterterm pulls the saddle down
    value, log_phi = _transforms()[name]
    z = value(lam, TIGHT)
    ref = pt.transform(lambda s: np.exp(log_phi(s)), lam, TIGHT)
    assert z > 1e-6
    assert abs(ref.imag) <= 1e-12
    assert abs(z - ref.real) <= 1e-12


def _direct_saddle_transform(betas, lam):
    """Independent oracle for a product far below abs_tol: direct numpy
    logs of the factors, scipy's minimizer for the saddle height y and
    QUADPACK along Im s = y, scaled by the bound e^{g(y)}."""

    def log_phi(s):
        return -0.5 * np.sum(np.log(1.0 - 1j * s / betas))

    def g(y):
        return y * y / (4.0 * lam) + log_phi(1j * y).real

    y = optimize.minimize_scalar(g, bounds=(0.0, lam * np.sum(1.0 / betas)),
                                 method="bounded", options={"xatol": 1e-10}).x
    w = 8.0 * math.sqrt(2.0 * lam)

    def integrand(x):
        s = x + 1j * y
        return (np.exp(log_phi(s) - s * s / (4.0 * lam) - g(y))).real

    val, _ = integrate.quad(integrand, -w, w, epsabs=1e-14, epsrel=1e-13, limit=400)
    return math.exp(g(y)) * val / math.sqrt(4.0 * math.pi * lam)


def test_values_far_below_abs_tol_keep_relative_accuracy():
    # beta_j = j**0.7: the real-axis transform gives rounding noise
    # (-2.43e-17 for z_1000, -6.3e-17 for the sharp cutoff at 1e3)
    z = pt.finite(P07, 1.0, 1000)
    ref = _direct_saddle_transform(P07.values(1000), 1.0)
    assert abs(z - ref) <= 1e-9 * ref
    assert abs(z - 1.69079196183e-32) <= 1e-9 * z
    d = rn.DeformedSpectrum(P07, SHARP, 1e3)
    z = pt.regularized(d, 1.0)
    ref = _direct_saddle_transform(P07.values(d.sharp_tail_max_index()), 1.0)
    assert abs(z - ref) <= 1e-9 * ref
    assert abs(z - 3.72002085e-259) <= 1e-9 * z
    # beta_j = 1e-3 j: the saddle, near y = 10, lies far above the first
    # grid's top 4e-3, so the grid grows until it brackets it
    spec = rn.PowerLaw(1e-3, 1.0)
    z = pt.finite(spec, 1.0, 100)
    ref = _direct_saddle_transform(spec.values(100), 1.0)
    assert abs(z - ref) <= 1e-9 * ref
    assert abs(z - 3.8343e-111) <= 1e-4 * z


def test_underflowing_bound_emits_zero():
    # at cutoffs 1e4 and 1e5 the saddle bound, and so the value, is
    # below the least subnormal double
    heights = np.linspace(1.0, 400.0, 400)
    for cutoff in (1e4, 1e5):
        d = rn.DeformedSpectrum(P07, SHARP, cutoff)
        g = heights**2 / 4.0 + ch.deformed_log(d, 1j * heights).real
        assert g.min() < -1075.0 * math.log(2.0)
        assert pt.regularized(d, 1.0) == 0.0


@st.composite
def _certificate_cases(draw):
    """A transform's value at (lam, default tolerances), the log of its
    product, and the closed-form bound on its saddle height."""
    c, p = draw(st.floats(0.3, 4.0)), draw(st.floats(0.6, 2.5))
    head = draw(st.lists(st.floats(0.2, 5.0), max_size=3))
    spec = rn.ExplicitWithTail(head, c, p) if head else rn.PowerLaw(c, p)
    lam, theta = 10.0 ** draw(st.floats(-3.0, 1.0)), draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(["finite", "renormalized", "flow", "regularized"]))
    reg = draw(st.sampled_from([SHARP, rn.SharpCutoff(2.0), rn.Exponential()]))
    # the split of the exponential profile needs p >= 1
    assume(kind in ("finite", "regularized") or p >= 1.0 or reg != rn.Exponential())
    if kind == "finite":
        n = draw(st.integers(1, 2000))
        return (lam, pt.finite(spec, lam, n), lambda s: ch.finite_log(spec, s, n),
                lam * spec.partial_inverse_power(1, n), spec)
    if kind == "renormalized":
        kappa = rn.constant_part(spec, reg)
        return (lam, pt.renormalized(spec, kappa, lam, theta),
                lambda s: ch.renormalized_log(spec, kappa, s, theta), lam * (kappa - theta), spec)
    d = rn.DeformedSpectrum(spec, reg, 10.0 ** draw(st.floats(1.0, 4.0)))
    if kind == "flow":
        return (lam, pt.flow(d, lam, theta), lambda s: ch.flow_log(d, s, theta),
                lam * (d.inverse_sum() - rn.singular_part(d) - theta), spec)
    return lam, pt.regularized(d, lam), lambda s: ch.deformed_log(d, s), lam * d.inverse_sum(), spec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_certificate_cases())
def test_saddle_bound_brackets_every_transform(case):
    # on the line Im s = y the modulus of each factor is at least its
    # value at i y, so 0 <= z <= e^{g(y)}, g(y) = y^2/(4 lam) + Re log
    # phi(i y), at every height of the strip; an underflowing bound
    # leaves 0
    lam, z, log_phi, y_max, spec = case
    heights = np.linspace(-0.9 * spec.min_value(), max(0.0, y_max), 257)
    g = heights**2 / (4.0 * lam) + log_phi(1j * heights).real
    assert 0.0 <= z <= math.exp(g.min())
