"""The vectorized Gauss-Kronrod integrator against scipy's QUADPACK,
closed forms, and its failure modes."""

import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import renorm as rn
from renorm import characteristic as ch
from renorm import partition as pt
from renorm import quadrature as qd

HARMONIC = rn.PowerLaw(1.0, 1.0)
HEADED = rn.ExplicitWithTail([0.7, 2.5], 4.0, 1.0)


def _scipy_parts(f, a, b, tol, limit):
    """scipy's quad of the real and imaginary parts of an array integrand."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tuple(
            integrate.quad(lambda x: part(f(np.array([x]))[0]), a, b,
                           epsabs=tol, epsrel=tol, limit=limit)[0]
            for part in (np.real, np.imag)
        )


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_transform_integrands_match_scipy(tol):
    # the kernel transforms of partition.finite, flow, regularized and
    # renormalized, on both profiles, against QUADPACK's QAGS
    lam = 1.0
    w = 8.0 * math.sqrt(2.0 * lam)
    sharp = rn.DeformedSpectrum(HARMONIC, rn.SharpCutoff(1.0), 1e5)
    expo = rn.DeformedSpectrum(HEADED, rn.Exponential(), 60.0)
    phis = [
        lambda s: np.exp(ch.finite_log(HARMONIC, s, 1000)),
        lambda s: np.exp(ch.flow_log(sharp, s, 0.2)),
        lambda s: np.exp(ch.deformed_log(sharp, s)),
        lambda s: np.exp(ch.renormalized_log(HEADED, 0.3, s, 0.1)),
        lambda s: np.exp(ch.flow_log(expo, s, 0.0)),
    ]
    for phi in phis:
        def f(s, phi=phi):
            return np.exp(-s * s / (4.0 * lam)) / math.sqrt(4.0 * math.pi * lam) * phi(s)

        got, _ = qd.quad_checked(f, -w, w, abs_tol=tol, rel_tol=tol, max_limit=3120)
        re, im = _scipy_parts(f, -w, w, tol, 3120)
        assert abs(got.real - re) <= 1e-14
        assert abs(got.imag - im) <= 1e-14


@pytest.mark.parametrize(
    "f, a, b",
    [(np.exp, 0.0, 1.0), (lambda x: np.cos(7.0 * x), -1.0, 2.0),
     (lambda x: 1.0 / (1.0 + x * x), -5.0, 5.0), (lambda x: np.abs(x - 0.3), 0.0, 1.0)],
)
def test_single_interval_is_qk21(f, a, b):
    # with one subinterval both run QUADPACK's qk21 once: same value and
    # same error estimate
    val, err, info = qd.quad(f, a, b, epsabs=0.0, epsrel=0.0, limit=1, full_output=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b,
                             epsabs=1e-300, epsrel=5e-29, limit=1, full_output=1)
    assert info == {"neval": 21, "last": 1}
    assert abs(val - ref[0]) <= 1e-15 * max(1.0, abs(ref[0]))
    assert abs(err - ref[1]) <= 1e-9 * ref[1]  # (200 err / resasc)**1.5 amplifies rounding


@pytest.mark.parametrize("kind", [float, complex])
def test_qk21_rows_do_not_depend_on_their_batch(kind):
    # an interval's value and error estimate are the same bits whether
    # it is evaluated alone or with others in one refinement round
    rng = np.random.default_rng(7)
    for n in (2, 3, 8, 33, 100):
        lo = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        hi = lo + 10.0 ** rng.uniform(-6, 3, size=n)
        fv = rng.normal(size=(n, 21)) * 10.0 ** rng.uniform(-5, 5, size=(n, 1))
        if kind is complex:
            fv = fv + 1j * rng.normal(size=(n, 21))
        vals, errs = qd._qk21(lambda x: fv.ravel(), lo, hi)
        for i in range(n):
            val, err = qd._qk21(lambda x: fv[i], lo[i : i + 1], hi[i : i + 1])
            assert (val[0], err[0]) == (vals[i], errs[i]), (n, i)


def test_gaussian_moments_closed_form():
    # E s^{2k} = (2k - 1)!! under the standard normal density
    for k in range(6):
        val, err = qd.quad_checked(
            lambda s: s ** (2 * k) * np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi),
            -40.0, 40.0, abs_tol=1e-13, rel_tol=1e-13, max_limit=200,
        )
        assert abs(val - math.prod(range(1, 2 * k, 2))) <= 1e-12 * max(1.0, val)
    # the kernel transform of s^4 is 3 (2 lam)^2, to the window's cut
    for lam in (0.3, 1.0, 2.5):
        assert abs(pt.transform(lambda s: s**4 + 0j, lam) - 12.0 * lam * lam) <= 1e-9 * lam**2


def test_complex_integrand_is_one_pass():
    # real and imaginary parts share the subdivision; the error is their sum
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(1j * x)

    val, err, info = qd.quad(f, 0.0, 3.0, epsabs=1e-12, epsrel=1e-12, limit=50, full_output=1)
    assert abs(val - (np.exp(3j) - 1.0) / 1j) <= 1e-13
    assert sum(calls) == info["neval"]
    assert all(n % 21 == 0 for n in calls)


def test_budget_overrun_raises():
    # an integrable singularity needs more halvings than 8 subintervals allow
    with pytest.raises(rn.QuadratureFailure):
        qd.quad_checked(lambda x: np.abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0,
                        abs_tol=1e-12, rel_tol=1e-12, max_limit=8)


def test_nonfinite_integrand_raises():
    with pytest.raises(rn.QuadratureFailure):
        qd.quad_checked(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0,
                        abs_tol=1e-9, rel_tol=1e-9, max_limit=64)


def _record_quad_runs(monkeypatch):
    """Wrap the rule's entry point the way tracing tools do and record,
    for every run, its keyword names and its evaluation count."""
    runs = []
    original = qd.integrate

    class Recorder:
        def quad(self, *args, **kwargs):
            out = original.quad(*args, **kwargs)
            runs.append((sorted(kwargs), out[2]["neval"]))
            return out

    monkeypatch.setattr(qd, "integrate", Recorder())
    return runs


def test_tracing_seam_has_quad_call_shape(monkeypatch):
    # quad_checked calls integrate.quad(f, a, b, epsabs=, epsrel=, limit=,
    # full_output=1) and reads the evaluation count from out[2]["neval"]
    runs = _record_quad_runs(monkeypatch)
    val, _ = qd.quad_checked(np.cos, 0.0, 1.0, abs_tol=1e-10, rel_tol=1e-10, max_limit=64)
    assert abs(val - math.sin(1.0)) < 1e-14
    assert runs == [(["epsabs", "epsrel", "full_output", "limit"], 21)]


def test_break_points_start_one_panel_each():
    # the first round runs qk21 once per panel; a kink at a break point
    # costs no refinement, and the value is QUADPACK's QAGP
    def f(x):
        return np.abs(x - 0.25) + np.abs(x - 0.5)

    val, err, info = qd.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=50,
                             points=[0.25, 0.5], full_output=1)
    assert info == {"neval": 63, "last": 3}
    ref = integrate.quad(lambda x: float(f(np.array([x]))[0]), 0.0, 1.0, points=[0.25, 0.5])[0]
    assert abs(val - ref) <= 1e-15


def test_partition_value_is_one_panelled_pass(monkeypatch):
    # one saddle-line quadrature per partition value, through the
    # tracing seam, from one qk21 panel per two kernel widths
    runs = _record_quad_runs(monkeypatch)
    pt.finite(HARMONIC, 1.0, 100)
    assert len(runs) == 1
    keywords, neval = runs[0]
    assert "points" in keywords
    assert neval >= 21 * 8 and neval % 21 == 0


def test_factor_oracle_is_one_complex_pass_per_factor(monkeypatch):
    runs = _record_quad_runs(monkeypatch)
    spec = rn.ExplicitWithTail([0.9], 1.7, 1.3)
    got = ch.finite_by_quadrature(spec, 2.3, 5, rn.QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11))
    assert len(runs) == 5
    assert abs(got - cmath.exp(ch.finite_log(spec, 2.3, 5))) <= 1e-10


def test_runtime_imports_no_scipy_integrate():
    # scipy.special is the only scipy package the command line loads
    code = (
        "import sys, renorm.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
        "'scipy.sparse') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rn.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
