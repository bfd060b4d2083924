"""Acceptance suite: every shipped claim, runnable end to end.

Each criterion is a standalone function returning a result record; the
report builder renders them into a deterministic text report (same seed
in, same bytes out).  The last criterion checks exactly that, by
building the core report twice and comparing bytes.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from . import characteristic as ch
from . import diagrams as dg
from . import partition as pt
from .partition import McConfig
from .quadrature import QuadratureConfig
from .regulator import DeformedSpectrum, SharpCutoff, constant_part, singular_part
from .spectrum import ExplicitWithTail, PowerLaw

__all__ = [
    "CriterionResult",
    "DEFAULT_SEED",
    "CRITERIA",
    "CRITERION_NAMES",
    "build_core",
    "run_suite",
    "criterion_names",
]

DEFAULT_SEED = 987654321

# Euler-Mascheroni constant, 20 significant digits
GAMMA = 0.5772156649015328606

_HARMONIC = PowerLaw(1.0, 1.0)
_SQUARES = PowerLaw(1.0, 2.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _derived_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % 2**64


def criterion_01_exact_moments(seed: int) -> CriterionResult:
    """Low-order moment polynomials match their tabulated rational forms."""
    expected = {  # matching counts; the coefficients are these over 2**k
        1: {(1,): 1},
        2: {(2,): 1, (0, 1): 2},
        3: {(3,): 1, (1, 1): 6, (0, 0, 1): 8},
    }
    ok = all(dg.wick_moment(k).terms == terms for k, terms in expected.items())
    return CriterionResult(
        1, "exact-low-order-moments", ok,
        "coefficients (1/2), (1/4, 1/2), (1/8, 3/4, 1) reproduced exactly"
        if ok else "a low-order moment differs from its tabulated form",
    )


def criterion_02_pairing_oracle(seed: int) -> CriterionResult:
    """Cycle-index moments equal brute-force pairing enumeration; counts match."""
    ok = True
    counts = []
    for k in range(7):
        if dg.wick_moment(k) != dg.wick_moment_by_pairings(k):
            ok = False
        count = sum(1 for _ in dg.all_pairings(range(2 * k)))
        counts.append(count)
        if count != math.prod(range(1, 2 * k, 2)):
            ok = False
    return CriterionResult(
        2, "pairing-oracle", ok,
        f"k=0..6 exact; matching counts {counts} (k=6 gives {counts[6]})",
    )


def criterion_03_renorm_identity(seed: int) -> CriterionResult:
    """Shift identity holds exactly for n = 0..12 within the time budget."""
    t0 = time.perf_counter()
    moments = [dg.wick_moment(k) for k in range(13)]
    verdicts = dg.renorm_identity_verdicts(moments)
    elapsed = time.perf_counter() - t0
    ok = all(verdicts) and elapsed < 30.0
    return CriterionResult(
        3, "renormalization-identity", ok,
        f"n=0..12 all {'exact' if all(verdicts) else 'NOT exact'}, "
        f"runtime {'<' if elapsed < 30 else '>='} 30 s",
    )


def criterion_04_single_mode(seed: int) -> CriterionResult:
    """Single-mode series converges inside |s| < 1 and blows up outside."""
    rows_half = dg.partial_sum_scan(0.5, 300)
    first_ok = next((k for k, _, _, err in rows_half if err < 1e-8), None)
    converged = rows_half[-1][3] < 1e-8 and first_ok is not None
    rows_two = dg.partial_sum_scan(2.0, 300)
    diverged = any(abs(psum) > 1e6 for _, psum, _, _ in rows_two)
    ok = converged and diverged
    return CriterionResult(
        4, "single-mode-closed-form", ok,
        f"s=0.5 error<1e-8 from order {first_ok}; s=2 exceeds 1e6 in magnitude: {diverged}",
    )


def criterion_05_quadrature_oracle(seed: int) -> CriterionResult:
    """Closed-form finite products match the quadrature oracle to 1e-8."""
    rng = np.random.Generator(np.random.Philox(_derived_seed(seed, 5)))
    q = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    worst = 0.0
    for _ in range(50):
        if rng.random() < 0.8:
            spec = PowerLaw(rng.uniform(0.5, 3.0), rng.uniform(0.6, 2.0))
        else:
            head = rng.uniform(0.5, 5.0, size=int(rng.integers(1, 4)))
            spec = ExplicitWithTail(head, rng.uniform(0.5, 3.0), rng.uniform(0.6, 2.0))
        s = rng.uniform(-5.0, 5.0)
        n = int(rng.integers(1, 9))
        closed = cmath.exp(ch.finite_log(spec, s, n))
        diff = abs(closed - ch.finite_by_quadrature(spec, s, n, q))
        worst = max(worst, diff)
    ok = worst <= 1e-8
    return CriterionResult(
        5, "gaussian-product-oracle", ok,
        f"50 random triples, worst |closed-form - quadrature| = {worst:.3e}",
    )


def criterion_06_modulus_bounds(seed: int) -> CriterionResult:
    """Limit modulus obeys its lower bound; sections decrease monotonically."""
    b2 = math.pi**2 / 6.0
    ok = True
    worst_gap = math.inf
    for s in (0.25, 1.0, 4.0):
        f = np.exp(ch.renormalized_log(_HARMONIC, 0.0, s).real)
        lower = math.exp(-s * s * b2 / 4.0)
        if not (lower <= f < 1.0):
            ok = False
        worst_gap = min(worst_gap, f - lower)
        mods = [np.exp(ch.finite_log(_HARMONIC, s, n).real) for n in range(1, 101)]
        if any(b >= a for a, b in zip(mods, mods[1:])):
            ok = False
    return CriterionResult(
        6, "modulus-bounds", ok,
        f"lower bound holds with smallest margin {worst_gap:.3e}; "
        "sections strictly decreasing for n=1..100",
    )


def criterion_07_partition_decay(seed: int) -> CriterionResult:
    """Finite partition values obey the decay certificate and shrink in n."""
    q = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
    vals = {}
    certified = True
    for n in (10, 100, 1000):
        z = pt.finite(_HARMONIC, 1.0, n, q)
        bound = pt.finite_bound(_HARMONIC, 1.0, n)
        vals[n] = z
        if abs(z) > bound:
            certified = False
    shrinks = abs(vals[1000]) < abs(vals[10]) / 5.0
    ok = certified and shrinks
    return CriterionResult(
        7, "partition-decay", ok,
        f"|z| <= bound at n=10,100,1000; |z_1000|={abs(vals[1000]):.3e} "
        f"vs |z_10|/5={abs(vals[10])/5:.3e}",
    )


def criterion_08_mc_cross_check(seed: int) -> CriterionResult:
    """Monte Carlo oracle agrees with quadrature within 3 standard errors."""
    mc = McConfig(samples=10**6, seed=_derived_seed(seed, 8))
    est, se = pt.mc_estimate(_HARMONIC, 1.0, 4, mc)
    z = pt.finite(_HARMONIC, 1.0, 4, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12))
    dev = abs(est - z) / se
    ok = dev <= 3.0
    return CriterionResult(
        8, "mc-quadrature-cross-check", ok,
        f"estimate {est:.6f} +/- {se:.6f} vs quadrature {z:.6f} ({dev:.2f} sigma)",
    )


def criterion_09_flow_convergence(seed: int) -> CriterionResult:
    """Flow distances to the renormalized limits decrease along cutoffs
    1e3, 1e4, 1e5 and follow the first-order law d(L) = A/L * (1 + O(1/L)).

    For beta_j = j under a sharp cutoff, both flow and limit are Gamma
    ratios, and log(phi_flow / phi_ref) = (s^2 + i s)/(4L) + O(1/L^2).
    Hence A_phi = |phi_ref(s)| |s| sqrt(1 + s^2) / 4 and
    A_z = |T[phi_ref(s) (s^2 + i s)](lam)| / 4, with T the kernel
    transform.  Each cutoff must satisfy |L d(L)/A - 1| <= 1/L.  That
    pins the leading constant and rejects convergence that is too slow
    or too fast.  A hundredfold drop over two decades is exactly this
    leading rate; whether the ratio lands strictly below 1e-2 is left to
    the sign of the O(1/L^2) term, and the exact ratios are 1.00004144e-2
    (phi) and 1.00002003e-2 (z).  An error eps in the constant part
    moves L d/A by about eps L, so the 1/L band detects any error in
    it above about 1/L^2 (1e-10 at L = 1e5).
    """
    s, lam = 1.0, 1.0
    reg = SharpCutoff(1.0)
    kap = constant_part(_HARMONIC, reg, tol=1e-10)
    q = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11, max_nodes=1 << 17)
    phi_ref = cmath.exp(ch.renormalized_log(_HARMONIC, kap, s))
    z_ref = pt.renormalized(_HARMONIC, kap, lam, 0.0, q)
    a_phi = abs(phi_ref) * abs(s) * math.sqrt(1.0 + s * s) / 4.0

    def phi_slope(u):
        return np.exp(ch.renormalized_log(_HARMONIC, kap, u)) * (u * u + 1j * u)

    a_z = abs(pt.transform(phi_slope, lam, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9))) / 4.0
    cutoffs = (1e3, 1e4, 1e5)
    phi_d = []
    z_d = []
    for lam_cut in cutoffs:
        d = DeformedSpectrum(_HARMONIC, reg, lam_cut)
        phi_d.append(abs(cmath.exp(ch.flow_log(d, s)) - phi_ref))
        z_d.append(abs(pt.flow(d, lam, 0.0, q) - z_ref))
    decreasing = all(b < a for a, b in zip(phi_d, phi_d[1:])) and all(
        b < a for a, b in zip(z_d, z_d[1:])
    )
    phi_dev = [c * dist / a_phi - 1.0 for c, dist in zip(cutoffs, phi_d)]
    z_dev = [c * dist / a_z - 1.0 for c, dist in zip(cutoffs, z_d)]
    first_order = all(
        abs(dev) <= 1.0 / c
        for devs in (phi_dev, z_dev)
        for c, dev in zip(cutoffs, devs)
    )
    ok = decreasing and first_order
    return CriterionResult(
        9, "flow-convergence", ok,
        f"decreasing: {decreasing}; L*d/A - 1 at L=1e3,1e4,1e5: "
        f"phi {', '.join(f'{v:+.3e}' for v in phi_dev)}; "
        f"z {', '.join(f'{v:+.3e}' for v in z_dev)} (need |.| <= 1/L)",
    )


def criterion_10_kappa_recovery(seed: int) -> CriterionResult:
    """Closed-form constant part recovers the Euler-Mascheroni constant.

    The constant part is also held to the same bound against direct
    sharp sums: with r(L) = H_L - ln L = gamma + 1/(2L) - 1/(12 L^2) + ...,
    the Richardson value 2 r(2L) - r(L) is gamma + 1/(24 L^2) + ..., so
    the check does not rest on the closed form alone.
    """
    reg = SharpCutoff(1.0)
    kap = constant_part(_HARMONIC, reg, tol=1e-8)

    def remainder(lam_cut: float) -> float:
        # the survivors j <= lam_cut summed term by term, not through
        # the closed-form tail that inverse_sum uses
        d = DeformedSpectrum(_HARMONIC, reg, lam_cut)
        return float(np.sum(1.0 / np.arange(1.0, lam_cut + 1.0))) - singular_part(d)

    richardson = 2.0 * remainder(2e5) - remainder(1e5)
    err = abs(kap - GAMMA)
    err_direct = abs(kap - richardson)
    ok = err < 1e-6 and err_direct < 1e-6
    return CriterionResult(
        10, "constant-part-recovery", ok,
        f"constant part {kap:.12f}, |error| = {err:.3e}; "
        f"|constant part - 2r(2e5) + r(1e5)| = {err_direct:.3e} (need < 1e-6)",
    )


def criterion_11_cross_track(seed: int) -> CriterionResult:
    """First series coefficient from the pairing track matches the slope
    of the renormalized functional at the origin."""
    kap = _SQUARES.inverse_power_sum(1, 1e-13)
    worst = 0.0
    for theta in (0.0, 1.0):
        hstep = 0.02

        def fd(hh: float) -> complex:
            up = cmath.exp(ch.renormalized_log(_SQUARES, kap, hh, theta))
            dn = cmath.exp(ch.renormalized_log(_SQUARES, kap, -hh, theta))
            return (up - dn) / (2.0 * hh)

        slope = (4.0 * fd(hstep / 2.0) - fd(hstep)) / 3.0
        coeff = dg.series_coefficients(
            "phi_renorm", 1, [dg.INFINITE], shift_value=(kap - theta) / 2.0
        )[1]
        worst = max(worst, abs(slope - 1j * coeff))
    ok = worst <= 1e-6
    return CriterionResult(
        11, "cross-track-first-coefficient", ok,
        f"worst |finite-difference slope - i*(series coefficient)| = {worst:.3e}",
    )


CRITERIA = [
    criterion_01_exact_moments,
    criterion_02_pairing_oracle,
    criterion_03_renorm_identity,
    criterion_04_single_mode,
    criterion_05_quadrature_oracle,
    criterion_06_modulus_bounds,
    criterion_07_partition_decay,
    criterion_08_mc_cross_check,
    criterion_09_flow_convergence,
    criterion_10_kappa_recovery,
    criterion_11_cross_track,
]

CRITERION_NAMES = [
    "exact-low-order-moments",
    "pairing-oracle",
    "renormalization-identity",
    "single-mode-closed-form",
    "gaussian-product-oracle",
    "modulus-bounds",
    "partition-decay",
    "mc-quadrature-cross-check",
    "flow-convergence",
    "constant-part-recovery",
    "cross-track-first-coefficient",
    "determinism",
]


def criterion_names() -> list[str]:
    return [f"[{i:2d}] {name}" for i, name in enumerate(CRITERION_NAMES, start=1)]


def build_core(seed: int = DEFAULT_SEED) -> tuple[list[CriterionResult], str]:
    """Run criteria 1..11 and render their report block.

    A criterion that raises is reported as FAIL with the error text
    rather than aborting the remaining criteria.
    """
    results = []
    for number, fn in enumerate(CRITERIA, start=1):
        try:
            results.append(fn(seed))
        except Exception as exc:  # report and continue
            results.append(
                CriterionResult(
                    number,
                    CRITERION_NAMES[number - 1],
                    False,
                    f"raised {type(exc).__name__}: {exc}",
                )
            )
    lines = [
        f"[{r.number:2d}] {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
        for r in results
    ]
    return results, "\n".join(lines)


def run_suite(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Full suite: criteria 1..11 plus the byte-determinism criterion.

    Returns (all_passed, report_text).  The determinism criterion builds
    the core report a second time and compares bytes.
    """
    results, core = build_core(seed)
    _, core_again = build_core(seed)
    det_ok = core == core_again
    det_line = (
        f"[12] {'PASS' if det_ok else 'FAIL'} {CRITERION_NAMES[11]}: "
        + ("two passes produced byte-identical reports" if det_ok
           else "repeated pass produced different bytes")
    )
    passed = sum(r.passed for r in results) + int(det_ok)
    header = f"acceptance report (seed {seed})"
    summary = f"result: {passed}/12 criteria passed"
    text = "\n".join([header, core, det_line, summary])
    return passed == 12, text
