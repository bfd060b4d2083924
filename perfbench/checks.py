"""Checks of every table an operation writes, against ``reference``.

Each value is compared at ``MULT`` times the tolerance it was computed
to: the config's ``tol`` for inverse-power sums, constant parts and
loop values; the quadrature config's ``abs_tol``/``rel_tol`` for kernel
transforms; ``PRODUCT_TOL`` (the product functionals' default
tolerance) for finite sections, flows and limits.  Constant-part errors
propagate as s*tol/2 into phases and E|s|*tol/2 into transforms.
Properties checked besides: |z_n| <= bound, Monte Carlo within
``MC_SIGMAS`` standard errors of the transform, limit modulus in
[exp(-s^2 b2/4), 1], and every identity verdict true.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import reference as ref

MULT = 10.0
PRODUCT_TOL = 1e-10
MC_SIGMAS = 6.0
_QUAD_DEFAULTS = {"abs_tol": 1e-9, "rel_tol": 1e-9}
_SERIES_KINDS = ("phi", "z", "phi_renorm", "z_renorm")


class Problems(list):
    def close(self, what: str, got, want: float, tol: float) -> None:
        try:
            value = float(got)
        except (TypeError, ValueError):
            self.append(f"{what}: {got!r} is not a number (want {want:.12g})")
            return
        if not abs(value - want) <= tol:
            self.append(f"{what}: {value:.15g} vs reference {want:.15g} (|diff| "
                        f"{abs(value - want):.3g} > {tol:.3g})")

    def same(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: {got!r}, expected {want!r}")


def read_table(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").split("\n") if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _linear(grid: dict) -> list[float]:
    lo, hi, count = float(grid["min"]), float(grid["max"]), int(grid["count"])
    if count == 1:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _geometric(grid: dict) -> list[float]:
    lo, hi, count = float(grid["min"]), float(grid["max"]), int(grid["count"])
    if count == 1:
        return [lo]
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _n_values(grid: dict) -> list[int]:
    return sorted({max(1, round(v)) for v in _geometric(grid)})


class _Op:
    """Reference-side view of one operation's config."""

    def __init__(self, config: dict):
        self.config = config
        self.spec = ref.spec_from_config(config["spectrum"])
        self.regulator = config.get("regulator", {"kind": "sharp_cutoff", "a": 1.0})
        self.sharp = self.regulator["kind"] == "sharp_cutoff"
        self.a = float(self.regulator.get("a", 1.0))
        self.reg_key = ("sharp_cutoff", self.a) if self.sharp else ("exponential", None)
        self.tol = float(config.get("tol", 1e-8))
        self.theta = float(config.get("theta", 0.0))
        self.lam = float(config.get("lambda", 1.0))
        quad = dict(_QUAD_DEFAULTS, **config.get("quadrature", {}))
        self.q_abs, self.q_rel = float(quad["abs_tol"]), float(quad["rel_tol"])
        self.kappa = ref.kappa(self.spec, self.regulator)

    def quad_tol(self, value: float) -> float:
        return self.q_abs + self.q_rel * abs(value)

    def kappa_transform_tol(self, lam: float) -> float:
        # d/d(kappa) of a transform is at most E|s|/2 under the kernel
        return 0.5 * 2.0 * math.sqrt(lam / math.pi) * self.tol

    def log_flow(self, cutoffs_and_s, theta: float) -> dict:
        """log flow values keyed by (cutoff, s)."""
        out = {}
        if self.sharp:
            for cutoff, s in cutoffs_and_s:
                out[(cutoff, s)] = ref.log_sharp_flow(self.spec, self.a, cutoff, s, theta)
            return out
        by_cutoff: dict[float, list[float]] = {}
        for cutoff, s in cutoffs_and_s:
            by_cutoff.setdefault(cutoff, []).append(s)
        for cutoff, s_values in by_cutoff.items():
            logs = ref.exp_log_deformed(self.spec.c, cutoff, s_values)
            shift = ref.singular(self.spec, cutoff) + theta
            for s, lg in zip(s_values, logs):
                out[(cutoff, s)] = -0.5 * lg - 0.5j * s * shift
        return out


def _check_polar(p: Problems, what: str, row: dict, log_value: complex, tol: float) -> None:
    value = cmath.exp(log_value)
    p.close(f"{what} re", row["re"], value.real, MULT * tol)
    p.close(f"{what} im", row["im"], value.imag, MULT * tol)
    if "modulus" in row:
        p.close(f"{what} modulus", row["modulus"], abs(value), MULT * tol)
        p.close(f"{what} phase", row["phase"], log_value.imag, MULT * tol)


def check_spectrum(op: _Op, out: Path, p: Problems) -> None:
    rows = {r["key"]: r["value"] for r in read_table(out / "spectrum_report.csv")}
    spec = op.spec
    mu = ref.min_value(spec)
    p.close("mu", rows.get("mu"), mu, MULT * PRODUCT_TOL * max(1.0, mu))
    for k in range(1, 5):
        p.same(f"B{k}", rows.get(f"B{k}"), "yes" if k * spec.p > 1.0 else "no")
    for k in range(2, 5):
        if k * spec.p > 1.0:
            p.close(f"b{k}", rows.get(f"b{k}"), ref.inverse_power_sum(spec, k), MULT * op.tol)
        else:
            p.same(f"b{k}", rows.get(f"b{k}"), "divergent")
    want = (f"ln(L) / {spec.c:.17g}" if spec.p == 1.0
            else "0 (reciprocal sum already converges)")
    p.same("singular_part", rows.get("singular_part"), want)
    p.close("kappa", rows.get("kappa"), op.kappa, MULT * op.tol)


def check_phi(op: _Op, out: Path, p: Problems) -> None:
    rows = read_table(out / "phi_scan.csv")
    s_values = _linear(op.config["s_grid"])
    n_values = _n_values(op.config["n_grid"])
    cutoffs = _geometric(op.config["lambda_grid"])
    p.same("phi_scan rows", len(rows), len(s_values) * (len(n_values) + len(cutoffs) + 1))
    got_s = sorted({float(r["s"]) for r in rows})
    if len(got_s) != len(s_values) or any(abs(x - y) > 1e-12 for x, y in zip(got_s, s_values)):
        p.append(f"phi_scan s values {got_s} differ from the grid {s_values}")
    flows = op.log_flow([(float(r["Lambda"]), float(r["s"])) for r in rows if r["variant"] == "flow"],
                        op.theta)
    b2 = ref.inverse_power_sum(op.spec, 2)
    for r in rows:
        s, theta = float(r["s"]), float(r["theta"])
        what = f"phi {r['variant']} s={s:.6g}"
        if r["variant"] == "finite":
            _check_polar(p, f"{what} n={r['n']}", r, ref.log_finite(op.spec, s, int(r["n"])), PRODUCT_TOL)
        elif r["variant"] == "flow":
            cutoff = float(r["Lambda"])
            _check_polar(p, f"{what} L={cutoff:.6g}", r, flows[(cutoff, s)], PRODUCT_TOL)
        elif r["variant"] == "renormalized":
            tol = PRODUCT_TOL + 0.5 * abs(s) * op.tol
            _check_polar(p, what, r, ref.log_renormalized(op.spec, op.kappa, s, theta), tol)
            mod = float(r["modulus"])
            if not math.exp(-s * s * b2 / 4.0) - 1e-12 <= mod <= 1.0 + 1e-12:
                p.append(f"{what}: modulus {mod!r} outside [exp(-s^2 b2/4), 1]")
        else:
            p.append(f"phi_scan: unknown variant {r['variant']!r}")


def check_z(op: _Op, out: Path, p: Problems) -> None:
    n_values = _n_values(op.config["n_grid"])
    decay = read_table(out / "z_decay.csv")
    p.same("z_decay n", [int(r["n"]) for r in decay], n_values)
    for r in decay:
        n = int(r["n"])
        want = ref.z_finite(op.spec, op.lam, n)
        p.close(f"z_n n={n}", r["z_n"], want, MULT * op.quad_tol(want))
        bound = ref.finite_bound(op.spec, op.lam, n)
        p.close(f"bound n={n}", r["bound"], bound, MULT * PRODUCT_TOL * max(1.0, bound))
        if not abs(float(r["z_n"])) <= float(r["bound"]):
            p.append(f"|z_n| {r['z_n']} above its bound {r['bound']} at n={n}")

    theta = read_table(out / "z_theta.csv")
    thetas = _linear(op.config["theta_grid"])
    p.same("z_theta rows", len(theta), len(thetas))
    for r in theta:
        th = float(r["theta"])
        want = ref.z_renormalized(op.spec, op.kappa, op.lam, th)
        tol = op.quad_tol(want) + op.kappa_transform_tol(op.lam)
        p.close(f"z_renormalized theta={th:.6g}", r["z_renormalized"], want, MULT * tol)

    mc = read_table(out / "z_mc.csv")
    p.same("z_mc n", [int(r["n"]) for r in mc], [n for n in n_values if n <= 64] or [4])
    for r in mc:
        n = int(r["n"])
        want = ref.z_finite(op.spec, op.lam, n)
        se = float(r["std_error"])
        if not se > 0:
            p.append(f"Monte Carlo n={n}: standard error {se!r} not positive")
        p.close(f"Monte Carlo n={n}", r["estimate"], want, MC_SIGMAS * se + MULT * op.quad_tol(want))


def check_flow(op: _Op, out: Path, p: Problems) -> None:
    cutoffs = _geometric(op.config["lambda_grid"])
    phi_rows = read_table(out / "flow_phi.csv")
    p.same("flow_phi rows", len(phi_rows), len(cutoffs))
    flows = op.log_flow([(float(r["Lambda"]), float(r["s"])) for r in phi_rows], op.theta)
    for r in phi_rows:
        cutoff, s, theta = float(r["Lambda"]), float(r["s"]), float(r["theta"])
        log_flow = flows[(cutoff, s)]
        _check_polar(p, f"flow_phi L={cutoff:.6g}", r, log_flow, PRODUCT_TOL)
        limit = cmath.exp(ref.log_renormalized(op.spec, op.kappa, s, theta))
        tol = 2.0 * PRODUCT_TOL + 0.5 * abs(s) * op.tol
        p.close(f"flow_phi distance L={cutoff:.6g}", r["distance_to_limit"],
                abs(cmath.exp(log_flow) - limit), MULT * tol)

    z_rows = read_table(out / "flow_z.csv")
    p.same("flow_z rows", len(z_rows), len(cutoffs))
    for r in z_rows:
        cutoff, lam, theta = float(r["Lambda"]), float(r["lambda"]), float(r["theta"])
        zf = ref.z_flow(op.spec, op.reg_key, cutoff, lam, theta)
        zr = ref.z_renormalized(op.spec, op.kappa, lam, theta)
        zg = ref.z_regularized(op.spec, op.reg_key, cutoff, lam)
        tk = op.kappa_transform_tol(lam)
        what = f"flow_z L={cutoff:.6g}"
        p.close(f"{what} z_flow", r["z_flow"], zf, MULT * op.quad_tol(zf))
        p.close(f"{what} z_renormalized", r["z_renormalized"], zr, MULT * (op.quad_tol(zr) + tk))
        p.close(f"{what} abs_error", r["abs_error"], abs(zf - zr),
                MULT * (op.quad_tol(zf) + op.quad_tol(zr) + tk))
        p.close(f"{what} z_regularized", r["z_regularized"], zg, MULT * op.quad_tol(zg))


def _poly(obj) -> dict[tuple, Fraction]:
    out = {}
    for entry in obj:
        exps = {int(sym[1:]): int(e) for sym, e in entry["exponents"].items()}
        vec = tuple(exps.get(m, 0) for m in range(1, max(exps, default=0) + 1))
        out[vec] = Fraction(int(entry["num"]), int(entry["den"]))
    return out


def check_diagrams(op: _Op, order: int, out: Path, p: Problems) -> None:
    moments = json.loads((out / "moments.json").read_text(encoding="utf-8"))
    p.same("moment orders", [m["k"] for m in moments], list(range(order + 1)))
    for m in moments:
        want = ref.moment(m["k"])
        if _poly(m["moment"]) != want:
            p.append(f"moment({m['k']}) differs from the cycle-index polynomial")
        free = {k: v for k, v in want.items() if not (k and k[0])}
        if _poly(m["tadpole_free"]) != free:
            p.append(f"tadpole-free moment({m['k']}) differs from the cycle-index polynomial")

    verdicts = read_table(out / "renorm_identity.csv")
    p.same("identity orders", [int(r["order"]) for r in verdicts], list(range(min(order, 12) + 1)))
    for r in verdicts:
        p.same(f"identity verdict order {r['order']}", r["verdict"], "true")

    spec, tol = op.spec, op.tol
    loops = [ref.inverse_power_sum(spec, m) if m * spec.p > 1.0 else None
             for m in range(1, 2 * order + 1)]
    exact = [None if b is None else Fraction(b) for b in loops]
    shift = (op.kappa - op.theta) / 2.0
    low = [None if b is None else Fraction(abs(b)) for b in loops]
    high = [None if b is None else Fraction(abs(b) + tol) for b in loops]
    for kind in _SERIES_KINDS:
        rows = read_table(out / f"series_{kind}.csv")
        p.same(f"series_{kind} orders", [int(r["order"]) for r in rows], list(range(order + 1)))
        want = ref.series(kind, order, exact, Fraction(shift))
        if want is None:
            p.same(f"series_{kind}", [r["coefficient"] for r in rows], ["1"] + ["infinite"] * order)
            continue
        # every coefficient is a polynomial with positive coefficients in
        # the loop values and the shift, so perturbing their magnitudes
        # by the tolerance bounds the propagated error
        hi = ref.series(kind, order, high, Fraction(abs(shift) + tol))
        lo = ref.series(kind, order, low, Fraction(abs(shift)))
        for r, w, h, l in zip(rows, want, hi, lo):
            bound = MULT * float(h - l) + 1e-12 * abs(float(w))
            p.close(f"series_{kind} order {r['order']}", r["coefficient"], float(w), bound)


def check(op: dict, out: Path) -> list[str]:
    """Problems found in the tables one operation wrote to ``out``."""
    p = Problems()
    view = _Op(op["config"])
    command = op["command"]
    try:
        if command == "spectrum":
            check_spectrum(view, out, p)
        elif command == "phi":
            check_phi(view, out, p)
        elif command == "z":
            check_z(view, out, p)
        elif command == "flow":
            check_flow(view, out, p)
        elif command == "diagrams":
            args = op["args"]
            order = int(args[args.index("--order") + 1]) if "--order" in args else int(op["config"]["order"])
            check_diagrams(view, order, out, p)
        else:
            p.append(f"no check for command {command!r}")
    except (OSError, KeyError, ValueError, IndexError, json.JSONDecodeError) as e:
        p.append(f"unreadable output: {type(e).__name__}: {e}")
    return p
