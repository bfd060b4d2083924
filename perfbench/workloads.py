"""Seeded inputs of the benchmark's workloads.

A workload is a fixed list of operations: one ``renorm`` subcommand on
one generated JSON config.  The seed changes values in the configs but
never the list's shape.  Values that set how much adaptive quadrature
the program does (lambda, head values, tail scale) only jitter by about
10% around fixed centres, because the benchmark gates medians over runs
with different seeds; theta, s, the grids' ends and the Monte Carlo
seed range freely.  Imports nothing from ``renorm``.

Sharp-cutoff configs use (a, c) = (1, 1) or (2, 4).  For generic
(a, c) the program's extrapolated constant part misses its tolerance
by up to thousands of times, or stops with "did not stabilize", at a
rate that depends on the inputs; those inputs are left out (see
CHANGES.md).  Exponential-profile configs keep the seeded cutoffs
at or below 100, where the program's tail integral is right; the cases
it gets wrong run on fixed inputs and are counted as failed.
"""

from __future__ import annotations

import random

WORKLOADS = ("sharp_tables", "exponential_flow", "exact_series")

TAIL_FAULT = (
    "regulator.DeformedSpectrum._exp_tail_integral returns ~0 for the "
    "exponential-profile tail integral at large truncation points"
)


def _grid(lo: float, hi: float, count: int) -> dict:
    return {"min": lo, "max": hi, "count": count}


def _op(name: str, command: str, config: dict, args=(), fault: str | None = None) -> dict:
    return {"name": name, "command": command, "args": list(args), "config": config, "fault": fault}


def _jitter(rng: random.Random, centre: float) -> float:
    return round(centre * rng.uniform(0.9, 1.1), 6)


def sharp_tables(seed: int) -> list[dict]:
    rng = random.Random(f"sharp_tables:{seed}")
    # (slot, spectrum, a, lambda centre): c*j and c*j**2 tails, with and
    # without an explicit head
    slots = [
        ("harmonic", {"family": "power_law", "c": 1.0, "p": 1.0}, 1.0, 1.0),
        ("harmonic_head", {"family": "explicit_tail", "head": [_jitter(rng, 0.8), _jitter(rng, 2.0)],
                           "tail_c": 4.0, "tail_p": 1.0}, 2.0, 0.8),
        ("square", {"family": "power_law", "c": 1.0, "p": 2.0}, 1.0, 1.2),
        ("square_head", {"family": "explicit_tail", "head": [_jitter(rng, 0.6), _jitter(rng, 1.7)],
                         "tail_c": 4.0, "tail_p": 2.0}, 2.0, 1.5),
    ]
    ops = []
    for slot, spectrum, a, lam in slots:
        config = {
            "spectrum": spectrum,
            "regulator": {"kind": "sharp_cutoff", "a": a},
            "theta": rng.uniform(-1.0, 1.0),
            "lambda": _jitter(rng, lam),
            "s": rng.uniform(0.5, 2.0),
            "tol": 1e-8,
            "s_grid": _grid(0.0, rng.uniform(2.0, 4.0), 9),
            "lambda_grid": _grid(1e3, 1e5, 3),
            "n_grid": _grid(10, 1000, 3),
            "theta_grid": _grid(rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0), 3),
            "mc": {"samples": 100_000, "seed": rng.randrange(2**63)},
        }
        for command in ("spectrum", "phi", "z", "flow"):
            ops.append(_op(f"{slot}.{command}", command, config))
    return ops


def exponential_flow(seed: int) -> list[dict]:
    rng = random.Random(f"exponential_flow:{seed}")
    exp = {"kind": "exponential"}
    harmonic = {"family": "power_law", "c": 1.0, "p": 1.0}
    # Fixed inputs: the constant part at tol 1e-5 (right) and 1e-6, and
    # the flow at cutoffs 1e4 and 1e5 (both hit by the tail-integral fault).
    ops = [
        _op("fixed.kappa_1e-5", "spectrum", {"spectrum": harmonic, "regulator": exp, "tol": 1e-5}),
        _op("fixed.kappa_1e-6", "spectrum", {"spectrum": harmonic, "regulator": exp, "tol": 1e-6},
            fault=TAIL_FAULT),
        _op("fixed.phi_large_cutoff", "phi", {
            "spectrum": harmonic, "regulator": exp, "tol": 1e-4, "theta": 0.0,
            "s_grid": _grid(1.0, 2.0, 2), "lambda_grid": _grid(1e4, 1e5, 2), "n_grid": _grid(10, 10, 1),
        }, fault=TAIL_FAULT),
    ]
    spectrum = {"family": "power_law", "c": _jitter(rng, 1.0), "p": 1.0}
    base = {"spectrum": spectrum, "regulator": exp, "tol": 1e-4, "theta": rng.uniform(-1.0, 1.0)}
    ops.append(_op("seeded.kappa_1e-4", "spectrum", dict(base)))
    ops.append(_op("seeded.phi", "phi", dict(
        base, s_grid=_grid(0.0, rng.uniform(2.0, 4.0), 9), lambda_grid=_grid(30.0, 100.0, 3),
        n_grid=_grid(10, 100, 2),
    )))
    ops.append(_op("seeded.flow", "flow", dict(
        base, s=rng.uniform(0.5, 2.0), lambda_grid=_grid(50.0, 100.0, 2),
        **{"lambda": _jitter(rng, 1.0)},
    )))
    return ops


def exact_series(seed: int, order: int = 12) -> list[dict]:
    rng = random.Random(f"exact_series:{seed}")
    ops = []
    # c*j**2 tails draw (a, c); this changes no exact work
    pairs = [(1.0, 1.0), (2.0, 4.0)]
    sq_a, sq_c = rng.choice(pairs)
    sqh_a, sqh_c = rng.choice(pairs)
    slots = [
        ("harmonic", {"family": "power_law", "c": 1.0, "p": 1.0}, 1.0),
        ("harmonic_head", {"family": "explicit_tail", "head": [round(rng.uniform(0.3, 3.0), 6)
                                                               for _ in range(2)],
                           "tail_c": 4.0, "tail_p": 1.0}, 2.0),
        ("square", {"family": "power_law", "c": sq_c, "p": 2.0}, sq_a),
        ("square_head", {"family": "explicit_tail", "head": [round(rng.uniform(0.3, 3.0), 6)
                                                             for _ in range(3)],
                         "tail_c": sqh_c, "tail_p": 2.0}, sqh_a),
    ]
    for slot, spectrum, a in slots:
        config = {
            "spectrum": spectrum,
            "regulator": {"kind": "sharp_cutoff", "a": a},
            "theta": rng.uniform(-1.0, 1.0),
            "tol": 1e-8,
            "order": order,
        }
        ops.append(_op(f"{slot}.diagrams", "diagrams", config, args=("--order", str(order))))
    return ops


def operations(workload: str, seed: int) -> list[dict]:
    """The operations of one round of ``workload`` for ``seed``."""
    return {"sharp_tables": sharp_tables, "exponential_flow": exponential_flow,
            "exact_series": exact_series}[workload](seed)
