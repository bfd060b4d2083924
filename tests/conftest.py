"""Shared test oracles."""

import math

import mpmath as mp
import pytest


def _moment_json_obj(moment) -> list[dict]:
    """One column of a ``moments.json`` entry built as plain objects:
    the monomials of a moment in loop-vector order, each with its
    nonzero exponents and its coefficient count / 2**k reduced.
    ``json.dumps(..., indent=2, sort_keys=True)`` of these is the text
    ``tables.write_moments_json`` must reproduce byte for byte."""
    out = []
    for loops, count in sorted(moment.terms.items()):
        g = math.gcd(count, 1 << moment.k)
        out.append(
            {
                "exponents": {f"b{m}": e for m, e in enumerate(loops, start=1) if e},
                "num": str(count // g),
                "den": str((1 << moment.k) // g),
            }
        )
    return out


@pytest.fixture
def moment_json_obj():
    return _moment_json_obj


def _mp_kernel_transform(lam: float, log_phi) -> float:
    """The kernel transform of phi = exp(log_phi) at coupling lam,
    2 int_0^inf Re(e^{-s^2/(4 lam)} phi(s)) ds / sqrt(4 pi lam), in
    20-digit mpmath: for a Hermitian phi whose modulus falls like the
    harmonic spectrum's, e^{-pi |s|/4}, so that nodes up to |s| = 256
    resolve it at any coupling."""
    with mp.workdps(20):
        def f(s):
            return mp.re(mp.exp(log_phi(s) - s * s / (4 * lam)))

        edges = [0] + [2**k for k in range(9)] + [mp.inf]
        return float(2 * mp.quad(f, edges) / mp.sqrt(4 * mp.pi * lam))


@pytest.fixture
def mp_kernel_transform():
    return _mp_kernel_transform
