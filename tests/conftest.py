"""Shared test oracles."""

import math

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
