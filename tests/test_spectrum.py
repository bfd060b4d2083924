"""Spectrum families, inverse-power sums, and their tail discipline."""

import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, zeta

import renorm as rn
from renorm.spectrum import DivergentSum, _corrections, _scaled_power_tail

mp.dps = 40

ZETA2 = float(zeta(2))  # 1.6449340668482264... (40-digit reference)
ZETA3 = float(zeta(3))


def test_elements_power_law():
    assert rn.PowerLaw(1.0, 1.0).value(7) == 7.0
    assert rn.PowerLaw(2.0, 1.0).value(1) == 2.0
    assert rn.PowerLaw(0.5, 2.0).value(3) == 4.5


def test_elements_explicit_head_lookup():
    spec = rn.ExplicitWithTail([5.0, 3.0], 1.0, 1.0)
    assert spec.value(2) == 3.0
    assert spec.value(3) == 3.0  # tail takes over at j=3
    assert spec.value(10) == 10.0


def test_values_match_scalar_access():
    spec = rn.ExplicitWithTail([5.0, 3.0, 7.0], 2.0, 0.8)
    vals = spec.values(50)
    assert vals.shape == (50,)
    for j in (1, 2, 3):
        assert vals[j - 1] == spec.value(j)
    for j in (4, 17, 50):
        # vectorized and scalar power may differ in the last ulp
        assert vals[j - 1] == pytest.approx(spec.value(j), rel=1e-15)


def test_constructor_validation():
    with pytest.raises(ValueError):
        rn.PowerLaw(0.0, 1.0)
    with pytest.raises(ValueError):
        rn.PowerLaw(1.0, -2.0)
    with pytest.raises(ValueError):
        rn.ExplicitWithTail([1.0, -1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        rn.PowerLaw(1.0, 1.0).value(0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            rn.PowerLaw(bad, 1.0)
        with pytest.raises(ValueError):
            rn.ExplicitWithTail([1.0, bad], 1.0, 1.0)
        with pytest.raises(ValueError):
            rn.ExplicitWithTail([1.0], bad, 1.0)


def test_inverse_power_sum_zeta2():
    got = rn.PowerLaw(1.0, 1.0).inverse_power_sum(2, 1e-10)
    assert abs(got - ZETA2) <= 1e-10


def test_inverse_power_sum_scaled_zeta2():
    got = rn.PowerLaw(2.0, 1.0).inverse_power_sum(2, 1e-10)
    assert abs(got - ZETA2 / 4.0) <= 1e-10


def test_inverse_power_sum_zeta3():
    got = rn.PowerLaw(1.0, 1.0).inverse_power_sum(3, 1e-12)
    assert abs(got - ZETA3) <= 1e-12


def test_harmonic_sum_diverges():
    with pytest.raises(DivergentSum):
        rn.PowerLaw(1.0, 1.0).inverse_power_sum(1)
    with pytest.raises(DivergentSum):
        rn.PowerLaw(1.0, 0.5).inverse_power_sum(2)  # k*p = 1 exactly


BATCH_SPECTRA = [
    rn.PowerLaw(1.0, 2.0),
    rn.PowerLaw(1.0, 1.0),
    rn.ExplicitWithTail([0.7, 2.5, 1.3], 1.0, 1.0),
    rn.PowerLaw(4.0, 2.0),
    rn.ExplicitWithTail([0.5], 0.3, 1.5),
]


@pytest.mark.parametrize("spec", BATCH_SPECTRA)
def test_batched_sums_do_not_depend_on_their_batch(spec):
    orders = [k for k in range(1, 25) if spec.converges(k)]
    single = {k: spec.inverse_power_sum(k) for k in orders}
    rng = np.random.default_rng(18)
    batches = [orders, orders[::-1], orders[:1] * 3 + orders[-2:]]
    batches += [[int(k) for k in rng.choice(orders, size=int(rng.integers(2, 6)))] for _ in range(6)]
    for batch in batches:
        got = spec.inverse_power_sums(batch)
        assert [v.hex() for v in got] == [single[k].hex() for k in batch]
    assert spec.inverse_power_sums(()) == []


def test_closed_form_tail_rows_do_not_depend_on_their_batch():
    # the Euler-Maclaurin corrections behind every tail sum, row by row;
    # large exponents near the first tail index make them large enough
    # that a reduction order showing in their last bit would show here
    rng = np.random.default_rng(18)
    for _ in range(50):
        x = rng.uniform(60.0, 200.0, 20)
        t = float(rng.integers(257, 300))
        for terms in (5, 10):
            rows = _corrections(x, t, terms)
            assert [_corrections(x[i : i + 1], t, terms)[0] for i in range(20)] == list(rows)


def _direct_power_tail(x: float, a: int, upper) -> float:
    """math.fsum of the correctly rounded terms (a/j)**x, j = a..upper;
    an infinite upper stops after 200 terms and adds the rest as a
    ten-term Euler-Maclaurin sum at 25 digits (its error is far below
    rounding there).  Terms below 1e-40 end the sum early."""
    with mpmath.workdps(25):
        xm, am = mpmath.mpf(x), mpmath.mpf(a)
        stop = upper if upper != math.inf else a + 199
        terms = []
        for j in range(a, stop + 1):
            term = (am / j) ** xm
            terms.append(float(term))
            if term < 1e-40:
                return math.fsum(terms)
        if upper == math.inf:
            n = mpmath.mpf(stop + 1)
            rest = n ** (1 - xm) / (xm - 1) + n**-xm / 2
            rising = xm
            for k in range(1, 11):
                rest += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * rising * n ** (
                    -xm - 2 * k + 1
                )
                rising *= (xm + 2 * k - 1) * (xm + 2 * k)
            terms.append(float(am**xm * rest))
    return math.fsum(terms)


def test_scaled_power_tail_matches_direct_sums():
    # starts below, at and just past 257, where the closed form alone
    # takes over; upper ends inside the direct range, past it, and none.
    # Not mpmath's zeta(x, a): at a = 257, x = 33 it is off by 6e-11
    # relative at 60 digits and by 6e-12 at 80
    worst = 0.0
    for a in (2, 17, 33, 200, 256, 257):
        for upper in (100, 600, math.inf):
            for x in (0.5, 1.0, 1.5, 2.0, 3.0, 7.5, 16.0, 33.0, 64.0):
                if upper < a or (upper == math.inf and x <= 1.0):
                    continue
                got = _scaled_power_tail(np.array([x]), a, upper)[0]
                want = _direct_power_tail(x, a, upper)
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-15


# The first of the convergent sums b_1..b_60 of four spectrum families
# (as float.hex()), and the sha256 of all of them, hex values joined by
# spaces: the s-free sums of the exact track, to the bit
PINNED_SUMS = [
    (rn.PowerLaw(1.0, 1.0), "0x1.a51a6625307d5p+0", "bafe4db72362dcfdd1538f84c372da15"),
    (rn.ExplicitWithTail([0.7, 2.5], 4.0, 1.0), "0x1.1cdd2ca2a359cp+1",
     "6923373e186fa852954c6f7faf7dbb5d"),
    (rn.PowerLaw(4.0, 2.0), "0x1.a51a6625307d5p-2", "05de3aaa3da59552c9e484283ce6cdcf"),
    (rn.ExplicitWithTail([0.5, 1.3, 2.9], 1.0, 2.0), "0x1.b2edc65997b77p+1",
     "4b17cd0baa260ef4f4e93dbceb27cbb3"),
]


@pytest.mark.parametrize("spec, first, digest", PINNED_SUMS)
def test_exact_track_sums_are_pinned(spec, first, digest):
    orders = [k for k in range(1, 61) if spec.converges(k)]
    sums = [v.hex() for v in spec.inverse_power_sums(orders)]
    assert sums[0] == first
    assert hashlib.sha256(" ".join(sums).encode()).hexdigest()[:32] == digest


@pytest.mark.parametrize("spec", BATCH_SPECTRA)
def test_batched_sums_match_direct_sums(spec):
    # fsum over the first n elements, with the integral bound of the rest
    # c**-k n**(1 - k p) / (k p - 1) below tol / 10 at the orders tested
    n, tol = 20_000, 1e-10
    vals = spec.values(n)
    orders = [k for k in range(2, 9)
              if spec.tail_c**-k * n ** (1 - k * spec.tail_p) / (k * spec.tail_p - 1) < tol / 10]
    assert orders
    for k, got in zip(orders, spec.inverse_power_sums(orders, tol)):
        assert abs(got - math.fsum(vals**-k)) <= tol


def test_batched_sums_name_a_divergent_order():
    with pytest.raises(DivergentSum, match="order-1 "):
        rn.PowerLaw(1.0, 1.0).inverse_power_sums((3, 1, 2))
    with pytest.raises(DivergentSum, match="order-2 "):
        rn.PowerLaw(1.0, 0.5).inverse_power_sums((4, 3, 2))


def test_min_value():
    assert rn.PowerLaw(1.0, 1.0).min_value() == 1.0
    assert rn.PowerLaw(0.5, 2.0).min_value() == 0.5
    assert rn.ExplicitWithTail([5.0, 3.0], 1.0, 1.0).min_value() == 3.0
    # a huge head never hides the small start of the tail
    assert rn.ExplicitWithTail([100.0], 1.0, 1.0).min_value() == 2.0


def test_class_membership():
    harmonic = rn.PowerLaw(1.0, 1.0)
    assert not harmonic.converges(1)
    assert harmonic.converges(2)
    assert rn.PowerLaw(1.0, 2.0 / 3.0).converges(2)
    assert rn.PowerLaw(1.0, 3.0).converges(1)


def test_class_nesting_random():
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        spec = rn.PowerLaw(rng.uniform(0.2, 5.0), rng.uniform(0.2, 3.0))
        for k in range(1, 6):
            if spec.converges(k):
                assert spec.converges(k + 1)


def test_tail_bound_self_consistency():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(0.6, 2.5)
        c = rng.uniform(0.3, 4.0)
        spec = rn.PowerLaw(c, p)
        k = int(rng.integers(2, 5))
        if not spec.converges(k):
            continue
        tol = 10.0 ** rng.uniform(-10, -6)
        a = spec.inverse_power_sum(k, tol)
        b = spec.inverse_power_sum(k, tol / 10.0)
        assert abs(a - b) <= tol


def test_scaling_relation():
    rng = np.random.default_rng(99)
    for _ in range(10):
        p = rng.uniform(0.6, 2.0)
        c = rng.uniform(0.5, 3.0)
        k = int(rng.integers(2, 5))
        tol = 1e-10
        scaled = rn.PowerLaw(c, p).inverse_power_sum(k, tol)
        unit = rn.PowerLaw(1.0, p).inverse_power_sum(k, tol)
        assert abs(scaled - c ** (-k) * unit) <= 2 * tol


def test_long_head_sum():
    # the truncation machinery must start beyond any head length
    head = [1.0] * 100
    spec = rn.ExplicitWithTail(head, 1.0, 1.0)
    got = spec.inverse_power_sum(2, 1e-11)
    tail = rn.PowerLaw(1.0, 1.0).inverse_power_sum(2, 1e-11) - sum(
        1.0 / j**2 for j in range(1, 101)
    )
    assert abs(got - (100.0 + tail)) < 1e-9


def test_explicit_tail_sum_matches_composition():
    # replace the first two elements of the harmonic spectrum and
    # account for the difference by hand
    spec = rn.ExplicitWithTail([10.0, 20.0], 1.0, 1.0)
    base = rn.PowerLaw(1.0, 1.0)
    got = spec.inverse_power_sum(2, 1e-11)
    expected = base.inverse_power_sum(2, 1e-11) - 1.0 - 0.25 + 10.0**-2 + 20.0**-2
    assert abs(got - expected) <= 5e-11


def test_serialization_round_trip():
    for spec, family in (
        (rn.PowerLaw(2.5, 0.75), "power_law"),
        (rn.ExplicitWithTail([1.0, 4.0], 2.0, 1.5), "explicit_tail"),
    ):
        d = rn.spectrum_to_dict(spec)
        assert d["family"] == family
        back = rn.spectrum_from_dict(json.loads(json.dumps(d)))  # must be JSON-ready
        assert back == spec


def test_one_spectrum_type():
    # both families build the same type: an empty head is a power law,
    # equal to it, hashed like it and written as one
    bare = rn.ExplicitWithTail((), 2.5, 0.75)
    assert type(bare) is type(rn.PowerLaw(2.5, 0.75)) is rn.Spectrum
    assert bare == rn.PowerLaw(2.5, 0.75) == rn.Spectrum((), 2.5, 0.75)
    assert hash(bare) == hash(rn.PowerLaw(2.5, 0.75))
    assert rn.spectrum_to_dict(bare) == {"family": "power_law", "c": 2.5, "p": 0.75}
    assert rn.spectrum_from_dict({"family": "explicit_tail", "head": [], "tail_c": 2.5,
                                  "tail_p": 0.75}) == bare
    # values are stored as floats, whatever numbers they came as
    assert rn.PowerLaw(2, 1) == rn.PowerLaw(2.0, 1.0)
    assert rn.ExplicitWithTail([1, 4], 2, 1).head_values == (1.0, 4.0)


def test_deserialization_errors():
    with pytest.raises(ValueError):
        rn.spectrum_from_dict({"family": "unknown"})
    with pytest.raises(ValueError):
        rn.spectrum_from_dict({"family": "power_law", "c": 1.0})
    with pytest.raises(ValueError):
        rn.spectrum_from_dict(["not", "a", "dict"])
    # a value of the wrong type is named, not a TypeError
    for d, message in (
        ({"family": "power_law", "c": None, "p": 1}, "power_law field 'c' must be a number"),
        ({"family": "power_law", "c": 1.0, "p": [1]}, "power_law field 'p' must be a number"),
        ({"family": "explicit_tail", "head": 5, "tail_c": 1, "tail_p": 1},
         "explicit_tail field 'head' must be a list"),
        ({"family": "explicit_tail", "head": [1.0, None], "tail_c": 1, "tail_p": 1},
         "explicit_tail field 'head' must be a number"),
        ({"family": "explicit_tail", "head": [1.0], "tail_c": "x", "tail_p": 1},
         "explicit_tail field 'tail_c' must be a number"),
        ({"family": ["power_law"]}, "unknown spectrum family"),
    ):
        with pytest.raises(ValueError, match=message):
            rn.spectrum_from_dict(d)
