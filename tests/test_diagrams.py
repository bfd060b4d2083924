"""Exact pairing combinatorics: moments, the shift identity, series."""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renorm as rn
from renorm import characteristic as ch
from renorm import diagrams as dg


def test_moment_zero_is_one():
    assert dg.wick_moment(0) == dg.MomentPolynomial.one()


def test_low_order_moments_exact():
    assert dg.wick_moment(1) == dg.MomentPolynomial({(0, (1,)): F(1, 2)})
    assert dg.wick_moment(2) == dg.MomentPolynomial(
        {(0, (2,)): F(1, 4), (0, (0, 1)): F(1, 2)}
    )
    assert dg.wick_moment(3) == dg.MomentPolynomial(
        {(0, (3,)): F(1, 8), (0, (1, 1)): F(3, 4), (0, (0, 0, 1)): F(1)}
    )


def test_pairing_enumeration_counts():
    for k in range(7):
        count = sum(1 for _ in dg.all_pairings(range(2 * k)))
        assert count == math.prod(range(1, 2 * k, 2))


def test_bruteforce_matches_cycle_index():
    for k in range(9):
        assert dg.wick_moment_by_pairings(k) == dg.wick_moment(k)


def test_bruteforce_k2_split():
    # 3 pairings: one gives two single-line loops, two give a 2-loop
    poly = dg.wick_moment_by_pairings(2)
    assert poly.terms[(0, (2,))] == F(1, 4)
    assert poly.terms[(0, (0, 1))] == F(1, 2)


def test_tadpole_free_examples():
    assert dg.tadpole_free_moment(1) == dg.MomentPolynomial.zero()
    assert dg.tadpole_free_moment(2) == dg.MomentPolynomial({(0, (0, 1)): F(1, 2)})
    assert dg.tadpole_free_moment(3) == dg.MomentPolynomial({(0, (0, 0, 1)): F(1)})


def test_tadpole_removal_idempotent():
    for k in range(8):
        once = dg.tadpole_free_moment(k)
        assert once.drop_tadpoles() == once


def test_moment_positivity_and_grading():
    for k in range(21):
        poly = dg.wick_moment(k)
        for (zexp, loops), coef in poly.terms.items():
            assert zexp == 0
            assert coef > 0
            weight = sum(m * e for m, e in enumerate(loops, start=1))
            assert weight == k


def test_shifted_moment_examples():
    assert dg.shifted_moment("H", 0) == dg.MomentPolynomial.one()
    assert dg.shifted_moment("H", 1) == dg.MomentPolynomial(
        {(0, (1,)): F(1, 2), (1, ()): F(-1)}
    )
    assert dg.shifted_moment("H1", 2) == dg.MomentPolynomial(
        {(0, (0, 1)): F(1, 2), (2, ()): F(1)}
    )


def test_shifted_moment_grading():
    # shift degree plus loop weight equals the expanded power
    for op in ("H", "H1"):
        for n in range(9):
            poly = dg.shifted_moment(op, n)
            for (zexp, loops), _ in poly.terms.items():
                weight = sum(m * e for m, e in enumerate(loops, start=1))
                assert zexp + weight == n


def test_shifted_moment_rejects_unknown_op():
    with pytest.raises(ValueError):
        dg.shifted_moment("H2", 3)


def test_renorm_identity_small_orders():
    for n in range(9):
        assert dg.renorm_identity_holds(n)


def test_renorm_identity_hand_expansion_n2():
    # lhs: 1/4 b1^2 + 1/2 b2 - b1 zeta + zeta^2
    lhs = dg.shifted_moment("H", 2)
    assert lhs == dg.MomentPolynomial(
        {(0, (2,)): F(1, 4), (0, (0, 1)): F(1, 2), (1, (1,)): F(-1), (2, ()): F(1)}
    )


def _expanded_identity(n, moments):
    """The shift identity by expanding both sides in zeta: the full
    moment of (source - zeta)^n against the tadpole-free moment of
    (source + xi - zeta)^n with xi = b1/2, as exact polynomials."""
    xi_minus_zeta = dg.MomentPolynomial.loop(1) * F(1, 2) - dg.MomentPolynomial.shift()
    powers = [dg.MomentPolynomial.one()]
    for _ in range(n):
        powers.append(powers[-1] * xi_minus_zeta)
    rhs = dg.MomentPolynomial.zero()
    for i in range(n + 1):
        rhs = rhs + moments[i].drop_tadpoles() * math.comb(n, i) * powers[n - i]
    return dg._shifted(moments, n) == rhs


MOMENTS = [dg.wick_moment(k) for k in range(13)]


def test_renorm_identity_matches_expansion_on_true_moments():
    for n in range(13):
        assert dg.renorm_identity_holds(n, MOMENTS) is True
        assert _expanded_identity(n, MOMENTS) is True


def _corrupted(k, kind, tadpole, rng):
    """MOMENTS with moment k changed in one tadpole (b1-carrying) or
    tadpole-free monomial: one coefficient changed, one monomial added
    or one dropped."""
    terms = dict(MOMENTS[k].terms)
    if kind == "add":
        key = next(iter(terms))
        while key in terms:
            loops = [rng.randint(1, 3) if tadpole else 0]
            loops += [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
            key = next(iter(dg.MomentPolynomial({(0, tuple(loops)): 1}).terms))  # trimmed
        terms[key] = F(rng.randint(1, 9), rng.randint(1, 9))
    else:
        key = rng.choice(sorted(
            (z, loops) for z, loops in terms if bool(loops and loops[0]) == tadpole
        ))
        if kind == "drop":
            del terms[key]
        else:
            terms[key] += rng.choice([-1, 1]) * F(1, rng.randint(1, 64))
    out = list(MOMENTS)
    out[k] = dg.MomentPolynomial(terms)
    return out


def test_renorm_identity_matches_expansion_on_corrupted_moments():
    # a changed tadpole monomial of moment k breaks the identity from
    # order k on; a changed tadpole-free one enters the b1 part of
    # moment k+1's side only, so it breaks it from order k+1 on
    rng = random.Random(15)
    cases = 0
    for k, kind, tadpole in itertools.product(
        range(1, 11), ("change", "add", "drop"), (True, False)
    ):
        if k == 1 and not tadpole and kind != "add":
            continue  # moment 1 is b1/2: no tadpole-free monomial to touch
        for _ in range(2 if k <= 2 else 1):
            moments = _corrupted(k, kind, tadpole, rng)
            first = k if tadpole else k + 1
            for n in range(12):
                want = n < first
                assert dg.renorm_identity_holds(n, moments) is want, (k, kind, tadpole, n)
                assert _expanded_identity(n, moments) is want, (k, kind, tadpole, n)
            cases += 1
    assert cases >= 60


def test_renorm_identity_rejects_a_zeta_moment():
    moments = list(MOMENTS)
    moments[3] = moments[3] + dg.MomentPolynomial.shift()
    with pytest.raises(ValueError, match="zeta"):
        dg.renorm_identity_holds(3, moments)


def test_single_mode_moment_values():
    # all loop values equal to 1 collapses a moment to (2k-1)!!/2^k
    for k in range(41):
        ones = [F(1)] * max(1, k)
        got = dg.wick_moment(k).evaluate(ones)
        assert got == F(math.prod(range(1, 2 * k, 2)), 2**k)


def test_series_single_mode_coefficient():
    coeffs = dg.series_coefficients("phi", 2, [1.0, 1.0])
    assert coeffs[0] == 1.0
    assert coeffs[2] == pytest.approx(3.0 / 8.0, abs=0)


def test_series_z_order_zero():
    assert dg.series_coefficients("z", 0, [])[0] == 1.0


def test_series_infinite_loop_value_rules():
    vals = [dg.INFINITE, 0.5, 0.1, 0.05]
    with pytest.raises(dg.InfiniteCoefficient):
        dg.series_coefficients("phi", 2, vals)
    with pytest.raises(dg.InfiniteCoefficient):
        dg.series_coefficients("z", 2, vals)
    # renormalized kinds never touch the first loop value
    out = dg.series_coefficients("phi_renorm", 3, vals[:3], shift_value=0.25)
    assert all(math.isfinite(v) for v in out)
    out = dg.series_coefficients("z_renorm", 2, vals, shift_value=0.25)
    assert all(math.isfinite(v) for v in out)


def test_series_renorm_first_coefficient_is_shift():
    shift = 0.37
    out = dg.series_coefficients("phi_renorm", 1, [dg.INFINITE], shift_value=shift)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(shift, abs=0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(dg.SERIES_KINDS),
    order=st.integers(0, 8),
    infinite_b1=st.booleans(),
    shift=st.floats(-4.0, 4.0),
    data=st.data(),
)
def test_series_matches_polynomial_definition(kind, order, infinite_b1, shift, data):
    # the recursion must reproduce, float for float, the coefficients
    # obtained by evaluating the moment polynomials themselves
    stride = 2 if kind.startswith("z") else 1
    count = data.draw(st.integers(stride * order, stride * order + 2))
    loops = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=count, max_size=count))
    if infinite_b1 and loops:
        loops[0] = dg.INFINITE

    def definition():
        out = []
        for j in range(order + 1):
            n = stride * j
            if kind.endswith("_renorm"):
                val = dg.shifted_moment("H1", n).evaluate(loops, shift=-F(shift))
            else:
                val = dg.wick_moment(n).evaluate(loops)
            out.append(float(val / math.factorial(j)))
        return out

    try:
        want = definition()
    except dg.InfiniteCoefficient:
        with pytest.raises(dg.InfiniteCoefficient):
            dg.series_coefficients(kind, order, loops, shift)
        return
    assert dg.series_coefficients(kind, order, loops, shift) == want


def test_series_validation():
    with pytest.raises(ValueError):
        dg.series_coefficients("mystery", 2, [1.0, 1.0])
    with pytest.raises(ValueError):
        dg.series_coefficients("phi", 3, [1.0])  # too few loop values
    with pytest.raises(ValueError):
        dg.series_coefficients("phi", 1, [1.0, dg.INFINITE])  # only b1 may diverge


def test_partial_sum_scan_zero():
    rows = dg.partial_sum_scan(0.0, 5)
    for _, psum, ref, err in rows:
        assert psum == 1.0
        assert ref == 1.0
        assert err == 0.0


def test_partial_sum_scan_converges_inside_disc():
    rows = dg.partial_sum_scan(0.5, 300)
    orders_ok = [k for k, _, _, err in rows if err < 1e-8]
    assert orders_ok and orders_ok[0] <= 60
    assert rows[-1][3] < 1e-8


def test_partial_sum_scan_diverges_outside_disc():
    rows = dg.partial_sum_scan(2.0, 300)
    assert any(abs(psum) > 1e6 for _, psum, _, _ in rows[:100])


def test_polynomial_algebra():
    b1 = dg.MomentPolynomial.loop(1)
    b2 = dg.MomentPolynomial.loop(2)
    z = dg.MomentPolynomial.shift()
    poly = (b1 - z) ** 2
    assert poly == b1 * b1 - 2 * (b1 * z) + z * z
    assert (b2 * 0) == dg.MomentPolynomial.zero()
    assert b1 * F(1, 2) + b1 * F(1, 2) == b1


def test_polynomial_evaluate_exact():
    poly = dg.wick_moment(2)
    val = poly.evaluate([F(1, 3), F(2, 7)])
    assert val == F(1, 4) * F(1, 9) + F(1, 2) * F(2, 7)
    assert isinstance(val, F)


def test_polynomial_json_round_trip():
    for poly in (dg.wick_moment(4), dg.shifted_moment("H1", 3)):
        obj = poly.to_json_obj()
        json.dumps(obj)
        assert dg.MomentPolynomial.from_json_obj(obj) == poly


def test_moment_json_matches_documented_shape():
    obj = dg.wick_moment(1).to_json_obj()
    assert obj == [{"exponents": {"b1": 1}, "num": "1", "den": "2"}]


def test_order_limits():
    with pytest.raises(ValueError):
        dg.wick_moment(61)
    with pytest.raises(ValueError):
        dg.wick_moment_by_pairings(9)
    with pytest.raises(ValueError):
        dg.renorm_identity_holds(21)
    with pytest.raises(ValueError):
        dg.partial_sum_scan(0.5, 301)


def _series_value(coeffs, s):
    """sum_k c_k (i s)**k, by Horner's rule."""
    total = 0j
    for c in reversed(coeffs):
        total = total * 1j * s + c
    return total


def _loop_values(spec, count):
    return [spec.inverse_power_sum(m) if spec.converges(m) else dg.INFINITE
            for m in range(1, count + 1)]


def _disc_points(mu):
    """s = +-0.1 mu, +-0.3 mu and 0.5 mu on the real axis, then 13 points
    on each circle |s| = 0.1 mu, 0.3 mu and 0.5 mu, each with the bound
    an order-30 sum meets there."""
    real = [(0.1, 1e-14), (0.3, 1e-14), (-0.3, 1e-14), (0.5, 1e-9)]
    circles = [(r * cmath.exp(2j * math.pi * k / 13), bound)
               for r, bound in ((0.1, 1e-14), (0.3, 1e-14), (0.5, 1e-9)) for k in range(13)]
    return [(x * mu, bound) for x, bound in real + circles]


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_renormalized_series_sums_to_the_analytic_limit(theta):
    # the exact track's renormalized series, summed to order 30, is the
    # analytic track's renormalized limit inside the disc |s| < mu = 1,
    # on the real axis and off it; b1 diverges for the harmonic
    # spectrum, so only the shift carries it
    spec = rn.PowerLaw(1.0, 1.0)
    kap = rn.constant_part(spec, rn.SharpCutoff(1.0))
    coeffs = dg.series_coefficients(
        "phi_renorm", 30, _loop_values(spec, 30), shift_value=(kap - theta) / 2.0
    )
    for s, bound in _disc_points(spec.min_value()):
        want = cmath.exp(ch.renormalized_log(spec, kap, s, theta))
        assert abs(_series_value(coeffs, s) - want) <= bound


def test_plain_series_sums_to_the_analytic_product():
    # with summable reciprocals the plain series is the whole product,
    # which is the renormalized limit at constant part b1 and theta = 0
    spec = rn.ExplicitWithTail([0.7, 2.5], 1.0, 2.0)
    loop_values = _loop_values(spec, 30)
    coeffs = dg.series_coefficients("phi", 30, loop_values)
    for s, bound in _disc_points(spec.min_value()):
        want = cmath.exp(ch.renormalized_log(spec, loop_values[0], s))
        assert abs(_series_value(coeffs, s) - want) <= bound
