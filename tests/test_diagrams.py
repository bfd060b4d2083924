"""Exact pairing combinatorics: moments, the shift identity, series."""

import cmath
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import renorm as rn
from renorm import characteristic as ch
from renorm import diagrams as dg
from renorm import tables
from renorm.cli import main
from renorm.spectrum import _power


def _zpoly(moment):
    """A moment as a polynomial in the loop symbols and the shift symbol
    zeta: a dict {(zeta exponent, loop vector): Fraction}."""
    return {(0, loops): F(c, 2**moment.k) for loops, c in moment.terms.items()}


def _zadd(*polys):
    out = {}
    for poly in polys:
        for key, c in poly.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _zmul(p, q):
    """Product of two zeta polynomials; a constant factor is {(0, ()): c}."""
    return _zadd(*(
        {(z1 + z2, tuple(a + b for a, b in itertools.zip_longest(l1, l2, fillvalue=0))): c1 * c2}
        for (z1, l1), c1 in p.items() for (z2, l2), c2 in q.items()
    ))


def _zevaluate(poly, loop_values, zeta=0):
    """Exact value at numeric loop values and shift; an INFINITE loop
    value a monomial touches raises InfiniteCoefficient."""
    total = F(0)
    for (zexp, loops), c in poly.items():
        term = c * F(zeta) ** zexp
        for m, e in enumerate(loops, start=1):
            if e and loop_values[m - 1] is dg.INFINITE:
                raise dg.InfiniteCoefficient(f"monomial with b{m}^{e}")
            term *= F(loop_values[m - 1]) ** e if e else 1
        total += term
    return total


def _shifted(moments, n):
    """Moment of (source - zeta)^n from the moments[j] of source^j, j <= n."""
    return _zadd(*(
        _zmul(_zpoly(moments[j]), {(n - j, ()): F((-1) ** (n - j) * math.comb(n, j))})
        for j in range(n + 1)
    ))


def _shifted_moment(op, n):
    """Moment of (source - zeta)^n, with the full moments (op "H") or the
    tadpole-free ones ("H1")."""
    moments = [dg.wick_moment(j) for j in range(n + 1)]
    if op == "H1":
        moments = [m.drop_tadpoles() for m in moments]
    return _shifted(moments, n)


def test_moment_zero_is_one():
    assert dg.wick_moment(0) == dg.MomentPolynomial(0, {(): 1})


def test_low_order_moments_exact():
    # matching counts; the coefficients are these over 2**k
    assert dg.wick_moment(1) == dg.MomentPolynomial(1, {(1,): 1})
    assert dg.wick_moment(2) == dg.MomentPolynomial(2, {(2,): 1, (0, 1): 2})
    assert dg.wick_moment(3) == dg.MomentPolynomial(3, {(3,): 1, (1, 1): 6, (0, 0, 1): 8})


def test_pairing_enumeration_counts():
    for k in range(7):
        count = sum(1 for _ in dg.all_pairings(range(2 * k)))
        assert count == math.prod(range(1, 2 * k, 2))


def test_bruteforce_matches_cycle_index():
    for k in range(9):
        assert dg.wick_moment_by_pairings(k) == dg.wick_moment(k)


def test_bruteforce_k2_split():
    # 3 pairings: one gives two single-line loops, two give a 2-loop
    assert dg.wick_moment_by_pairings(2).terms == {(2,): 1, (0, 1): 2}


def test_tadpole_free_examples():
    assert dg.wick_moment(1).drop_tadpoles() == dg.MomentPolynomial(1, {})
    assert dg.wick_moment(2).drop_tadpoles() == dg.MomentPolynomial(2, {(0, 1): 2})
    assert dg.wick_moment(3).drop_tadpoles() == dg.MomentPolynomial(3, {(0, 0, 1): 8})


def test_tadpole_removal_idempotent():
    for k in range(8):
        once = dg.wick_moment(k).drop_tadpoles()
        assert once.drop_tadpoles() == once


def test_moment_positivity_and_grading():
    for k in range(21):
        poly = dg.wick_moment(k)
        for loops, count in poly.terms.items():
            assert type(count) is int and count > 0
            assert not loops or loops[-1] > 0  # trailing zeros trimmed
            weight = sum(m * e for m, e in enumerate(loops, start=1))
            assert weight == k


def test_shifted_moment_examples():
    assert _shifted_moment("H", 0) == {(0, ()): 1}
    assert _shifted_moment("H", 1) == {(0, (1,)): F(1, 2), (1, ()): -1}
    assert _shifted_moment("H1", 2) == {(0, (0, 1)): F(1, 2), (2, ()): 1}


def test_shifted_moment_grading():
    # shift degree plus loop weight equals the expanded power
    for op in ("H", "H1"):
        for n in range(9):
            for zexp, loops in _shifted_moment(op, n):
                weight = sum(m * e for m, e in enumerate(loops, start=1))
                assert zexp + weight == n


def test_renorm_identity_small_orders():
    assert dg.renorm_identity_verdicts([dg.wick_moment(k) for k in range(9)]) == [True] * 9


def test_renorm_identity_hand_expansion_n2():
    # lhs: 1/4 b1^2 + 1/2 b2 - b1 zeta + zeta^2
    assert _shifted_moment("H", 2) == {
        (0, (2,)): F(1, 4), (0, (0, 1)): F(1, 2), (1, (1,)): -1, (2, ()): 1
    }


def _expanded_identity(n, moments):
    """The shift identity by expanding both sides in zeta: the full
    moment of (source - zeta)^n against the tadpole-free moment of
    (source + xi - zeta)^n with xi = b1/2, as exact polynomials."""
    xi_minus_zeta = {(0, (1,)): F(1, 2), (1, ()): F(-1)}
    powers = [{(0, ()): F(1)}]
    for _ in range(n):
        powers.append(_zmul(powers[-1], xi_minus_zeta))
    rhs = _zadd(*(
        _zmul(_zpoly(moments[i].drop_tadpoles()), _zmul({(0, ()): math.comb(n, i)}, powers[n - i]))
        for i in range(n + 1)
    ))
    return _shifted(moments, n) == rhs


MOMENTS = [dg.wick_moment(k) for k in range(13)]


def test_renorm_identity_matches_expansion_on_true_moments():
    assert dg.renorm_identity_verdicts(MOMENTS) == [True] * 13
    for n in range(13):
        assert _expanded_identity(n, MOMENTS) is True


def _corrupted(k, kind, tadpole, rng):
    """MOMENTS with moment k changed in one tadpole (b1-carrying) or
    tadpole-free monomial: one count changed, one monomial added or one
    dropped."""
    terms = dict(MOMENTS[k].terms)
    if kind == "add":
        key = next(iter(terms))
        while key in terms:
            loops = [rng.randint(1, 3) if tadpole else 0]
            loops += [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
            while loops and loops[-1] == 0:
                loops.pop()
            key = tuple(loops)
        terms[key] = rng.randint(1, 9)
    else:
        key = rng.choice(sorted(loops for loops in terms if bool(loops and loops[0]) == tadpole))
        if kind == "drop":
            del terms[key]
        else:
            terms[key] += rng.choice([-1, 1]) * rng.randint(1, 64)
    out = list(MOMENTS)
    out[k] = dg.MomentPolynomial(k, terms)
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
                assert _expanded_identity(n, moments) is (n < first), (k, kind, tadpole, n)
            verdicts = dg.renorm_identity_verdicts(moments)
            assert verdicts == [n < first for n in range(13)], (k, kind, tadpole)
            cases += 1
    assert cases >= 60


def test_renorm_identity_verdicts_check_each_order_once():
    moments = [dg.wick_moment(k) for k in range(21)]
    assert dg.renorm_identity_verdicts(moments) == [True] * 21
    assert dg.renorm_identity_verdicts([]) == []
    with pytest.raises(ValueError):
        dg.renorm_identity_verdicts(moments + [dg.wick_moment(21)])


def test_cycle_index_terms_are_pinned():
    # every loop type and matching count of moments 0..40, as a digest
    digest = hashlib.sha256()
    for k in range(41):
        digest.update(repr(sorted(dg.wick_moment(k).terms.items())).encode())
    assert digest.hexdigest() == "114d1a68acefe5c10f8149adf7942f5aa7b7cedd98f2cae3737cd6a01ffb4000"


def test_single_mode_moment_values():
    # all loop values equal to 1 collapses moment k to (2k-1)!! matchings
    for k in range(41):
        assert sum(dg.wick_moment(k).terms.values()) == math.prod(range(1, 2 * k, 2))


def _fraction_series(kind, order, loop_values, shift_value=0.0):
    """Oracle for :func:`dg.series_coefficients`: the same recursion run
    in ``Fraction``s and converted at the end."""
    renorm = kind.endswith("_renorm")
    stride = 2 if kind.startswith("z") else 1
    needed = stride * order
    if renorm:
        shift = F(shift_value)
        b = [F(0)] + [F(v) for v in loop_values[1:needed]]
    elif needed and loop_values[0] is dg.INFINITE:
        raise dg.InfiniteCoefficient("b1 is divergent")
    else:
        b = [F(v) for v in loop_values[:needed]]
    a = [F(1)]
    for n in range(1, needed + 1):
        a.append(sum(b[m - 1] * a[n - m] for m in range(1, n + 1)) / (2 * n))
    if renorm:
        exp_shift = [F(1)]
        for i in range(1, needed + 1):
            exp_shift.append(exp_shift[-1] * shift / i)
        a = [sum(a[i] * exp_shift[n - i] for i in range(n + 1)) for n in range(needed + 1)]
    return [
        float(a[stride * j] * (math.factorial(stride * j) // math.factorial(j)))
        for j in range(order + 1)
    ]


def _assert_series_match_oracle(kind, order, loop_values, shift=0.0):
    try:
        want = _fraction_series(kind, order, loop_values, shift)
    except (dg.InfiniteCoefficient, OverflowError) as exc:
        with pytest.raises(type(exc)):
            dg.series_coefficients(kind, order, loop_values, shift)
        return
    assert dg.series_coefficients(kind, order, loop_values, shift) == want


# the four spectrum families of the benchmark's exact series (one draw of
# their heads), and scales far from 1 on either side
@pytest.mark.parametrize("spec, a, theta", [
    (rn.PowerLaw(1.0, 1.0), 1.0, -0.497),
    (rn.ExplicitWithTail([2.437485, 1.376893], 4.0, 1.0), 2.0, 0.101),
    (rn.PowerLaw(4.0, 2.0), 2.0, -0.116),
    (rn.ExplicitWithTail([2.296581, 2.154083, 0.673756], 1.0, 2.0), 1.0, 0.877),
    (rn.PowerLaw(1e3, 2.0), 1.0, 0.3),
    (rn.PowerLaw(1e-2, 2.0), 1.0, -0.3),
], ids=["harmonic", "harmonic_head", "square", "square_head", "c=1e3", "c=1e-2"])
def test_series_match_fraction_recursion_at_order_30(spec, a, theta):
    # float for float, on the loop values and shift the diagrams command uses
    shift = (rn.constant_part(spec, rn.SharpCutoff(a)) - theta) / 2.0
    loop_values = _loop_values(spec, 60)
    for kind in dg.SERIES_KINDS:
        _assert_series_match_oracle(kind, 30, loop_values, shift)


def test_series_match_fraction_recursion_on_rationals_ints_and_subnormals():
    rng = random.Random(18)
    pools = [
        [F(1, 3), F(-2, 7), F(5, 11), F(1, 1000003), F(-7, 3)],
        [0, 1, -1, 2, 3, -5, 7],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320],
        [F(1, 3), 2, 1e-310, -0.75, 5e-324, 1e3],
    ]
    for pool in pools:
        for _ in range(20):
            kind = rng.choice(dg.SERIES_KINDS)
            order = rng.randint(0, 8)
            loops = [rng.choice(pool) for _ in range(2 * order + 1)]
            _assert_series_match_oracle(kind, order, loops, rng.choice(pool))


def test_renormalized_series_match_the_binomial_shift_at_extreme_shifts():
    # the shift enters as b1 = 2 shift; _fraction_series shifts the
    # tadpole-free series by the binomial sum, which never doubles it
    shifts = [0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, F(1, 3), 1, -2, 3]
    loops = [-0.5, F(2, 7), 1e-3, 3, 0.125]
    for b1, shift, kind, order in itertools.product(
        (0.75, dg.INFINITE), shifts, ("phi_renorm", "z_renorm"), range(4)
    ):
        _assert_series_match_oracle(kind, order, [b1] + loops, shift)
    assert dg.series_coefficients("phi_renorm", 1, [dg.INFINITE], 1e308) == [1.0, 1e308]


def test_runtime_imports_no_fractions():
    # the exact track runs in integers; Fraction stays a test oracle
    code = "import sys, renorm.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(rn.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


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
                val = _zevaluate(_shifted_moment("H1", n), loops, zeta=-F(shift))
            else:
                val = _zevaluate(_zpoly(dg.wick_moment(n)), loops)
            out.append(float(val / math.factorial(j)))
        return out

    try:
        want = definition()
    except dg.InfiniteCoefficient:
        with pytest.raises(dg.InfiniteCoefficient):
            dg.series_coefficients(kind, order, loops, shift)
        with pytest.raises(dg.InfiniteCoefficient):
            _fraction_series(kind, order, loops, shift)
        return
    assert dg.series_coefficients(kind, order, loops, shift) == want
    assert _fraction_series(kind, order, loops, shift) == want


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


def test_polynomial_evaluate_exact():
    val = _zevaluate(_zpoly(dg.wick_moment(2)), [F(1, 3), F(2, 7)])
    assert val == F(1, 4) * F(1, 9) + F(1, 2) * F(2, 7)
    assert isinstance(val, F)


def test_moment_json_matches_documented_shape(tmp_path, moment_json_obj):
    obj = moment_json_obj(dg.wick_moment(1))
    assert obj == [{"exponents": {"b1": 1}, "num": "1", "den": "2"}]
    tables.write_moments_json(tmp_path / "moments.json", [dg.wick_moment(1)])
    assert tables.read_json(tmp_path / "moments.json") == [
        {"k": 1, "moment": obj, "tadpole_free": []}
    ]


def test_moments_json_is_the_indented_dump_at_every_order(tmp_path, moment_json_obj):
    # the writer against json.dumps(indent=2, sort_keys=True) of the
    # oracle objects for moments 0..n, n = 0..30; from n = 10 the
    # exponent keys sort as strings, b1, b10, ..., b2.  json.dumps lays
    # a list out one item per line, so the dump for moments 0..n is the
    # dumps of its entries spliced; the splice is checked against
    # json.dumps of the whole list up to order 12, which spares the
    # pure-Python encoder the 30 cumulative dumps
    moments = [dg.wick_moment(k) for k in range(31)]
    objs = [
        {"k": m.k, "moment": moment_json_obj(m),
         "tadpole_free": moment_json_obj(m.drop_tadpoles())}
        for m in moments
    ]
    entries = [json.dumps([obj], indent=2, sort_keys=True)[1:-2] for obj in objs]
    path = tmp_path / "moments.json"
    for n in range(31):
        want = "[" + ",".join(entries[: n + 1]) + "\n]\n"
        if n <= 12:
            assert want == json.dumps(objs[: n + 1], indent=2, sort_keys=True) + "\n"
        tables.write_moments_json(path, moments[: n + 1])
        assert path.read_bytes() == want.encode(), f"order {n}"
    assert '"b10": 1,\n          "b2": 1' in want
    tables.write_moments_json(path, [])
    assert path.read_bytes() == b"[]\n"


def test_moments_json_entries_pin_reduced_fractions(tmp_path):
    # moments.json for k = 0 and k = 3, both columns, written literally
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out": str(tmp_path / "out"), "order": 3}), encoding="utf-8")
    result = CliRunner().invoke(main, ["--config", str(path), "diagrams"])
    assert result.exit_code == 0, result.output
    moments = json.loads((tmp_path / "out" / "moments.json").read_text(encoding="utf-8"))
    one = [{"exponents": {}, "num": "1", "den": "1"}]
    assert moments[0] == {"k": 0, "moment": one, "tadpole_free": one}
    b3 = {"exponents": {"b3": 1}, "num": "1", "den": "1"}
    assert moments[3] == {
        "k": 3,
        "moment": [
            b3,
            {"exponents": {"b1": 1, "b2": 1}, "num": "3", "den": "4"},
            {"exponents": {"b1": 3}, "num": "1", "den": "8"},
        ],
        "tadpole_free": [b3],
    }


def test_public_names_resolve():
    # a name left in __all__ after its definition is gone fails here
    for module in (rn, dg):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_order_limits():
    with pytest.raises(ValueError):
        dg.wick_moment(61)
    with pytest.raises(ValueError):
        dg.wick_moment_by_pairings(9)
    with pytest.raises(ValueError):
        dg.renorm_identity_verdicts([dg.wick_moment(0)] * 22)
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


@pytest.mark.parametrize("reg", [rn.SharpCutoff(1.0), rn.Exponential()], ids=["sharp", "exp"])
@pytest.mark.parametrize("spec", [rn.PowerLaw(1.0, 1.0), rn.ExplicitWithTail([0.7, 2.5], 1.3, 1.0)],
                         ids=["harmonic", "head"])
def test_series_sum_to_the_deformed_product_at_finite_cutoff(spec, reg):
    # at a finite cutoff every loop value b_m(L) is finite: the plain
    # series is the deformed product, and the renormalized series with
    # shift (b1(L) - singular part - theta) / 2 is the flow; only b1(L)
    # diverges as L grows, and the shift absorbs it
    for cutoff in (1e3, 1e4, 1e5):
        d = rn.DeformedSpectrum(spec, reg, cutoff)
        loop_values = d._deformed_sum(*_power(range(1, 41))).tolist()
        plain = dg.series_coefficients("phi", 40, loop_values)
        for theta in (0.0, 1.0):
            shift = (loop_values[0] - rn.singular_part(d) - theta) / 2.0
            renormalized = dg.series_coefficients("phi_renorm", 40, loop_values, shift)
            for x in (0.05, 0.2, 0.4):
                s = x * spec.min_value()
                for coeffs, log in ((plain, ch.deformed_log(d, s)),
                                    (renormalized, ch.flow_log(d, s, theta))):
                    want = cmath.exp(log)
                    assert abs(_series_value(coeffs, s) - want) <= 1e-14 * abs(want)
