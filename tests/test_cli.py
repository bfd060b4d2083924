"""Command-line behavior: outputs, round-trips, determinism, exit codes."""

import cmath
import itertools
import json
import math
import time
import warnings
from datetime import timedelta
from pathlib import Path

import mpmath as mp
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import renorm as rn
from renorm import diagrams as dg
from renorm import partition as pt
from renorm import tables
from renorm.cli import main

RUNNER = CliRunner()
_RUN_IDS = itertools.count()


def _write_config(tmp_path: Path, overrides: dict) -> Path:
    cfg = {
        "s_grid": {"min": 0.0, "max": 2.0, "count": 3},
        "lambda_grid": {"min": 1e2, "max": 1e4, "count": 3},
        "n_grid": {"min": 5, "max": 50, "count": 2},
        "theta_grid": {"min": 0.0, "max": 1.0, "count": 2},
        "mc": {"samples": 20000, "seed": 11},
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_spectrum_report_harmonic(tmp_path):
    cfg = _write_config(tmp_path, {})
    result = RUNNER.invoke(main, ["--config", str(cfg), "spectrum"])
    assert result.exit_code == 0, result.output
    assert "B1: no" in result.output
    assert "B2: yes" in result.output
    assert "b2: 1.644934" in result.output
    assert "kappa: 0.577215" in result.output
    assert (tmp_path / "out" / "spectrum_report.csv").exists()


def test_spectrum_report_summable_spectrum(tmp_path):
    cfg = _write_config(
        tmp_path, {"spectrum": {"family": "power_law", "c": 1.0, "p": 2.0}}
    )
    result = RUNNER.invoke(main, ["--config", str(cfg), "spectrum"])
    assert result.exit_code == 0, result.output
    assert "singular_part: 0 (reciprocal sum already converges)" in result.output
    assert "B1: yes" in result.output


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json", encoding="utf-8")
    result = RUNNER.invoke(main, ["--config", str(path), "spectrum"])
    assert result.exit_code == 2
    assert "config parse error" in result.output


def test_unknown_config_key_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mystery_knob": 1}), encoding="utf-8")
    result = RUNNER.invoke(main, ["--config", str(path), "phi"])
    assert result.exit_code == 2
    assert "unknown config keys" in result.output


def test_invalid_grid_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"s_grid": {"min": 0.0, "max": 1.0, "count": 0}}))
    result = RUNNER.invoke(main, ["--config", str(path), "phi"])
    assert result.exit_code == 2
    assert "count" in result.output


def test_nonpositive_coupling_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lambda": -1.0}))
    result = RUNNER.invoke(main, ["--config", str(path), "z"])
    assert result.exit_code == 2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("phi", {"theta": NAN}),
        ("z", {"lambda": INF}),
        ("phi", {"s_grid": {"min": NAN, "max": 1.0, "count": 3}}),
        ("flow", {"s": NAN}),
        ("spectrum", {"tol": NAN}),
        ("spectrum", {"spectrum": {"family": "power_law", "c": INF, "p": 1.0}}),
        ("spectrum", {"spectrum": {"family": "explicit_tail", "head": [NAN],
                                   "tail_c": 1.0, "tail_p": 1.0}}),
        ("spectrum", {"regulator": {"kind": "sharp_cutoff", "a": INF}}),
        ("z", {"quadrature": {"abs_tol": NAN}}),
        ("z", {"quadrature": {"max_nodes": NAN}}),
        ("z", {"mc": {"samples": NAN, "seed": 11}}),
    ],
)
def test_nonfinite_config_value_exits_2(tmp_path, command, overrides):
    cfg = _write_config(tmp_path, overrides)
    result = RUNNER.invoke(main, ["--config", str(cfg), command])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"spectrum": {"family": "power_law", "c": None, "p": 1}}, "field 'c'"),
        ({"spectrum": {"family": "explicit_tail", "head": 5, "tail_c": 1.0, "tail_p": 1.0}},
         "field 'head'"),
        ({"regulator": {"kind": "sharp_cutoff", "a": None}}, "field 'a'"),
        ({"theta": None}, "theta must be a number"),
        ({"out": None}, "out must be"),
        ({"out": 5}, "out must be"),
        ({"s_grid": {"min": 0.0, "max": 2.0, "count": 2.5}}, "grid 's_grid' count"),
        ({"n_grid": {"min": 5, "max": 50, "count": True}}, "grid 'n_grid' count"),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, monkeypatch, overrides, message):
    cfg = _write_config(tmp_path, overrides)
    monkeypatch.chdir(tmp_path)  # a relative output directory would land here
    result = RUNNER.invoke(main, ["--config", str(cfg), "spectrum"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert message in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "mc, field",
    [
        ({"samples": 2000.0, "seed": 11}, "samples"),
        ({"samples": 20000, "seed": 1.5}, "seed"),
        ({"samples": 20000, "seed": True}, "seed"),
    ],
)
def test_non_integer_mc_setting_exits_2(tmp_path, mc, field):
    # refused at config load: a float sample count used to reach numpy
    # only after the z_decay and z_theta transforms, as a raw TypeError
    cfg = _write_config(tmp_path, {"mc": mc})
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"mc {field} must be an integer" in result.output
    assert not (tmp_path / "out").exists()


def test_divergent_series_request_exits_2(tmp_path):
    # a spectrum outside every convergence class cannot feed the tables
    cfg = _write_config(
        tmp_path, {"spectrum": {"family": "power_law", "c": 1.0, "p": 0.2}}
    )
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 2


def test_term_budget_exit_3(tmp_path):
    # lambda = 1e15: the kernel window of the theta row's transform
    # reaches |s| = 3.6e8, where the renormalized product needs more
    # direct terms than the summation budget allows
    cfg = _write_config(tmp_path, {"lambda": 1e15})
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 3
    assert "direct terms" in result.output


# the part of each failure's message that names the exhausted budget
_BUDGET_MESSAGE = {"flow": "still above tolerance", "z": "direct terms", "phi": "|s| = "}


@pytest.mark.parametrize(
    "command, overrides, stage",
    [
        # no quadrature meets a tolerance below its rounding floor, so
        # the first transform fails after the reference phi value
        ("flow", {"quadrature": {"abs_tol": 1e-300, "rel_tol": 1e-300}}, "z_renormalized"),
        # z_decay succeeds, then the theta row's renormalized product
        # needs too many direct terms at the edge of the kernel window
        ("z", {"lambda": 1e15}, "z_theta at theta = 0"),
        # the finite sections succeed, then the flow over the whole
        # s-grid at the first cutoff needs too many direct terms
        ("phi", {"spectrum": {"family": "power_law", "c": 1e-9, "p": 1.0},
                 "lambda_grid": {"min": 1e3, "max": 1e5, "count": 3}},
         "flow at Lambda = 1000"),
    ],
)
def test_numeric_failure_leaves_no_table(tmp_path, command, overrides, stage):
    cfg = _write_config(tmp_path, overrides)
    result = RUNNER.invoke(main, ["--config", str(cfg), command])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"Error: {command}: {stage}: " in result.output
    assert _BUDGET_MESSAGE[command] in result.output
    assert list((tmp_path / "out").glob("*")) == []


def test_values_below_abs_tol_on_the_default_grids(tmp_path):
    # beta_j = j**0.7 at lambda = 1: z_1000 and the raw product at
    # cutoff 1e3 are far below abs_tol, and at 1e4 and 1e5 the raw
    # product underflows
    cfg = _write_config(tmp_path, {
        "spectrum": {"family": "power_law", "c": 1.0, "p": 0.7},
        "lambda_grid": {"min": 1e3, "max": 1e5, "count": 3},
        "n_grid": {"min": 10, "max": 1000, "count": 3},
    })
    for command in ("flow", "z"):
        result = RUNNER.invoke(main, ["--config", str(cfg), command])
        assert result.exit_code == 0, result.output
    header, rows = tables.read_csv(tmp_path / "out" / "flow_z.csv")
    raw = [row[header.index("z_regularized")] for row in rows]
    assert abs(raw[0] - 3.72002085e-259) <= 1e-9 * raw[0]
    assert raw[1:] == [0, 0]
    assert all(v >= 0 for row in rows for v in row[3:])
    _, decay = tables.read_csv(tmp_path / "out" / "z_decay.csv")
    assert decay[-1][0] == 1000
    assert abs(decay[-1][1] - 1.69079196183e-32) <= 1e-9 * decay[-1][1]
    assert all(z_n > 0 for _, z_n, _ in decay)


@pytest.mark.parametrize("command", ["z", "flow"])
def test_small_scale_spectrum_finishes(tmp_path, command):
    # beta_j = 1e-4 j: kappa is about 1e5, but the saddle search stops
    # on heights below 30, where each bound e^g is reached or underflows,
    # so no sum runs out to |s| ~ lambda kappa
    cfg = _write_config(tmp_path, {"spectrum": {"family": "power_law", "c": 1e-4, "p": 1.0}})
    result = RUNNER.invoke(main, ["--config", str(cfg), command])
    assert result.exit_code == 0, result.output
    assert list((tmp_path / "out").glob("*.csv"))
    _check_partition_values(tmp_path / "out")


def test_thread_count_does_not_change_tables(tmp_path):
    cfg = _write_config(tmp_path, {})
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        for command in ("flow", "z"):
            result = RUNNER.invoke(
                main, ["--config", str(cfg), "--out", str(out), "--threads", threads, command]
            )
            assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]


def test_tail_sums_carry_across_subcommands(tmp_path):
    # the s-free tail sums stay cached, read-only, from one subcommand
    # to the next, and give the tables a fresh cache gives
    from renorm.spectrum import _tail_sums

    cfg = _write_config(tmp_path, {})

    def tables_of(command, out):
        result = RUNNER.invoke(main, ["--config", str(cfg), "--out", str(out), command])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = tables_of("flow", tmp_path / "first")
    tables_of("z", tmp_path / "z")
    hits = _tail_sums.cache_info().hits
    again = tables_of("flow", tmp_path / "again")
    assert _tail_sums.cache_info().hits > hits
    _tail_sums.cache_clear()
    assert first and again == first == tables_of("flow", tmp_path / "fresh")
    sums = _tail_sums((2, 3), 1.0, 40, math.inf)
    with pytest.raises(ValueError, match="read-only"):
        sums[0] = 0.0


@pytest.mark.parametrize(
    "head, command, order",
    [
        # b24 = 1e336 on the way to the order-12 series
        (1e-14, "diagrams", 12),
        (1e-300, "spectrum", None),
        (1e-300, "diagrams", 1),
        (1e-300, "z", None),
    ],
)
def test_inverse_power_sum_past_the_float_range_exits_3(tmp_path, head, command, order):
    overrides = {"spectrum": {"family": "explicit_tail", "head": [head], "tail_c": 1, "tail_p": 2}}
    if order is not None:
        overrides["order"] = order
    cfg = _write_config(tmp_path, overrides)
    result = RUNNER.invoke(main, ["--config", str(cfg), command])
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    assert "inverse-power sum exceeds the float range" in result.output
    assert "inf" not in result.output
    assert not (tmp_path / "out").exists() or list((tmp_path / "out").glob("*")) == []


def test_extreme_scales_raise_no_overflow_warning(tmp_path):
    # each overflowing product is +inf, the right limit: a saddle height
    # without a bound at tail_c = 1e300; a product row at head 1e-300,
    # whose b2 z_decay then refuses; a Monte Carlo weight e^-inf = 0
    power_law = {"family": "power_law", "c": 1e300, "p": 1.0}
    tiny_head = {"family": "explicit_tail", "head": [1e-300], "tail_c": 1, "tail_p": 2}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spectrum, code in ((power_law, 0), (tiny_head, 3)):
            cfg = _write_config(tmp_path, {"spectrum": spectrum})
            result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
            assert result.exit_code == code, result.output
        assert "inverse-power sum exceeds the float range" in result.output
        spec = rn.ExplicitWithTail([1e-300], 1, 2)
        assert pt.mc_estimate(spec, 1.0, 4, rn.McConfig()) == (0.0, 0.0)


def test_unbounded_n_grid_finishes(tmp_path):
    # finite sections up to n = 1e300 are closed-form sums, so both
    # commands end promptly with finite values; z's largest section has
    # a saddle bound that underflows, and emits 0
    cfg = _write_config(tmp_path, {"n_grid": {"min": 10, "max": 1e300, "count": 3}})
    t0 = time.perf_counter()
    result = RUNNER.invoke(main, ["--config", str(cfg), "phi"])
    assert result.exit_code == 0, result.output
    _, rows = tables.read_csv(tmp_path / "out" / "phi_scan.csv")
    assert max(r[1] for r in rows if r[0] == "finite") >= 1e299
    assert all(math.isfinite(v) for r in rows for v in r[5:])
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 0, result.output
    _, decay = tables.read_csv(tmp_path / "out" / "z_decay.csv")
    assert all(0 <= z_n <= 1 for _, z_n, _ in decay)
    assert decay[-1][0] >= 1e299 and decay[-1][1] == 0
    assert time.perf_counter() - t0 < 20.0


def test_phi_scan_structure(tmp_path):
    cfg = _write_config(tmp_path, {})
    result = RUNNER.invoke(main, ["--config", str(cfg), "phi"])
    assert result.exit_code == 0, result.output
    header, rows = tables.read_csv(tmp_path / "out" / "phi_scan.csv")
    assert header == ["variant", "n", "Lambda", "theta", "s", "re", "im", "modulus", "phase"]
    at_zero = [r for r in rows if r[4] == 0]
    assert at_zero and all(r[7] == 1 and r[8] == 0 for r in at_zero)
    variants = {r[0] for r in rows}
    assert variants == {"finite", "flow", "renormalized"}


def test_phi_scan_complex_value_is_polar_pair(tmp_path):
    # each row's value is built from its own polar pair, bit for bit
    cfg = _write_config(tmp_path, {})
    result = RUNNER.invoke(main, ["--config", str(cfg), "phi"])
    assert result.exit_code == 0, result.output
    _, rows = tables.read_csv(tmp_path / "out" / "phi_scan.csv")
    assert rows
    for row in rows:
        re, im, modulus, phase = row[5:]
        assert complex(re, im) == cmath.rect(modulus, phase)


def test_z_theta_at_large_coupling(tmp_path, mp_kernel_transform):
    # default config at lambda = 1e8: beta_j = j, kappa = gamma, so each
    # row transforms Gamma(1 - is)^(1/2) e^(-is theta/2)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lambda": 1e8, "out": str(tmp_path / "out")}), encoding="utf-8")
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 0, result.output
    _, rows = tables.read_csv(tmp_path / "out" / "z_theta.csv")
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
    for theta, z in rows:
        ref = mp_kernel_transform(1e8, lambda s: mp.loggamma(1 - 1j * s) / 2 - 0.5j * s * theta)
        assert abs(z / ref - 1.0) <= 1e-8, (theta, z, ref)


def test_z_tables(tmp_path):
    cfg = _write_config(tmp_path, {})
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 0, result.output
    _, decay = tables.read_csv(tmp_path / "out" / "z_decay.csv")
    for _, z_n, bound in decay:
        assert abs(z_n) <= bound
    header, profile = tables.read_csv(tmp_path / "out" / "z_theta.csv")
    assert header == ["theta", "z_renormalized"]
    assert len(profile) == 2
    _, mc_rows = tables.read_csv(tmp_path / "out" / "z_mc.csv")
    assert all(row[2] > 0 for row in mc_rows)


def test_flow_tables_monotone(tmp_path):
    cfg = _write_config(tmp_path, {})
    result = RUNNER.invoke(main, ["--config", str(cfg), "flow"])
    assert result.exit_code == 0, result.output
    _, phi_rows = tables.read_csv(tmp_path / "out" / "flow_phi.csv")
    dists = [row[5] for row in phi_rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    header, z_rows = tables.read_csv(tmp_path / "out" / "flow_z.csv")
    assert header == ["Lambda", "lambda", "theta", "z_flow", "z_renormalized", "abs_error", "z_regularized"]
    errs = [row[5] for row in z_rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_exponential_flow_at_default_config(tmp_path):
    # the default grids (cutoffs up to 1e5, default tol) under the
    # exponential profile, whose sums no longer grow with the cutoff
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"regulator": {"kind": "exponential"}, "out": str(tmp_path / "out")}),
        encoding="utf-8",
    )
    result = RUNNER.invoke(main, ["--config", str(path), "flow"])
    assert result.exit_code == 0, result.output
    header, z_rows = tables.read_csv(tmp_path / "out" / "flow_z.csv")
    assert header == ["Lambda", "lambda", "theta", "z_flow", "z_renormalized", "abs_error", "z_regularized"]
    assert [row[0] for row in z_rows] == [1e3, 1e4, 1e5]
    assert all(math.isfinite(v) for row in z_rows for v in row)


def test_exponential_sublinear_tail_at_default_config(tmp_path):
    # tail exponent 0.7 under the exponential profile on the default
    # grids: the singular part G(w0) L**w0 / (p c**(1/p)) with G(w) =
    # 2 Gamma(2w) and the constant zeta(0.7) let every command run
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "spectrum": {"family": "power_law", "c": 1.0, "p": 0.7},
        "regulator": {"kind": "exponential"},
        "out": str(out),
    }), encoding="utf-8")
    for command in ("spectrum", "phi", "z", "flow"):
        result = RUNNER.invoke(main, ["--config", str(path), command])
        assert result.exit_code == 0, (command, result.output)
    _, rows = tables.read_csv(out / "spectrum_report.csv")
    assert abs(dict(rows)["kappa"] - -2.7783884455536958) <= 1e-12
    header, phi_rows = tables.read_csv(out / "flow_phi.csv")
    assert [row[0] for row in phi_rows] == [1e3, 1e4, 1e5]
    dists = [row[header.index("distance_to_limit")] for row in phi_rows]
    assert all(b < a for a, b in zip(dists, dists[1:])), dists
    assert all((out / name).exists() for name in _PARTITION_COLUMNS)
    _check_partition_values(out)


def test_diagrams_builds_each_moment_once(tmp_path, monkeypatch):
    # moments.json and the identity verdicts share one build per order
    built = []
    real = dg.wick_moment
    monkeypatch.setattr(dg, "wick_moment", lambda k: built.append(k) or real(k))
    cfg = _write_config(tmp_path, {"order": 12})
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams"])
    assert result.exit_code == 0, result.output
    assert sorted(built) == list(range(13))


def test_diagrams_identity_failure_exits_1(tmp_path, monkeypatch):
    # a wrong tadpole coefficient in moment 5 breaks the identity from
    # order 5 on; the verdicts are written before the command fails
    real = dg.wick_moment

    def corrupted(k):
        poly = real(k)
        if k == 5:
            poly = dg.MomentPolynomial(5, {**poly.terms, (5,): poly.terms[(5,)] + 1})
        return poly

    monkeypatch.setattr(dg, "wick_moment", corrupted)
    cfg = _write_config(tmp_path, {"order": 12})
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams"])
    assert result.exit_code == 1, result.output
    assert "renormalization identity failed" in result.output
    _, verdicts = tables.read_csv(tmp_path / "out" / "renorm_identity.csv")
    assert [n for n, _ in verdicts] == list(range(13))
    assert all(v is (n < 5) for n, v in verdicts)


def test_diagrams_outputs(tmp_path, moment_json_obj):
    cfg = _write_config(tmp_path, {"order": 3})
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams"])
    assert result.exit_code == 0, result.output
    moments_path = tmp_path / "out" / "moments.json"
    moments = tables.read_json(moments_path)
    assert [m["k"] for m in moments] == [0, 1, 2, 3]
    assert moments[1]["moment"] == moment_json_obj(dg.wick_moment(1))
    assert moments[3]["moment"] == moment_json_obj(dg.wick_moment(3))
    tables.write_json(tmp_path / "again.json", moments)
    assert (tmp_path / "again.json").read_bytes() == moments_path.read_bytes()
    _, verdicts = tables.read_csv(tmp_path / "out" / "renorm_identity.csv")
    assert all(v is True for _, v in verdicts)
    # harmonic spectrum: plain series hit the divergent first loop value
    _, phi_series = tables.read_csv(tmp_path / "out" / "series_phi.csv")
    assert phi_series[0][1] == 1
    assert phi_series[1][1] == "infinite"
    _, renorm_series = tables.read_csv(tmp_path / "out" / "series_phi_renorm.csv")
    assert all(isinstance(v, (int, float)) for _, v in renorm_series)


def test_diagrams_order_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, {"order": 3})
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams", "--order", "1"])
    assert result.exit_code == 0, result.output
    moments = tables.read_json(tmp_path / "out" / "moments.json")
    assert [m["k"] for m in moments] == [0, 1]


def test_diagrams_order_cap_is_shared_with_config(tmp_path):
    cfg = _write_config(tmp_path, {"order": 30})
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams", "--order", "30"])
    assert result.exit_code == 0, result.output
    _, z_series = tables.read_csv(tmp_path / "out" / "series_z_renorm.csv")
    assert [r[0] for r in z_series] == list(range(31))
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams", "--order", "31"])
    assert result.exit_code == 2
    cfg = _write_config(tmp_path, {"order": 31})
    assert RUNNER.invoke(main, ["--config", str(cfg), "diagrams"]).exit_code == 2


def test_boolean_order_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"order": True})
    result = RUNNER.invoke(main, ["--config", str(cfg), "diagrams"])
    assert result.exit_code == 2
    assert "order" in result.output


def test_emitted_files_round_trip(tmp_path):
    cfg = _write_config(tmp_path, {})
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 0, result.output
    for name in ("z_decay.csv", "z_theta.csv", "z_mc.csv"):
        path = tmp_path / "out" / name
        first = path.read_bytes()
        header, rows = tables.read_csv(path)
        again = tmp_path / ("again_" + name)
        tables.write_csv(again, header, rows)
        assert again.read_bytes() == first


def test_scan_outputs_deterministic(tmp_path):
    cfg = _write_config(tmp_path, {})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    r1 = RUNNER.invoke(main, ["--config", str(cfg), "--out", str(out1), "--seed", "5", "phi"])
    r2 = RUNNER.invoke(main, ["--config", str(cfg), "--out", str(out2), "--seed", "5", "phi"])
    r3 = RUNNER.invoke(
        main,
        ["--config", str(cfg), "--out", str(out3), "--seed", "5", "--threads", "3", "phi"],
    )
    assert r1.exit_code == 0 and r2.exit_code == 0 and r3.exit_code == 0
    first = (out1 / "phi_scan.csv").read_bytes()
    assert (out2 / "phi_scan.csv").read_bytes() == first
    # worker threads must not change values or row order
    assert (out3 / "phi_scan.csv").read_bytes() == first


def test_json_format_option(tmp_path):
    cfg = _write_config(tmp_path, {"format": "json"})
    result = RUNNER.invoke(main, ["--config", str(cfg), "z"])
    assert result.exit_code == 0, result.output
    rows = tables.read_json(tmp_path / "out" / "z_decay.json")
    assert {"n", "z_n", "bound"} == set(rows[0])


@pytest.mark.parametrize("command", ["spectrum", "phi", "z", "flow", "diagrams"])
def test_json_tables_are_indented_sorted_dumps(tmp_path, command, moment_json_obj):
    # every JSON file is json.dumps(obj, indent=2, sort_keys=True) + "\n"
    # of its rows, which hold the values of the CSV run's cells;
    # moments.json is that dump of the oracle objects of moments 0..3
    cfg = _write_config(tmp_path, {"order": 3})
    for fmt in ("csv", "json"):
        result = RUNNER.invoke(
            main, ["--config", str(cfg), "--out", str(tmp_path / fmt), "--format", fmt, command]
        )
        assert result.exit_code == 0, result.output
    written = sorted((tmp_path / "json").iterdir())
    assert written and all(p.suffix == ".json" for p in written)
    for path in written:
        text = path.read_text(encoding="utf-8")
        if path.name == "moments.json":
            obj = [
                {"k": m.k, "moment": moment_json_obj(m),
                 "tadpole_free": moment_json_obj(m.drop_tadpoles())}
                for m in map(dg.wick_moment, range(4))
            ]
        else:
            obj = json.loads(text)
            header, rows = tables.read_csv(tmp_path / "csv" / f"{path.stem}.csv")
            assert [[row[h] for h in header] for row in obj] == rows, path.name
        assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n", path.name


def test_explicit_tail_spectrum_through_cli(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "spectrum": {
                "family": "explicit_tail",
                "head": [4.0, 0.5],
                "tail_c": 1.0,
                "tail_p": 1.0,
            },
            "format": "json",
        },
    )
    result = RUNNER.invoke(main, ["--config", str(cfg), "flow"])
    assert result.exit_code == 0, result.output
    rows = tables.read_json(tmp_path / "out" / "flow_phi.json")
    dists = [row["distance_to_limit"] for row in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_verify_list():
    result = RUNNER.invoke(main, ["verify", "--list"])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines() if ln.strip()]
    assert len(lines) == 12
    assert any("determinism" in ln for ln in lines)


def test_verify_runs_are_byte_identical(tmp_path):
    out1 = tmp_path / "v1"
    out2 = tmp_path / "v2"
    r1 = RUNNER.invoke(main, ["--out", str(out1), "--seed", "321", "verify"])
    r2 = RUNNER.invoke(main, ["--out", str(out2), "--seed", "321", "verify"])
    rep1 = (out1 / "verify_report.txt").read_bytes()
    rep2 = (out2 / "verify_report.txt").read_bytes()
    assert rep1 == rep2

    def report_lines(output):
        # everything except the output-path echo is seed-determined
        return [ln for ln in output.splitlines() if not ln.startswith("wrote ")]

    assert report_lines(r1.output) == report_lines(r2.output)
    # exit code follows the pass count in the report
    expected = 0 if b"result: 12/12" in rep1 else 1
    assert r1.exit_code == expected
    assert r2.exit_code == expected


# the columns of the partition values each table carries
_PARTITION_COLUMNS = {
    "z_decay.csv": ("z_n",),
    "z_theta.csv": ("z_renormalized",),
    "z_mc.csv": ("estimate",),
    "flow_z.csv": ("z_flow", "z_renormalized", "z_regularized"),
}


def _check_partition_values(out: Path) -> None:
    """Every partition value in the tables under ``out`` is a finite
    nonnegative number."""
    for name, columns in _PARTITION_COLUMNS.items():
        if (out / name).exists():
            header, rows = tables.read_csv(out / name)
            for row in rows:
                for col in columns:
                    value = row[header.index(col)]
                    assert math.isfinite(value) and value >= 0, (name, col, value)


@st.composite
def _small_configs(draw):
    scale = st.floats(1e-4, 20.0)
    exponent = st.floats(0.3, 3.0)
    if draw(st.booleans()):
        spectrum = {"family": "power_law", "c": draw(scale), "p": draw(exponent)}
    else:
        spectrum = {"family": "explicit_tail", "head": draw(st.lists(scale, max_size=3)),
                    "tail_c": draw(scale), "tail_p": draw(exponent)}
    regulator = draw(st.sampled_from(
        [{"kind": "exponential"}] + [{"kind": "sharp_cutoff", "a": a} for a in (0.5, 1.0, 2.0)]
    ))

    def grid(lo, hi, top_count):
        return {"min": lo, "max": hi, "count": draw(st.integers(1, top_count))}

    s0, theta0 = draw(st.floats(0.0, 4.0)), draw(st.floats(-4.0, 4.0))
    cut0, n0 = 10.0 ** draw(st.floats(1.0, 4.0)), draw(st.integers(1, 200))
    return {
        "spectrum": spectrum,
        "regulator": regulator,
        "lambda": 10.0 ** draw(st.floats(-3.0, 1.0)),
        "theta": draw(st.floats(-4.0, 4.0)),
        "s": draw(st.floats(0.0, 4.0)),
        "s_grid": grid(s0, s0 + draw(st.floats(0.0, 4.0)), 3),
        "lambda_grid": grid(cut0, cut0 * 10.0 ** draw(st.floats(0.0, 2.0)), 2),
        "n_grid": grid(n0, n0 * draw(st.integers(1, 100)), 2),
        "theta_grid": grid(theta0, theta0 + draw(st.floats(0.0, 4.0)), 2),
        "mc": {"samples": 1000, "seed": draw(st.integers(0, 2**32))},
    }


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["spectrum", "phi", "z", "flow"]), overrides=_small_configs())
def test_generated_configs_exit_cleanly(tmp_path, command, overrides):
    # every generated config finishes or fails with a documented exit
    # code (2 configuration, 3 numeric), and every partition value it
    # emits is a finite nonnegative number
    out = tmp_path / f"out{next(_RUN_IDS)}"
    cfg = _write_config(tmp_path, dict(overrides, out=str(out)))
    result = RUNNER.invoke(main, ["--config", str(cfg), command])
    assert result.exit_code in (0, 2, 3), result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, (SystemExit, type(None)))
    _check_partition_values(out)
