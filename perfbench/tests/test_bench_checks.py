"""Each check family accepts the program's real output and rejects an
edited copy whose value moved beyond the tolerance it is checked at.

The tables come from running the ``renorm`` command group on small
configs; the program itself is never patched.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parents[2]

SHARP = {
    "spectrum": {"family": "explicit_tail", "head": [0.8, 2.1], "tail_c": 4.0, "tail_p": 1.0},
    "regulator": {"kind": "sharp_cutoff", "a": 2.0},
    "theta": 0.3, "lambda": 0.9, "s": 1.2, "tol": 1e-8,
    "s_grid": {"min": 0.0, "max": 3.0, "count": 4},
    "lambda_grid": {"min": 1e3, "max": 1e4, "count": 2},
    "n_grid": {"min": 10, "max": 100, "count": 2},
    "theta_grid": {"min": -0.5, "max": 0.5, "count": 2},
    "mc": {"samples": 20000, "seed": 11},
}
SQUARE = dict(SHARP, spectrum={"family": "power_law", "c": 1.0, "p": 2.0},
              regulator={"kind": "sharp_cutoff", "a": 1.0})
EXPONENTIAL = {
    "spectrum": {"family": "power_law", "c": 0.9, "p": 1.0}, "regulator": {"kind": "exponential"},
    "theta": -0.2, "lambda": 1.1, "s": 0.8, "tol": 1e-4,
    "s_grid": {"min": 0.0, "max": 2.0, "count": 3},
    "lambda_grid": {"min": 50.0, "max": 100.0, "count": 2},
    "n_grid": {"min": 10, "max": 100, "count": 2},
}


def _run(tmp: Path, name: str, config: dict, command: str, *args) -> tuple[dict, Path]:
    out = tmp / name
    out.mkdir()
    (out / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "renorm.cli", "--config", str(out / "config.json"),
                    "--out", str(out), "--threads", "1", command, *args],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=300)
    return {"name": name, "command": command, "args": list(args), "config": config, "fault": None}, out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tables")
    return {
        "spectrum": _run(tmp, "spectrum", SHARP, "spectrum"),
        "phi": _run(tmp, "phi", SHARP, "phi"),
        "phi_square": _run(tmp, "phi_square", SQUARE, "phi"),
        "z": _run(tmp, "z", SHARP, "z"),
        "flow": _run(tmp, "flow", SHARP, "flow"),
        "flow_exp": _run(tmp, "flow_exp", EXPONENTIAL, "flow"),
        "diagrams": _run(tmp, "diagrams", dict(SHARP, order=5), "diagrams", "--order", "5"),
        "diagrams_square": _run(tmp, "diagrams_square", dict(SQUARE, order=5), "diagrams", "--order", "5"),
    }


def _edited(outputs, key, tmp_path, table, row, column, edit):
    op, src = outputs[key]
    dst = tmp_path / key
    shutil.copytree(src, dst)
    path = dst / table
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = edit(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines))
    return checks.check(op, dst)


def _plus(delta):
    return lambda cell: repr(float(cell) + delta)


@pytest.mark.parametrize("key", ["spectrum", "phi", "phi_square", "z", "flow", "flow_exp", "diagrams",
                                 "diagrams_square"])
def test_program_output_passes(outputs, key):
    op, out = outputs[key]
    assert checks.check(op, out) == []


@pytest.mark.parametrize("row,delta", [(0, 2e-9), (5, 2e-7), (9, -2e-7)])  # mu, b2, kappa
def test_spectrum_rejects(outputs, tmp_path, row, delta):
    assert _edited(outputs, "spectrum", tmp_path, "spectrum_report.csv", row, "value", _plus(delta))


def test_spectrum_rejects_wrong_class(outputs, tmp_path):
    assert _edited(outputs, "spectrum", tmp_path, "spectrum_report.csv", 1, "value", lambda c: "yes")


@pytest.mark.parametrize("key", ["phi", "phi_square"])
@pytest.mark.parametrize("row", [1, 3, 4])  # finite, flow and renormalized rows at s = 1
@pytest.mark.parametrize("column", ["re", "im", "modulus", "phase"])
def test_phi_rejects(outputs, tmp_path, key, row, column):
    assert _edited(outputs, key, tmp_path, "phi_scan.csv", 5 + row, column, _plus(2e-7))


def test_phi_rejects_modulus_above_one(outputs, tmp_path):
    problems = _edited(outputs, "phi", tmp_path, "phi_scan.csv", 5 + 4, "modulus", lambda c: "1.0001")
    assert any("outside" in p for p in problems)


@pytest.mark.parametrize("table,column,delta", [
    ("z_decay.csv", "z_n", 1e-7), ("z_decay.csv", "bound", 1e-6), ("z_theta.csv", "z_renormalized", 1e-6),
])
def test_z_rejects(outputs, tmp_path, table, column, delta):
    assert _edited(outputs, "z", tmp_path, table, 0, column, _plus(delta))


def test_z_rejects_value_above_bound(outputs, tmp_path):
    problems = _edited(outputs, "z", tmp_path, "z_decay.csv", 0, "bound", lambda c: "1e-6")
    assert any("above its bound" in p for p in problems)


def test_monte_carlo_rejects_estimate_beyond_sigmas(outputs, tmp_path):
    op, out = outputs["z"]
    row = checks.read_table(out / "z_mc.csv")[0]
    shift = (checks.MC_SIGMAS + 1) * float(row["std_error"])
    assert _edited(outputs, "z", tmp_path, "z_mc.csv", 0, "estimate", _plus(shift))


@pytest.mark.parametrize("key,delta", [("flow", 2e-7), ("flow_exp", 2e-3)])
@pytest.mark.parametrize("table,column", [
    ("flow_phi.csv", "re"), ("flow_phi.csv", "distance_to_limit"), ("flow_z.csv", "z_flow"),
    ("flow_z.csv", "z_renormalized"), ("flow_z.csv", "abs_error"), ("flow_z.csv", "z_regularized"),
])
def test_flow_rejects(outputs, tmp_path, key, delta, table, column):
    # the exponential config asks for tol 1e-4, so its kappa-dependent
    # columns are checked at about 6e-4; the others below 1e-7
    assert _edited(outputs, key, tmp_path, table, 1, column, _plus(delta))


@pytest.mark.parametrize("key", ["diagrams", "diagrams_square"])
@pytest.mark.parametrize("kind", ["phi", "z", "phi_renorm", "z_renorm"])
def test_diagrams_rejects_series(outputs, tmp_path, key, kind):
    # c*j tails (key "diagrams") have a divergent b1: their plain series
    # must read "infinite" beyond order 0
    def edit(cell):
        return "1.5" if cell == "infinite" else repr(float(cell) * (1 + 1e-4))

    assert _edited(outputs, key, tmp_path, f"series_{kind}.csv", 3, "coefficient", edit)


def test_diagrams_rejects_verdict_and_moment(outputs, tmp_path):
    assert _edited(outputs, "diagrams", tmp_path / "v", "renorm_identity.csv", 2, "verdict", lambda c: "false")
    op, src = outputs["diagrams"]
    dst = tmp_path / "m"
    shutil.copytree(src, dst)
    moments = json.loads((dst / "moments.json").read_text())
    moments[3]["moment"][0]["num"] = str(int(moments[3]["moment"][0]["num"]) + 1)
    (dst / "moments.json").write_text(json.dumps(moments))
    assert any("cycle-index" in p for p in checks.check(op, dst))


def test_known_tail_fault_is_rejected(tmp_path):
    # the flow at cutoff 1e4 under the exponential profile misses the
    # tail integral (about 6.7e-8 in the reciprocal sum)
    config = dict(EXPONENTIAL, spectrum={"family": "power_law", "c": 1.0, "p": 1.0},
                  s_grid={"min": 1.0, "max": 1.0, "count": 1},
                  lambda_grid={"min": 1e4, "max": 1e4, "count": 1},
                  n_grid={"min": 10, "max": 10, "count": 1})
    op, out = _run(tmp_path, "fault", config, "phi")
    problems = checks.check(op, out)
    assert any("flow" in p and "L=10000" in p for p in problems)
    assert not any("finite" in p or "renormalized" in p for p in problems)
