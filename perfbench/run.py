"""Benchmark of the ``renorm`` command-line toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/renorm`` must exist).
Each round starts a fresh interpreter (``child.py``) with one thread
for BLAS/OpenMP, which imports the package, writes the workload's
configs and runs every operation through the ``renorm`` command group
with ``--threads 1``; module-level caches start empty in every round,
as they do for a command-line user.  Rounds repeat until their total
time reaches ``--seconds``.  After each round this process checks every
table the round wrote against ``reference`` (outside any timed window).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the medians over rounds of
``setup_s``, ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` untraced, or the
per-layer metrics of ``spans.METRICS`` traced.  An operation fails when
it exits non-zero or a check rejects its output; ``correct`` is false
when an operation fails that is not marked with a known fault.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROUND_TIMEOUT_S = 150.0
_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_round(opts, out: Path, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--out", str(out), "--trace", str(opts.trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--started", repr(started)], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "renorm" / "__init__.py").is_file():
        print(f"no renorm sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = _child_env()
    # untimed warm-up: byte-compiles the package, as an installed copy would be
    warm = subprocess.run([sys.executable, "-c", "import renorm.cli"], cwd=root,
                          env=dict(env, PYTHONPATH=str(root / "src")), capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"cannot import renorm:\n{warm.stderr[-4000:]}", file=sys.stderr)
        return 2

    ops = workloads.operations(opts.workload, opts.seed)
    run_dir = root / ".perfbench_runs" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    rounds, attempted, failed, correct = [], 0, 0, True
    measured = 0.0
    try:
        while not rounds or measured < opts.seconds:
            out = run_dir / f"round{len(rounds)}"
            t = time.monotonic()
            result = _run_round(opts, out, env)
            measured += time.monotonic() - t
            for i, (op, res) in enumerate(zip(ops, result["ops"], strict=True)):
                if res["name"] != op["name"]:
                    raise RuntimeError(f"round ran {res['name']} where {op['name']} was due")
                problems = checks.check(op, out / f"{i:02d}-{op['name']}")
                if res["exit_code"] != 0:
                    problems.insert(0, f"exit code {res['exit_code']}: {res['message']}")
                attempted += 1
                if problems:
                    failed += 1
                    if op["fault"] is None:
                        correct = False
                    label = "known fault" if op["fault"] else "FAILED"
                    print(f"{label}: {op['name']}: {problems[0]} ({len(problems)} problems)",
                          file=sys.stderr)
            rounds.append(result)
            if opts.trace:
                (out / "trace.jsonl").replace(root / ".perfbench_runs" / f"trace-{opts.workload}.jsonl")
            shutil.rmtree(out)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = [r["wall_s"] for r in rounds]
    print(f"{opts.workload} seed {opts.seed}: {len(rounds)} rounds, wall_s "
          f"{', '.join(f'{w:.4f}' for w in walls)}{' (traced)' if opts.trace else ''}")
    if opts.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
                   for name, unit in spans.METRICS.items()}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                   for name, unit in _UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
