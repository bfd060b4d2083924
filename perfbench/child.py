"""One round of a workload, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --out DIR --trace 0|1 --started T

``--started`` is the parent's ``time.monotonic()`` just before it
started this process.  The round imports ``renorm`` from ``src/`` of the
working directory, writes the configs, then runs every operation
in-process through the ``renorm`` command group with ``--threads 1``,
and writes ``result.json`` (and ``trace.jsonl`` when traced) to DIR.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    opts = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import click
    import renorm
    from renorm import cli

    if not Path(renorm.__file__).resolve().is_relative_to(src):
        print(f"renorm imported from {renorm.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if opts.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import operations

    runs = []
    for i, op in enumerate(operations(opts.workload, opts.seed)):
        op_dir = opts.out / f"{i:02d}-{op['name']}"
        op_dir.mkdir(parents=True)
        (op_dir / "config.json").write_text(json.dumps(op["config"]), encoding="utf-8")
        args = ["--config", str(op_dir / "config.json"), "--out", str(op_dir), "--threads", "1",
                op["command"], *op["args"]]
        runs.append((op, args))
    setup_s = time.monotonic() - opts.started

    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op, args in runs:
        code, message = 0, ""
        start = time.perf_counter()
        try:
            if tracer is None:
                cli.main.main(args=args, standalone_mode=False)
            else:
                with tracer.span(op["command"], "cli"):
                    cli.main.main(args=args, standalone_mode=False)
        except click.ClickException as e:
            code, message = e.exit_code, e.format_message()
        except SystemExit as e:
            code, message = e.code if isinstance(e.code, int) else 1, str(e)
        except Exception as e:  # a raw traceback is itself an operation failure
            code, message = -1, f"{type(e).__name__}: {e}"
        results.append({"name": op["name"], "exit_code": code, "message": message,
                        "wall_s": time.perf_counter() - start})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
               "peak_rss_mb": peak_rss_mb, "ops": results}
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        tracer.write(opts.out / "trace.jsonl")
    (opts.out / "result.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
