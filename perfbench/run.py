"""Benchmark entry point: prepare inputs, then measure in a fresh process.

One run::

    python3 perfbench/run.py --workload serve --seed 3 --seconds 20 --trace 0

builds (or reuses) the workload's inputs with ``prepare.py`` in one
child process, measures them with ``measure.py`` in another, and
prints the measured process's output; the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.

Steadiness mode repeats workloads over seeds ``1..N`` and prints each
metric's median, interquartile range and min-max spread, both as a
share of the median::

    python3 perfbench/run.py --repeat 5 --seconds 20 [--workload fit ...]

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit", "generate", "serve", "live")
#: the first preparation in a checkout builds every input from scratch
PREPARE_TIMEOUT_S = 600
#: allowance beyond ``--seconds`` for imports, set-up and output checks
MEASURE_SLACK_S = 140


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_once(workload: str, seed: int, seconds: float, trace: int,
             plant: bool = False, echo: bool = True):
    """One prepared, measured run; returns ``(exit code, result)``.

    ``result`` is the last output line, parsed, plus the host-speed
    probe of the line before it under ``"host_probe_ms"``.
    """
    env = child_env()
    prep = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PREPARE_TIMEOUT_S,
    )
    if prep.returncode != 0:
        sys.stderr.write(prep.stderr)
        return prep.returncode or 1, None
    manifest = prep.stdout.strip().splitlines()[-1]
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--inputs", manifest,
    ]
    if plant:
        command.append("--plant-mismatch")
    measured = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=seconds + MEASURE_SLACK_S,
    )
    sys.stderr.write(measured.stderr)
    lines = measured.stdout.strip().splitlines()
    if not lines:
        return measured.returncode or 1, None
    if echo:
        print("\n".join(lines), flush=True)
    try:
        result = json.loads(lines[-1])
        result["host_probe_ms"] = json.loads(lines[-2])["host_probe_ms"]
    except (json.JSONDecodeError, IndexError, KeyError):
        return measured.returncode or 1, None
    return measured.returncode, result


def steadiness(workloads, repeats: int, seconds: float, trace: int) -> int:
    """Run each workload over seeds ``1..repeats``; print the spreads.

    The workloads take turns seed by seed, so a slow stretch of the
    host, which can last minutes, falls on a few runs of every
    workload rather than on consecutive runs of one.
    """
    values = {workload: {} for workload in workloads}
    status = 0
    for seed in range(1, repeats + 1):
        for workload in workloads:
            code, result = run_once(workload, seed, seconds, trace,
                                    echo=False)
            if code != 0 or result is None:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                status = 1
                continue
            series = values[workload]
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            # the diagnostic: a slow host phase shows here, not in src/
            for when, ms in result["host_probe_ms"].items():
                series.setdefault(f"host_probe_{when}_ms", []).append(ms)
    summary = {}
    for workload in workloads:
        for name, series in values[workload].items():
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = median
            scale = abs(median) or 1.0
            row = {
                "median": median,
                "iqr_share": (q3 - q1) / scale,
                "range_share": (max(series) - min(series)) / scale,
                "values": series,
            }
            summary[f"{workload}/{name}"] = row
            print(f"{workload:9s} {name:34s} median {median:14.6g}  "
                  f"IQR {100 * row['iqr_share']:6.2f}%  "
                  f"min-max {100 * row['range_share']:6.2f}%", flush=True)
    print(json.dumps({"steadiness": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the VRDAG benchmark workloads."
    )
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable with --repeat)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: seeds 1..N per workload")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one checked output; the run must fail")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout\n"
        )
        return 2
    if args.repeat:
        return steadiness(args.workload or WORKLOADS, args.repeat,
                          args.seconds, args.trace)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload (or use --repeat)")
    code, result = run_once(args.workload[0], args.seed, args.seconds,
                            args.trace, plant=args.plant_mismatch)
    if result is None and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
