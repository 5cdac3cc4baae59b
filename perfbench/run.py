"""vacuumbeams benchmark: drive the CLI in-process, check it, print metrics.

    python3 perfbench/run.py --workload field-grid-asym --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes, one table
    python3 perfbench/run.py --self-test             # tiny sizes + perturbation checks

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, items_per_s, accuracy_digits, ok_ratio,
peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics of a traced
run instead.  The line before it holds details: pass counts and the tail
percentile, failures, unreached public functions and an environment stamp.
Run from a checkout of the repository; scratch files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("field-grid-asym", "integrals-kl-sweep", "field-boundary-both")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0, help="time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's own checks and exit")
    return parser


def _run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; print one table."""
    ok, unreached = True, None
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= result["correct"]
            print(f"== {name} (seed {seed}, trace {trace}) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:40s} {entry['value']:<24.6g} {entry['unit']}")
            if trace == 0:
                print(f"  {'failed_ratio':40s} {details['failed_ratio']:<24.6g} ratio")
                print(f"  pass time: {json.dumps(details['pass_time'])}")
            else:
                print(f"  unreached public functions: {', '.join(details['unreached']) or 'none'}")
                unreached = set(details["unreached"]) if unreached is None else unreached & set(details["unreached"])
    print(f"== public functions no workload reaches: {', '.join(sorted(unreached or ())) or 'none'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "vacuumbeams" / "cli.py").is_file():
        print(f"perfbench: no vacuumbeams sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the benchmark drives a single-threaded CLI in one process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench, selftest, workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.self_test:
        return selftest.run(SRC, OUT / f"selftest-{os.getpid()}")
    if args.workload is None:
        _parser().error("--workload is required")
    if args.workload == "all":
        return _run_all(seed, args.seconds)

    workload = workloads.make(args.workload, seed)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        runner = bench.Runner(workload, SRC, workdir)
        if args.trace:
            spans_path = OUT / "traces" / f"{workload.name}-seed{seed}.csv"
            outcome = bench.run_traced(runner, args.seconds, spans_path)
        else:
            outcome = bench.run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details = {"workload": workload.name, "seed": seed, "trace": args.trace, **outcome.details,
               "env": bench.environment(ROOT)}
    print(json.dumps(details))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
