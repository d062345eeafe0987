"""The avdistill benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload labeled-all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout and imports the package from `src/`.
Each workload runs in fresh worker processes (set-up, then measurement), so
peak RSS and BLAS thread pools never carry over. BLAS runs one thread: on a
small shared machine a single thread can move to whichever core is free,
where two threads wait for the slower core at every matrix product, so runs
spread less. Scratch files live under `.perfbench_work/` in the checkout and
are removed at exit.

The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
End-to-end rates and set-up times are in reference seconds, corrected for
the host's speed at the time (see calibration.py); per-layer times are raw.
Earlier lines carry the set-up times, the run header (machine, versions,
workload config), each operation's raw rates and host slowdown and, when
traced, the span profile. `--smoke` runs every workload at a tiny
scale, traced and untraced, and checks that every metric named in
BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
MAX_BLAS_THREADS = 1


def worker(phase: str, args, work: Path, deadline: float) -> tuple[dict, list[str]]:
    """Run one worker phase; returns its final JSON object and its earlier output lines."""
    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} worker exited with code {done.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run(args) -> tuple[dict, list[str]]:
    """The result object of one run, and the lines its workers printed before their results."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_lines = worker("setup", args, work, deadline)
        measured, measure_lines = worker("measure", args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = setup["attempted"] + measured["attempted"]
    failed = setup["failed"] + measured["failed"]
    found = {**setup["metrics"], **measured["metrics"], "error_rate": failed / max(attempted, 1)}
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": found.get(name), "unit": unit} for name, (unit, _) in names.items()}
    measured_all = all(isinstance(m["value"], (int, float)) for m in metrics.values())
    result = {
        "correct": failed == 0 and measured_all,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, setup_lines + measure_lines


def smoke() -> int:
    """Every workload once at tiny scale, both trace modes; every named metric emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=trace, smoke=True)
            result, _ = run(args)
            wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            if list(result["metrics"]) != wanted:
                problems.append(f"{name} trace={trace}: emitted {list(result['metrics'])}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: not correct: {json.dumps(result)}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scale, every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "avdistill" / "__init__.py").is_file():
        print(f"no avdistill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke and args.workload is None:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run(args)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:  # ValueError: bad JSON
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print("\n".join([*lines, json.dumps(result)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
