"""One phase of one workload, in a fresh process started by run.py.

    worker.py --phase setup|measure --workload NAME --seed N --seconds S
              --trace 0|1 --work DIR [--smoke]

`setup` writes the inputs into DIR, repeating the whole set-up several times
to time it. `measure` repeats the workload's operation until S seconds have
passed (and at least twice), checks every result, and prints its metrics.
Both print one JSON object as the last line of standard output. A failed
check is counted, never raised, so a run always reports how many operations
(training steps and evaluate calls) failed out of how many were attempted.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import calibration
import checks
import inputs
import tracing
from workloads import MAP_FLOOR, PER_LAYER, REFERENCE, SMOKE, TRAIN_FRACTION, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = (3, 9)  # fewest and most set-ups timed per run
SETUP_BUDGET_S = 1.5  # past the fewest, repeat while less than this has passed
MIN_OPS = 2
RATES = ("train_rates", "eval_rates")  # raw samples each operation records
EVALS_PER_TRAIN = 4
NAIVE_QUERIES = 24  # per direction, for the naive AP check of the eval workload
TRAIN_FILE = "train.avfd"
EVAL_FILE = "eval.avfd"
PARAMS_FILE = "params.npz"


class Counts:
    """Operations attempted and failed, with a note for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed: {problem}", file=sys.stderr)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}


def run_config(workload, scale, data_path: Path, out_dir: Path, seed: int):
    from avdistill import LossConfig, RunConfig

    fraction = workload.labeled_fraction
    epochs = scale.epochs or workload.epochs
    return RunConfig(
        data_path=str(data_path),
        hidden_dims=scale.hidden,
        batch_size=scale.batch,
        epochs=epochs,
        seed=seed,
        # Training workloads time EVALS_PER_TRAIN short evaluate calls spread
        # over each train() call, so one busy second on the host does not set
        # the eval rate. The eval workload's checkpoint is evaluated once.
        eval_every=epochs // EVALS_PER_TRAIN if workload.kind == "train" else 0,
        train_fraction=TRAIN_FRACTION,
        schedule_kind="step",
        schedule_steps=1,
        schedule_start=fraction,
        schedule_end=fraction,
        loss=LossConfig(strategy=workload.strategy, proxy="attention", anchor_mode="symmetric"),
        output_dir=str(out_dir),
    )


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def train_once(config, floor: float, counts: Counts):
    """One checked train() call: (seconds, result), or None if it raised."""
    t0 = time.perf_counter()
    try:
        result = tracing.call("avdistill.train:train", config)
    except Exception:
        traceback.print_exc()
        units = config.epochs + (config.epochs // config.eval_every if config.eval_every else 1)
        counts.add(units, units, "train() raised")
        return None
    seconds = time.perf_counter() - t0
    steps = steps_of(result)
    bad = sum(not all(math.isfinite(v) for v in r.loss.as_dict().values()) for r in steps)
    counts.add(len(steps), bad, f"{bad} non-finite loss breakdowns")
    evals = [r for r in result.records if r.kind == "eval"]
    report = result.final_report
    low = report is None or not report.map_avg >= floor
    counts.add(len(evals), int(low), f"final map_avg {report and report.map_avg} below floor {floor}")
    return seconds, result


def steps_of(result) -> list:
    return [r for r in result.records if r.kind == "step"]


# -- setup ----------------------------------------------------------------------


def setup(args, workload, scale, floor: float, work: Path) -> dict:
    """Write the inputs several times (SETUP_REPEATS); report the median time.

    Training workloads also run what train() does before its first step.
    The eval workload trains its reference-architecture checkpoint each
    time; the repeats must write byte-identical checkpoints. Times and rates
    are in reference seconds (see calibration.py).
    """
    counts = Counts()
    kernel = calibration.Kernel()
    times, ref_times, rates, digests = [], [], [], []
    result = None
    fewest, most = SETUP_REPEATS
    kernel_s = kernel.run()
    started = time.perf_counter()
    while len(times) < fewest or (
        len(times) < most and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        t0 = time.perf_counter()
        mixture = inputs.Mixture(scale, args.seed)
        inputs.write_training_file(work / TRAIN_FILE, mixture, TRAIN_FRACTION)
        config = run_config(workload, scale, work / TRAIN_FILE, work / "checkpoint", args.seed)
        if workload.kind == "train":
            from avdistill import build_model, resolve_dataset, split

            meta, data = resolve_dataset(config)
            split(data, config.train_fraction, config.seed)
            build_model(config, meta)
            trained = None
        else:
            features = mixture.sample(scale.eval_pairs // scale.classes)
            inputs.write_avfd(work / EVAL_FILE, *features, scale.classes)
            trained = train_once(config, floor, counts)
        times.append(time.perf_counter() - t0)
        kernel_before, kernel_s = kernel_s, kernel.run()
        slowdown = calibration.slowdown(kernel_before, kernel_s)
        ref_times.append(times[-1] / slowdown)
        if trained is not None:
            seconds, result = trained
            rates.append(len(steps_of(result)) * scale.batch / seconds * slowdown)
            digests.append(file_digest(result.checkpoint_path))
    print(json.dumps({"setup_s_raw": times}))
    out = {"setup_s": statistics.median(ref_times)}
    if workload.kind == "eval":
        if len(set(digests)) > 1:
            counts.add(0, counts.attempted - counts.failed, f"checkpoint digests differ: {digests}")
        if result is not None:
            np.savez(work / PARAMS_FILE, *result.model.parameters())
        out["train_pairs_per_s"] = statistics.median(rates) if rates else None
    return {"metrics": out, **counts.as_dict()}


# -- measure --------------------------------------------------------------------


def measure(args, workload, scale, floor: float, work: Path) -> dict:
    counts = Counts()
    config = run_config(workload, scale, work / TRAIN_FILE, work / "run", args.seed)
    print(json.dumps({"header": header(args, workload, scale, config)}))
    tracer = tracing.Tracer(margin=config.loss.margin)
    kernel = calibration.Kernel()
    ops: list[dict] = []  # one entry per operation that completed
    attempts = 0
    kernel_s = kernel.run()
    t_start = time.perf_counter()
    while attempts < MIN_OPS or time.perf_counter() - t_start < args.seconds:
        # A traced run alternates untraced and traced operations.
        traced = bool(args.trace) and attempts % 2 == 1
        with tracer.attached() if traced else nullcontext():
            if workload.kind == "train":
                op = train_op(config, scale, floor, counts)
            else:
                op = eval_op(work, counts)
        attempts += 1
        kernel_before, kernel_s = kernel_s, kernel.run()
        if op is not None:
            # Rates in reference seconds: scaled by how slow the host ran.
            op["slowdown"] = calibration.slowdown(kernel_before, kernel_s)
            op["rates"] = {k: [r * op["slowdown"] for r in op[k]] for k in RATES}
            op["traced"] = traced
            ops.append(op)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.kind == "train":
        digests = [op["digest"] for op in ops]
        for op in ops:
            if op["digest"] != digests[0]:
                counts.add(0, op["units"], f"model.xmdl digests differ: {digests}")
    else:
        check_eval(ops, work, counts)

    plain = [op for op in ops if not op["traced"]]
    out = {
        "train_pairs_per_s": median_of(plain, "train_rates"),
        "eval_queries_per_s": median_of(plain, "eval_rates"),
        "map_avg": ops[0]["map_avg"] if ops else None,
        "peak_rss_mb": peak_mb,
    }
    if workload.kind == "eval":
        del out["train_pairs_per_s"]  # measured while the set-up trains the checkpoint
    print(json.dumps({"ops": [
        {k: op[k] for k in ("traced", "seconds", "slowdown", *RATES)}
        for op in ops
    ]}))
    if args.trace:
        out = layer_metrics(tracer, workload, ops)
    return {"metrics": out, "ops": len(ops), **counts.as_dict()}


def median_of(ops: list[dict], key: str):
    """Median of the `key` rates, in reference seconds, over all the operations."""
    values = [v for op in ops for v in op["rates"][key]]
    return statistics.median(values) if values else None


def train_op(config, scale, floor: float, counts: Counts) -> dict | None:
    trained = train_once(config, floor, counts)
    if trained is None:
        return None
    seconds, result = trained
    steps = steps_of(result)
    evals = [r for r in result.records if r.kind == "eval"]
    report = result.final_report
    queries = report.n_queries_a2v + report.n_queries_v2a
    return {
        "train_rates": [len(steps) * scale.batch / seconds],
        # train() times each of its evaluate calls in metrics.jsonl.
        "eval_rates": [queries / (r.wall_ms / 1000.0) for r in evals],
        "map_avg": report.map_avg,
        "digest": file_digest(result.checkpoint_path),
        "units": len(steps) + len(evals),
        "steps": len(steps),
        "step_ms": [r.wall_ms for r in steps],
        "seconds": seconds,
    }


def eval_op(work: Path, counts: Counts) -> dict | None:
    t0 = time.perf_counter()
    try:
        checkpoint = work / "checkpoint" / "model.xmdl"
        model = tracing.call("avdistill.checkpoint:load_checkpoint", checkpoint)
        _, data = tracing.call("avdistill.data:load_features", work / EVAL_FILE)
        report = tracing.call("avdistill.evaluate:evaluate", model, data)
    except Exception:
        traceback.print_exc()
        counts.add(1, 1, "load or evaluate raised")
        return None
    seconds = time.perf_counter() - t0
    counts.add(1)
    return {
        "train_rates": [],
        "eval_rates": [(report.n_queries_a2v + report.n_queries_v2a) / seconds],
        "map_avg": report.map_avg,
        "steps": 0,
        "step_ms": [],
        "seconds": seconds,
    }


def check_eval(ops: list[dict], work: Path, counts: Counts) -> None:
    """Every evaluate call agrees exactly, and with the independent recomputation."""
    if not ops:
        return
    maps = [op["map_avg"] for op in ops]
    problems = [f"map_avg differs between calls: {maps}"] if len(set(maps)) > 1 else []
    with np.load(work / PARAMS_FILE) as f:
        params = [f[f"arr_{i}"] for i in range(len(f.files))]
    audio, visual, labels = inputs.read_avfd(work / EVAL_FILE)
    problems += checks.check_map(params, audio, visual, labels, maps[0], NAIVE_QUERIES)
    if problems:
        counts.add(0, len(ops), "; ".join(problems[:5]))


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


def layer_metrics(tracer: tracing.Tracer, workload, ops: list[dict]) -> dict:
    """Per-layer metrics from the traced operations, plus the tracing overhead."""
    traced = [op for op in ops if op["traced"]]
    spans: dict[str, float] = {}
    for (span, role), st in tracer.stats.items():
        prefix = f"{span}.{role}_" if role else f"{span}."
        spans[prefix + "calls"] = st.calls
        spans[prefix + "ms"] = 1000.0 * st.total_s / st.calls
        spans[prefix + "self_ms"] = 1000.0 * st.self_s / st.calls
    c = tracer.counters
    steps = sum(op["steps"] for op in traced)
    # Dense-layer work per operation unit: a training step, or an evaluate call.
    roles = ("teacher", "student", "backward") if workload.kind == "train" else ("eval",)
    units = steps if workload.kind == "train" else len(traced)
    flop = sum(c[f"flop.{r}"] for r in roles)
    model_keys = [("model.backward", "") if r == "backward" else ("model.encode", r) for r in roles]
    flop_s = sum(tracer.stats[k].total_s for k in model_keys if k in tracer.stats)
    rate = "train_rates" if workload.kind == "train" else "eval_rates"
    plain_rate = median_of([op for op in ops if not op["traced"]], rate)
    traced_rate = median_of(traced, rate)
    step_ms = [ms for op in traced for ms in op["step_ms"]]
    applies = spans.get("nn.optimizer.apply.calls", 0)
    overhead = None
    if plain_rate and traced_rate:
        overhead = 100.0 * (plain_rate - traced_rate) / plain_rate
    derived = {
        "losses.triplets": ratio(c["triplets"], steps),
        "losses.triplets_active_share": ratio(c["triplets.active"], c["triplets"]),
        "model.gflop": ratio(flop / 1e9, units),
        "model.gflops": ratio(flop / 1e9, flop_s),
        "nn.optimizer.bytes": ratio(c["optimizer.bytes"], applies),
        "softalign.soft_positives": ratio(c["soft.positives"], steps),
        "softalign.soft_positive_precision": ratio(c["soft.agree"], c["soft.positives"]),
        "train.step_ms": ratio(sum(step_ms), len(step_ms)),
        "trace.overhead_pct": overhead,
        "trace.absent_spans": len(tracer.absent),
    }
    op_s = sum(op["seconds"] for op in traced)
    profile = {
        f"{span}.{role}" if role else span: {
            "calls": st.calls,
            "total_ms": round(1000.0 * st.total_s, 3),
            "self_ms": round(1000.0 * st.self_s, 3),
            "share_of_ops": round(st.total_s / op_s, 4) if op_s else None,
            "self_share_of_ops": round(st.self_s / op_s, 4) if op_s else None,
        }
        for (span, role), st in sorted(tracer.stats.items())
    }
    print(json.dumps({
        "profile": profile,
        "traced_ops": len(traced),
        "traced_ops_s": op_s,
        "bookkeeping_s": tracer.bookkeeping_s,
        "absent": tracer.absent,
    }))
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "error_rate":
            out[name] = spans.get(name, 0.0)
    return out


# -- header ---------------------------------------------------------------------


def header(args, workload, scale, config) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a bare source checkout has no commit to report
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_config": dataclasses.asdict(workload),
        "scale": dataclasses.asdict(scale),
        "run_config": dataclasses.asdict(config),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import avdistill

    source = Path(avdistill.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"avdistill imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scale = SMOKE if args.smoke else REFERENCE
    floor = MAP_FLOOR if scale is REFERENCE else 0.0
    if args.phase == "setup":
        out = setup(args, workload, scale, floor, args.work)
    else:
        out = measure(args, workload, scale, floor, args.work)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
