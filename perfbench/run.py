"""Benchmark of the ``adam`` commands users run, one fresh process per op.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol|cohort-screen|index-build \
        --seed N --seconds S --trace 0|1

One closed loop runs one op at a time: each op is a new
``python -m adam ...`` process, so every op pays interpreter start-up,
imports and store load as a user does, and no in-process cache carries
over between ops. Children get one BLAS thread. Set-up builds the
workload's inputs from the seed, SETUP_REPEATS times; setup_s is the
median. It then runs one warm-up op with the arguments of op 0, whose
outputs op 0 must reproduce byte for byte. The warm-up is kept out of
setup_s: it is an op, and counting it there would hide work that a
change moves from the ops into preparation. Time metrics are scaled to the
reference machine speed measured by calibrate.py between ops.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics. With --trace 1, ops run in pairs (plain, then traced through
traced.py with the same arguments); the JSON then carries the per-layer
metrics and the tracing overhead, and each pair's outputs must match
byte for byte. The output checks run after the timed loop. See
README.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from calibrate import REFERENCE_S, calibrate
from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_OPS = 4
MIN_PAIRS = 2  # plain + traced op pairs in a traced run
CALIBRATION_PASSES = 2  # calibrate() passes before each op and at the end
OP_TIMEOUT_S = 60
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}


@dataclass
class Op:
    name: str
    index: int
    directory: Path
    wall_s: float = 0.0
    rss_mb: float = 0.0
    status: int = 0
    error: str = ""
    digest: str = ""
    stats: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in BLAS_VARIABLES:
        env[name] = str(BLAS_THREADS)
    return env


def run_op(argv: list[str], op: Op, env: dict) -> Op:
    """Run one op process; record wall time, peak RSS and exit status."""
    op.directory.mkdir(parents=True)
    with open(op.directory / "log.txt", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=op.directory, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        op.wall_s = time.perf_counter() - start
    proc.returncode = op.status = os.waitstatus_to_exitcode(status)
    op.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
    if op.status != 0:
        op.error = f"exit {op.status}: " + (op.directory / "log.txt").read_text(
            errors="replace")[-400:]
    return op


def settle(workload, op: Op) -> None:
    """Digest an op's outputs and run its workload check."""
    if op.status != 0:
        return
    out = op.directory / "out"
    op.digest = workloads.digest(out)
    try:
        workload.check(op.index, op.directory)
    except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
        op.error = f"check: {exc}"


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    beyond = 10
    rank = n - beyond  # values[rank - 1] has `beyond` samples above it
    percentile = 100.0 * rank / n
    return percentile, sorted(values)[rank - 1]


def metadata(ops: list[Op]) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in SRC.rglob("*.py"))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "src_lines": src_lines,
            "output_sha256": {op.name: op.digest for op in ops}}


def layer_metrics(traced: list[Op], plain: list[Op], scale: float) -> dict:
    """Per-layer metrics, averaged per traced op; shares pool all ops.
    Times are multiplied by ``scale``, like the end-to-end ones."""
    def total(source: str, key: str) -> float:
        kind = "counts" if source == "count" else source
        return sum(op.stats[kind].get(key, 0) for op in traced)

    def share(numerator: str, denominator: float) -> float:
        return total("count", numerator) / denominator if denominator else 0.0

    n = len(traced)
    values = {name: total(source, key) / n
              for name, (_, _, source, key) in LAYERS.items()
              if source != "derived"}
    searches = total("calls", "vectorstore.search")
    samples = [ms for op in traced for ms in op.stats["sample_ms"]]
    values.update({
        "agents.run_computational.unique_share": share(
            "agents.run_computational.distinct",
            total("calls", "agents.run_computational")),
        "vectorstore.search.empty_share": share("vectorstore.search.empty",
                                                searches),
        "vectorstore.search.full_share": share("vectorstore.search.full",
                                               searches),
        "vectorstore.search.repeat_query_share": share(
            "vectorstore.search.repeat", searches),
        "embedding.repeat_gram_share": share(
            "embedding.repeat_grams", total("count", "embedding.grams")),
        "agents.prompt_assembly_ms": (
            total("self_ms", "agents.run_summarization")
            + total("self_ms", "agents.run_classification")) / n,
        "agents.sample_ms_p50": statistics.median(samples) if samples else 0.0,
        "process.startup_ms": statistics.fmean(
            1000.0 * op.wall_s - op.stats["main_ms"] for op in traced),
        "cli.self_ms": total("self_ms", "cli.main") / n,
        "trace.overhead_ms": 1000.0 * (
            statistics.median(op.wall_s for op in traced)
            - statistics.median(op.wall_s for op in plain)),
    })
    return {name: {"value": values[name] * (scale if unit == "ms" else 1.0),
                   "unit": unit}
            for name, (unit, _, _, _) in LAYERS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "adam" / "cli.py").is_file():
        print(f"error: no adam sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = child_env()
    workload = workloads.WORKLOADS[args.workload](args.seed, env)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(workload, work, env, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, work: Path, env: dict, args) -> int:
    prep_s = []
    for k in range(SETUP_REPEATS):
        directory = work / f"setup{k}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        workload.prepare(directory)
        prep_s.append(time.perf_counter() - start)
    ops_dir = work / f"setup{SETUP_REPEATS - 1}" / "ops"

    def plain(name: str, index: int) -> Op:
        return run_op(workloads.adam(*workload.op_args(index)),
                      Op(name, index, ops_dir / name), env)

    def traced(name: str, index: int) -> Op:
        argv = [sys.executable, str(HERE / "traced.py"), "trace.json",
                *workload.op_args(index)]
        op = run_op(argv, Op(name, index, ops_dir / name), env)
        if op.status == 0:
            op.stats = json.loads((op.directory / "trace.json").read_text())
        return op

    calibration: list[float] = []

    def gauge() -> None:
        calibration.extend(calibrate() for _ in range(CALIBRATION_PASSES))

    gauge()
    warmup = plain("warmup", 0)

    ops: list[Op] = []
    traced_ops: list[Op] = []
    start = time.perf_counter()
    index = 0
    while (index < (MIN_PAIRS if args.trace else MIN_OPS)
           or time.perf_counter() - start < args.seconds):
        gauge()
        ops.append(plain(str(index), index))
        if args.trace:
            traced_ops.append(traced(f"{index}-traced", index))
        index += 1
    gauge()
    # Time metrics are reported at the reference machine speed; see
    # calibrate.py for why.
    scale = REFERENCE_S / statistics.median(calibration)

    settle(workload, warmup)
    for op in ops + traced_ops:
        settle(workload, op)
    if warmup.error:
        ops[0].error = ops[0].error or f"warm-up op failed: {warmup.error}"
    elif ops[0].digest != warmup.digest:
        ops[0].error = ops[0].error or "outputs differ from the warm-up op's"
    for plain_op, traced_op in zip(ops, traced_ops):
        if not traced_op.error and traced_op.digest != plain_op.digest:
            traced_op.error = "traced outputs differ from the untraced op's"

    attempted = ops + traced_ops
    failed = [op for op in attempted if op.error]
    for op in failed:
        print(f"failed op {op.name}: {op.error}", file=sys.stderr)
    walls = [op.wall_s for op in ops]
    print(f"workload {workload.name}: seed {args.seed}, {len(ops)} timed "
          f"op(s) of {workload.items(0)} {workload.unit}; raw set-up "
          f"{statistics.median(prep_s):.3f} s (median of {SETUP_REPEATS}), "
          f"warm-up op {warmup.wall_s:.3f} s, op walls "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"calibration: median {statistics.median(calibration):.4f} s over "
          f"{len(calibration)} passes; times below are scaled by {scale:.4f} "
          f"to the reference {REFERENCE_S} s")
    print(f"failed_share: {len(failed) / len(attempted):.4f} share "
          f"({len(failed)} of {len(attempted)} ops)")
    tail = tail_percentile(walls)
    print("op_s_tail: " + (f"p{tail[0]:.1f} = {tail[1] * scale:.4f} s over "
                           f"{len(walls)} ops" if tail else
                           f"n/a ({len(walls)} ops; needs at least 11)"))
    print("meta: " + json.dumps(metadata([warmup] + attempted), sort_keys=True))

    if args.trace:
        missing = sorted({m for op in traced_ops for m in op.stats.get("missing", ())})
        if missing:
            print(f"trace: not wrapped (absent): {missing}", file=sys.stderr)
        metrics = {}
        if all(op.stats for op in traced_ops):
            metrics = layer_metrics(traced_ops, ops, scale)
            overhead = metrics["trace.overhead_ms"]["value"]
            identical = all(t.digest == p.digest
                            for p, t in zip(ops, traced_ops))
            print(f"trace: overhead {overhead:.1f} ms per op (traced minus "
                  f"untraced op_s_p50); outputs identical: {identical}")
    else:
        items = sum(workload.items(op.index) for op in ops if not op.error)
        metrics = {
            "setup_s": statistics.median(prep_s) * scale,
            "op_s_p50": statistics.median(walls) * scale,
            "items_per_s": items / (sum(walls) * scale),
            "peak_rss_mb": max(op.rss_mb for op in ops),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}
    result = {"correct": not failed and bool(metrics),
              "attempted": len(attempted), "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
