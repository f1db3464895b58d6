"""The ccring benchmark.

Run from the repository root:

    python3 bench/run.py --workload count_info --seed 1 --seconds 15 --trace 0

Each run starts fresh worker processes (bench/worker.py), single
threaded, with ccring imported from ./src:

* set-up-only workers, then one measured worker that runs the workload's
  whole op list with tracing off and checks every output (end-to-end
  metrics); together they give eleven times from process start to READY
  (interpreter, ``import ccring`` with numpy, input generation), whose
  median is ``setup_s``;
* with ``--trace 1`` instead: one untraced worker, then one on the same
  seed with the tracer installed (per-layer metrics, and
  ``trace.overhead``: traced wall_s over untraced wall_s).

Every reported time is at reference speed: each raw time is multiplied
by the speed scale measured around it (speed.py), because the speed of a
shared machine drifts by more than the regression bounds.  The raw times
stay in the record.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to stderr and
the full record (every op, the probes, versions, sample counts) to
bench/out/.  The exit code is 1 when any output was wrong or any timed
op failed, 2 when the program is missing.

``--write-spec`` regenerates BENCHMARK.json from bench/spec.py.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s
OUT_DIR = BENCH / "out"


class WorkerError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy must not start a thread pool
    return env


def spawn(cmd: list[str], env: dict, limit: float):
    """Run one worker: (seconds from start to READY, less the worker's own
    calibration before set-up; its RESULT or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        ready = None
        readable, _, _ = select.select([proc.stdout], [], [], limit)
        if readable:
            line = proc.stdout.readline().split()
            if line[:1] == [b"READY"]:
                ready = time.perf_counter() - start - float(line[1])
        if ready is None:
            raise WorkerError(f"worker did not get ready: {' '.join(cmd[2:])}")
        out, _ = proc.communicate(timeout=max(1.0, limit - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker ran past {limit:.0f} s: {' '.join(cmd[2:])}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {' '.join(cmd[2:])}")
    result = None
    for line in out.decode().splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return ready, result


def run(args, root: Path) -> dict:
    t_end = time.perf_counter() + RUN_LIMIT_S
    env = _env(root)
    base = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]

    def remaining() -> float:
        return t_end - time.perf_counter()

    def worker(mode, *extra, share=0.8):
        ready, result = spawn(
            base + ["--mode", mode, "--budget", f"{remaining() * share:.1f}", *extra], env, remaining()
        )
        if result is None:
            raise WorkerError(f"the {mode} worker printed no result")
        return ready, result

    record = {"setups": [], "setups_raw": []}
    if args.trace:
        # one untraced worker for the overhead ratio, then the traced one
        record["measured"] = worker("plain", "--probes", "0", share=0.3)[1]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        record["traced"] = worker("traced", "--spans", str(spans))[1]
        return record

    def setup(ready, result):
        record["setups_raw"].append(ready)
        record["setups"].append(ready * speed.process_scale(result["cal_ms"][:result["setup_samples"]]))

    for _ in range(SETUP_SAMPLES - 1):
        setup(*worker("setup"))
    ready, record["measured"] = worker("plain")
    setup(ready, record["measured"])
    return record


def scale(result: dict) -> float:
    """Factor from a worker's raw times to times at reference speed."""
    return speed.process_scale(result["cal_ms"])


def at_reference(result: dict) -> list[dict]:
    """A worker's op records, each time scaled by the speed around its op."""
    spans = [(op["t"], op["ms"] / 1e3) for op in result["ops"]]
    ops = []
    for op, k in zip(result["ops"], speed.local_scales(result["cal_ms"], result["cal_t"], spans)):
        op = dict(op, raw_ms=op["ms"], ms=op["ms"] * k)
        if op.get("first_ms") is not None:
            op["first_ms"] *= k
        ops.append(op)
    return ops


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def end_to_end(ops: list[dict], probes: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of the timed ops, and figures kept in the record."""
    ms = [r["ms"] for r in ops]
    wall_s = sum(ms) / 1e3
    metrics = {
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": percentile(ms, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    streams = [r for r in ops if r["kind"] in ("enumerate", "selfdual_stream") and r["status"] == "ok"]
    duals = [r for r in ops if r["kind"] == "dual"]
    firsts = [r["first_ms"] for r in streams if r["first_ms"] is not None]
    extra = {
        "samples": {"op_p50_ms": len(ms), "op_p90_ms": len(ms)},
        "first_item_ms": statistics.median(firsts) if firsts else None,
        "enum_items_per_s": sum(r["items"] for r in streams) / (sum(r["ms"] for r in streams) / 1e3)
        if streams else None,
        "dual_docs_per_s": len(duals) / (sum(r["ms"] for r in duals) / 1e3) if duals else None,
        "failed_ratio": sum(r["status"] != "ok" for r in ops + probes) / len(ops + probes),
    }
    return metrics, extra


def summarize(args, record: dict) -> dict:
    ops = at_reference(record["measured"])
    measured = [ops]
    if args.trace:
        traced = record["traced"]
        probes = traced["probes"]
        traced_ops = at_reference(traced)
        measured.append(traced_ops)
        wall = sum(r["ms"] for r in traced_ops) / sum(r["ms"] for r in ops)
        k = scale(traced)
        values = {name: v * k if name.endswith("_s") else v for name, v in traced["layers"].items()}
        values["trace.overhead"] = wall
        table = spec.PER_LAYER
    else:
        probes = record["measured"]["probes"]
        values = {"setup_s": statistics.median(record["setups"])}
        table = [(n, u, b) for n, u, b, _ in spec.END_TO_END]
    metrics, extra = end_to_end(ops, probes, record["measured"]["peak_rss_mb"])
    values.update(metrics)
    wrong = sum(r["status"].startswith("wrong") for r in probes)
    failed = sum(r["status"] != "ok" for ops in measured for r in ops)
    record["extra"] = extra
    return {
        "correct": failed == 0 and wrong == 0,
        "attempted": sum(len(ops) for ops in measured),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=spec.HELDOUT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (root / "src" / "ccring" / "__init__.py").is_file():
        print(f"error: no ccring source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        record = run(args, root)
    except WorkerError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    result = summarize(args, record)

    OUT_DIR.mkdir(exist_ok=True)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        env=record["measured"]["env"], result=result,
        samples={**record["extra"]["samples"], "setup_s": len(record["setups"])},
        speed_scale=[scale(r) for r in (record["measured"], record.get("traced")) if r],
    )
    path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    extra = {k: v for k, v in record["extra"].items() if k != "samples"}
    print(f"  {args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, extra {json.dumps(extra)}", file=sys.stderr)
    probes = record["traced" if args.trace else "measured"]["probes"]
    for probe in probes:
        print(f"  probe {probe['kind']} {probe.get('ring')}: {probe['status'][:70]} "
              f"({probe['ms'] / 1e3:.2f} s)", file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
