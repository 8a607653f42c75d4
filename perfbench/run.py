"""The epiflow benchmark.

    python3 perfbench/run.py --workload ladder|loop16|fuzz --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it needs nothing beyond the standard
library and imports epiflow from the checkout's ``src/``.  Every repeat of
a workload runs in a fresh interpreter (``one_pass.py``), one at a time,
because heap state left by one repeat slows the next.

``--trace 0`` runs a few set-up-only launches, one plain pass for peak
memory, then timed passes until the next one would not fit in
``--seconds`` (at least one), and reports the end-to-end metrics as
medians.  ``--trace 1`` runs one untraced, one
traced and one tracemalloc pass, and reports the per-layer metrics and
the tracing overhead.  ``--smoke`` shrinks every workload so the
benchmark's own tests run in seconds on the same code paths.

Run-to-run spread on a shared machine is mostly the machine's speed
drifting (``noise_floor.json``), so the bounded times, setup_s and
pass_ref_s, are rescaled to a reference speed sampled right after set-up
and while the ops run (``calibration.py``); raw wall times are printed
beside them.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A pass that cannot run (for instance without ``src/epiflow``)
makes the benchmark exit 1 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_CHUNK_S
from tracing import PER_LAYER, SELF_TIME_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 6
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s
# a fixed hash seed gives every pass the same dict and set layouts
PASS_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

# name -> unit; the ones the JSON result carries, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "peak_rss_mb": "MB",
}
# Printed but not carried in the JSON.  Raw wall times drift with the
# machine's speed by more than any bound the benchmark could hold, so only
# their rescaled twins are bounded.  The JSON holds the same metrics on
# every workload; each fuzz op runs both readings, so only the check
# workloads split time by reading, and only the fuzz workload has enough
# similar ops for latency percentiles.  error_rate is printed too: it is 0
# at a correct commit, and the JSON carries it as failed / attempted.
REPORTED = {"setup_wall_s": "s", "pass_s": "s", "runs_per_s": "1/s", "chunk_ms": "ms"}
READING_SPLIT = {"epistemic_s": "s", "epistemic_ref_s": "s",
                 "trace_s": "s", "trace_ref_s": "s"}
FUZZ_LATENCY = {"run_p50_ms": "ms", "run_p99_ms": "ms"}


class PassError(RuntimeError):
    """A pass could not run or gave no result."""


def spawn(args, mode: str, deadline: float) -> dict:
    """One pass in a fresh interpreter; its JSON result."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise PassError(f"no time left for a {mode} pass")
    command = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode]
    if args.smoke:
        command.append("--smoke")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(command + ["--t0", repr(t0)], cwd=ROOT, env=PASS_ENV,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass did not end within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def untraced(args, start: float) -> tuple[dict, list[dict], list[str]]:
    """End-to-end metrics from the passes that fit in --seconds.

    Slowdowns on a shared machine come in episodes, so time is taken op by
    op: each op's median over the passes, summed over the ops.  The _ref_
    metrics rescale every op to the reference machine speed (calibration.py).
    """
    deadline = start + TIME_LIMIT_S
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_LAUNCHES)]
    # the calibration samples raise peak memory a little, so it comes from
    # a pass of its own
    memory = spawn(args, "plain", deadline)
    passes = [spawn(args, "timed", deadline)]
    longest = max(memory["wall_s"], passes[0]["wall_s"])
    while time.perf_counter() + longest <= start + args.seconds:
        passes.append(spawn(args, "timed", deadline))
        longest = max(longest, passes[-1]["wall_s"])
    setups += [memory, *passes]

    def per_op(key: str) -> list[float]:
        return [statistics.median(times) for times in zip(*(p[key] for p in passes))]

    op_s, op_ref_s = per_op("op_s"), per_op("op_ref_s")
    n = len(passes)
    metrics = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
        "setup_wall_s": statistics.median(p["setup_s"] for p in setups),
        "pass_ref_s": sum(op_ref_s),
        "peak_rss_mb": memory["peak_rss_mb"],
        "pass_s": sum(op_s),
        "runs_per_s": len(op_s) / sum(op_s),
        "chunk_ms": 1000 * statistics.median(c for p in passes for c in p["chunk_s"]),
    }
    basis = {
        "setup_s": f"median of {len(setups)} launches, at reference speed",
        "setup_wall_s": f"median of {len(setups)} launches",
        "pass_ref_s": f"sum over {len(op_s)} ops of each op's median over {n} passes, "
                      "at reference speed",
        "peak_rss_mb": "one pass without calibration samples",
        "pass_s": f"sum over {len(op_s)} ops of each op's median over {n} passes; "
                  f"pass wall times {min(p['pass_s'] for p in passes):.6g} .. "
                  f"{max(p['pass_s'] for p in passes):.6g}",
        "runs_per_s": "ops per pass / pass_s",
        "chunk_ms": f"median of {sum(len(p['chunk_s']) for p in passes)} calibration "
                    f"samples; at reference speed {1000 * REFERENCE_CHUNK_S:g} ms",
    }
    shown = {**END_TO_END, **REPORTED}
    if args.workload == "fuzz":
        shown.update(FUZZ_LATENCY)
        metrics["run_p50_ms"] = 1000 * statistics.median(op_s)
        metrics["run_p99_ms"] = 1000 * p99(op_s)
        for name in FUZZ_LATENCY:
            basis[name] = f"{len(op_s)} ops, each the median of {n} passes"
    else:
        shown.update(READING_SPLIT)
        readings = passes[0]["op_reading"]
        for reading in ("epistemic", "trace"):
            for name, times in ((f"{reading}_s", op_s), (f"{reading}_ref_s", op_ref_s)):
                metrics[name] = sum(t for t, r in zip(times, readings) if r == reading)
                basis[name] = f"{reading}-reading ops only, as for {name.replace(reading, 'pass')}"
    checked = [memory, *passes]
    failed = sum(p["failed"] for p in checked)
    attempted = sum(p["attempted"] for p in checked)
    metrics["error_rate"] = failed / attempted
    shown["error_rate"] = "ratio"
    basis["error_rate"] = f"failed / attempted ops = {failed} / {attempted}"

    lines = [f"{args.workload:7} {name:30} {metrics[name]:14.6f} {unit:6} {basis[name]}"
             for name, unit in shown.items()]
    return {name: metrics[name] for name in END_TO_END}, checked, lines


def traced(args, start: float) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics from a traced pass and a tracemalloc pass."""
    deadline = start + TIME_LIMIT_S
    plain = spawn(args, "plain", deadline)
    trace = spawn(args, "trace", deadline)
    alloc = spawn(args, "alloc", deadline)
    metrics = dict(trace["metrics"])
    metrics.update(alloc["metrics"])
    self_s = sum(metrics[name] for name in SELF_TIME_METRICS.values())
    metrics["trace.pass_s"] = trace["pass_s"]
    metrics["trace.untraced_pass_s"] = plain["pass_s"]
    metrics["trace.overhead_s"] = trace["pass_s"] - plain["pass_s"]
    metrics["trace.unaccounted_s"] = trace["pass_s"] - self_s - metrics["runtime.gc_s"]
    absent = sorted(set(trace["absent"]) | set(alloc["absent"]))
    metrics["trace.absent_targets"] = len(absent)
    metrics = {name: metrics[name] for name in PER_LAYER}

    lines = [f"{args.workload:7} {name:30} {value:14.6f} {PER_LAYER[name]}"
             for name, value in metrics.items()]
    looked_up = metrics["logic.cache_hits"] + metrics["logic.points_visited"]
    lines.append(f"{args.workload:7} logic.cache_hit_ratio base: cache_hits / "
                 f"(cache_hits + points_visited) = {metrics['logic.cache_hits']} / {looked_up}")
    accounted = self_s + metrics["runtime.gc_s"]
    within = abs(metrics["trace.unaccounted_s"]) <= abs(metrics["trace.overhead_s"])
    lines.append(f"{args.workload:7} layer self times + runtime.gc_s = {accounted:.6f} s "
                 f"of traced pass_s {trace['pass_s']:.6f} s; unaccounted "
                 f"{metrics['trace.unaccounted_s']:.6f} s, tracing overhead "
                 f"{metrics['trace.overhead_s']:.6f} s ({'within' if within else 'NOT within'})")
    lines += [f"{args.workload:7} absent (layer removed or renamed): {name}" for name in absent]
    return metrics, [plain, trace, alloc], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs on the same code paths, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start = time.perf_counter()
    try:
        metrics, passes, lines = (traced if args.trace else untraced)(args, start)
    except PassError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for line in lines:
        print(line)
    for p in passes:
        for failure in p["failures"]:
            print(f"{args.workload:7} FAILED {p['mode']}: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
