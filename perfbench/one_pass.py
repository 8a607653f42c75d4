"""One pass over a workload's ops, in a fresh interpreter.

run.py starts one of these per repeat, so no heap state carries over from
one repeat to the next.  Modes:

    setup   import epiflow and load the inputs, then stop before the ops
    plain   pass exactly as users run the ops; peak memory comes from here
    timed   pass with calibration samples (calibration.py) between
            bytecodes; the end-to-end times come from here
    trace   pass with span wrappers and garbage-collection callbacks
    alloc   pass with tracemalloc around model building and expansion

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this interpreter (the clock is system-wide on Linux), so ``setup_s``
covers interpreter start-up too.  The result is one JSON object on the
last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

from calibration import Calibration, rescale_setup
from tracing import ROOT_SPANS, AllocTracer, Tracer, wrapped_targets
from workloads import build_ops, disagreements

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODES = ("setup", "plain", "timed", "trace", "alloc")


def run_pass(ops, mode: str, t0: float) -> dict:
    """Run every op once, judge each answer, and summarise the pass."""
    setup_s = time.perf_counter() - t0
    setup = {"setup_s": setup_s, "setup_ref_s": rescale_setup(setup_s)}
    if mode == "setup":
        return {"mode": mode, **setup}
    instrument = Tracer() if mode == "trace" else AllocTracer() if mode == "alloc" else None
    if instrument is not None:
        instrument.start()
    traced = instrument if isinstance(instrument, Tracer) else None

    results: dict[str, object] = {}
    failures: dict[str, str] = {}
    op_s: list[float] = []
    spans: list[tuple[float, float, float]] = []
    calibration = Calibration(active=mode == "timed")
    pass_start = time.perf_counter()
    with calibration:
        for op in ops:
            sampled = calibration.spent_s
            start = time.perf_counter()
            try:
                if traced is not None:
                    result = traced.call(ROOT_SPANS[op.kind], op.call)
                else:
                    result = op.call()
            except Exception as exc:  # an op that raises is a failed op
                end = time.perf_counter()
                failures[op.name] = f"{op.name}: raised {exc!r}"
            else:
                end = time.perf_counter()
                results[op.name] = result
                failure = op.judge(result)
                if failure is not None:
                    failures[op.name] = failure
            # the time calibration samples took inside the op is not the op's
            op_s.append(end - start - (calibration.spent_s - sampled))
            spans.append((start, end, op_s[-1]))
    pass_s = time.perf_counter() - pass_start - calibration.spent_s
    if instrument is not None:
        instrument.stop()
    for name, message in disagreements(ops, results).items():
        failures.setdefault(name, message)

    out = {
        "mode": mode,
        **setup,
        "pass_s": pass_s,
        "op_s": op_s,
        "op_reading": [op.reading for op in ops],
        "attempted": len(ops),
        "failed": len(failures),
        "failures": sorted(failures.values())[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if calibration.active:
        out["op_ref_s"] = calibration.rescale(spans)
        out["chunk_s"] = calibration.chunk_s
    if instrument is not None:
        out["metrics"] = instrument.metrics()
        out["absent"] = instrument.absent
    return out


def _assert_uninstrumented() -> None:
    """The untraced pass must run the program exactly as users run it."""
    wrapped = wrapped_targets()
    if wrapped or tracemalloc.is_tracing() or gc.callbacks:
        raise RuntimeError(
            f"untraced pass is instrumented: wrappers on {wrapped}, "
            f"tracemalloc={tracemalloc.is_tracing()}, gc callbacks={gc.callbacks}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import epiflow

    source = Path(epiflow.__file__).resolve().parent
    if source != ROOT / "src" / "epiflow":
        raise RuntimeError(f"imported epiflow from {source}, not from this checkout")

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build_ops(args.workload, args.seed, args.smoke, workdir)
        result = run_pass(ops, args.mode, args.t0)
        if args.mode in ("plain", "timed"):
            _assert_uninstrumented()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another pass still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
