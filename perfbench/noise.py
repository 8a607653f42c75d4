"""Measure the machine's noise floor and record it in noise_floor.json.

    python3 perfbench/noise.py [--runs 12]

Times a fixed pure-Python loop in fresh interpreters, one at a time.  Its
spread across runs is the least a benchmark metric can be trusted to, so
the bounds in BENCHMARK.json are set from measured spreads, not guessed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "noise_floor.json"

LOOP = """
import time
start = time.perf_counter()
total = 0
for i in range(6_000_000):
    total += i * i % 7
print(time.perf_counter() - start)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=12)
    args = parser.parse_args(argv)
    times = [float(subprocess.run([sys.executable, "-c", LOOP], check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(args.runs)]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loop": "for i in range(6_000_000): total += i * i % 7",
        "runs": len(times),
        "seconds": [round(t, 4) for t in times],
        "min_s": min(times),
        "median_s": median,
        "max_s": max(times),
        "range_share": (max(times) - min(times)) / median,
        "iqr_share": (q3 - q1) / median,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
