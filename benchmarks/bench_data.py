"""Micro-benchmark of the synthetic corpus at the reference sizes.

    python3 benchmarks/bench_data.py [--out BENCH_10.json]

Times synthetic_digits(8000, 2000), the load-data stage of the reference
synthetic run: one untimed call, then REPEATS timed calls, whose median and
min go to the JSON file. One more call runs under tracemalloc; its traced
peak is recorded beside the bytes of the four arrays it returns, so the
excess is the generator's own working memory. The environment record is
the one of perfbench/run.py, as in bench_mixture.py. The script imports
softshare from the src/ directory of the checkout it sits in, so a copy of
it measures the checkout it is copied into.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from softshare.data import synthetic_digits  # noqa: E402

N_TRAIN, N_TEST = 8000, 2000
REPEATS = 7


def corpus():
    return synthetic_digits(N_TRAIN, N_TEST)


def time_call(fn) -> dict:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_ms": 1e3 * statistics.median(times), "min_ms": 1e3 * min(times),
            "repeats": REPEATS}


def traced_peak() -> dict:
    tracemalloc.start()
    try:
        ds = corpus()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (ds.train.inputs, ds.train.labels,
                                  ds.test.inputs, ds.test.labels))
    return {"traced_peak_mib": peak / 2**20, "returned_mib": kept / 2**20,
            "excess_mib": (peak - kept) / 2**20}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_10.json")
    args = ap.parse_args(argv)

    env = run.environment({v: os.environ.get(v) for v in run.THREAD_VARS})
    if isinstance(env["blas"], dict):  # keep name and version, not build directories
        env["blas"] = f"{env['blas'].get('name', 'unknown')} {env['blas'].get('version', '')}".strip()
    result = {
        "shape": {"train": N_TRAIN, "test": N_TEST, "side": 28},
        "environment": env,
        "kernels": {"synthetic_digits": time_call(corpus)},
        "memory": traced_peak(),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    t, m = result["kernels"]["synthetic_digits"], result["memory"]
    print(f"synthetic_digits median {t['median_ms']:8.1f} ms   min {t['min_ms']:8.1f} ms")
    print(f"traced peak {m['traced_peak_mib']:.1f} MiB, {m['excess_mib']:.1f} MiB above "
          f"the {m['returned_mib']:.1f} MiB it returns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
