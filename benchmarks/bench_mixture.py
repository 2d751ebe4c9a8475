"""Micro-benchmark of the mixture-prior kernel on the reference shape.

    python3 benchmarks/bench_mixture.py [--out BENCH_2.json]

Times three calls on a seeded 784-300-100-10 network (I = 266,200 weights)
under a 17-component mixture (16 free components plus the zero spike):

    prior_grads  the prior gradient pass of one retraining step
    log_prior    the log prior inside one epoch's complexity loss
    quantize     the argmax assignment of every weight

Each call runs once untimed, then REPEATS times. The median and min of the
timed runs go to the JSON file, with the environment record of
perfbench/run.py: the Python, numpy and BLAS versions, the BLAS thread
variables, the usable CPU count, the CPU model and the git commit. The script
imports softshare from the src/ directory of the checkout it sits in, so a
copy of it measures the checkout it is copied into. It changes no thread
setting: set OPENBLAS_NUM_THREADS in its environment to pin the BLAS thread
count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from softshare.mixture import init_mixture, log_prior, prior_grads  # noqa: E402
from softshare.net import flat_weights, make_network  # noqa: E402
from softshare.postprocess import quantize  # noqa: E402

SIZES = (784, 300, 100, 10)
N_FREE = 16
PI0 = 0.95
REPEATS = 15


def time_call(fn) -> dict:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_ms": 1e3 * statistics.median(times), "min_ms": 1e3 * min(times),
            "repeats": REPEATS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_2.json")
    args = ap.parse_args(argv)

    net = make_network(SIZES, seed=0)
    w = flat_weights(net)
    m = init_mixture(w, N_FREE, PI0, weight_decay=0.0)
    env = run.environment({v: os.environ.get(v) for v in run.THREAD_VARS})
    if isinstance(env["blas"], dict):  # keep name and version, not build directories
        env["blas"] = f"{env['blas'].get('name', 'unknown')} {env['blas'].get('version', '')}".strip()
    result = {
        "shape": {"weights": int(w.size), "components": m.n_components},
        "environment": env,
        "kernels": {
            "prior_grads": time_call(lambda: prior_grads(w, m)),
            "log_prior": time_call(lambda: log_prior(w, m)),
            "quantize": time_call(lambda: quantize(net, m)),
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, t in result["kernels"].items():
        print(f"{name:12s} median {t['median_ms']:8.1f} ms   min {t['min_ms']:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
