"""Micro-benchmark of the mixture-prior kernel on the reference shape.

    python3 benchmarks/bench_mixture.py [--out BENCH_2.json]

Times three calls on a seeded 784-300-100-10 network (I = 266,200 weights)
under a 17-component mixture (16 free components plus the zero spike):

    prior_grads  the prior gradient pass of one retraining step
    log_prior    the log prior inside one epoch's complexity loss
    quantize     the argmax assignment of every weight

at three mixture states, which name each kernel (prior_grads_early, ...):

    early  the init mixture over the seeded network, where the perfbench
           compress workload runs: every (weight, component) log joint is
           within 708 of its weight's maximum, so every exp is normal
    mid    the init means at variance 5e-6, with 87% of the weights drawn
           around the zero spike and the rest around a random free mean
    late   the same at variance 1e-6, where most log joints lie more than
           708 below their weight's maximum and their exp underflows

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
import math
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import run  # noqa: E402
from softshare.mixture import init_mixture, log_prior, prior_grads  # noqa: E402
from softshare.net import make_network  # noqa: E402
from softshare.postprocess import quantize  # noqa: E402

SIZES = (784, 300, 100, 10)
N_FREE = 16
PI0 = 0.95
REPEATS = 15
STATE_VARIANCES = {"mid": 5e-6, "late": 1e-6}
SPIKE_SHARE = 0.87


def time_call(fn) -> dict:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_ms": 1e3 * statistics.median(times), "min_ms": 1e3 * min(times),
            "repeats": REPEATS}


def states() -> dict:
    """The three (network, mixture) states of the module docstring."""
    net = make_network(SIZES, seed=0)
    m = init_mixture(net.weights, N_FREE, PI0, weight_decay=0.0)
    out = {"early": (net, m)}
    for state, var in STATE_VARIANCES.items():
        rng = np.random.default_rng(1)
        ms = m.copy()
        ms.log_vars[:] = math.log(var)
        n = net.weight_count
        j = np.where(rng.random(n) < SPIKE_SHARE, 0, rng.integers(1, ms.n_components, n))
        net_s = make_network(SIZES, seed=0)
        net_s.weights[:] = ms.means[j] + math.sqrt(var) * rng.standard_normal(n)
        out[state] = (net_s, ms)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_2.json")
    args = ap.parse_args(argv)

    env = run.environment({v: os.environ.get(v) for v in run.THREAD_VARS})
    if isinstance(env["blas"], dict):  # keep name and version, not build directories
        env["blas"] = f"{env['blas'].get('name', 'unknown')} {env['blas'].get('version', '')}".strip()
    kernels = {}
    for state, (net, m) in states().items():
        w = net.weights
        kernels[f"prior_grads_{state}"] = time_call(lambda: prior_grads(w, m))
        kernels[f"log_prior_{state}"] = time_call(lambda: log_prior(w, m))
        kernels[f"quantize_{state}"] = time_call(lambda: quantize(net, m))
    result = {
        "shape": {"weights": int(w.size), "components": m.n_components},
        "environment": env,
        "kernels": kernels,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, t in result["kernels"].items():
        print(f"{name:18s} median {t['median_ms']:8.1f} ms   min {t['min_ms']:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
