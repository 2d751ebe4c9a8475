"""Micro-benchmark of the training kernels on the reference shape.

    python3 benchmarks/bench_train.py [--out BENCH_11.json]

Times two kernels of every training step and the test-set evaluation on a
seeded 784-300-100-10 network and batches of the synthetic corpus:

    error_loss_and_grad_b128  backprop of one pretraining batch (128 images)
    error_loss_and_grad_b256  backprop of one retraining batch (256 images)
    adam_steps                the two Adam steps of one training step, over
                              the flat weight and bias vectors, on the
                              gradients of a batch of 128, without the L2
                              term, as the reference pretraining runs them
    evaluate_2000             the test error over the reference test set
                              (2000 images), as every retraining epoch and
                              the encode stage take it

Each call runs WARMUP times untimed, then REPEATS times. The median and min
of the timed runs, and the minor page faults per timed call, go to the JSON
file, with the environment record of perfbench/run.py, as in
bench_mixture.py. One more evaluate_2000 call runs under tracemalloc, and
its traced peak goes to the file's memory record, as in bench_data.py: the
whole-batch layer trace of 2000 images is about 13 MB, one block of
net.EVAL_BLOCK rows well under 2 MB.

Warm-up does not warm the heap for a kernel that allocates weight-sized
temporaries. In this small process glibc hands the freed top of its heap
back to the kernel after every call, so each call page-faults its
temporaries afresh. The whole-array Adam step, which made about a dozen
1.9 MB temporaries per (300, 784) array, took 7.0-9.6 ms per step of all
six layer arrays here, with ~1,800 faults per call (2-core Xeon). In the perfbench process,
whose repeated set-up leaves freed holes in the heap, the same step took
5.2 ms with no faults. That cold-heap cost is why the 6.3-7.9 ms once
recorded for that step overstated it. The blocked step allocates nothing
per call: 2.8-3.3 ms here, ~3.1 ms in perfbench. Backprop at batch 256
faults here too, ~1,100 times per call for 12-13 ms, against 6.0 ms with no
faults in perfbench's compress process. Compare the faults column before
comparing figures across versions or processes.

The script imports softshare from the src/ directory of the checkout it sits
in, so a copy of it measures the checkout it is copied into. It changes no
thread setting: set OPENBLAS_NUM_THREADS in its environment to pin the BLAS
thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
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
from softshare.net import Batch, error_loss_and_grad, evaluate, make_network  # noqa: E402
from softshare.train import AdamState  # noqa: E402

SIZES = (784, 300, 100, 10)
BATCHES = (128, 256)
N_TEST = 2000
WARMUP = 5
REPEATS = 50


def time_call(fn) -> dict:
    for _ in range(WARMUP):
        fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"median_ms": 1e3 * statistics.median(times), "min_ms": 1e3 * min(times),
            "repeats": REPEATS, "faults_per_call": faults / REPEATS}


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_11.json")
    args = ap.parse_args(argv)

    net = make_network(SIZES, seed=0)
    corpus = synthetic_digits(max(BATCHES), N_TEST, seed=0)
    data, test = corpus.train, corpus.test
    batches = {n: Batch(data.inputs[:n], data.labels[:n]) for n in BATCHES}
    _, d_weights, d_biases = error_loss_and_grad(net, batches[128])
    adam_w = AdamState(net.weights.shape, 1e-3)
    adam_b = AdamState(net.biases.shape, 1e-3)

    def adam_steps():
        adam_w.step(net.weights, d_weights)
        adam_b.step(net.biases, d_biases)

    env = run.environment({v: os.environ.get(v) for v in run.THREAD_VARS})
    if isinstance(env["blas"], dict):  # keep name and version, not build directories
        env["blas"] = f"{env['blas'].get('name', 'unknown')} {env['blas'].get('version', '')}".strip()
    kernels = {f"error_loss_and_grad_b{n}": time_call(lambda b=b: error_loss_and_grad(net, b))
               for n, b in batches.items()}
    kernels["adam_steps"] = time_call(adam_steps)
    kernels["evaluate_2000"] = time_call(lambda: evaluate(net, test))
    result = {
        "shape": {"layer_sizes": list(SIZES), "batches": list(BATCHES), "test": N_TEST},
        "environment": env,
        "kernels": kernels,
        "memory": {"evaluate_2000": {"traced_peak_mib": traced_peak_mib(
            lambda: evaluate(net, test))}},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, t in kernels.items():
        print(f"{name:26s} median {t['median_ms']:8.2f} ms   min {t['min_ms']:8.2f} ms"
              f"   {t['faults_per_call']:7.1f} faults/call")
    print(f"evaluate_2000 traced peak "
          f"{result['memory']['evaluate_2000']['traced_peak_mib']:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
