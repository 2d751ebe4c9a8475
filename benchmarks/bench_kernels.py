"""Micro-benchmarks of the pipeline's kernels on fixed reference shapes.

    python3 benchmarks/bench_kernels.py --out RESULT.json

Times 17 kernels, grouped by the module they exercise:

  mixture prior, on a seeded 784-300-100-10 network (I = 266,200 weights)
  under a 17-component mixture (16 free components plus the zero spike):
    prior_grads_*  the prior gradient pass of one retraining step
    log_prior_*    the log prior inside one epoch's complexity loss
    quantize_*     the argmax assignment of every weight
  each at three mixture states:
    early  the init mixture over the seeded network, where the perfbench
           compress workload runs: every (weight, component) log joint is
           within 708 of its weight's maximum, so every exp is normal
    mid    the init means at variance 5e-6, with 87% of the weights drawn
           around the zero spike and the rest around a random free mean
    late   the same at variance 1e-6, where most log joints lie more than
           708 below their weight's maximum and their exp underflows

  codec, on the quantized network of perfbench's codec workload at its
  reference end state (perfbench/bench.py, REFERENCE_STATE), drawn with
  seed 0; the blob's size, sha256 and nnz go to the shape record:
    encode_network  the whole SWSB blob, p_fc = 5
    decode_network  the weight matrices back from that blob
    huffman_decode  the gap and the value stream of every layer, one call
                    each, coded as encode_layer codes them

  data:
    synthetic_digits  the corpus at the reference sizes (8000, 2000), the
                      load-data stage of the reference synthetic run

  training, on a seeded network and synthetic_digits(256, 2000):
    error_loss_and_grad_b128  backprop of one pretraining batch
    error_loss_and_grad_b256  backprop of one retraining batch
    adam_steps                the two Adam steps of one training step, over
                              the flat weight and bias vectors, on the
                              gradients of a batch of 128
    evaluate_2000             the test error over the 2000 test images
    retrain_epoch             one retraining epoch of the same network over
                              the 256 training images at batch 256 (traced
                              peak only, not timed)

Each kernel runs untimed a few times, then a fixed number of timed calls.
The median and min of the timed calls, their count and the minor page
faults per timed call go to the JSON file's "kernels". One more
synthetic_digits and one more evaluate_2000 call, and the retrain_epoch
call on a copy of the network made beforehand, run under tracemalloc; their
traced peaks go to its "memory" record (for synthetic_digits beside the
bytes of the arrays it returns, so the excess is the generator's own
working memory). The environment record is that of perfbench/run.py: the
Python, numpy and BLAS versions, the BLAS thread variables, the usable CPU
count, the CPU model and the git commit.

Compare the faults column before comparing figures across versions or
processes. Warm-up does not warm the heap for a kernel that allocates
large temporaries: when glibc hands the freed top of its heap back to the
kernel after a call, the next call page-faults its temporaries afresh, and
whether it does depends on the process's allocation history. On a 2-core
Xeon at one BLAS thread, error_loss_and_grad_b256 took 7.4 ms per call with
no faults here, against 10.4 ms and ~1,080 faults in a process of its own;
the quantize kernels, fault-free alone, fault ~1,084 times per call here.

The script imports softshare from the src/ directory of the checkout it
sits in, so a copy of it measures the checkout it is copied into. It
changes no thread setting: set OPENBLAS_NUM_THREADS in its environment to
pin the BLAS thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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

import numpy as np  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
from softshare import codec  # noqa: E402
from softshare.config import ExperimentConfig  # noqa: E402
from softshare.data import synthetic_digits  # noqa: E402
from softshare.mixture import init_mixture, log_prior, prior_grads  # noqa: E402
from softshare.net import Batch, error_loss_and_grad, evaluate, make_network  # noqa: E402
from softshare.postprocess import quantize  # noqa: E402
from softshare.train import AdamState, retrain  # noqa: E402

SIZES = (784, 300, 100, 10)
N_FREE, PI0 = 16, 0.95
STATE_VARIANCES = {"mid": 5e-6, "late": 1e-6}
SPIKE_SHARE = 0.87
P_FC = 5
N_TRAIN, N_TEST = 8000, 2000
BATCHES = (128, 256)


def time_call(fn, repeats: int = 15, warmup: int = 1) -> dict:
    for _ in range(warmup):
        fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"median_ms": 1e3 * statistics.median(times), "min_ms": 1e3 * min(times),
            "repeats": repeats, "faults_per_call": faults / repeats}


def traced(fn):
    """fn's result and the traced peak of the call, in MiB."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def mixture_states(net) -> dict:
    """The early, mid and late (network, mixture) states of the docstring."""
    m = init_mixture(net.weights, N_FREE, PI0, weight_decay=0.0)
    out = {"early": (net, m)}
    for state, var in STATE_VARIANCES.items():
        rng = np.random.default_rng(1)
        ms = m.copy()
        ms.log_vars[:] = math.log(var)
        n = net.weight_count
        j = np.where(rng.random(n) < SPIKE_SHARE, 0, rng.integers(1, ms.n_components, n))
        net_s = net.copy()
        net_s.weights[:] = ms.means[j] + math.sqrt(var) * rng.standard_normal(n)
        out[state] = (net_s, ms)
    return out


def huffman_streams(q) -> list:
    """(table, payload, count) of the gap and value stream of every layer."""
    streams = []
    for ql in q.layers:
        csr = codec.to_csr(q.means[ql.assignments])
        gaps, values = codec.rel_encode(csr.ic, csr.a, csr.ir, P_FC)
        values, vidx = codec.build_codebook(values)
        for symbols, alphabet in ((gaps, 1 << P_FC), (vidx, values.size)):
            table, payload, _ = codec.huffman_encode(symbols, alphabet)
            streams.append((table, payload, symbols.size))
    return streams


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write the results to")
    args = ap.parse_args(argv)

    env = run.environment({v: os.environ.get(v) for v in run.THREAD_VARS})
    if isinstance(env["blas"], dict):  # keep name and version, not build directories
        env["blas"] = f"{env['blas'].get('name', 'unknown')} {env['blas'].get('version', '')}".strip()
    kernels, memory = {}, {}

    for state, (net, m) in mixture_states(make_network(SIZES, seed=0)).items():
        w = net.weights
        kernels[f"prior_grads_{state}"] = time_call(lambda: prior_grads(w, m))
        kernels[f"log_prior_{state}"] = time_call(lambda: log_prior(w, m))
        kernels[f"quantize_{state}"] = time_call(lambda: quantize(net, m))

    q = bench.quantized_network(np.random.default_rng([0, 0]), SIZES, bench.REFERENCE_STATE)
    blob, report = codec.encode_network(q, P_FC)
    streams = huffman_streams(q)
    kernels["encode_network"] = time_call(lambda: codec.encode_network(q, P_FC))
    kernels["decode_network"] = time_call(lambda: codec.decode_network(blob))
    kernels["huffman_decode"] = time_call(
        lambda: [codec.huffman_decode(*s) for s in streams])

    kernels["synthetic_digits"] = time_call(
        lambda: synthetic_digits(N_TRAIN, N_TEST), repeats=7)
    ds, peak = traced(lambda: synthetic_digits(N_TRAIN, N_TEST))
    kept = sum(a.nbytes for b in (ds.train, ds.test) for a in (b.inputs, b.labels)) / 2**20
    memory["synthetic_digits"] = {"traced_peak_mib": peak, "returned_mib": kept,
                                  "excess_mib": peak - kept}
    del ds

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

    for n, b in batches.items():
        kernels[f"error_loss_and_grad_b{n}"] = time_call(
            lambda b=b: error_loss_and_grad(net, b), repeats=50, warmup=5)
    kernels["adam_steps"] = time_call(adam_steps, repeats=50, warmup=5)
    kernels["evaluate_2000"] = time_call(lambda: evaluate(net, test), repeats=50, warmup=5)
    memory["evaluate_2000"] = {"traced_peak_mib": traced(lambda: evaluate(net, test))[1]}
    retrain_cfg = ExperimentConfig(batch_size=max(BATCHES), retrain_epochs=1)
    retrain_net = net.copy()
    retrain_mixture = init_mixture(retrain_net.weights, N_FREE, PI0, weight_decay=0.0)
    memory["retrain_epoch"] = {"traced_peak_mib": traced(
        lambda: retrain(retrain_net, retrain_mixture, data, retrain_cfg))[1]}

    result = {
        "shape": {"layer_sizes": list(SIZES), "components": N_FREE + 1,
                  "weights": net.weight_count, "codec_nnz": report.total_nnz,
                  "codec_blob_bytes": len(blob),
                  "codec_blob_sha256": hashlib.sha256(blob).hexdigest(),
                  "huffman_symbols": sum(n for _, _, n in streams),
                  "corpus": [N_TRAIN, N_TEST], "batches": list(BATCHES)},
        "environment": env,
        "kernels": kernels,
        "memory": memory,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, t in kernels.items():
        print(f"{name:26s} median {t['median_ms']:8.2f} ms   min {t['min_ms']:8.2f} ms"
              f"   {t['faults_per_call']:7.1f} faults/call")
    for name, mem in memory.items():
        print(f"{name} traced peak {mem['traced_peak_mib']:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
