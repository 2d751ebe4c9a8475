"""Micro-benchmark of the sparse codec on the reference-state network.

    python3 benchmarks/bench_codec.py [--out BENCH_5.json] [--parent PARENT.json]

The input is the quantized 784-300-100-10 network of the benchmark's codec
workload at its reference end state (perfbench/bench.py, REFERENCE_STATE:
about 11%/27%/60% of each layer nonzero, 14 shared values), drawn with seed
0. Three calls are timed:

    encode_network  the whole SWSB blob, p_fc = 5
    decode_network  the weight matrices back from that blob
    huffman_decode  the gap and the value stream of every layer, one call
                    each, coded as encode_layer codes them

Each call runs once untimed, then REPEATS times. The median and min of the
timed runs go to the JSON file, with the environment record of
perfbench/run.py (Python, numpy and BLAS versions, BLAS thread variables,
usable CPU count, CPU model, git commit) and the sha256 of the blob. With
--parent, the file also holds the results of an earlier run (of this script
copied into another checkout) and the parent-over-this speedup of each
median. The script imports softshare from the src/ directory of the checkout
it sits in and uses only the codec's public functions, so a copy of it
measures the checkout it is copied into.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import bench  # noqa: E402
import run  # noqa: E402
from softshare import codec  # noqa: E402

SIZES = (784, 300, 100, 10)
P_FC = 5
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
    ap.add_argument("--out", default="BENCH_5.json")
    ap.add_argument("--parent", default=None,
                    help="result file of the same script run on the parent commit")
    args = ap.parse_args(argv)

    q = bench.quantized_network(np.random.default_rng([0, 0]), SIZES,
                                bench.REFERENCE_STATE)
    blob, report = codec.encode_network(q, P_FC)
    streams = huffman_streams(q)
    env = run.environment({v: os.environ.get(v) for v in run.THREAD_VARS})
    if isinstance(env["blas"], dict):  # keep name and version, not build directories
        env["blas"] = f"{env['blas'].get('name', 'unknown')} {env['blas'].get('version', '')}".strip()
    result = {
        "shape": {"layers": list(SIZES), "nnz": report.total_nnz,
                  "entries": sum(l.n_entries for l in report.layers),
                  "huffman_symbols": sum(n for _, _, n in streams),
                  "blob_bytes": len(blob),
                  "blob_sha256": hashlib.sha256(blob).hexdigest()},
        "environment": env,
        "kernels": {
            "encode_network": time_call(lambda: codec.encode_network(q, P_FC)),
            "decode_network": time_call(lambda: codec.decode_network(blob)),
            "huffman_decode": time_call(
                lambda: [codec.huffman_decode(*s) for s in streams]),
        },
    }
    if args.parent:
        parent = json.loads(Path(args.parent).read_text())
        result = {"parent": parent, "change": result, "speedup": {
            name: parent["kernels"][name]["median_ms"] / t["median_ms"]
            for name, t in result["kernels"].items()}}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    kernels = result["change"]["kernels"] if args.parent else result["kernels"]
    for name, t in kernels.items():
        line = f"{name:15s} median {t['median_ms']:8.2f} ms   min {t['min_ms']:8.2f} ms"
        if args.parent:
            line += f"   {result['speedup'][name]:6.1f}x faster than the parent"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
