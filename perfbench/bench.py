"""Workloads, output checks and the measurement loop of the softshare benchmark.

Each workload has a set-up, a timed body and an untimed output step that
checks the body's outputs and, where the workload defines them, times
encode and decode samples of the model it produced. The loop is closed with
one caller: every body starts after the previous one and its checks end.

Inputs come only from the seed: the synthetic corpus and the baseline
network (``compress``, ``pretrain``) or the quantized networks (``codec``).
Every artifact is written under the temporary directory the caller passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import softshare.checkpoint as checkpoint
import softshare.codec as codec
import softshare.net as net_mod
import softshare.pipeline as pipeline
import softshare.postprocess as postprocess
from softshare.config import load_config
from softshare.errors import SoftShareError

from tracer import Tracer

# (name, unit, better); the order is the order of the printed metrics
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("mixture.prior_grads.calls", "count", "lower"),
    ("mixture.prior_grads.s", "s", "lower"),
    ("mixture.prior_grads.ms_p50", "ms", "lower"),
    ("mixture.prior_grads.elements", "count", "lower"),
    ("mixture.log_prior.s", "s", "lower"),
    ("mixture.responsibilities.s", "s", "lower"),
    ("mixture.init_mixture.s", "s", "lower"),
    ("net.error_loss_and_grad.calls", "count", "lower"),
    ("net.error_loss_and_grad.s", "s", "lower"),
    ("net.error_loss_and_grad.ms_p50", "ms", "lower"),
    ("net.evaluate.s", "s", "lower"),
    ("train.AdamState.step.calls", "count", "lower"),
    ("train.AdamState.step.s", "s", "lower"),
    ("train.retrain.self_s", "s", "lower"),
    ("train.complexity_loss.self_s", "s", "lower"),
    ("pipeline.pretrain_network.self_s", "s", "lower"),
    ("postprocess.merge_pass.s", "s", "lower"),
    ("postprocess.quantize.self_s", "s", "lower"),
    ("postprocess.save_quantized.s", "s", "lower"),
    ("postprocess.load_quantized.s", "s", "lower"),
    ("codec.huffman_decode.calls", "count", "lower"),
    ("codec.huffman_decode.s", "s", "lower"),
    ("codec.huffman_decode.symbols", "count", "lower"),
    ("codec.decode_network.ms_p50", "ms", "lower"),
    ("codec.decode_network.ms_p90", "ms", "lower"),
    ("codec.decode_network.self_s", "s", "lower"),
    ("codec.huffman_encode.calls", "count", "lower"),
    ("codec.huffman_encode.s", "s", "lower"),
    ("codec.huffman_encode.symbols", "count", "lower"),
    ("codec.rel_encode.calls", "count", "lower"),
    ("codec.rel_encode.s", "s", "lower"),
    ("codec.encode_network.ms_p50", "ms", "lower"),
    ("codec.encode_network.ms_p90", "ms", "lower"),
    ("codec.encode_network.self_s", "s", "lower"),
    ("codec.blob_bytes", "bytes", "lower"),
    ("codec.useful_entry_frac", "ratio", "higher"),
    ("checkpoint.save_checkpoint.s", "s", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.s", "s", "lower"),
    ("checkpoint.load_checkpoint.bytes", "bytes", "lower"),
    ("data.synthetic_digits.s", "s", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_pct", "%", "higher"),
)


@dataclass(frozen=True)
class Sizes:
    layer_sizes: tuple = (784, 300, 100, 10)
    n_train: int = 8000
    n_test: int = 2000
    reference_nets: int = 3      # codec inputs per body at the reference end state


FULL = Sizes()
SMOKE = Sizes(layer_sizes=(784, 16, 10), n_train=300, n_test=100, reference_nets=1)

# Epochs of the compress set-up's baseline pretraining, of the compress
# body's retraining and of the pretrain body: one epoch of retraining already
# prunes most weights, so merge, quantize and encode see realistic inputs.
EPOCHS = 1

# Codec input states: per-layer nonzero fractions of the whole matrix and
# the number of nonzero shared values. The reference end state is the
# seed-0 reference run's; the denser one is about 0.21 nonzero overall.
REFERENCE_STATE = ((0.109, 0.270, 0.602), 14)
DENSE_STATE = ((0.20, 0.33, 0.60), 8)
IMAGE_SIDE = 28
DEAD_BORDER = 2   # synthetic_digits zeroes this many pixels on every edge


@dataclass
class Outputs:
    """What the untimed step found in one body's outputs."""
    ok: list = field(default_factory=list)        # one entry per checked operation
    encode_ms: list = field(default_factory=list)  # per network, codec only
    decode_ms: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)   # name -> (value, unit), per seed
    digests: dict = field(default_factory=dict)   # sha256 of output artifacts


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class CodecSample:
    q: postprocess.QuantizedNetwork
    blob: bytes
    report: codec.CompressionReport
    matrices: object            # decoded matrices, None when decoding failed
    encode_ms: float
    decode_ms: float


def encode_decode(q, p_fc: int, p_conv: int) -> CodecSample:
    t0 = time.perf_counter()
    blob, report = codec.encode_network(q, p_fc, p_conv)
    t1 = time.perf_counter()
    try:
        matrices = codec.decode_network(blob)
    except SoftShareError:
        matrices = None
    t2 = time.perf_counter()
    return CodecSample(q, blob, report, matrices, 1e3 * (t1 - t0), 1e3 * (t2 - t1))


def round_trips(q, matrices) -> bool:
    """Decoded matrices equal means[assignments] exactly, layer by layer."""
    if matrices is None or len(matrices) != len(q.layers):
        return False
    return all(np.array_equal(w, q.means[ql.assignments])
               for w, ql in zip(matrices, q.layers))


def sample_ok(s: CodecSample) -> bool:
    return round_trips(s.q, s.matrices) and s.report.total_bits == 8 * len(s.blob)


def experiment_config(seed: int, sizes: Sizes, tmp: Path, root: Path):
    """configs/synthetic.cfg with the benchmark's seed, sizes and paths."""
    base = load_config(root / "configs" / "synthetic.cfg")
    return dataclasses.replace(
        base, seed=seed, layer_sizes=tuple(sizes.layer_sizes),
        synthetic_train=sizes.n_train, synthetic_test=sizes.n_test,
        retrain_epochs=EPOCHS, pretrain_epochs=EPOCHS,
        output_dir=str(tmp / "out"),
        pretrained_checkpoint=str(tmp / "baseline.swsc"))


class Compress:
    """`softshare run` after pretraining: retrain, merge, quantize, encode,
    decode and evaluate, from a baseline handed over as a checkpoint."""
    setups = 3

    def __init__(self, cfg, sizes: Sizes, tmp: Path):
        self.cfg = cfg

    def setup(self) -> None:
        data = pipeline.load_dataset(self.cfg)
        baseline = pipeline.pretrain_network(self.cfg, data)
        checkpoint.save_checkpoint(baseline, self.cfg.pretrained_checkpoint)

    def body(self):
        return pipeline.run_pipeline(self.cfg)

    def outputs(self, result) -> Outputs:
        out = Path(self.cfg.output_dir)
        blob = (out / "weights.swsb").read_bytes()
        qbytes = (out / "quantized.bin").read_bytes()
        rbytes = (out / "report.json").read_bytes()
        q = postprocess.load_quantized(out / "quantized.bin")
        report = json.loads(rbytes)
        try:
            decoded = codec.decode_network(blob)
        except SoftShareError:
            decoded = None
        o = Outputs()
        o.ok.append(round_trips(q, decoded) and report["total_bits"] == 8 * len(blob))
        o.figures = {
            "compression_rate": (report["compression_rate"], "ratio"),
            "error_before": (report["error_before"], "fraction"),
            "error_after": (report["error_after"], "fraction"),
            "n_components_final": (report["n_components_final"], "count"),
            "prune_fraction": (q.prune_fraction(), "fraction"),
        }
        o.digests = {"weights.swsb": sha256(blob), "quantized.bin": sha256(qbytes),
                     "report.json": sha256(rbytes)}
        return o


class Pretrain:
    """`softshare pretrain`: Adam from the seeded init, save, evaluate."""
    setups = 5

    def __init__(self, cfg, sizes: Sizes, tmp: Path):
        self.cfg = cfg
        self.path = tmp / "pretrained.swsc"

    def setup(self) -> None:
        self.data = pipeline.load_dataset(self.cfg)

    def body(self):
        net = pipeline.pretrain_network(self.cfg, self.data)
        checkpoint.save_checkpoint(net, self.path)
        return net, net_mod.evaluate(net, self.data.test)

    def outputs(self, result) -> Outputs:
        net, error = result
        o = Outputs()
        train = self.data.train
        try:
            # mean training loss, in chunks to keep the check's memory small
            loss = float(np.mean([
                net_mod.error_loss_and_grad(net, batch)[0]
                for batch in net_mod.iter_batches(train.inputs, train.labels, 1000)]))
        except SoftShareError:
            loss = math.nan
        try:
            loaded, _, _ = checkpoint.load_checkpoint(self.path)
        except SoftShareError:
            loaded = None
        o.ok.append(math.isfinite(loss) and loaded is not None and all(
            np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)
            for a, b in zip(net.layers, loaded.layers)))
        o.figures = {"pretrain_error": (error, "fraction"),
                     "train_loss": (loss, "nats")}
        o.digests = {"pretrained.swsc": sha256(self.path.read_bytes())}
        return o


def live_columns(n_in: int) -> np.ndarray:
    """Input columns a synthetic image can make nonzero (all, unless the
    input is a 28x28 image with its dead border)."""
    if n_in != IMAGE_SIDE * IMAGE_SIDE:
        return np.arange(n_in)
    y, x = np.divmod(np.arange(n_in), IMAGE_SIDE)
    inner = ((y >= DEAD_BORDER) & (y < IMAGE_SIDE - DEAD_BORDER)
             & (x >= DEAD_BORDER) & (x < IMAGE_SIDE - DEAD_BORDER))
    return np.flatnonzero(inner)


def quantized_network(rng: np.random.Generator, layer_sizes, state):
    """Seeded quantized network: ``state`` fixes the per-layer nonzero
    fractions and the number of nonzero shared values. Nonzero positions
    are uniform over the live columns; value usage falls off geometrically,
    as after merging, and the values themselves are drawn."""
    fractions, n_live = state
    half = n_live // 2
    neg = -np.sort(rng.uniform(0.01, 0.3, half))
    pos = np.sort(rng.uniform(0.01, 0.3, n_live - half))
    means = np.concatenate(([0.0], neg, pos))
    usage = 0.75 ** np.arange(n_live)
    usage = rng.permutation(usage / usage.sum())
    layers = []
    n_layers = len(layer_sizes) - 1
    for k, (n_in, n_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
        cols = live_columns(n_in) if k == 0 else np.arange(n_in)
        frac = fractions[min(k, len(fractions) - 1)]
        nnz = min(round(frac * n_in * n_out), n_out * cols.size)
        flat = rng.choice(n_out * cols.size, size=nnz, replace=False)
        a = np.zeros((n_out, n_in), dtype=np.int64)
        a[flat // cols.size, cols[flat % cols.size]] = 1 + rng.choice(n_live, size=nnz, p=usage)
        layers.append(postprocess.QuantizedLayer(
            a, rng.normal(0.0, 0.05, n_out), "softmax" if k == n_layers - 1 else "relu"))
    return postprocess.QuantizedNetwork(layers, means)


class Codec:
    """encode_network then decode_network on seeded quantized networks,
    each timed per network."""
    setups = 5

    def __init__(self, cfg, sizes: Sizes, tmp: Path):
        self.cfg = cfg
        self.sizes = sizes

    def setup(self) -> None:
        states = [REFERENCE_STATE] * self.sizes.reference_nets + [DENSE_STATE]
        self.nets = [
            quantized_network(np.random.default_rng([self.cfg.seed, k]),
                              self.cfg.layer_sizes, state)
            for k, state in enumerate(states)]

    def body(self):
        return [encode_decode(q, self.cfg.p_fc, self.cfg.p_conv) for q in self.nets]

    def outputs(self, samples) -> Outputs:
        o = Outputs()
        o.ok = [sample_ok(s) for s in samples]
        o.encode_ms = [s.encode_ms for s in samples]
        o.decode_ms = [s.decode_ms for s in samples]
        params = sum(s.report.total_params for s in samples)
        bits = sum(s.report.total_bits for s in samples)
        o.figures = {
            "compression_rate": (32 * params / bits, "ratio"),
            "nonzero_fraction": (sum(s.report.total_nnz for s in samples) / params,
                                 "fraction"),
        }
        o.digests = {"blobs": sha256(b"".join(s.blob for s in samples))}
        return o


WORKLOADS = {"compress": Compress, "pretrain": Pretrain, "codec": Codec}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    encode_ms: list = field(default_factory=list)
    decode_ms: list = field(default_factory=list)
    last: Outputs = None

    def add(self, o: Outputs) -> None:
        self.attempted += len(o.ok)
        self.failed += o.ok.count(False)
        self.encode_ms += o.encode_ms
        self.decode_ms += o.decode_ms
        self.last = o

    def add_failure(self) -> None:
        self.attempted += 1
        self.failed += 1


def run_body(w, tally: Tally, tracer=None) -> float:
    """One timed body, traced when a tracer is given; returns its duration.
    A body in which the program raises its own error is a failed operation."""
    t0 = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            out = w.body()
    except SoftShareError:
        tally.add_failure()
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    tally.add(w.outputs(out))
    return dt


def measure(w, seconds: float) -> tuple[dict, Tally, dict]:
    """Untraced run: the end-to-end metrics."""
    setup_s = []
    for _ in range(w.setups):
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)
    tally = Tally()
    run_s = []
    deadline = time.perf_counter() + seconds
    while True:
        run_s.append(run_body(w, tally))
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setups": len(setup_s), "bodies": len(run_s)}
    return metrics, tally, samples


def measure_traced(w, seconds: float) -> tuple[dict, Tally, dict]:
    """Traced run: untraced and traced bodies alternate until the time is
    up, so the tracing overhead compares like with like. Per-layer figures
    are means per traced body."""
    w.setup()
    tally = Tally()
    tracer = Tracer()
    times = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True):
            times[traced].append(run_body(w, tally, tracer if traced else None))
        if time.perf_counter() >= deadline:
            break
    untraced, traced = times[False], times[True]
    n = len(traced)
    enc = tracer.stats.get("codec.encode_network")
    counters = enc.counters if enc else {}
    traced_s = statistics.median(traced)
    untraced_s = statistics.median(untraced)
    derived = {
        "codec.blob_bytes": counters.get("blob_bytes", 0) / n,
        "codec.useful_entry_frac": (counters["nnz"] / counters["entries"]
                                    if counters.get("entries") else 0.0),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.accounted_pct": 100.0 * tracer.self_total() / sum(traced),
    }
    metrics = {name: derived[name] if name in derived else tracer.layer_metric(name, n)
               for name, _, _ in PER_LAYER}
    samples = {"traced_bodies": n, "untraced_bodies": len(untraced),
               "absent_targets": tracer.absent}
    return metrics, tally, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, tmp: Path, root: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result, record). The result is the object
    the benchmark prints last; the record holds what is not a metric."""
    cfg = experiment_config(seed, sizes, tmp, root)
    w = WORKLOADS[name](cfg, sizes, tmp)
    metrics, tally, samples = (measure_traced if trace else measure)(w, seconds)
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    figures = dict(tally.last.figures) if tally.last else {}
    for kind, values in (("encode", tally.encode_ms), ("decode", tally.decode_ms)):
        if values:
            samples[kind] = len(values)
            for q in (50, 90):
                figures[f"{kind}_ms_p{q}"] = (float(np.percentile(values, q)), "ms")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "samples": samples,
              "figures": {n: {"value": v, "unit": u} for n, (v, u) in figures.items()},
              "digests": tally.last.digests if tally.last else {}}
    return result, record
