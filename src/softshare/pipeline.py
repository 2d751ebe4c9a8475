"""The pipeline as three stages from artifacts to artifacts.

Each stage reads its inputs from, and writes its outputs to, fixed names in
the configured output directory (the pretrained baseline may instead live
at ``pretrained_checkpoint``):

    stage_pretrain   data                    -> pretrained.swsc
    stage_compress   data, pretrained.swsc   -> model.swsc, trace.csv,
                                                quantized.bin
    stage_encode     data, pretrained.swsc,  -> weights.swsb, report.json
                     quantized.bin

    pretrained.swsc   plain pretrained network
    model.swsc        retrained network with the mixture block appended
    trace.csv         per-epoch retraining trace
    quantized.bin     assignments + mean table + biases
    weights.swsb      bit-packed sparse encoding of the quantized weights
    report.json       compression accounting plus before/after test error

Every stage reads the one ExperimentConfig: pretraining its pretrain_*
keys, retraining its retraining keys, merging kl_threshold, encoding p_fc.

run_pipeline loads the data once, pretrains unless pretrained_checkpoint
names a baseline, then compresses and encodes; stage_compress refuses a
baseline whose layer shapes differ from layer_sizes; the stagewise CLI
calls the same stages one at a time, so both write the same bytes. In
run_pipeline a failure raises with the stage name prefixed; artifacts
written by earlier stages stay on disk. Reported error_before evaluates the
stored pretrained checkpoint; error_after evaluates the network rebuilt from
the decoded blob plus the biases of quantized.bin, so the report measures
exactly what a consumer of the artifacts would see.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_file
from .codec import decode_network, encode_network
from .config import ExperimentConfig
from .data import MnistDataset, load_mnist, synthetic_digits
from .errors import ConfigurationError, SoftShareError
from .mixture import init_mixture
from .net import Batch, Layer, Network, error_loss_and_grad, evaluate, \
    iter_batches, make_network
from .postprocess import QuantizedNetwork, load_quantized, merge_pass, \
    quantize, save_quantized
from .train import AdamState, retrain, trace_to_csv

Emit = Callable[[str], None]


@dataclass
class PipelineResult:
    report: dict
    output_dir: Path


def load_dataset(cfg: ExperimentConfig) -> MnistDataset:
    if cfg.dataset == "synthetic":
        return synthetic_digits(cfg.synthetic_train, cfg.synthetic_test, seed=cfg.seed)
    return load_mnist(cfg.data_dir)


def pretrain_network(cfg: ExperimentConfig, data: MnistDataset,
                     on_epoch: Optional[Callable[[int, float], None]] = None,
                     ) -> Network:
    """Adam training on the error loss with L2 weight decay."""
    net = make_network(cfg.layer_sizes, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    adam_weights = AdamState(net.weights.shape, cfg.pretrain_lr)
    adam_biases = AdamState(net.biases.shape, cfg.pretrain_lr)
    wd = cfg.weight_decay
    for epoch in range(1, cfg.pretrain_epochs + 1):
        for batch in iter_batches(data.train.inputs, data.train.labels,
                                  cfg.pretrain_batch_size, rng):
            _, d_weights, d_biases = error_loss_and_grad(net, batch)
            if wd:
                d_weights += wd * net.weights
            adam_weights.step(net.weights, d_weights)
            adam_biases.step(net.biases, d_biases)
        if on_epoch is not None:
            on_epoch(epoch, evaluate(net, data.test))
    return net


def _pretrained_path(cfg: ExperimentConfig) -> Path:
    """Where the baseline lives: the configured checkpoint, if any."""
    if cfg.pretrained_checkpoint:
        return Path(cfg.pretrained_checkpoint)
    return Path(cfg.output_dir) / "pretrained.swsc"


def stage_pretrain(cfg: ExperimentConfig, data: MnistDataset,
                   emit: Emit) -> Network:
    emit("pretraining")
    net = pretrain_network(
        cfg, data, lambda ep, err: emit(f"pretrain epoch {ep}: test error {err:.4f}"))
    save_checkpoint(net, _pretrained_path(cfg))
    return net


def stage_compress(cfg: ExperimentConfig, data: MnistDataset,
                   emit: Emit) -> QuantizedNetwork:
    path = _pretrained_path(cfg)
    if not path.exists():
        raise ConfigurationError(
            f"no pretrained checkpoint at {path}; run pretrain first")
    net, _, _ = load_checkpoint(path)
    shapes = [l.weights.shape for l in net.layers]
    want = [(n_out, n_in) for n_in, n_out in zip(cfg.layer_sizes, cfg.layer_sizes[1:])]
    if shapes != want:
        raise ConfigurationError(
            f"pretrained checkpoint {path} has layer shapes {shapes}, but "
            f"layer_sizes={','.join(map(str, cfg.layer_sizes))} needs {want}; "
            "remove it or point pretrained_checkpoint at a matching baseline")
    mixture = init_mixture(net.weights, cfg.n_components, cfg.pi0,
                           cfg.weight_decay, tau=cfg.tau,
                           pi0_trainable=cfg.pi0_trainable)
    net, mixture, trace = retrain(
        net, mixture, data.train, cfg, data.test,
        on_epoch=lambda r: emit(
            f"retrain epoch {r.epoch}: error loss {r.error_loss:.4f} "
            f"complexity {r.complexity_loss:.1f} test error {r.test_error:.4f}"))
    out = Path(cfg.output_dir)
    save_checkpoint(net, out / "model.swsc", mixture, cfg.hyper_config())
    write_file(out / "trace.csv", trace_to_csv(trace).encode())
    merged = merge_pass(mixture, cfg.kl_threshold)
    emit(f"components after merging: {merged.n_components}")
    q = quantize(net, merged)
    save_quantized(q, out / "quantized.bin")
    return q


def stage_encode(cfg: ExperimentConfig, data: MnistDataset, emit: Emit) -> dict:
    out = Path(cfg.output_dir)
    qpath = out / "quantized.bin"
    if not qpath.exists():
        raise ConfigurationError(f"no quantized model at {qpath}; run compress first")
    q = load_quantized(qpath)
    blob, report = encode_network(q, cfg.p_fc, cfg.p_conv)
    write_file(out / "weights.swsb", blob)
    pretrained, _, _ = load_checkpoint(_pretrained_path(cfg))
    report.error_before = float(evaluate(pretrained, data.test))
    report.error_after = float(evaluate_blob(blob, q, data.test))
    emit(f"compression rate {report.compression_rate:.2f}, test error "
         f"{report.error_before:.4f} -> {report.error_after:.4f}")
    report_dict = asdict(report)
    report_dict["n_components_final"] = q.means.shape[0]
    write_file(out / "report.json",
               (json.dumps(report_dict, sort_keys=True, indent=2) + "\n").encode())
    return report_dict


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except SoftShareError as e:
        msg = e.args[0] if e.args else ""
        e.args = (f"stage {name}: {msg}",) + e.args[1:]
        raise


def run_pipeline(cfg: ExperimentConfig,
                 log: Optional[Emit] = None) -> PipelineResult:
    emit = log or (lambda s: None)
    data = _stage("load-data", load_dataset, cfg)
    if not cfg.pretrained_checkpoint:
        _stage("pretrain", stage_pretrain, cfg, data, emit)
    _stage("compress", stage_compress, cfg, data, emit)
    report = _stage("encode", stage_encode, cfg, data, emit)
    return PipelineResult(report=report, output_dir=Path(cfg.output_dir))


def evaluate_blob(blob: bytes, q: QuantizedNetwork, test: Batch) -> float:
    """Test error of the network decoded from an SWSB blob, with the biases
    and activations of the quantized model it was encoded from. The blob
    must hold that model's layer count and shapes, or DecodeError is raised
    before a layer is allocated. Only the network holds the decoded
    matrices, so packing frees each one as it is copied."""
    net = Network([
        Layer(w, ql.biases, ql.activation)
        for w, ql in zip(decode_network(blob, [ql.assignments.shape for ql in q.layers]),
                         q.layers)
    ])
    return evaluate(net, test)
