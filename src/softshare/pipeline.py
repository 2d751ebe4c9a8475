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

run_pipeline loads the data once, pretrains only when no baseline exists,
then compresses and encodes; the stagewise CLI calls the same stages one
at a time, so both write the same bytes. In run_pipeline a failure raises
with the stage name prefixed; artifacts written by earlier stages stay on
disk. Reported error_before evaluates the stored pretrained checkpoint;
error_after evaluates the network rebuilt from the decoded blob plus the
stored biases, so the report measures exactly what a consumer of the
artifacts would see.
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
    flat_weights, iter_batches, make_network
from .postprocess import QuantizedNetwork, load_quantized, merge_pass, \
    quantize, save_quantized
from .train import layer_adams, retrain, step_layers, trace_to_csv

Emit = Callable[[str], None]


@dataclass
class PipelineResult:
    report: dict
    output_dir: Path


def load_dataset(cfg: ExperimentConfig) -> MnistDataset:
    if cfg.dataset == "synthetic":
        return synthetic_digits(cfg.synthetic_train, cfg.synthetic_test,
                                seed=cfg.seed, noise=cfg.synthetic_noise)
    if cfg.dataset == "mnist":
        return load_mnist(cfg.data_dir)
    return load_mnist(cfg.data_dir, expected_counts=None)


def pretrain_network(cfg: ExperimentConfig, data: MnistDataset,
                     on_epoch: Optional[Callable[[int, float], None]] = None,
                     ) -> Network:
    """Adam training on the error loss with L2 weight decay."""
    net = make_network(cfg.layer_sizes, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    adams = layer_adams(net, cfg.pretrain_lr)
    wd = cfg.weight_decay
    for epoch in range(1, cfg.pretrain_epochs + 1):
        for batch in iter_batches(data.train.inputs, data.train.labels,
                                  cfg.pretrain_batch_size, rng):
            _, grads = error_loss_and_grad(net, batch)
            step_layers(net, adams, grads,
                        [wd * l.weights for l in net.layers] if wd else None)
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
    mixture = init_mixture(flat_weights(net), cfg.n_components, cfg.pi0,
                           cfg.weight_decay, tau=cfg.tau,
                           pi0_trainable=cfg.pi0_trainable)
    hyper = cfg.hyper_config()
    net, mixture, trace = retrain(
        net, mixture, data.train, cfg.train_config(), hyper, data.test,
        on_epoch=lambda r: emit(
            f"retrain epoch {r.epoch}: error loss {r.error_loss:.4f} "
            f"complexity {r.complexity_loss:.1f} test error {r.test_error:.4f}"))
    out = Path(cfg.output_dir)
    save_checkpoint(net, out / "model.swsc", mixture, hyper)
    write_file(out / "trace.csv", trace_to_csv(trace).encode())
    merged = merge_pass(mixture, cfg.merge_config())
    emit(f"components after merging: {merged.n_components}")
    q = quantize(net, merged)
    save_quantized(q, out / "quantized.bin")
    return q


def stage_encode(cfg: ExperimentConfig, data: MnistDataset, emit: Emit) -> dict:
    out = Path(cfg.output_dir)
    qpath, bpath = out / "quantized.bin", out / "weights.swsb"
    if not qpath.exists():
        raise ConfigurationError(f"no quantized model at {qpath}; run compress first")
    q = load_quantized(qpath)
    blob, report = encode_network(q, cfg.p_fc, cfg.p_conv)
    write_file(bpath, blob)
    pretrained, _, _ = load_checkpoint(_pretrained_path(cfg))
    report.error_before = float(evaluate(pretrained, data.test))
    report.error_after = float(evaluate_blob(bpath, qpath, data.test))
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
    if not cfg.pretrained_checkpoint and not _pretrained_path(cfg).exists():
        _stage("pretrain", stage_pretrain, cfg, data, emit)
    _stage("compress", stage_compress, cfg, data, emit)
    report = _stage("encode", stage_encode, cfg, data, emit)
    return PipelineResult(report=report, output_dir=Path(cfg.output_dir))


def evaluate_blob(blob_path, quantized_path, test: Batch) -> float:
    """Test error of the network rebuilt from an encoded blob plus the
    biases and activations stored alongside the quantized model."""
    q = load_quantized(quantized_path)
    matrices = decode_network(Path(blob_path).read_bytes())
    if len(matrices) != len(q.layers):
        raise ConfigurationError(
            "blob and quantized model disagree on layer count")
    net = Network([
        Layer(w, ql.biases.copy(), ql.activation)
        for w, ql in zip(matrices, q.layers)
    ])
    return evaluate(net, test)
