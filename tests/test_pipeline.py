"""End-to-end pipeline orchestration on a tiny synthetic experiment."""
from pathlib import Path

import numpy as np
import pytest

from softshare.checkpoint import load_checkpoint, save_checkpoint
from softshare.errors import DataFormatError, SoftShareError
from softshare.net import evaluate
from softshare.pipeline import (
    evaluate_blob,
    load_dataset,
    pretrain_network,
    run_pipeline,
)
from softshare.postprocess import load_quantized

ARTIFACTS = ["pretrained.swsc", "model.swsc", "trace.csv", "quantized.bin",
             "weights.swsb", "report.json"]


def test_run_pipeline_produces_all_artifacts(tiny_config):
    cfg = tiny_config()
    result = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    assert result.output_dir == out
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    r = result.report
    assert set(r) == {"layers", "total_params", "total_nnz", "total_bits",
                      "compression_rate", "payload_compression_rate",
                      "error_before", "error_after", "n_components_final"}
    assert r["total_params"] == 784 * 6 + 6 * 10
    assert 0.0 <= r["error_before"] <= 1.0
    assert 0.0 <= r["error_after"] <= 1.0
    assert r["compression_rate"] > 0
    assert 2 <= r["n_components_final"] <= 5
    assert len(r["layers"]) == 2


def test_reported_error_matches_decoded_blob(tiny_config):
    cfg = tiny_config()
    result = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    data = load_dataset(cfg)
    err = evaluate_blob((out / "weights.swsb").read_bytes(),
                        load_quantized(out / "quantized.bin"), data.test)
    assert err == result.report["error_after"]


def test_pipeline_pretrains_again_into_its_own_output_dir(tiny_config):
    # a baseline left in output_dir by the first run is not reused: the
    # second run pretrains again and writes the same bytes
    cfg = tiny_config()
    out = Path(cfg.output_dir)
    runs = []
    for _ in range(2):
        lines = []
        run_pipeline(cfg, log=lines.append)
        assert "pretraining" in lines
        runs.append({name: (out / name).read_bytes() for name in ARTIFACTS})
    for name in ARTIFACTS:
        assert runs[0][name] == runs[1][name], name


def test_pipeline_accepts_external_checkpoint(tiny_config, tmp_path):
    cfg = tiny_config()
    data = load_dataset(cfg)
    net = pretrain_network(cfg, data)
    ckpt = tmp_path / "elsewhere.swsc"
    save_checkpoint(net, ckpt)

    cfg2 = tiny_config(output_dir=str(tmp_path / "out2"),
                       pretrained_checkpoint=str(ckpt))
    result = run_pipeline(cfg2)
    # the external checkpoint is used as-is, never copied into output_dir
    assert not (tmp_path / "out2" / "pretrained.swsc").exists()
    assert result.report["error_before"] == evaluate(net, data.test)


def test_pipeline_is_deterministic_byte_for_byte(tiny_config, tmp_path):
    blobs = []
    for d in ("a", "b"):
        cfg = tiny_config(output_dir=str(tmp_path / d))
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        blobs.append({name: (out / name).read_bytes()
                      for name in ARTIFACTS})
    for name in ARTIFACTS:
        assert blobs[0][name] == blobs[1][name], name


def test_stage_failures_carry_the_stage_name(tiny_config, tmp_path):
    cfg = tiny_config(dataset="idx", data_dir=str(tmp_path / "empty"))
    (tmp_path / "empty").mkdir()
    with pytest.raises(SoftShareError, match="stage load-data:"):
        run_pipeline(cfg)


def test_zero_retrain_epochs_still_completes(tiny_config):
    cfg = tiny_config(retrain_epochs=0)
    result = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    assert (out / "trace.csv").read_text() == ""
    # quantization then snaps the raw pretrained weights to the initial
    # component means, so every artifact still exists and decodes
    assert (out / "weights.swsb").exists()
    assert result.report["n_components_final"] >= 2


def test_pretrain_network_is_deterministic(tiny_config):
    cfg = tiny_config()
    data = load_dataset(cfg)
    a = pretrain_network(cfg, data)
    b = pretrain_network(cfg, data)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_pretrain_weight_decay_shrinks_weights(tiny_config):
    cfg = tiny_config()
    data = load_dataset(cfg)
    plain = pretrain_network(cfg, data)
    decayed = pretrain_network(tiny_config(weight_decay=0.2), data)
    assert (np.abs(decayed.weights).mean()
            < np.abs(plain.weights).mean())


def test_evaluate_blob_rejects_layer_count_mismatch(tiny_config):
    cfg = tiny_config()
    run_pipeline(cfg)
    out = Path(cfg.output_dir)
    data = load_dataset(cfg)
    from softshare.codec import encode_network
    from softshare.postprocess import QuantizedLayer, QuantizedNetwork
    q = load_quantized(out / "quantized.bin")
    first = q.layers[0]
    one_layer = QuantizedNetwork(
        [QuantizedLayer(first.assignments, first.biases, "softmax")], q.means)
    one_layer_blob, _ = encode_network(one_layer)
    with pytest.raises(SoftShareError, match="layer count"):
        evaluate_blob(one_layer_blob, q, data.test)


def test_model_checkpoint_contains_the_trained_mixture(tiny_config):
    cfg = tiny_config(gamma_zero_alpha=10.0, gamma_zero_beta=1.0)
    run_pipeline(cfg)
    net, mixture, hyper = load_checkpoint(Path(cfg.output_dir) / "model.swsc")
    assert mixture is not None
    assert mixture.n_components == 5  # zero spike + n_components free
    assert hyper is not None and hyper.gamma_zero == (10.0, 1.0)
