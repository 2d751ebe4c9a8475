"""End-to-end pipeline orchestration on a tiny synthetic experiment."""
import hashlib
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from softshare.checkpoint import load_checkpoint, save_checkpoint
from softshare.config import ExperimentConfig
from softshare.errors import DataFormatError, SoftShareError
from softshare.net import evaluate, make_network
from softshare.pipeline import (
    _pretrained_path,
    evaluate_blob,
    load_dataset,
    pretrain_network,
    run_pipeline,
    stage_compress,
    stage_encode,
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
    cfg = tiny_config(dataset="mnist", data_dir=str(tmp_path / "empty"))
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


# sha256 of the six artifacts of the tiny config and of three variants of
# it. The same digests came out at OPENBLAS_NUM_THREADS=1 and 2 on
# scipy-openblas 0.3.31 (numpy 2.4.6). A change that means to move bits
# updates them and says why; one that does not must leave them alone.
PINNED_DIGESTS = {
    "tiny": ({}, {
        "pretrained.swsc": "9037eb86a8d651ca22fbd883ee86fe0d2158b2d5764f395eec6998209fb4ad8d",
        "model.swsc": "7b0e92f88b9ceb60106c8bddd2c3994aeccff1f59fef8663027058b98f2b9212",
        "trace.csv": "5e5946ee7a57449da2f671002599c3b877cefd245657b3ad1a47030058ec021a",
        "quantized.bin": "8824d310b676b8e0053ede5f301a6bf79c32417bfc520c8c15cfe90bed3ae5ff",
        "weights.swsb": "e92c5376942f1527ebd8f794e7e374c363e304a70e98471eb63b8e957ff465e8",
        "report.json": "a0155d43f51710e16b69706727ad55465cabed6bc495cf82b77382961afcb82f",
    }),
    "weight_decay": ({"weight_decay": 0.2}, {
        "pretrained.swsc": "5b123a2a38e18b2fe5ee9e4974070e05ea16e2d9a91991cbaef009a59df0b788",
        "model.swsc": "4511d133598d4328dc0b414804cc01a748007e68539d576715e6d4c6d5269378",
        "trace.csv": "13cb79351475898472e5216d6372006a71fc7b36a8c762d1afba1e28eae6f490",
        "quantized.bin": "da55c3555624993cd0d818e0d0082fa2d2c5d9a009012393e7f8574b32158000",
        "weights.swsb": "a1f5246d2149950070e48883a5c22991924b5cec917887011cd7df0946f55420",
        "report.json": "7e73f9bba4078ecbc60b9839b5164f3814fdea5da1425dcf8a1f58431cfb7fad",
    }),
    "gamma": ({"gamma_zero_alpha": 50.0, "gamma_rest_alpha": 20.0, "tau": 1e-3}, {
        "pretrained.swsc": "9037eb86a8d651ca22fbd883ee86fe0d2158b2d5764f395eec6998209fb4ad8d",
        "model.swsc": "906ed5ccc05f9bd258612a5be7e25e91206b26dbe8f3ac25b6f6179c2603879c",
        "trace.csv": "4b2c74b9898f65185d358bb76b911f4cbf84202a9c081c620fc0779b0ae89d53",
        "quantized.bin": "22247c121d3b09fa3fd24ec2c5e5fd1ae152068f91a76add676c657c852feb2e",
        "weights.swsb": "281e272f8e99b625928629ba2a928db0a46744251ece3a99ecbe6110a69bf294",
        "report.json": "a309b898646522cbbc0020a2f64b4e7a75dda06982424298827da6af412672a2",
    }),
    "subsample": ({"subsample": 500, "tau": 1e-3}, {
        "pretrained.swsc": "9037eb86a8d651ca22fbd883ee86fe0d2158b2d5764f395eec6998209fb4ad8d",
        "model.swsc": "28fcf3df0b208f0e805faf62328727538ad962a3be99670cbf2c83f16442d353",
        "trace.csv": "cc8d0506a02c023542fb9423abe4b91b3716cdc292298c27cf7197d5a8d062dd",
        "quantized.bin": "c337421f90777a02a7573cc6f2c1eea35f1cc04dee72f144934eb1f4088da583",
        "weights.swsb": "9fd307269ed04b15c127bcbc1df399ff6c7fd918791a9de085b2944c01aee266",
        "report.json": "404344face7139c9b497b1a4133806a9a193b4cc27de4c9bdd2235719d1d19b6",
    }),
}


def _blas_setup() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"threads {threads}, {os.cpu_count()} CPUs")


@pytest.mark.parametrize("variant", sorted(PINNED_DIGESTS))
def test_pipeline_bytes_are_pinned(variant, tiny_config):
    overrides, pinned = PINNED_DIGESTS[variant]
    # shown with a failure: the pins were taken on one BLAS build
    print("BLAS set-up:", _blas_setup())
    cfg = tiny_config(**overrides)
    run_pipeline(cfg)
    out = Path(cfg.output_dir)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ARTIFACTS}
    assert got == pinned


@pytest.fixture(scope="module")
def reference_shapes(tmp_path_factory):
    """The reference 784-300-100-10 network over 512 training and 256 test
    images, with a seeded baseline checkpoint, for one retraining epoch at
    batch 256."""
    cfg = ExperimentConfig(synthetic_train=512, synthetic_test=256, batch_size=256,
                           retrain_epochs=1,
                           output_dir=str(tmp_path_factory.mktemp("reference")))
    save_checkpoint(make_network(cfg.layer_sizes, seed=0), _pretrained_path(cfg))
    return cfg, load_dataset(cfg)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WEIGHT_BYTES = 266_200 * 8
# float64 inputs and the outputs of the three layers for 256 images: the
# trace of one backprop batch or of one evaluation block
BATCH_TRACE = 256 * (784 + 410) * 8


def test_stage_compress_holds_one_network_and_one_weight_gradient(reference_shapes):
    cfg, data = reference_shapes
    peak = _traced_peak(stage_compress, cfg, data, lambda s: None)
    # the baseline, which retrain trains in place, Adam's two moments of its
    # weights, the one weight gradient the prior pass adds into, a batch's
    # trace and 1 MB for the prior pass's chunk buffers and the small arrays;
    # a copy of the network or a second gradient adds 2.1 MB
    assert peak < 4 * WEIGHT_BYTES + BATCH_TRACE + 1_000_000


def test_stage_encode_drops_the_baseline_before_decoding(reference_shapes):
    cfg, data = reference_shapes
    stage_compress(cfg, data, lambda s: None)
    peak = _traced_peak(stage_encode, cfg, data, lambda s: None)
    # the quantized model's assignments, the decoded matrices and the
    # network packed from them, plus one evaluation block's trace; the
    # baseline kept beside them, or a copy of its file's bytes while it
    # loads, adds 2.1 MB
    assert peak < 3 * WEIGHT_BYTES + BATCH_TRACE
