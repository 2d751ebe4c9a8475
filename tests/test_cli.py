"""Command-line surface: subcommand wiring, exit codes, output lines."""
import json
from pathlib import Path

import pytest

import softshare.pipeline as pipeline_mod
from softshare.checkpoint import load_checkpoint, save_checkpoint
from softshare.cli import main
from softshare.codec import encode_network
from softshare.config import load_config
from softshare.errors import NumericError
from softshare.net import evaluate
from softshare.pipeline import load_dataset
from softshare.postprocess import QuantizedLayer, QuantizedNetwork, load_quantized


def _cfg_args(tiny_config_file, *extra):
    return ["--config", str(tiny_config_file), *extra]


def test_run_emits_summary_json(tiny_config_file, capsys):
    rc = main(["run", *_cfg_args(tiny_config_file), "--quiet"])
    assert rc == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.loads(last)
    assert set(summary) == {"compression_rate", "error_before", "error_after"}


def test_stagewise_commands_chain(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    assert (out / "pretrained.swsc").exists()
    assert "test error" in capsys.readouterr().out

    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    assert (out / "model.swsc").exists()
    assert (out / "quantized.bin").exists()
    assert "components" in capsys.readouterr().out

    assert main(["encode", *_cfg_args(tiny_config_file)]) == 0
    assert (out / "weights.swsb").exists()
    assert (out / "report.json").exists()
    assert "compression rate" in capsys.readouterr().out

    for what in ("pretrained", "model", "blob"):
        assert main(["eval", *_cfg_args(tiny_config_file),
                     "--what", what]) == 0
        assert "test error" in capsys.readouterr().out

    assert main(["report", *_cfg_args(tiny_config_file)]) == 0
    text = capsys.readouterr().out
    assert "compression rate:" in text and "layer 0:" in text


def test_stagewise_chain_matches_run(tiny_config_file, tmp_path, capsys):
    for stage in ("pretrain", "compress", "encode"):
        assert main([stage, *_cfg_args(tiny_config_file), "--quiet"]) == 0
    assert main(["report", *_cfg_args(tiny_config_file)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("error before/after:"))
    before, after = (float(v) for v in line.split(":")[1].split("/"))
    assert 0.0 <= before <= 1.0 and 0.0 <= after <= 1.0

    assert main(["run", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", f"output_dir={tmp_path / 'run'}"]) == 0
    for name in ("pretrained.swsc", "model.swsc", "trace.csv",
                 "quantized.bin", "weights.swsb", "report.json"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "run" / name).read_bytes()), name


def test_pretrain_then_compress_with_a_configured_checkpoint(
        tiny_config_file, tmp_path, capsys):
    base = tmp_path / "baselines" / "tiny.swsc"
    args = [*_cfg_args(tiny_config_file), "--quiet",
            "--set", f"pretrained_checkpoint={base}"]
    assert main(["pretrain", *args]) == 0
    assert base.exists()
    assert not (tmp_path / "out" / "pretrained.swsc").exists()
    assert main(["compress", *args]) == 0
    assert (tmp_path / "out" / "quantized.bin").exists()


def test_set_overrides_win_over_file(tiny_config_file, tmp_path, capsys):
    rc = main(["pretrain", *_cfg_args(tiny_config_file), "--quiet",
               "--set", f"output_dir={tmp_path / 'elsewhere'}"])
    assert rc == 0
    assert (tmp_path / "elsewhere" / "pretrained.swsc").exists()
    assert not (tmp_path / "out" / "pretrained.swsc").exists()


def test_configuration_errors_exit_2(tiny_config_file, tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err

    assert main(["run", *_cfg_args(tiny_config_file),
                 "--set", "bogus_key=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err

    # a bad stage setting stops the run before anything is written, and the
    # message names the key
    for key, value in (("pretrain_batch_size", "0"), ("retrain_epochs", "-1"),
                       ("layer_sizes", "784,0,10"), ("seed", "-1"),
                       ("synthetic_train", "0"), ("synthetic_test", "-5"),
                       ("weight_decay", "inf"), ("gamma_zero_alpha", "inf")):
        assert main(["run", *_cfg_args(tiny_config_file), "--quiet",
                     "--set", f"{key}={value}"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # compress before pretrain: the missing checkpoint is a config problem
    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet"]) == 2
    assert "run pretrain first" in capsys.readouterr().err

    not_utf8 = tmp_path / "latin.cfg"
    not_utf8.write_bytes(b"\xff\xfe")
    assert main(["run", "--config", str(not_utf8)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(not_utf8) in err


def _assert_shape_refusal(err, path):
    assert str(path) in err
    assert "[(6, 784), (10, 6)]" in err and "[(8, 784), (10, 8)]" in err


def test_labels_outside_the_output_layer_exit_2(tiny_config_file, capsys):
    # the synthetic corpus has ten classes; five outputs cannot score them
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "layer_sizes=784,16,5"]) == 2
    assert "outside [0, 5)" in capsys.readouterr().err


def test_a_network_too_big_to_decode_exits_2(tiny_config_file, tmp_path, capsys):
    # 784 * 21400 + 21400 * 10 weights: the blob's reader would refuse it,
    # so the run stops before it trains or writes anything
    assert main(["run", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "layer_sizes=784,21400,10"]) == 2
    err = capsys.readouterr().err
    assert "layer_sizes" in err and "16991600" in err and "16777216" in err
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_baseline_of_other_layer_sizes(tiny_config_file, tmp_path, capsys):
    base = tmp_path / "baselines" / "tiny.swsc"
    named = ["--set", f"pretrained_checkpoint={base}"]
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet", *named]) == 0
    capsys.readouterr()
    before = base.read_bytes()

    # the named (784, 6, 10) baseline must not be retrained as 784-8-10
    assert main(["run", *_cfg_args(tiny_config_file), "--quiet", *named,
                 "--set", "layer_sizes=784,8,10"]) == 2
    _assert_shape_refusal(capsys.readouterr().err, base)
    assert base.read_bytes() == before
    assert not (tmp_path / "out" / "model.swsc").exists()


def test_compress_refuses_a_baseline_of_other_layer_sizes(
        tiny_config_file, tmp_path, capsys):
    baseline = tmp_path / "out" / "pretrained.swsc"
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    capsys.readouterr()
    before = baseline.read_bytes()

    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "layer_sizes=784,8,10"]) == 2
    _assert_shape_refusal(capsys.readouterr().err, baseline)
    assert baseline.read_bytes() == before
    assert not (tmp_path / "out" / "model.swsc").exists()


def test_run_pretrains_again_for_a_new_seed(tiny_config_file, tmp_path, capsys):
    baseline = tmp_path / "out" / "pretrained.swsc"
    assert main(["run", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    capsys.readouterr()
    old = baseline.read_bytes()

    assert main(["run", *_cfg_args(tiny_config_file),
                 "--set", "seed=3", "--set", "pretrain_epochs=5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "pretraining" in lines
    assert baseline.read_bytes() != old
    # error_before measures the new baseline on the seed-3 test set
    cfg = load_config(str(tiny_config_file), ["seed=3", "pretrain_epochs=5"])
    net, _, _ = load_checkpoint(baseline)
    assert (json.loads(lines[-1])["error_before"]
            == evaluate(net, load_dataset(cfg).test))


def test_data_errors_exit_3(tiny_config_file, tmp_path, capsys):
    assert main(["report", *_cfg_args(tiny_config_file)]) == 3
    assert "data error" in capsys.readouterr().err

    (tmp_path / "data").mkdir()
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "dataset=mnist",
                 "--set", f"data_dir={tmp_path / 'data'}"]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    b'{"compression_rate": 4',
    b"\xff\xfe{}",
    b'{"compression_rate": 4.0}',
    b'{"compression_rate": "4.0", "payload_compression_rate": 5.0}',
    b'{"compression_rate": 4.0, "payload_compression_rate": 5.0, "error_before": 0.1,'
    b' "error_after": 0.2, "layers": 3}',
    b"[" * 100000,
], ids=["truncated", "not_utf8", "missing_key", "string_rate", "int_layers", "deep"])
def test_a_bad_report_exits_3(tiny_config_file, tmp_path, capsys, text):
    path = tmp_path / "out" / "report.json"
    path.parent.mkdir()
    path.write_bytes(text)
    assert main(["report", *_cfg_args(tiny_config_file)]) == 3
    out, err = capsys.readouterr()
    assert "data error" in err and str(path) in err
    assert out == ""


def test_numeric_errors_exit_4(tiny_config_file, monkeypatch, capsys):
    main(["pretrain", *_cfg_args(tiny_config_file), "--quiet"])
    capsys.readouterr()

    def blow_up(*args, **kwargs):
        raise NumericError("loss went non-finite")

    monkeypatch.setattr(pipeline_mod, "retrain", blow_up)
    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet"]) == 4
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_mixture_exits_4(tiny_config_file, capsys):
    # a Gamma rate this large makes the objective's gradient in the spike's
    # log-variance infinite, and Adam's step turns it NaN
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "gamma_zero_alpha=50", "--set", "gamma_zero_beta=1e308"]) == 4
    assert "numeric error" in capsys.readouterr().err


def test_eval_blob_needs_artifacts(tiny_config_file, capsys):
    assert main(["eval", *_cfg_args(tiny_config_file), "--what", "blob"]) == 3
    assert "data error" in capsys.readouterr().err


def test_eval_blob_of_another_layer_count_exits_3(tiny_config_file, tmp_path, capsys):
    for stage in ("pretrain", "compress", "encode"):
        assert main([stage, *_cfg_args(tiny_config_file), "--quiet"]) == 0
    out = tmp_path / "out"
    q = load_quantized(out / "quantized.bin")
    assert len(q.layers) >= 2
    first = q.layers[0]
    one_layer = QuantizedNetwork(
        [QuantizedLayer(first.assignments, first.biases, "softmax")], q.means)
    one_layer_blob, _ = encode_network(one_layer)
    (out / "weights.swsb").write_bytes(one_layer_blob)
    capsys.readouterr()
    assert main(["eval", *_cfg_args(tiny_config_file), "--what", "blob"]) == 3
    assert "layer count" in capsys.readouterr().err


def test_eval_of_a_checkpoint_that_fails_validation_exits_3(tiny_config_file, tmp_path, capsys):
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    path = tmp_path / "out" / "pretrained.swsc"
    net, _, _ = load_checkpoint(path)
    net.layers[-1].activation = "relu"   # a well-formed file with a relu head
    save_checkpoint(net, path)
    capsys.readouterr()
    assert main(["eval", *_cfg_args(tiny_config_file), "--what", "pretrained"]) == 3
    assert "final layer must use softmax" in capsys.readouterr().err


@pytest.mark.parametrize("offset, bit, mode", [
    (-66, 0, "trainable zero mass"), (-49, 2, "Beta prior on the zero mass")],
    ids=["trainable_pi0", "beta_pi0"])
def test_eval_of_a_model_in_a_retired_mixing_mode_exits_3(
        tiny_config_file, tmp_path, capsys, offset, bit, mode):
    # the mixture block ends: flags u8 | tau f64 | pi0 f64 | hyper flags u8 | 6 x f64
    assert main(["run", *_cfg_args(tiny_config_file), "--quiet"]) == 0
    path = tmp_path / "out" / "model.swsc"
    blob = bytearray(path.read_bytes())
    assert blob[offset] == 0
    blob[offset] |= 1 << bit
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", *_cfg_args(tiny_config_file), "--what", "model"]) == 3
    err = capsys.readouterr().err
    assert mode in err and str(path) in err


def test_eval_blob_of_a_quantized_model_with_a_relu_head_exits_3(
        tiny_config_file, tmp_path, capsys):
    for stage in ("pretrain", "compress", "encode"):
        assert main([stage, *_cfg_args(tiny_config_file), "--quiet"]) == 0
    path = tmp_path / "out" / "quantized.bin"
    q = load_quantized(path)
    # SWSQ: 10 header bytes and the mean table, then per layer rows u32,
    # cols u32, activation tag u8, index width u8, assignments, biases
    pos = 10 + 8 * q.means.size
    for ql in q.layers[:-1]:
        rows, cols = ql.assignments.shape
        pos += 10 + rows * cols + 8 * rows   # one-byte indices: k <= 256
    blob = bytearray(path.read_bytes())
    assert blob[pos + 8] == 1 and blob[pos + 9] == 1   # softmax tag, width 1
    blob[pos + 8] = 0                                  # relu
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", *_cfg_args(tiny_config_file), "--what", "blob"]) == 3
    assert "final layer must use softmax" in capsys.readouterr().err


def test_parser_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_runs_as_module(tiny_config_file, tmp_path):
    import subprocess
    import sys
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "softshare", "pretrain",
         "--config", str(tiny_config_file), "--quiet"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "test error" in proc.stdout
