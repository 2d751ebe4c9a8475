"""Command-line surface: subcommand wiring, exit codes, output lines."""
import json
from pathlib import Path

import pytest

import softshare.pipeline as pipeline_mod
from softshare.cli import main
from softshare.errors import NumericError


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

    # a bad stage setting stops the run before anything is written
    assert main(["run", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "pretrain_batch_size=0"]) == 2
    assert "pretrain_batch_size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # compress before pretrain: the missing checkpoint is a config problem
    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet"]) == 2
    assert "run pretrain first" in capsys.readouterr().err


def test_data_errors_exit_3(tiny_config_file, tmp_path, capsys):
    assert main(["report", *_cfg_args(tiny_config_file)]) == 3
    assert "data error" in capsys.readouterr().err

    (tmp_path / "data").mkdir()
    assert main(["pretrain", *_cfg_args(tiny_config_file), "--quiet",
                 "--set", "dataset=idx",
                 "--set", f"data_dir={tmp_path / 'data'}"]) == 3
    assert "data error" in capsys.readouterr().err


def test_numeric_errors_exit_4(tiny_config_file, monkeypatch, capsys):
    main(["pretrain", *_cfg_args(tiny_config_file), "--quiet"])
    capsys.readouterr()

    def blow_up(*args, **kwargs):
        raise NumericError("loss went non-finite")

    monkeypatch.setattr(pipeline_mod, "retrain", blow_up)
    assert main(["compress", *_cfg_args(tiny_config_file), "--quiet"]) == 4
    assert "numeric error" in capsys.readouterr().err


def test_eval_blob_needs_artifacts(tiny_config_file, capsys):
    assert main(["eval", *_cfg_args(tiny_config_file), "--what", "blob"]) == 3
    assert "data error" in capsys.readouterr().err


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
