"""Flat key=value experiment configuration."""
from dataclasses import fields
from pathlib import Path

import pytest

from softshare.codec import MAX_DECODED_WEIGHTS
from softshare.config import (
    ExperimentConfig,
    load_config,
    parse_assignments,
    read_config_file,
)
from softshare.errors import ConfigurationError


def test_defaults_construct():
    cfg = ExperimentConfig()
    assert cfg.dataset == "synthetic"
    assert cfg.layer_sizes == (784, 300, 100, 10)
    assert cfg.n_components == 16


def test_validation_rejects_bad_combinations():
    with pytest.raises(ConfigurationError, match="dataset"):
        ExperimentConfig(dataset="imagenet")
    with pytest.raises(ConfigurationError, match="data_dir"):
        ExperimentConfig(dataset="mnist")
    with pytest.raises(ConfigurationError, match="n_components"):
        ExperimentConfig(n_components=0)
    with pytest.raises(ConfigurationError, match="pi0"):
        ExperimentConfig(pi0=1.0)
    with pytest.raises(ConfigurationError, match="weight_decay"):
        ExperimentConfig(weight_decay=-1e-4)
    with pytest.raises(ConfigurationError, match="bit widths"):
        ExperimentConfig(p_fc=0)
    ExperimentConfig(dataset="mnist", data_dir="/tmp/x")  # ok with a dir
    ExperimentConfig(kl_threshold=0.0)  # boundary is legal


def test_layer_sizes_make_at_most_the_weights_a_blob_may_hold():
    ExperimentConfig(layer_sizes=(1, MAX_DECODED_WEIGHTS))
    with pytest.raises(ConfigurationError,
                       match=r"^layer_sizes make 16777217 weights, more than the 16777216"):
        ExperimentConfig(layer_sizes=(1, MAX_DECODED_WEIGHTS + 1))
    with pytest.raises(ConfigurationError, match="layer_sizes make 16991600 weights"):
        ExperimentConfig(layer_sizes=(784, 21400, 10))


@pytest.mark.parametrize("key, value", [
    ("pretrain_epochs", -1), ("pretrain_batch_size", 0), ("pretrain_lr", 0.0),
    ("retrain_epochs", -1), ("batch_size", 0), ("lr_means", 0.0), ("subsample", -1),
    ("lr_weights", float("nan")), ("pretrain_lr", float("nan")),
    ("lr_log_vars", 0.0), ("lr_log_vars", float("nan")),
    ("lr_logits", 0.0), ("lr_logits", float("nan")),
    ("weight_decay", float("nan")), ("tau", -1e-3), ("tau", float("nan")),
    ("kl_threshold", -1.0), ("kl_threshold", float("inf")),
    ("kl_threshold", float("nan")), ("pretrain_lr", float("inf")),
    ("gamma_zero_alpha", 0.5), ("gamma_rest_alpha", 1.0), ("gamma_zero_alpha", -5.0),
    ("layer_sizes", (784, 0, 10)), ("layer_sizes", (784, -3, 10)),
    ("gamma_rest_alpha", -5.0), ("seed", -1), ("synthetic_train", 0), ("synthetic_test", -5),
] + [(key, float("inf")) for key in (
    "weight_decay", "lr_weights", "lr_means", "lr_log_vars",
    "lr_logits", "tau", "gamma_zero_alpha", "gamma_zero_beta", "gamma_rest_alpha",
    "gamma_rest_beta")])
def test_every_stage_setting_is_checked_when_the_config_is_built(key, value):
    with pytest.raises(ConfigurationError, match=key):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("recipe", sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_recipe_loads(recipe):
    load_config(recipe)


def test_parse_assignments_coerces_types():
    got = parse_assignments([
        "seed=7", "tau=1e-4",
        "layer_sizes = 20, 10, 5", "dataset=synthetic",
    ])
    assert got["seed"] == 7 and isinstance(got["seed"], int)
    assert got["tau"] == 1e-4
    assert got["layer_sizes"] == (20, 10, 5)


def _as_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_key_parses_its_default_written_as_text():
    for f in fields(ExperimentConfig):
        got = parse_assignments([f"{f.name}={_as_text(f.default)}"])
        assert got == {f.name: f.default}, f.name
        assert type(got[f.name]) is type(f.default), f.name


def test_parse_assignments_rejects_garbage():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        parse_assignments(["learning_rate=1"])
    with pytest.raises(ConfigurationError, match="key=value"):
        parse_assignments(["seed"])
    with pytest.raises(ConfigurationError, match="bad value"):
        parse_assignments(["seed=abc"])
    # the retired mixing modes' keys are unknown now
    for key in ("pi0_trainable", "beta_pi0_alpha", "beta_pi0_beta"):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_assignments([f"{key}=1"])
    with pytest.raises(ConfigurationError, match="at least input and output"):
        parse_assignments(["layer_sizes=10"])
    with pytest.raises(ConfigurationError, match="size list"):
        parse_assignments(["layer_sizes=a,b"])


def test_read_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "# experiment\n"
        "seed = 3   # reproducibility\n"
        "\n"
        "tau = 5e-3\n"
    )
    assert read_config_file(f) == {"seed": 3, "tau": 5e-3}

    with pytest.raises(ConfigurationError, match="not found"):
        read_config_file(tmp_path / "missing.cfg")

    # a '#' inside a value is part of it, not the start of a comment
    hashed = tmp_path / "hashed.cfg"
    hashed.write_text("output_dir = out/run#2\nseed = 3   # reproducibility\n")
    assert read_config_file(hashed) == {"output_dir": "out/run#2", "seed": 3}
    assert load_config(hashed).output_dir == "out/run#2"

    broken = tmp_path / "broken.cfg"
    broken.write_text("seed = 1\njust words\n")
    with pytest.raises(ConfigurationError, match=r"broken\.cfg:2"):
        read_config_file(broken)


def test_load_config_override_precedence(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("seed = 3\ntau = 1e-3\n")
    cfg = load_config(f, overrides=["tau=9e-9", "n_components=4"])
    assert cfg.seed == 3
    assert cfg.tau == 9e-9
    assert cfg.n_components == 4
    cfg = load_config(None, overrides=[])
    assert cfg.seed == ExperimentConfig().seed


def test_hyper_config_alpha_zero_disables():
    assert ExperimentConfig().hyper_config() is None
    cfg = ExperimentConfig(gamma_zero_alpha=121.0, gamma_zero_beta=0.3)
    h = cfg.hyper_config()
    assert h.gamma_zero == (121.0, 0.3)
    assert h.gamma_rest is None
    cfg = ExperimentConfig(gamma_rest_alpha=50.0)
    h = cfg.hyper_config()
    assert h.gamma_zero is None
    assert h.gamma_rest == (50.0, 1.0)
