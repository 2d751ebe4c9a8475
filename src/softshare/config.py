"""Experiment configuration: one flat key=value namespace.

A config file holds `key = value` lines; a '#' at the start of a line or
after whitespace starts a comment, so a value such as `out/run#2` is read
whole. The same keys can be overridden on the command line. Keys are
grouped below by the stage they feed; every stage reads its keys from
ExperimentConfig itself. Each key is checked once, when the config is built
(every float key must be finite), and an error names the key. layer_sizes
may make at most codec.MAX_DECODED_WEIGHTS weights, the most a blob's
reader accepts, so a run never trains a network it could not decode. The zero
spike's mass pi0 is a constant of the run. The Gamma hyper-prior
(alpha, beta) pairs use alpha = 0 to mean "disabled" (a negative alpha is
refused) so the default run matches the plain mixture objective.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .codec import MAX_DECODED_WEIGHTS
from .errors import ConfigurationError
from .mixture import HyperPriorConfig


def _parse_sizes(s: str) -> tuple:
    try:
        sizes = tuple(int(x) for x in s.replace(" ", "").split(",") if x)
    except ValueError:
        raise ConfigurationError(f"not a comma-separated size list: {s!r}") from None
    if len(sizes) < 2:
        raise ConfigurationError("layer_sizes needs at least input and output")
    return sizes


@dataclass
class ExperimentConfig:
    # data and artifacts
    dataset: str = "synthetic"          # synthetic | mnist
    data_dir: str = ""
    output_dir: str = "out"
    seed: int = 0
    layer_sizes: tuple = (784, 300, 100, 10)
    pretrained_checkpoint: str = ""     # skip pretraining when set

    # synthetic corpus
    synthetic_train: int = 8000
    synthetic_test: int = 2000

    # pretraining
    pretrain_epochs: int = 30
    pretrain_batch_size: int = 128
    pretrain_lr: float = 1e-3
    weight_decay: float = 1e-4

    # retraining
    retrain_epochs: int = 40
    batch_size: int = 256
    lr_weights: float = 5e-4
    lr_means: float = 5e-4
    lr_log_vars: float = 5e-4
    lr_logits: float = 5e-4
    subsample: int = 0

    # mixture prior
    n_components: int = 16              # free components besides the zero spike
    pi0: float = 0.999
    tau: float = 5e-3

    # hyper-priors, alpha = 0 disables the pair
    gamma_zero_alpha: float = 0.0
    gamma_zero_beta: float = 1.0
    gamma_rest_alpha: float = 0.0
    gamma_rest_beta: float = 1.0

    # component merging
    kl_threshold: float = 1e-2

    # sparse codec index widths
    p_fc: int = 5
    p_conv: int = 8

    def __post_init__(self):
        if self.dataset not in ("synthetic", "mnist"):
            raise ConfigurationError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "mnist" and not self.data_dir:
            raise ConfigurationError("dataset 'mnist' needs data_dir")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigurationError(f"{f.name} must be finite")
        if not all(n >= 1 for n in self.layer_sizes):
            raise ConfigurationError(
                f"layer_sizes must all be >= 1, got {self.layer_sizes}")
        n_weights = sum(a * b for a, b in zip(self.layer_sizes, self.layer_sizes[1:]))
        if n_weights > MAX_DECODED_WEIGHTS:
            raise ConfigurationError(
                f"layer_sizes make {n_weights} weights, more than the "
                f"{MAX_DECODED_WEIGHTS} an encoded blob may hold")
        if not 0.0 < self.pi0 < 1.0:
            raise ConfigurationError("pi0 must lie in (0, 1)")
        for key in ("p_fc", "p_conv"):
            if not 1 <= getattr(self, key) <= 16:
                raise ConfigurationError(f"{key}: index bit widths must lie in [1, 16]")
        # "not x >= 0" and "not x > 0", so that NaN fails too
        for key in ("seed", "pretrain_epochs", "retrain_epochs", "subsample",
                    "weight_decay", "tau", "kl_threshold", "gamma_zero_alpha",
                    "gamma_rest_alpha"):
            if not getattr(self, key) >= 0:
                raise ConfigurationError(f"{key} must be >= 0")
        for key in ("synthetic_train", "synthetic_test", "pretrain_batch_size",
                    "batch_size", "n_components"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1")
        for key in ("pretrain_lr", "lr_weights", "lr_means", "lr_log_vars",
                    "lr_logits"):
            if not getattr(self, key) > 0:
                raise ConfigurationError(f"{key} must be positive")
        self.hyper_config()     # fail now, not after a stage ran

    def hyper_config(self):
        cfg = HyperPriorConfig(
            gamma_zero=((self.gamma_zero_alpha, self.gamma_zero_beta)
                        if self.gamma_zero_alpha > 0 else None),
            gamma_rest=((self.gamma_rest_alpha, self.gamma_rest_beta)
                        if self.gamma_rest_alpha > 0 else None),
        )
        return cfg if cfg.any_enabled else None


# field annotations are strings under postponed evaluation
_COERCE = {f.name: {"str": str, "int": int, "float": float,
                    "tuple": _parse_sizes}[f.type]
           for f in fields(ExperimentConfig)}


def parse_assignments(pairs) -> dict:
    """Parse 'key=value' strings into typed config fields."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in _COERCE:
            raise ConfigurationError(f"unknown config key {key!r}")
        try:
            out[key] = _COERCE[key](value.strip())
        except ConfigurationError:
            raise
        except ValueError:
            raise ConfigurationError(
                f"bad value for {key!r}: {value.strip()!r}") from None
    return out


# a '#' that starts a comment: at the start of a line or after whitespace
_COMMENT = re.compile(r"(?<!\S)#")


def read_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"config file {path} is not UTF-8: {e}") from None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        pairs.append(line)
    return parse_assignments(pairs)


def load_config(config_path=None, overrides=()) -> ExperimentConfig:
    """File values first, then command-line overrides on top."""
    values = {}
    if config_path:
        values.update(read_config_file(config_path))
    values.update(parse_assignments(overrides))
    try:
        return ExperimentConfig(**values)
    except TypeError as e:
        raise ConfigurationError(str(e)) from None
