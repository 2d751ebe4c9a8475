"""Experiment configuration: one flat key=value namespace.

A config file holds `key = value` lines ('#' comments allowed); the same
keys can be overridden on the command line. Keys are grouped below by the
stage they feed. Hyper-prior (alpha, beta) pairs use alpha = 0 to mean
"disabled" so the default run matches the plain mixture objective.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigurationError
from .mixture import HyperPriorConfig
from .postprocess import MergeConfig
from .train import TrainConfig


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"not a boolean: {s!r}")


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
    dataset: str = "synthetic"          # synthetic | mnist | idx
    data_dir: str = ""
    output_dir: str = "out"
    seed: int = 0
    layer_sizes: tuple = (784, 300, 100, 10)
    pretrained_checkpoint: str = ""     # skip pretraining when set

    # synthetic corpus
    synthetic_train: int = 8000
    synthetic_test: int = 2000
    synthetic_noise: float = 0.055

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
    pi0_trainable: bool = False
    tau: float = 5e-3

    # hyper-priors, alpha = 0 disables the pair
    gamma_zero_alpha: float = 0.0
    gamma_zero_beta: float = 1.0
    gamma_rest_alpha: float = 0.0
    gamma_rest_beta: float = 1.0
    beta_pi0_alpha: float = 0.0
    beta_pi0_beta: float = 1.0

    # component merging
    kl_threshold: float = 1e-2
    max_passes: int = 100

    # sparse codec index widths
    p_fc: int = 5
    p_conv: int = 8

    def __post_init__(self):
        if self.dataset not in ("synthetic", "mnist", "idx"):
            raise ConfigurationError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset in ("mnist", "idx") and not self.data_dir:
            raise ConfigurationError(f"dataset {self.dataset!r} needs data_dir")
        if self.n_components < 1:
            raise ConfigurationError("n_components must be >= 1")
        if not 0.0 < self.pi0 < 1.0:
            raise ConfigurationError("pi0 must lie in (0, 1)")
        if not self.weight_decay >= 0:
            raise ConfigurationError("weight_decay must be >= 0")
        if not self.tau >= 0:
            raise ConfigurationError("tau must be >= 0")
        if not 1 <= self.p_fc <= 16 or not 1 <= self.p_conv <= 16:
            raise ConfigurationError("index bit widths must lie in [1, 16]")
        if self.pretrain_epochs < 0:
            raise ConfigurationError("pretrain_epochs must be >= 0")
        if self.pretrain_batch_size < 1:
            raise ConfigurationError("pretrain_batch_size must be >= 1")
        if not self.pretrain_lr > 0:
            raise ConfigurationError("pretrain_lr must be positive")
        # each stage's config checks its keys: fail now, not after a stage ran
        self.train_config()
        self.merge_config()
        self.hyper_config()

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.retrain_epochs, batch_size=self.batch_size,
            lr_weights=self.lr_weights, lr_means=self.lr_means,
            lr_log_vars=self.lr_log_vars, lr_logits=self.lr_logits,
            subsample=self.subsample, seed=self.seed,
        )

    def merge_config(self) -> MergeConfig:
        return MergeConfig(kl_threshold=self.kl_threshold,
                           max_passes=self.max_passes)

    def hyper_config(self):
        cfg = HyperPriorConfig(
            gamma_zero=((self.gamma_zero_alpha, self.gamma_zero_beta)
                        if self.gamma_zero_alpha > 0 else None),
            gamma_rest=((self.gamma_rest_alpha, self.gamma_rest_beta)
                        if self.gamma_rest_alpha > 0 else None),
            beta_pi0=((self.beta_pi0_alpha, self.beta_pi0_beta)
                      if self.beta_pi0_alpha > 0 else None),
        )
        return cfg if cfg.any_enabled else None


# field annotations are strings under postponed evaluation
_COERCE = {f.name: {"str": str, "int": int, "float": float, "bool": _parse_bool,
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


def read_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    pairs = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
