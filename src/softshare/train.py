"""Retraining loop: minimize error loss plus tau times the complexity loss.

The objective is L = L_err + tau * L_comp, where L_err is the mean
cross-entropy over a batch and L_comp = -(log p(w) + hyper terms) covers
the full weight set regardless of batch size. Four Adam groups (network,
means, log variances, logits) each run at their own learning rate; the
network step, step_layers, is also pretraining's, with L2 for the prior.

Quantities pinned by the mixture mode (the zero-spike mean, logits[0] when
pi_0 is fixed) receive exactly-zero gradients; Adam leaves them bit-identical.

A divergence guard watches the complexity loss between epochs: a blow-up
beyond 10x its magnitude halves the three mixture learning rates once for
the rest of the run. Non-finite losses abort with the last finite state
attached to the exception.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .mixture import (
    HyperPriorConfig,
    MixtureModel,
    hyper_log_density,
    log_prior,
    prior_grads,
    subsampled_prior_grads,
)
from .net import (Batch, Network, error_loss_and_grad, evaluate, flat_weights, iter_batches,
                  split_like_weights)

VARIANCE_FLOOR = 1e-8

# An epoch-over-epoch complexity jump past this many multiples of the
# previous magnitude triggers the one-time mixture learning-rate cut.
DIVERGENCE_RATIO = 10.0


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 256
    lr_weights: float = 5e-4
    lr_means: float = 5e-4
    lr_log_vars: float = 5e-4
    lr_logits: float = 5e-4
    subsample: int = 0          # weights per prior-gradient draw; 0 = use all
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        for name in ("lr_weights", "lr_means", "lr_log_vars", "lr_logits"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.subsample < 0:
            raise ConfigurationError("subsample must be >= 0")


# Adam's moment decay rates and denominator guard, as in Kingma & Ba (2015)
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Standard Adam with bias correction."""

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, grad: np.ndarray, lr_scale: float = 1.0) -> np.ndarray:
        """Returns the update to ADD to the parameter for descent on grad."""
        self.t += 1
        self.m += (1.0 - ADAM_B1) * (grad - self.m)
        self.v += (1.0 - ADAM_B2) * (grad * grad - self.v)
        m_hat = self.m / (1.0 - ADAM_B1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_B2 ** self.t)
        return -(self.lr * lr_scale) * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def layer_adams(net: Network, lr: float) -> list[tuple[AdamState, AdamState]]:
    """A (weights, biases) Adam pair per layer, all at learning rate lr."""
    return [(AdamState(l.weights.shape, lr), AdamState(l.biases.shape, lr))
            for l in net.layers]


def step_layers(net: Network, adams, grads, extra=None) -> None:
    """One Adam step per layer; extra[i], if given, joins layer i's dw."""
    for i, (layer, (adam_w, adam_b), (dw, db)) in enumerate(zip(net.layers, adams, grads)):
        if extra is not None:
            dw = dw + extra[i]
        layer.weights += adam_w.step(dw)
        layer.biases += adam_b.step(db)


@dataclass
class TraceRow:
    epoch: int
    error_loss: float        # mean of batch losses over the epoch
    complexity_loss: float   # -(log prior + hyper), measured after the epoch
    test_error: float        # fraction wrong on the held-out set; nan if none
    means: np.ndarray
    variances: np.ndarray
    proportions: np.ndarray
    mixture_lr_scale: float


def trace_to_csv(rows: list[TraceRow]) -> str:
    """Render trace rows as CSV with component columns mu_j / var_j / pi_j."""
    if not rows:
        return ""
    k = rows[0].means.shape[0]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["epoch", "error_loss", "complexity_loss", "test_error", "mixture_lr_scale"]
    for j in range(k):
        header += [f"mu_{j}", f"var_{j}", f"pi_{j}"]
    writer.writerow(header)
    for r in rows:
        row = [r.epoch, repr(r.error_loss), repr(r.complexity_loss),
               repr(r.test_error), repr(r.mixture_lr_scale)]
        for j in range(k):
            row += [repr(float(r.means[j])), repr(float(r.variances[j])),
                    repr(float(r.proportions[j]))]
        writer.writerow(row)
    return out.getvalue()


def complexity_loss(net: Network, mixture: MixtureModel,
                    hyper: Optional[HyperPriorConfig]) -> float:
    """-(log p(w) + enabled hyper-prior log densities) over all weights."""
    total = log_prior(flat_weights(net), mixture)
    if hyper is not None and hyper.any_enabled:
        total += hyper_log_density(mixture, hyper)
    return -total


def retrain(net: Network, mixture: MixtureModel, train_data: Batch,
            config: TrainConfig, hyper: Optional[HyperPriorConfig] = None,
            test_data: Optional[Batch] = None,
            on_epoch: Optional[Callable[[TraceRow], None]] = None,
            ) -> tuple[Network, MixtureModel, list[TraceRow]]:
    """Joint retraining of the network and its mixture prior.

    Mutates nothing: returns fresh (network, mixture, trace). With tau = 0
    and no hyper-priors enabled the prior is never evaluated and the mixture
    is returned bit-identical.
    """
    net = net.copy()
    mixture = mixture.copy()
    rng = np.random.default_rng(config.seed)
    tau = mixture.tau
    use_prior = tau != 0.0 or (hyper is not None and hyper.any_enabled)

    adam_layers = layer_adams(net, config.lr_weights)
    adam_means = AdamState(mixture.means.shape, config.lr_means)
    adam_log_vars = AdamState(mixture.log_vars.shape, config.lr_log_vars)
    adam_logits = AdamState(mixture.logits.shape, config.lr_logits)

    log_floor = math.log(VARIANCE_FLOOR)
    mixture_lr_scale = 1.0
    lr_cut_done = False
    trace: list[TraceRow] = []
    prev_complexity: Optional[float] = None

    def snapshot(epoch: int, err_mean: float) -> TraceRow:
        comp = complexity_loss(net, mixture, hyper) if use_prior else 0.0
        test_err = evaluate(net, test_data) if test_data is not None else float("nan")
        return TraceRow(epoch, err_mean, comp, test_err, mixture.means.copy(),
                        mixture.variances().copy(), mixture.mixing_proportions().copy(),
                        mixture_lr_scale)

    for epoch in range(1, config.epochs + 1):
        batch_losses = []
        for batch in iter_batches(train_data.inputs, train_data.labels,
                                  config.batch_size, rng):
            err_loss, layer_grads = error_loss_and_grad(net, batch)
            batch_losses.append(err_loss)

            prior_w = None
            if use_prior:
                w = flat_weights(net)
                if config.subsample and config.subsample < w.shape[0]:
                    g = subsampled_prior_grads(w, mixture, hyper, config.subsample, rng)
                else:
                    g = prior_grads(w, mixture, hyper)
                # descent on L = L_err - tau * log joint: every gradient is
                # the log-density gradient scaled by -tau, hyper terms included
                g.d_weights *= -tau     # in place: a copy is one more weight-sized array
                prior_w = split_like_weights(net, g.d_weights)
                mixture.means += adam_means.step(-tau * g.d_means, mixture_lr_scale)
                mixture.log_vars += adam_log_vars.step(-tau * g.d_log_vars, mixture_lr_scale)
                mixture.logits += adam_logits.step(-tau * g.d_logits, mixture_lr_scale)
                np.maximum(mixture.log_vars, log_floor, out=mixture.log_vars)
            step_layers(net, adam_layers, layer_grads, prior_w)

        err_mean = float(np.mean(batch_losses)) if batch_losses else float("nan")
        row = snapshot(epoch, err_mean)
        trace.append(row)
        if on_epoch is not None:
            on_epoch(row)

        if use_prior:
            comp = row.complexity_loss
            if not math.isfinite(comp) or not math.isfinite(err_mean):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} "
                    f"(error {err_mean}, complexity {comp})",
                    network=net, mixture=mixture, trace=trace,
                )
            if (prev_complexity is not None and not lr_cut_done
                    and comp > prev_complexity + DIVERGENCE_RATIO * abs(prev_complexity)):
                mixture_lr_scale = 0.5
                lr_cut_done = True
            prev_complexity = comp

    return net, mixture, trace
