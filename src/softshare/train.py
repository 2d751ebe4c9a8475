"""Retraining loop: minimize error loss plus tau times the complexity loss.

The objective is L = L_err + tau * L_comp, where L_err is the mean
cross-entropy over a batch and L_comp = -(log p(w) + hyper terms) covers
the full weight set regardless of batch size. The prior pass reads the
network's flat weight vector in place, and its weight gradient is added
into the flat error gradient. Five Adam states step per retraining step:
one over all weights, one over all biases (both at lr_weights), and one
each for the means, log variances and logits at their own rates.
Pretraining steps the same two network states, with L2 in place of the
prior. Both loops are configured by the same ExperimentConfig:
pretrain_network reads its pretrain_* keys, retrain its retraining keys.

AdamState.step adds its update into the parameter in place, one block of
ADAM_BLOCK elements at a time through two scratch rows. A step allocates
nothing weight-sized, and each block stays in cache across Adam's passes;
the bits are those of the whole-array expression.

Quantities pinned by the mixture mode (the zero-spike mean, logits[0] when
pi_0 is fixed) receive exactly-zero gradients; Adam leaves them bit-identical.

A divergence guard watches the complexity loss between epochs: a blow-up
beyond 10x its magnitude halves the three mixture learning rates once for
the rest of the run. A non-finite loss aborts with DivergenceError, which
carries the network, the mixture and the trace as that epoch left them.
So does a step whose mixture update leaves a mean, log-variance or logit
non-finite: it stops before the network's update of that step.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigurationError, DivergenceError
from .mixture import (
    HyperPriorConfig,
    MixtureModel,
    hyper_log_density,
    log_prior,
    prior_grads,
    subsampled_prior_grads,
)
from .net import Batch, Network, error_loss_and_grad, evaluate, iter_batches

VARIANCE_FLOOR = 1e-8

# An epoch-over-epoch complexity jump past this many multiples of the
# previous magnitude triggers the one-time mixture learning-rate cut.
DIVERGENCE_RATIO = 10.0


# Adam's moment decay rates and denominator guard, as in Kingma & Ba (2015)
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8

# Elements per block of AdamState.step: two float64 scratch rows of this
# length (256 KB) and the matching slices of param, grad, m and v stay in a
# core's L2 cache across the step's passes.
ADAM_BLOCK = 16384


class AdamState:
    """Standard Adam with bias correction, applied in place."""

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._scratch = np.empty((2, min(self.m.size, ADAM_BLOCK)))

    def step(self, param: np.ndarray, grad: np.ndarray, lr_scale: float = 1.0) -> None:
        """Adds the Adam update for descent on grad into param.

        Walks the arrays in blocks of ADAM_BLOCK elements through two scratch
        rows. Each element sees the operations of the textbook expression
        -(lr * lr_scale) * m_hat / (sqrt(v_hat) + eps) in the same order, so
        the result is bit for bit that of computing it whole and adding it.
        """
        if param.shape != self.m.shape or grad.shape != self.m.shape:
            raise ConfigurationError(
                f"Adam state has shape {self.m.shape}, got param {param.shape} "
                f"and grad {grad.shape}")
        if not param.flags.c_contiguous:
            raise ConfigurationError("Adam updates param in place; a param that "
                                     "is not C-contiguous would update a copy")
        self.t += 1
        c1 = 1.0 - ADAM_B1 ** self.t
        c2 = 1.0 - ADAM_B2 ** self.t
        neg_lr = -(self.lr * lr_scale)
        p, g = param.reshape(-1), grad.reshape(-1)
        m, v = self.m.reshape(-1), self.v.reshape(-1)
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p.size)
            gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = self._scratch[:, :hi - lo]
            np.subtract(gb, mb, out=a)          # m += (1 - b1) * (g - m)
            a *= 1.0 - ADAM_B1
            mb += a
            np.multiply(gb, gb, out=a)          # v += (1 - b2) * (g * g - v)
            a -= vb
            a *= 1.0 - ADAM_B2
            vb += a
            np.divide(mb, c1, out=a)            # -(lr * scale) * m_hat
            a *= neg_lr
            np.divide(vb, c2, out=b)            # / (sqrt(v_hat) + eps)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p[lo:hi] += a


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
    total = log_prior(net.weights, mixture)
    if hyper is not None and hyper.any_enabled:
        total += hyper_log_density(mixture, hyper)
    return -total


def retrain(net: Network, mixture: MixtureModel, train_data: Batch,
            cfg: ExperimentConfig, test_data: Optional[Batch] = None,
            on_epoch: Optional[Callable[[TraceRow], None]] = None,
            ) -> tuple[Network, MixtureModel, list[TraceRow]]:
    """Joint retraining of the network and its mixture prior.

    Reads the retraining keys of cfg (retrain_epochs, batch_size, the four
    lr_* rates, subsample, seed) and its hyper-prior keys (hyper_config);
    tau comes from the mixture, which carries it into the SWSC checkpoint.
    Mutates nothing: returns fresh (network, mixture, trace). With tau = 0
    and no hyper-priors enabled the prior is never evaluated and the
    mixture is returned bit-identical.
    """
    net = net.copy()
    mixture = mixture.copy()
    rng = np.random.default_rng(cfg.seed)
    hyper = cfg.hyper_config()
    tau = mixture.tau
    use_prior = tau != 0.0 or hyper is not None

    adam_weights = AdamState(net.weights.shape, cfg.lr_weights)
    adam_biases = AdamState(net.biases.shape, cfg.lr_weights)
    adam_means = AdamState(mixture.means.shape, cfg.lr_means)
    adam_log_vars = AdamState(mixture.log_vars.shape, cfg.lr_log_vars)
    adam_logits = AdamState(mixture.logits.shape, cfg.lr_logits)

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

    def train_step(batch: Batch, epoch: int, step: int) -> float:
        """One step on batch; returns its error loss. The step's gradients
        are locals, so they are freed when it returns, before the next step
        or the epoch-end snapshot allocates."""
        err_loss, d_weights, d_biases = error_loss_and_grad(net, batch)
        if use_prior:
            if cfg.subsample and cfg.subsample < net.weight_count:
                g = subsampled_prior_grads(net.weights, mixture, hyper, cfg.subsample, rng)
            else:
                g = prior_grads(net.weights, mixture, hyper)
            # descent on L = L_err - tau * log joint: every gradient is
            # the log-density gradient scaled by -tau, hyper terms included
            g.d_weights *= -tau     # in place: a copy is one more weight-sized array
            d_weights += g.d_weights
            adam_means.step(mixture.means, -tau * g.d_means, mixture_lr_scale)
            adam_log_vars.step(mixture.log_vars, -tau * g.d_log_vars, mixture_lr_scale)
            adam_logits.step(mixture.logits, -tau * g.d_logits, mixture_lr_scale)
            np.maximum(mixture.log_vars, log_floor, out=mixture.log_vars)
            for name in ("means", "log_vars", "logits"):
                if not np.isfinite(getattr(mixture, name)).all():
                    raise DivergenceError(
                        f"non-finite mixture {name} at epoch {epoch}, step {step}",
                        network=net, mixture=mixture, trace=trace)
        adam_weights.step(net.weights, d_weights)
        adam_biases.step(net.biases, d_biases)
        return err_loss

    for epoch in range(1, cfg.retrain_epochs + 1):
        batch_losses = [train_step(batch, epoch, step) for step, batch in enumerate(
            iter_batches(train_data.inputs, train_data.labels, cfg.batch_size, rng), 1)]
        err_mean = float(np.mean(batch_losses))
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
