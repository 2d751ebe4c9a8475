"""Learnable Gaussian mixture prior over the shared network weights.

The prior is factorized: log p(w) = sum_i log sum_j pi_j N(w_i | mu_j, var_j),
with component 0 acting as the zero spike. Its mean is pinned at exactly 0,
and weights whose posterior mass lands on it are pruned later. Component
count is written J+1 in comments below: J free components plus the spike.

Parameterization keeps everything unconstrained for gradient training:
variances as log_vars (rho = log var) and mixing proportions through
softmax logits. Two mixing modes exist:

* fixed zero mass (default): pi_0 is a constant; the J free components
  share the remaining mass through a softmax over logits[1:]. logits[0]
  is ignored and receives zero gradient.
* trainable zero mass: one softmax over all J+1 logits; a Beta hyper-prior
  on the resulting pi_0 can keep it near a target mode.

Gamma hyper-priors act on component precisions lambda = 1/var = exp(-rho);
they discourage variance collapse during retraining (a hard clamp in the
trainer is the backstop).

Gradient conventions (ascent direction, i.e. gradients of the log density):
    d log p / d w_i    = sum_j r_ij (mu_j - w_i) / var_j
    d log p / d mu_j   = sum_i r_ij (w_i - mu_j) / var_j
    d log p / d rho_j  = sum_i r_ij ((w_i - mu_j)^2 / var_j - 1) / 2
    d log p / d l_k    = sum_i (r_ik - pi-term), see prior_pass
where r_ij is the responsibility of component j for weight i.

One kernel, prior_pass, serves log_prior, prior_grads, subsampled_prior_grads
and postprocess.quantize. It walks the weights in chunks of CHUNK, each
laid out component-major in reused (J+1, chunk) buffers, so no (I, J+1)
matrix is built. Per chunk it forms d_ij = w_i - mu_j, the log joint from
d (a quadratic in w would round exact ties apart), and r by a per-weight
log-sum-exp, then adds up what was asked for: the log prior, the
per-weight gradient, the sums of r, r d and r d^2 per component, and the
argmax of r.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericError

LOG_2PI = math.log(2.0 * math.pi)

# Widening applied to a degenerate (min == max) pre-trained weight range.
DEGENERATE_RANGE_PAD = 1e-2

# Weights per step of prior_pass. Its three (J+1, CHUNK) float64 buffers,
# about 0.5 MB each at J+1 = 17, stay in cache across the step's passes.
CHUNK = 4096


@dataclass
class MixtureModel:
    """J+1 Gaussian components; index 0 is the zero spike (mean fixed at 0)."""

    means: np.ndarray      # (J+1,), means[0] == 0.0 always
    log_vars: np.ndarray   # (J+1,)
    logits: np.ndarray     # (J+1,); slot 0 participates only when pi0_trainable
    pi0: float             # zero-spike mass when fixed; informational otherwise
    pi0_trainable: bool = False
    tau: float = 5e-3      # complexity-loss weight used during retraining

    def __post_init__(self):
        self.means = np.ascontiguousarray(self.means, dtype=np.float64)
        self.log_vars = np.ascontiguousarray(self.log_vars, dtype=np.float64)
        self.logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        self.validate()

    def validate(self):
        k = self.means.shape[0]
        if k < 2:
            raise ConfigurationError("mixture needs the zero spike plus >= 1 component")
        if self.log_vars.shape != (k,) or self.logits.shape != (k,):
            raise ConfigurationError("mixture parameter arrays disagree on length")
        if self.means[0] != 0.0:
            raise ConfigurationError("zero-spike mean must be exactly 0")
        if not self.pi0_trainable and not 0.0 < self.pi0 < 1.0:
            raise ConfigurationError(f"pi0 must lie in (0, 1), got {self.pi0}")

    @property
    def n_components(self) -> int:
        """Total component count including the zero spike (J+1)."""
        return self.means.shape[0]

    @property
    def n_free(self) -> int:
        """J, the number of components besides the zero spike."""
        return self.means.shape[0] - 1

    def variances(self) -> np.ndarray:
        return np.exp(self.log_vars)

    def mixing_proportions(self) -> np.ndarray:
        """Mixing vector (pi_0, pi_1, ..., pi_J); sums to 1."""
        if self.pi0_trainable:
            return _softmax(self.logits)
        pi = np.empty_like(self.logits)
        pi[0] = self.pi0
        pi[1:] = (1.0 - self.pi0) * _softmax(self.logits[1:])
        return pi

    def copy(self) -> "MixtureModel":
        return MixtureModel(
            self.means.copy(), self.log_vars.copy(), self.logits.copy(),
            self.pi0, self.pi0_trainable, self.tau,
        )


@dataclass
class HyperPriorConfig:
    """Hyper-prior settings; a None entry disables that hyper-prior.

    gamma_zero / gamma_rest: (alpha, beta) of a Gamma density on the
    precision of the zero spike / of every free component.
    beta_pi0: (alpha, beta) of a Beta density on pi_0 (only meaningful when
    pi_0 is trainable; with fixed pi_0 it contributes a constant).
    """

    gamma_zero: Optional[tuple[float, float]] = None
    gamma_rest: Optional[tuple[float, float]] = None
    beta_pi0: Optional[tuple[float, float]] = None

    def __post_init__(self):
        for name in ("gamma_zero", "gamma_rest", "beta_pi0"):
            ab = getattr(self, name)
            if ab is None:
                continue
            alpha, beta = float(ab[0]), float(ab[1])
            if alpha <= 1.0 or beta <= 0.0:
                # alpha > 1 so the density has an interior mode.
                raise ConfigurationError(
                    f"{name} needs {name}_alpha > 1 and {name}_beta > 0, "
                    f"got ({alpha}, {beta})"
                )
            setattr(self, name, (alpha, beta))

    @property
    def any_enabled(self) -> bool:
        return any(x is not None for x in (self.gamma_zero, self.gamma_rest, self.beta_pi0))


@dataclass
class PriorGrads:
    """Gradients of the log joint density (mixture plus enabled hyper-priors).

    Slot 0 of the component arrays belongs to the zero spike: d_means[0] is
    always 0, and d_logits[0] is the zero-mass logit gradient (0 when pi_0
    is fixed).
    """

    d_weights: np.ndarray   # (I,)
    d_means: np.ndarray     # (J+1,)
    d_log_vars: np.ndarray  # (J+1,)
    d_logits: np.ndarray    # (J+1,)


def gamma_params_from_mode_var(mode: float, var: float) -> tuple[float, float]:
    """Gamma (alpha, beta) with the given mode (alpha-1)/beta and variance alpha/beta^2."""
    if mode <= 0 or var <= 0:
        raise ConfigurationError("gamma mode and variance must be positive")
    beta = (mode + math.sqrt(mode * mode + 4.0 * var)) / (2.0 * var)
    return 1.0 + mode * beta, beta


def beta_params_from_mode_pseudocount(mode: float, pseudocount: float) -> tuple[float, float]:
    """Beta (alpha, beta) with mode (alpha-1)/(alpha+beta-2) and alpha+beta = pseudocount."""
    if not 0.0 < mode < 1.0 or pseudocount <= 2.0:
        raise ConfigurationError("beta mode must be in (0,1) and pseudocount > 2")
    alpha = mode * (pseudocount - 2.0) + 1.0
    return alpha, pseudocount - alpha


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def init_mixture(weights, n_free: int, pi0: float, weight_decay: float,
                 tau: float = 5e-3, pi0_trainable: bool = False) -> MixtureModel:
    """Mixture spanning the pre-trained weight range.

    Free means are evenly spaced over [min(w), max(w)] endpoints included
    (a single free component sits at the range start). Free components
    share the non-spike mass equally. The common initial variance follows
    the neighbor-overlap rule (range/J)^2 / 4, floored by the pre-training
    weight-decay rate so it never starts absurdly tight.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.size == 0:
        raise ConfigurationError("cannot initialize a mixture from zero weights")
    if n_free < 1:
        raise ConfigurationError("need at least one free component")
    if not 0.0 < pi0 < 1.0:
        raise ConfigurationError(f"pi0 must lie in (0, 1), got {pi0}")
    lo, hi = float(w.min()), float(w.max())
    if lo == hi:
        warnings.warn(
            "degenerate weight range; widening symmetrically by "
            f"{DEGENERATE_RANGE_PAD}", stacklevel=2,
        )
        lo -= DEGENERATE_RANGE_PAD
        hi += DEGENERATE_RANGE_PAD

    means = np.zeros(n_free + 1)
    means[1:] = np.linspace(lo, hi, n_free)

    var0 = max(((hi - lo) / n_free) ** 2 / 4.0, float(weight_decay))
    log_vars = np.full(n_free + 1, math.log(var0))

    logits = np.zeros(n_free + 1)
    if pi0_trainable:
        logits[0] = math.log(pi0)
        logits[1:] = math.log((1.0 - pi0) / n_free)
    return MixtureModel(means, log_vars, logits, pi0, pi0_trainable, tau)


def hyper_log_density(m: MixtureModel, h: HyperPriorConfig) -> float:
    """Sum of the enabled hyper-prior log densities at the current mixture state."""
    total = 0.0
    lam = np.exp(-m.log_vars)
    if h.gamma_zero is not None:
        total += _gamma_logpdf(lam[0], *h.gamma_zero)
    if h.gamma_rest is not None:
        total += sum(_gamma_logpdf(l, *h.gamma_rest) for l in lam[1:])
    if h.beta_pi0 is not None:
        pi0 = float(m.mixing_proportions()[0])
        if not 0.0 < pi0 < 1.0:
            raise NumericError(f"pi0 = {pi0} outside the Beta domain (0, 1)")
        total += _beta_logpdf(pi0, *h.beta_pi0)
    return float(total)


def _gamma_logpdf(lam: float, alpha: float, beta: float) -> float:
    if lam <= 0.0:
        raise NumericError(f"precision {lam} outside the Gamma domain")
    return alpha * math.log(beta) - math.lgamma(alpha) \
        + (alpha - 1.0) * math.log(lam) - beta * lam


def _beta_logpdf(x: float, alpha: float, beta: float) -> float:
    return math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta) \
        + (alpha - 1.0) * math.log(x) + (beta - 1.0) * math.log1p(-x)


def hyper_grads(m: MixtureModel, h: HyperPriorConfig):
    """Gradients of the enabled hyper-prior log densities.

    Returns (d_log_vars, d_logits), both (J+1,). Gamma densities act through
    rho = log var (precision exp(-rho)); the Beta density acts through the
    mixing logits, and only when pi_0 is trainable.
    """
    k = m.n_components
    d_log_vars = np.zeros(k)
    d_logits = np.zeros(k)
    lam = np.exp(-m.log_vars)
    # d/d rho of (alpha-1) log lam - beta lam with lam = exp(-rho)
    if h.gamma_zero is not None:
        a, b = h.gamma_zero
        d_log_vars[0] = -(a - 1.0) + b * lam[0]
    if h.gamma_rest is not None:
        a, b = h.gamma_rest
        d_log_vars[1:] = -(a - 1.0) + b * lam[1:]
    if h.beta_pi0 is not None and m.pi0_trainable:
        pi = m.mixing_proportions()
        pi0 = float(pi[0])
        if not 0.0 < pi0 < 1.0:
            raise NumericError(f"pi0 = {pi0} outside the Beta domain (0, 1)")
        a, b = h.beta_pi0
        dlog_dpi0 = (a - 1.0) / pi0 - (b - 1.0) / (1.0 - pi0)
        # d pi0 / d logit_k = pi0 (delta_0k - pi_k)
        d_logits[:] = dlog_dpi0 * pi0 * (-pi)
        d_logits[0] += dlog_dpi0 * pi0
    return d_log_vars, d_logits


def _component_terms(m: MixtureModel):
    """Per-component columns (J+1, 1): mu_j, -1/(2 var_j), log pi_j - log(2 pi var_j)/2."""
    const = np.log(m.mixing_proportions()) - 0.5 * (m.log_vars + LOG_2PI)
    return m.means[:, None], (-0.5 * np.exp(-m.log_vars))[:, None], const[:, None]


def _posterior(x: np.ndarray, terms, d: np.ndarray, r: np.ndarray, start: int = 0):
    """Fill the (J+1, n) buffers d with x_i - mu_j and r with the responsibilities.

    Returns log p(x_i) per weight; a non-finite one (a NaN or infinite weight)
    raises NumericError naming its flat index, start + i."""
    mu, neg_half_inv_var, const = terms
    np.subtract(x, mu, out=d)
    np.square(d, out=r)
    r *= neg_half_inv_var
    r += const
    mx = r.max(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite weight
        r -= mx
        np.exp(r, out=r)
        norm = r.sum(axis=0)
        r /= norm
        per_weight = mx + np.log(norm)
    if not np.isfinite(per_weight).all():
        bad = start + int(np.flatnonzero(~np.isfinite(per_weight))[0])
        raise NumericError(f"non-finite log prior at weight index {bad}")
    return per_weight


def prior_pass(w, m: MixtureModel, grads: bool = False, assign: bool = False):
    """The one chunked pass over the weights (see the module docstring).

    Returns (log p(w), PriorGrads or None, assignments or None). The
    gradients cover the mixture only, no hyper-prior terms; assignments
    hold each weight's argmax-responsibility component, ties to the lower
    index.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    total, k = w.shape[0], m.n_components
    terms = _component_terms(m)
    inv_var = np.exp(-m.log_vars)
    bufs = np.empty((3, k * min(CHUNK, total)))
    log_p = 0.0
    # per component: sum_i r_ij, sum_i r_ij d_ij, sum_i r_ij d_ij^2
    sums = np.zeros((3, k))
    d_weights = np.empty(total) if grads else None
    assignments = np.empty(total, dtype=np.int64) if assign else None
    for start in range(0, total, CHUNK):
        x = w[start:start + CHUNK]
        n = x.shape[0]
        d, r, t = (b[:k * n].reshape(k, n) for b in bufs)
        log_p += float(_posterior(x, terms, d, r, start).sum())
        if assign:
            assignments[start:start + n] = r.argmax(axis=0)
        if grads:
            sums[0] += r.sum(axis=1)
            np.multiply(r, d, out=t)
            sums[1] += t.sum(axis=1)
            sums[2] += np.einsum("jn,jn->j", t, d)
            np.dot(-inv_var, t, out=d_weights[start:start + n])
    if not grads:
        return log_p, None, assignments

    col_r = sums[0]
    d_means = sums[1] * inv_var
    d_means[0] = 0.0
    d_log_vars = 0.5 * (sums[2] * inv_var - col_r)
    d_logits = np.zeros(k)
    if m.pi0_trainable:
        d_logits[:] = col_r - total * m.mixing_proportions()
    else:
        d_logits[1:] = col_r[1:] - _softmax(m.logits[1:]) * (total - col_r[0])
    return log_p, PriorGrads(d_weights, d_means, d_log_vars, d_logits), assignments


def log_prior(w, m: MixtureModel) -> float:
    """log p(w) = sum_i log sum_j pi_j N(w_i | mu_j, var_j), via log-sum-exp."""
    return prior_pass(w, m)[0]


def _add_hyper(g: PriorGrads, m: MixtureModel, h: Optional[HyperPriorConfig]) -> PriorGrads:
    if h is not None and h.any_enabled:
        d_lv, d_lg = hyper_grads(m, h)
        g.d_log_vars += d_lv
        g.d_logits += d_lg
    return g


def prior_grads(w, m: MixtureModel, h: Optional[HyperPriorConfig] = None) -> PriorGrads:
    """Exact gradients of log p(w) plus any enabled hyper-prior densities.

    Fixed quantities get zero gradient: d_means[0] always, d_logits[0]
    when pi_0 is fixed.
    """
    return _add_hyper(prior_pass(w, m, grads=True)[1], m, h)


def subsampled_prior_grads(w, m: MixtureModel, h: Optional[HyperPriorConfig],
                           k: int, rng: np.random.Generator) -> PriorGrads:
    """Unbiased estimate of prior_grads from k weights sampled without replacement.

    The sampled contribution is scaled by I/k; hyper-prior terms do not
    depend on the weights and enter exactly.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    total = w.shape[0]
    if not 1 <= k <= total:
        raise ConfigurationError(f"subsample size {k} outside [1, {total}]")
    if k == total:
        return prior_grads(w, m, h)
    idx = rng.choice(total, size=k, replace=False)
    g = prior_pass(w[idx], m, grads=True)[1]
    scale = total / k
    d_weights = np.zeros(total)
    d_weights[idx] = g.d_weights * scale
    g = PriorGrads(d_weights, g.d_means * scale, g.d_log_vars * scale, g.d_logits * scale)
    return _add_hyper(g, m, h)
