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
    d log p / d l_k    = sum_i (r_ik - pi-term), see _mixture_grads
where r_ij is the responsibility of component j for weight i.

One walk, _chunks, takes the weights in chunks of CHUNK, each laid out
component-major in one reused (J+1, chunk) buffer E, so no (I, J+1) matrix
is built. Per chunk, three elementwise sweeps leave -q in E:

    E = w_i - mu_j;  E = E^2;  E *= -1 / (2 var_j)     E_ij = -q_ij

The difference is taken before the square, since a quadratic in w would
round exact ties apart. With c_j = pi_j / sqrt(2 pi var_j) and c_max the
largest c_j, p(w_i) = c_max norm_i, norm_i = sum_j (c_j / c_max) exp(-q_ij).

Reach: let c_min be the smallest kept c_j / c_max, tiny the smallest normal
float (2.2e-308) and reach = log(c_min / tiny) - 1. A weight is within reach
when mn_i = min_j q_ij, at its nearest component, is at most reach. Then
norm_i >= c_min exp(-mn_i) >= e tiny, and exp(-q_ij) is summed as it is. A
weight beyond reach could get norm_i = 0, so a chunk that holds one is
shifted by its per-weight maximum: E_ij = -q_ij + mn_i, 0 at the nearest
component. Its norm_i, sum_j (c_j / c_max) exp(mn_i - q_ij), is then at
least c_min, and p(w_i) = c_max exp(-mn_i) norm_i. Whether any weight can be beyond reach
is settled once per call: every mn_i is at most
B = min_j max((min w - mu_j)^2, (max w - mu_j)^2) / (2 var_j), and when
B <= reach no chunk takes the maximum or shifts. Otherwise each chunk takes
max_j -q_ij and shifts only if one of its weights is beyond reach.

Three readers walk it, and each stops once it has what it reads:

* assignments, for postprocess.quantize, stops at -q: the argmax over j
  of log c_j - q_ij, ties to the lower index, with no exp and no product.
* The other two take E = exp(E) and norm = (c / c_max) @ E.
* log_prior then takes the logs: log p(w_i) = log norm_i + log c_max,
  plus max_j -q_ij where the chunk was shifted.
* _mixture_grads, behind prior_grads and subsampled_prior_grads, takes
  two more small BLAS products, into which the constants and 1/norm fold:

    E @ [1, w, w^2] / norm      times c_j / c_max: sum_i r_ij, sum_i r_ij w_i
                                and sum_i r_ij w_i^2, whence the sums of r d
                                and r d^2 and the component gradients
    [c/var; c mu/var] @ E       A_i and B_i, with
                                d log p / d w_i = (B_i - w_i A_i) / norm_i

A NaN or infinite weight makes norm_i non-finite (for assignments,
max_j log c_j - q_ij), and the reader raises NumericError naming its flat
index. A mixture whose largest log c_j is not finite (a NaN log-variance,
or one of -inf) raises NumericError before the walk starts.

Numerical range: after the exp every E_ij lies in [0, 1], and norm_i >= tiny
at every finite weight, shifted or not. So every kept c_j / c_max must be at
least tiny. A component below that, such as one whose pi_j underflowed to
0, is left out of the pass, as if its pi_j were 0. The moments product takes
1/norm scaled by its chunk's smallest norm, and c_j / c_max unscaled by it,
so that a kept c_j / c_max down to tiny overflows none of its terms. In an
unshifted chunk, exp(-q_ij) of a far component may be subnormal or 0; its
absolute error, at most 2.5e-324, is under eps of norm_i.

Rounding: the sums of r d^2 come from moments about 0, so their error is
about eps mu_j^2 / var_j per unit of r, against eps (w - mu_j)^2 / var_j
in the direct form: 3e-10 of the largest d_log_vars at variance 1e-6. In
the same way, d log p / d w_i = (B_i - w_i A_i) / norm_i has a relative
error of about eps |mu_j| / |w_i - mu_j| near component j: 1e-9 for a
weight within 2e-7 |mu_j| of the mean.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, NumericError

LOG_2PI = math.log(2.0 * math.pi)

# Widening applied to a degenerate (min == max) pre-trained weight range.
DEGENERATE_RANGE_PAD = 1e-2

# Weights per step of _chunks. Its (J+1, CHUNK) float64 buffer, about
# 0.5 MB at J+1 = 17, stays in cache across the chunk's sweeps.
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


class _Components(NamedTuple):
    """Per-component constants of the chunk walk, over the components it keeps.

    c_j = pi_j / sqrt(2 pi var_j) is the Gaussian's peak height times its
    mass. A component whose c_j / c_max is below the smallest normal float
    (pi_j underflowed to 0, say) is left out; see the module docstring.
    """

    live: np.ndarray      # (k,) indices of the kept components
    mu: np.ndarray        # (k, 1) means
    neg_h: np.ndarray     # (k, 1) -1 / (2 var_j)
    c: np.ndarray         # (k,) c_j / c_max
    log_c: np.ndarray     # (k, 1) log c_j
    log_c_max: float
    reach: float          # log(min_j c_j / c_max / tiny) - 1


def _component_terms(m: MixtureModel) -> _Components:
    with np.errstate(divide="ignore"):  # log 0 for a component whose pi_j underflowed
        log_c = np.log(m.mixing_proportions()) - 0.5 * (m.log_vars + LOG_2PI)
    log_c_max = float(log_c.max())
    if not math.isfinite(log_c_max):
        raise NumericError(f"mixture log c_max is {log_c_max}: a log-variance "
                           "or mixing proportion is not finite")
    c = np.exp(log_c - log_c_max)
    tiny = np.finfo(np.float64).tiny
    live = np.flatnonzero(c >= tiny)
    neg_h = -0.5 * np.exp(-m.log_vars[live])
    return _Components(live, m.means[live, None], neg_h[:, None], c[live], log_c[live, None],
                       log_c_max, math.log(c[live].min() / tiny) - 1.0)


def _within_reach(w: np.ndarray, comp: _Components) -> bool:
    """Whether every weight's min_j q_ij is provably at most comp.reach.

    Each min_j q_ij is at most min_j max(q_j(min w), q_j(max w)), and the
    rounded q is monotone in |w - mu_j|, so the bound holds for the computed
    values too. A NaN or infinite weight fails it.
    """
    d = np.square(np.array([w.min(), w.max()]) - comp.mu)
    return bool((d.max(axis=1) * -comp.neg_h[:, 0]).min() <= comp.reach)


def _check_finite(values: np.ndarray, start: int) -> None:
    if not np.isfinite(values).all():
        bad = start + int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericError(f"non-finite log prior at weight index {bad}")


def _chunks(w: np.ndarray, comp: _Components):
    """Walk the flat weights w in CHUNK slices, yielding (start, x, E).

    E is a (k, n) view of one buffer that each chunk overwrites, filled
    with -q_ij = -(x_i - mu_j)^2 / (2 var_j) over the k kept components.
    """
    kept = comp.live.shape[0]
    E_buf = np.empty(kept * min(CHUNK, w.shape[0]))
    for start in range(0, w.shape[0], CHUNK):
        x = w[start:start + CHUNK]
        E = E_buf[:kept * x.shape[0]].reshape(kept, x.shape[0])
        np.subtract(x, comp.mu, out=E)
        np.square(E, out=E)
        E *= comp.neg_h
        yield start, x, E


def _chunk_density(E: np.ndarray, comp: _Components, start: int = 0, near: bool = False):
    """Turn E = -q_ij into exp(-q_ij - shift_i); return (norm, shift).

    shift is None when no weight of the chunk is beyond reach (always when
    near is True); otherwise it is max_j -q_ij, taken off every column.
    Then p(x_i) = c_max exp(shift_i) norm_i with
    norm_i = sum_j (c_j / c_max) E_ij, and r_ij = (c_j / c_max) E_ij / norm_i.
    A non-finite norm (a NaN or infinite weight) raises NumericError naming
    its flat index, start + i.
    """
    shift = None
    if not near:
        mx = E.max(axis=0)
        if (mx < -comp.reach).any():
            with np.errstate(invalid="ignore"):  # -inf - -inf at an infinite weight
                E -= mx
            shift = mx
    np.exp(E, out=E)
    norm = comp.c @ E
    _check_finite(norm, start)
    return norm, shift


def log_prior(w, m: MixtureModel) -> float:
    """log p(w) = sum_i log sum_j pi_j N(w_i | mu_j, var_j), via log-sum-exp."""
    w = np.asarray(w, dtype=np.float64).ravel()
    comp = _component_terms(m)
    near = w.shape[0] > 0 and _within_reach(w, comp)
    log_p = 0.0
    for start, x, E in _chunks(w, comp):
        norm, shift = _chunk_density(E, comp, start, near)
        per_weight = np.log(norm)
        if shift is not None:
            per_weight += shift
        log_p += float(per_weight.sum()) + x.shape[0] * comp.log_c_max
    return log_p


def assignments(w, m: MixtureModel) -> np.ndarray:
    """Each weight's argmax-responsibility component, ties to the lower index.

    That is the argmax over j of log c_j - q_ij. A non-finite maximum (a
    NaN or infinite weight) raises NumericError naming its flat index.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    comp = _component_terms(m)
    out = np.empty(w.shape[0], dtype=np.int64)
    for start, x, E in _chunks(w, comp):
        E += comp.log_c
        best = E.max(axis=0)
        _check_finite(best, start)
        a = out[start:start + x.shape[0]]
        for j in range(E.shape[0] - 1, -1, -1):  # the lowest tied index is written last
            np.copyto(a, comp.live[j], where=E[j] == best)
    return out


def _mixture_grads(w, m: MixtureModel) -> PriorGrads:
    """Gradients of log p(w) alone, without hyper-prior terms."""
    w = np.asarray(w, dtype=np.float64).ravel()
    total, k = w.shape[0], m.n_components
    comp = _component_terms(m)
    near = total > 0 and _within_reach(w, comp)
    inv_var = np.exp(-m.log_vars)
    # fold @ E: rows sum_j r_ij norm_i / var_j and sum_j r_ij norm_i mu_j / var_j
    c_inv_var = comp.c * inv_var[comp.live]
    fold = np.stack([c_inv_var, c_inv_var * comp.mu[:, 0]])
    v = np.empty((3, min(CHUNK, total)))
    # per kept component: sum_i r_ij, sum_i r_ij w_i, sum_i r_ij w_i^2
    moments = np.zeros((comp.live.shape[0], 3))
    d_weights = np.empty(total)
    for start, x, E in _chunks(w, comp):
        norm, _ = _chunk_density(E, comp, start, near)
        # 1/norm scaled by the chunk's smallest norm keeps every term of
        # E @ vn.T at most max(1, w_i^2), however small a kept c_j is
        smallest = norm.min()
        vn = v[:, :x.shape[0]]
        np.divide(smallest, norm, out=vn[0])
        np.multiply(x, vn[0], out=vn[1])
        np.multiply(x, vn[1], out=vn[2])
        moments += (comp.c / smallest)[:, None] * (E @ vn.T)
        ab = fold @ E
        d_weights[start:start + x.shape[0]] = (ab[1] - x * ab[0]) / norm

    s0, s1, s2 = np.zeros((3, k))
    s0[comp.live], s1[comp.live], s2[comp.live] = moments.T
    rd = s1 - m.means * s0            # sum_i r_ij d_ij
    rdd = s2 - m.means * (s1 + rd)    # sum_i r_ij d_ij^2
    d_means = rd * inv_var
    d_means[0] = 0.0
    d_log_vars = 0.5 * (rdd * inv_var - s0)
    d_logits = np.zeros(k)
    if m.pi0_trainable:
        d_logits[:] = s0 - total * m.mixing_proportions()
    else:
        d_logits[1:] = s0[1:] - _softmax(m.logits[1:]) * (total - s0[0])
    return PriorGrads(d_weights, d_means, d_log_vars, d_logits)


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
    return _add_hyper(_mixture_grads(w, m), m, h)


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
    g = _mixture_grads(w[idx], m)
    scale = total / k
    d_weights = np.zeros(total)
    d_weights[idx] = g.d_weights * scale
    g = PriorGrads(d_weights, g.d_means * scale, g.d_log_vars * scale, g.d_logits * scale)
    return _add_hyper(g, m, h)
