"""Mixture prior: densities, responsibilities, gradients, hyper-priors.

Density values are checked against scipy.stats; gradients against central
finite differences through log_prior / hyper_log_density themselves, so
the two sides of each comparison come from independent code paths. The
folded prior_pass is also checked against the direct-form pass it replaced,
kept here as _direct_prior_pass.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import beta as beta_dist
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from softshare.errors import ConfigurationError, NumericError
from softshare.mixture import (
    CHUNK,
    LOG_2PI,
    HyperPriorConfig,
    MixtureModel,
    PriorGrads,
    _chunk_density,
    _component_terms,
    _neg_q,
    _within_reach,
    hyper_grads,
    hyper_log_density,
    init_mixture,
    log_prior,
    prior_grads,
    prior_pass,
    subsampled_prior_grads,
)
from softshare.net import Layer, Network, make_network
from softshare.postprocess import quantize
from softshare.train import VARIANCE_FLOOR


def _mix(rng, n_free=4, pi0=0.9, trainable=False):
    means = np.concatenate([[0.0], rng.normal(0.0, 0.5, n_free)])
    log_vars = rng.uniform(-4.0, -1.0, n_free + 1)
    logits = rng.normal(0.0, 0.5, n_free + 1)
    if trainable:
        logits[0] = math.log(pi0) + rng.normal(0, 0.1)
    return MixtureModel(means, log_vars, logits, pi0, trainable)


def _scipy_log_prior(w, m):
    pi = m.mixing_proportions()
    comps = np.stack([
        np.log(pi[j]) + norm.logpdf(w, m.means[j], np.sqrt(np.exp(m.log_vars[j])))
        for j in range(m.n_components)
    ])
    return logsumexp(comps, axis=0).sum()


def _responsibilities(w, m):
    """(J+1, n) responsibilities and per-weight log p(w_i) from _chunk_density."""
    comp = _component_terms(m)
    E = np.empty((comp.live.size, w.shape[0]))
    _neg_q(w, comp, E)
    norm, shift = _chunk_density(E, comp)
    r = np.zeros((m.n_components, w.shape[0]))
    r[comp.live] = comp.c[:, None] * E / norm
    log_p = np.log(norm) + comp.log_c_max
    return r, log_p if shift is None else log_p + shift


@pytest.mark.parametrize("trainable", [False, True])
def test_log_prior_matches_scipy(trainable):
    rng = np.random.default_rng(11)
    m = _mix(rng, trainable=trainable)
    w = rng.normal(0.0, 0.4, 50)
    assert log_prior(w, m) == pytest.approx(_scipy_log_prior(w, m), rel=1e-12)


def test_responsibilities_match_scipy_and_sum_to_one():
    rng = np.random.default_rng(12)
    m = _mix(rng)
    w = rng.normal(0.0, 0.4, 40)
    r, log_p = _responsibilities(w, m)
    np.testing.assert_allclose(r.sum(axis=0), 1.0, rtol=1e-12)

    pi = m.mixing_proportions()
    joint = np.stack([
        pi[j] * norm.pdf(w, m.means[j], np.sqrt(np.exp(m.log_vars[j])))
        for j in range(m.n_components)
    ])
    np.testing.assert_allclose(r, joint / joint.sum(axis=0), rtol=1e-9)
    np.testing.assert_allclose(log_p, np.log(joint.sum(axis=0)), rtol=1e-12)


def test_mixing_proportions_fixed_mode():
    rng = np.random.default_rng(13)
    m = _mix(rng, pi0=0.97)
    pi = m.mixing_proportions()
    assert pi[0] == 0.97
    assert pi.sum() == pytest.approx(1.0, rel=1e-15)
    # slot-0 logit is dead weight in fixed mode
    m2 = m.copy()
    m2.logits[0] += 123.0
    np.testing.assert_array_equal(m2.mixing_proportions(), pi)


def _fd(fun, x, eps):
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + eps
        up = fun()
        x[i] = orig - eps
        down = fun()
        x[i] = orig
        g[i] = (up - down) / (2 * eps)
    return g


@pytest.mark.parametrize("trainable", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prior_grads_match_finite_differences(trainable, seed):
    rng = np.random.default_rng(20 + seed)
    m = _mix(rng, trainable=trainable)
    w = rng.normal(0.0, 0.4, 25)
    g = prior_grads(w, m)

    np.testing.assert_allclose(
        g.d_weights, _fd(lambda: log_prior(w, m), w, 1e-6), rtol=2e-6, atol=1e-9)
    fd_means = _fd(lambda: log_prior(w, m), m.means, 1e-6)
    np.testing.assert_allclose(g.d_means[1:], fd_means[1:], rtol=2e-6, atol=1e-9)
    assert g.d_means[0] == 0.0  # spike mean is pinned
    np.testing.assert_allclose(
        g.d_log_vars, _fd(lambda: log_prior(w, m), m.log_vars, 1e-6),
        rtol=2e-6, atol=1e-9)
    fd_logits = _fd(lambda: log_prior(w, m), m.logits, 1e-6)
    if trainable:
        np.testing.assert_allclose(g.d_logits, fd_logits, rtol=2e-6, atol=1e-9)
    else:
        np.testing.assert_allclose(g.d_logits[1:], fd_logits[1:], rtol=2e-6, atol=1e-9)
        assert g.d_logits[0] == 0.0


def test_hyper_log_density_matches_scipy():
    rng = np.random.default_rng(30)
    m = _mix(rng, trainable=True)
    h = HyperPriorConfig(gamma_zero=(40.0, 2.0), gamma_rest=(10.0, 0.5),
                         beta_pi0=(80.0, 3.0))
    lam = np.exp(-m.log_vars)
    pi0 = m.mixing_proportions()[0]
    expected = (
        gamma_dist.logpdf(lam[0], 40.0, scale=1 / 2.0)
        + gamma_dist.logpdf(lam[1:], 10.0, scale=1 / 0.5).sum()
        + beta_dist.logpdf(pi0, 80.0, 3.0)
    )
    assert hyper_log_density(m, h) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("trainable", [False, True])
def test_hyper_grads_match_finite_differences(trainable):
    rng = np.random.default_rng(31)
    m = _mix(rng, trainable=trainable)
    h = HyperPriorConfig(gamma_zero=(40.0, 2.0), gamma_rest=(10.0, 0.5),
                         beta_pi0=(80.0, 3.0))
    d_lv, d_lg = hyper_grads(m, h)
    np.testing.assert_allclose(
        d_lv, _fd(lambda: hyper_log_density(m, h), m.log_vars, 1e-6),
        rtol=2e-6, atol=1e-9)
    fd_lg = _fd(lambda: hyper_log_density(m, h), m.logits, 1e-7)
    if trainable:
        np.testing.assert_allclose(d_lg, fd_lg, rtol=2e-5, atol=1e-9)
    else:
        # fixed pi0: the Beta term is constant in the logits
        np.testing.assert_array_equal(d_lg, np.zeros_like(d_lg))


def test_hyper_config_validation_and_disable():
    assert not HyperPriorConfig().any_enabled
    assert HyperPriorConfig(gamma_zero=(2.0, 1.0)).any_enabled
    with pytest.raises(ConfigurationError):
        HyperPriorConfig(gamma_zero=(1.0, 1.0))  # needs alpha > 1
    with pytest.raises(ConfigurationError):
        HyperPriorConfig(gamma_rest=(3.0, 0.0))


class TestInitMixture:
    def test_layout(self):
        rng = np.random.default_rng(40)
        w = rng.uniform(-0.3, 0.5, 1000)
        m = init_mixture(w, n_free=8, pi0=0.95, weight_decay=1e-4)
        assert m.n_components == 9
        assert m.means[0] == 0.0
        assert m.means[1] == pytest.approx(w.min())
        assert m.means[-1] == pytest.approx(w.max())
        diffs = np.diff(m.means[1:])
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)
        pi = m.mixing_proportions()
        assert pi[0] == 0.95
        np.testing.assert_allclose(pi[1:], 0.05 / 8, rtol=1e-12)

    def test_variance_rule(self):
        w = np.array([-0.4, 0.4])
        m = init_mixture(w, n_free=4, pi0=0.9, weight_decay=1e-6)
        assert m.variances()[0] == pytest.approx((0.8 / 4) ** 2 / 4.0, rel=1e-12)
        # decay floor wins when the range-based value is smaller
        m2 = init_mixture(w, n_free=4, pi0=0.9, weight_decay=0.5)
        np.testing.assert_allclose(m2.variances(), 0.5, rtol=1e-12)

    def test_degenerate_range_warns_and_pads(self):
        with pytest.warns(UserWarning, match="degenerate"):
            m = init_mixture(np.full(10, 0.2), n_free=3, pi0=0.9, weight_decay=0.0)
        assert m.means[1] == pytest.approx(0.2 - 1e-2)
        assert m.means[-1] == pytest.approx(0.2 + 1e-2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            init_mixture(np.array([]), 4, 0.9, 0.0)
        with pytest.raises(ConfigurationError):
            init_mixture(np.array([1.0]), 0, 0.9, 0.0)
        with pytest.raises(ConfigurationError):
            init_mixture(np.array([1.0]), 4, 1.5, 0.0)


def test_log_prior_names_offending_weight():
    rng = np.random.default_rng(41)
    m = _mix(rng)
    w = rng.normal(0.0, 0.3, 10)
    w[7] = np.nan
    with pytest.raises(NumericError, match="index 7"):
        log_prior(w, m)


def _reference_pass(w, m):
    """Direct weight-major (I, J+1) evaluation of everything prior_pass returns.

    Each value comes with the sum of the absolute terms it adds up, the
    scale its rounding error is relative to when the terms cancel.
    """
    pi = m.mixing_proportions()
    inv_var = np.exp(-m.log_vars)
    d = w[:, None] - m.means[None, :]
    q = d * d * inv_var
    ll = np.log(pi) - 0.5 * (m.log_vars + math.log(2.0 * math.pi)) - 0.5 * q
    mx = ll.max(axis=1)
    e = np.exp(ll - mx[:, None])
    per_weight = mx + np.log(e.sum(axis=1))
    r = e / e.sum(axis=1, keepdims=True)
    rd = r * d * inv_var
    col_r = r.sum(axis=0)
    n = w.shape[0]
    if m.pi0_trainable:
        d_logits = col_r - n * pi
    else:
        d_logits = np.zeros_like(pi)
        d_logits[1:] = col_r[1:] - pi[1:] / (1.0 - pi[0]) * (n - col_r[0])
    d_means = rd.sum(axis=0)
    d_means[0] = 0.0
    return {
        "log_prior": (per_weight.sum(), np.abs(per_weight).sum()),
        "d_weights": (-rd.sum(axis=1), np.abs(rd).sum(axis=1)),
        "d_means": (d_means, np.abs(rd).sum(axis=0)),
        "d_log_vars": (0.5 * (r * (q - 1.0)).sum(axis=0), 0.5 * (r * (q + 1.0)).sum(axis=0)),
        "d_logits": (d_logits, np.full_like(pi, 2.0 * n)),
        "argmax": r.argmax(axis=1),
    }


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
@pytest.mark.parametrize("var", [VARIANCE_FLOOR, 1e-2])
@pytest.mark.parametrize("trainable", [False, True])
def test_prior_pass_matches_weight_major_reference(n, var, trainable):
    rng = np.random.default_rng(n)
    m = _mix(rng, n_free=16, trainable=trainable)
    m.log_vars[:] = math.log(var)
    # half the weights spread over the range, half within a few sd of a mean
    w = rng.normal(0.0, 0.4, n)
    near = rng.random(n) < 0.5
    w[near] = m.means[rng.integers(0, m.n_components, n)][near] \
        + math.sqrt(var) * rng.normal(0.0, 2.0, n)[near]

    g = prior_pass(w, m, grads=True)[1]
    assignments = prior_pass(w, m, assign=True)[2]
    ref = _reference_pass(w, m)
    got = {"log_prior": log_prior(w, m), "d_weights": g.d_weights, "d_means": g.d_means,
           "d_log_vars": g.d_log_vars, "d_logits": g.d_logits}
    for name, value in got.items():
        want, scale = ref[name]
        assert np.all(np.abs(value - want) <= 1e-9 * scale), name
    np.testing.assert_array_equal(assignments, ref["argmax"])


def _direct_prior_pass(w, m):
    """The direct-form chunked pass prior_pass's folded sweeps replaced.

    Per chunk: d = w - mu, the log joint shifted by its per-weight maximum,
    r normalised by its column sums, and the sums of r, r d and r d^2 taken
    elementwise. Returns (log p, PriorGrads, argmax of r).
    """
    inv_var = np.exp(-m.log_vars)
    const = np.log(m.mixing_proportions()) - 0.5 * (m.log_vars + LOG_2PI)
    n_total = w.shape[0]
    log_p, sums = 0.0, np.zeros((3, m.n_components))
    d_weights = np.empty(n_total)
    argmax = np.empty(n_total, dtype=np.int64)
    for start in range(0, n_total, CHUNK):
        x = w[start:start + CHUNK]
        d = x - m.means[:, None]
        r = np.square(d) * (-0.5 * inv_var)[:, None] + const[:, None]
        mx = r.max(axis=0)
        r = np.exp(r - mx)
        norm = r.sum(axis=0)
        r /= norm
        log_p += float((mx + np.log(norm)).sum())
        argmax[start:start + x.shape[0]] = r.argmax(axis=0)
        t = r * d
        sums += [r.sum(axis=1), t.sum(axis=1), np.einsum("jn,jn->j", t, d)]
        d_weights[start:start + x.shape[0]] = -inv_var @ t
    d_means = sums[1] * inv_var
    d_means[0] = 0.0
    d_logits = np.zeros(m.n_components)
    if m.pi0_trainable:
        d_logits[:] = sums[0] - n_total * m.mixing_proportions()
    else:
        free = np.exp(m.logits[1:] - m.logits[1:].max())
        d_logits[1:] = sums[0][1:] - free / free.sum() * (n_total - sums[0][0])
    g = PriorGrads(d_weights, d_means, 0.5 * (sums[2] * inv_var - sums[0]), d_logits)
    return log_p, g, argmax


def _network_state(state, trainable):
    """benchmarks/bench_kernels.py's three mixture states on its seeded network.

    early: the init mixture over the 784-300-100-10 network (seed 0).
    mid, late: that mixture's means at variances 5e-6 and 1e-6, with 87% of
    the weights drawn around the zero spike and the rest around a free mean.
    """
    w = make_network((784, 300, 100, 10), seed=0).weights
    m = init_mixture(w, 16, 0.95, weight_decay=0.0, pi0_trainable=trainable)
    if state == "early":
        return w, m
    var = {"mid": 5e-6, "late": 1e-6}[state]
    m.log_vars[:] = math.log(var)
    rng = np.random.default_rng(1)
    j = np.where(rng.random(w.size) < 0.87, 0, rng.integers(1, m.n_components, w.size))
    return m.means[j] + math.sqrt(var) * rng.standard_normal(w.size), m


@pytest.mark.parametrize("state", ["early", "mid", "late"])
@pytest.mark.parametrize("trainable", [False, True])
def test_prior_pass_matches_direct_form_pass(state, trainable):
    w, m = _network_state(state, trainable)
    # at the early state, where the compress benchmark runs, the per-call
    # bound rules out any shift, so no chunk takes the max
    assert _within_reach(w, _component_terms(m)) == (state == "early")
    g = prior_pass(w, m, grads=True)[1]
    assignments = prior_pass(w, m, assign=True)[2]
    ref_log_p, ref, ref_argmax = _direct_prior_pass(w, m)
    assert log_prior(w, m) == pytest.approx(ref_log_p, rel=1e-12)
    for name in ("d_weights", "d_means", "d_log_vars", "d_logits"):
        got, want = getattr(g, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name
    np.testing.assert_array_equal(assignments, ref_argmax)


def _branch_case(var, trainable):
    """Weights within two sd of the means 0, 1, -1 and 2 at variance var."""
    m = MixtureModel(np.array([0.0, 1.0, -1.0, 2.0]), np.log(np.full(4, var)),
                     np.array([0.0, 0.3, -0.2, 0.1]), 0.9, trainable)
    rng = np.random.default_rng(7)
    n = 3 * CHUNK + 17
    w = m.means[rng.integers(0, 4, n)] + math.sqrt(var) * rng.uniform(-2.0, 2.0, n)
    return w, m


def _chunks_beyond_reach(w, m):
    """Per chunk, whether some weight's min_j q_ij exceeds the reach."""
    comp = _component_terms(m)
    q = np.square(w - comp.mu) * -comp.neg_h
    return [bool((q[:, s:s + CHUNK].min(axis=0) > comp.reach).any())
            for s in range(0, w.size, CHUNK)]


def _check_against_references(w, m):
    g = prior_pass(w, m, grads=True)[1]
    assignments = prior_pass(w, m, assign=True)[2]
    ref_log_p, direct, direct_argmax = _direct_prior_pass(w, m)
    ref = _reference_pass(w, m)
    log_p = log_prior(w, m)
    assert log_p == pytest.approx(ref_log_p, rel=1e-12)
    assert log_p == pytest.approx(ref["log_prior"][0], rel=1e-12)
    for name in ("d_weights", "d_means", "d_log_vars", "d_logits"):
        got = getattr(g, name)
        for want in (getattr(direct, name), ref[name][0]):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name
    np.testing.assert_array_equal(assignments, direct_argmax)
    np.testing.assert_array_equal(assignments, ref["argmax"])


@pytest.mark.parametrize("trainable", [False, True])
def test_every_chunk_within_reach_past_the_call_bound(trainable):
    # the weights span [-1, 2], so the per-call bound fails at variance 1e-4,
    # but each lies within two sd of a mean, so no chunk shifts
    w, m = _branch_case(1e-4, trainable)
    assert not _within_reach(w, _component_terms(m))
    assert not any(_chunks_beyond_reach(w, m))
    _check_against_references(w, m)


@pytest.mark.parametrize("trainable", [False, True])
def test_one_weight_beyond_reach_shifts_its_chunk(trainable):
    # 0.5 is 0.5 from the nearest means 0 and 1, so q = 1250 > reach (~704)
    # and exp(-q) underflows to 0 unless the chunk shifts. A larger q does
    # not suit here: the references round log c_j - q at about eps q.
    w, m = _branch_case(1e-4, trainable)
    w[2 * CHUNK + 5] = 0.5
    assert not _within_reach(w, _component_terms(m))
    assert _chunks_beyond_reach(w, m) == [False, False, True, False]
    _check_against_references(w, m)


def _scipy_pass(w, m):
    """log p(w) and its gradients from scipy's logsumexp with b = pi_j.

    A component whose pi_j is 0 adds nothing, and its log 0 stays in here."""
    pi = m.mixing_proportions()
    var = np.exp(m.log_vars)
    comps = norm.logpdf(w, m.means[:, None], np.sqrt(var)[:, None])
    per_weight = logsumexp(comps, b=pi[:, None], axis=0)
    with np.errstate(divide="ignore"):
        r = np.exp(np.log(pi)[:, None] + comps - per_weight)
    d = w - m.means[:, None]
    col_r = r.sum(axis=1)
    d_means = (r * d).sum(axis=1) / var
    d_means[0] = 0.0
    d_logits = col_r - w.size * pi
    if not m.pi0_trainable:
        d_logits = col_r - pi / (1.0 - pi[0]) * (w.size - col_r[0])
        d_logits[0] = 0.0
    return per_weight.sum(), PriorGrads(
        (r * -d / var[:, None]).sum(axis=0), d_means,
        0.5 * (r * (d * d / var[:, None] - 1.0)).sum(axis=1), d_logits)


@pytest.mark.parametrize("log_pi", [math.log(1e-300), math.log(1e-306), -800.0])
@pytest.mark.parametrize("trainable", [False, True])
def test_extreme_mixing_proportions_match_scipy(log_pi, trainable):
    # component 3 gets pi_3 = 1e-300 or 1e-306, or a logit 800 below the
    # rest, so that pi_3 underflows to 0; most weights sit at its mean, where
    # every other component's density underflows (1000 of them sum 1/pi_3
    # past the largest float unless the moments are scaled)
    m = MixtureModel(np.array([0.0, -0.5, 0.5, 1.0]), np.log(np.full(4, 1e-4)),
                     np.zeros(4), 0.9, trainable)
    m.logits[3] = log_pi + math.log(3.0 if trainable else 2.0 / 0.1)
    assert (m.mixing_proportions()[3] == 0.0) == (log_pi == -800.0)
    rng = np.random.default_rng(3)
    w = np.concatenate([1.0 + 1e-3 * rng.standard_normal(1000),
                        rng.choice(m.means[:3], 50) + 1e-2 * rng.standard_normal(50)])
    want_log_p, want = _scipy_pass(w, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_p = log_prior(w, m)
        g = prior_grads(w, m)
    assert log_p == pytest.approx(want_log_p, rel=1e-12)
    for name in ("d_weights", "d_means", "d_log_vars", "d_logits"):
        got, ref = getattr(g, name), getattr(want, name)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max(), name


def _quantize(w, m):
    return quantize(Network([Layer(w.reshape(2, -1), np.zeros(2), "softmax")]), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("evaluate", [log_prior, prior_grads, _quantize],
                         ids=["log_prior", "prior_grads", "quantize"])
def test_non_finite_weight_index_spans_chunks(bad, evaluate):
    rng = np.random.default_rng(42)
    m = _mix(rng)
    w = rng.normal(0.0, 0.3, 2 * CHUNK)
    w[CHUNK + 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"index {CHUNK + 7}$"):
            evaluate(w, m)


@pytest.mark.parametrize("log_vars", [(np.nan, -5.0, -5.0), (-5.0, -5.0, -np.inf)],
                         ids=["nan", "minus_inf"])
@pytest.mark.parametrize("evaluate", [log_prior, prior_grads, _quantize],
                         ids=["log_prior", "prior_grads", "quantize"])
def test_non_finite_log_variance_raises_numeric_error(log_vars, evaluate):
    m = MixtureModel(np.array([0.0, 0.2, -0.2]), np.array(log_vars), np.zeros(3), 0.9)
    w = np.random.default_rng(0).normal(0.0, 0.3, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite"):
            evaluate(w, m)


def test_prior_pass_takes_grads_or_assign_not_both():
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigurationError, match="not both"):
        prior_pass(rng.normal(0.0, 0.3, 8), _mix(rng), grads=True, assign=True)


def test_validator_rejects_nonzero_spike_mean():
    with pytest.raises(ConfigurationError):
        MixtureModel(np.array([0.1, 0.5]), np.zeros(2), np.zeros(2), 0.9)


class TestSubsampling:
    def test_full_size_is_exact(self):
        rng = np.random.default_rng(50)
        m = _mix(rng)
        w = rng.normal(0.0, 0.4, 30)
        g_exact = prior_grads(w, m)
        g_sub = subsampled_prior_grads(w, m, None, 30, np.random.default_rng(0))
        np.testing.assert_array_equal(g_sub.d_weights, g_exact.d_weights)
        np.testing.assert_array_equal(g_sub.d_means, g_exact.d_means)
        np.testing.assert_array_equal(g_sub.d_log_vars, g_exact.d_log_vars)
        np.testing.assert_array_equal(g_sub.d_logits, g_exact.d_logits)

    def test_scatter_and_scaling(self):
        rng = np.random.default_rng(51)
        m = _mix(rng)
        w = rng.normal(0.0, 0.4, 20)
        g = subsampled_prior_grads(w, m, None, 5, np.random.default_rng(7))
        touched = np.flatnonzero(g.d_weights)
        assert len(touched) <= 5
        # every touched coordinate equals I/k times its exact single-weight term
        g_full = prior_grads(w, m)
        for i in touched:
            single = prior_grads(w[[i]], m)
            assert g.d_weights[i] == pytest.approx(4.0 * single.d_weights[0], rel=1e-12)
        del g_full

    def test_hyper_terms_enter_unscaled(self):
        rng = np.random.default_rng(52)
        m = _mix(rng)
        w = rng.normal(0.0, 0.4, 20)
        h = HyperPriorConfig(gamma_zero=(40.0, 2.0))
        seed = 9
        g_with = subsampled_prior_grads(w, m, h, 5, np.random.default_rng(seed))
        g_without = subsampled_prior_grads(w, m, None, 5, np.random.default_rng(seed))
        d_lv, _ = hyper_grads(m, h)
        np.testing.assert_allclose(
            g_with.d_log_vars - g_without.d_log_vars, d_lv, rtol=1e-12, atol=1e-15)

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(53)
        m = _mix(rng)
        w = rng.normal(0.0, 0.4, 20)
        for bad in (0, 21):
            with pytest.raises(ConfigurationError):
                subsampled_prior_grads(w, m, None, bad, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n_free=st.integers(min_value=1, max_value=6),
    n_w=st.integers(min_value=1, max_value=30),
)
def test_responsibility_rows_always_normalized(data, n_free, n_w):
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    m = _mix(rng, n_free=n_free, trainable=bool(seed % 2))
    w = rng.normal(0.0, 1.0, n_w)
    r, _ = _responsibilities(w, m)
    np.testing.assert_allclose(r.sum(axis=0), 1.0, rtol=1e-10)
    assert np.all(r >= 0.0)


def test_copy_is_deep():
    rng = np.random.default_rng(60)
    m = _mix(rng)
    m2 = m.copy()
    m2.means[1] += 1.0
    m2.log_vars[0] -= 1.0
    assert m.means[1] != m2.means[1]
    assert m.log_vars[0] != m2.log_vars[0]
