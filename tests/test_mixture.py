"""Mixture prior: densities, responsibilities, gradients, hyper-priors.

Density values are checked against scipy.stats; gradients against central
finite differences through log_prior / hyper_log_density themselves, so
the two sides of each comparison come from independent code paths.
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
    HyperPriorConfig,
    MixtureModel,
    _component_terms,
    _posterior,
    beta_params_from_mode_pseudocount,
    gamma_params_from_mode_var,
    hyper_grads,
    hyper_log_density,
    init_mixture,
    log_prior,
    prior_grads,
    prior_pass,
    subsampled_prior_grads,
)
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
    """_posterior's (J+1, n) responsibilities and per-weight log p(w_i)."""
    d, r = np.empty((2, m.n_components, w.shape[0]))
    return r, _posterior(w, _component_terms(m), d, r)


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


def test_gamma_params_from_mode_var():
    alpha, beta = gamma_params_from_mode_var(400.0, 100.0**2)
    assert (alpha - 1.0) / beta == pytest.approx(400.0, rel=1e-12)
    assert alpha / beta**2 == pytest.approx(100.0**2, rel=1e-12)


def test_beta_params_from_mode_pseudocount():
    alpha, beta = beta_params_from_mode_pseudocount(0.99, 1000.0)
    assert alpha + beta == pytest.approx(1000.0, rel=1e-12)
    assert (alpha - 1.0) / (alpha + beta - 2.0) == pytest.approx(0.99, rel=1e-12)


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

    log_p, g, assignments = prior_pass(w, m, grads=True, assign=True)
    ref = _reference_pass(w, m)
    got = {"log_prior": log_p, "d_weights": g.d_weights, "d_means": g.d_means,
           "d_log_vars": g.d_log_vars, "d_logits": g.d_logits}
    for name, value in got.items():
        want, scale = ref[name]
        assert np.all(np.abs(value - want) <= 1e-9 * scale), name
    np.testing.assert_array_equal(assignments, ref["argmax"])
    assert log_prior(w, m) == log_p
    np.testing.assert_array_equal(prior_pass(w, m, assign=True)[2], assignments)


def test_non_finite_weight_index_spans_chunks():
    rng = np.random.default_rng(42)
    m = _mix(rng)
    w = rng.normal(0.0, 0.3, 2 * CHUNK)
    w[CHUNK + 7] = np.nan
    for evaluate in (log_prior, prior_grads):
        with pytest.raises(NumericError, match=rf"index {CHUNK + 7}$"):
            evaluate(w, m)


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
