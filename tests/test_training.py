"""Retraining loop: Adam, the joint update, tracing, and failure guards."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import softshare.train as train_mod
from softshare.config import ExperimentConfig
from softshare.errors import ConfigurationError, DivergenceError
from softshare.mixture import HyperPriorConfig, init_mixture
from softshare.net import Batch, make_network, split_like_weights
from softshare.train import (
    ADAM_BLOCK,
    VARIANCE_FLOOR,
    AdamState,
    TraceRow,
    complexity_loss,
    retrain,
    trace_to_csv,
)


def _adam_reference(grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam updates for a scalar gradient sequence."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        out.append(-lr * m_hat / (math.sqrt(v_hat) + eps))
    return out


def test_adam_matches_reference_sequence():
    grads = [0.3, -1.2, 0.05, 0.7]
    expected = _adam_reference(grads, lr=1e-2)
    adam = AdamState((1,), lr=1e-2)
    got = []
    for g in grads:
        param = np.zeros(1)
        adam.step(param, np.array([g]))
        got.append(float(param[0]))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_adam_lr_scale_scales_update_only():
    a = AdamState((2,), lr=1e-3)
    b = AdamState((2,), lr=1e-3)
    g = np.array([0.5, -0.25])
    ua, ub = np.zeros(2), np.zeros(2)
    a.step(ua, g, lr_scale=0.5)
    b.step(ub, g)
    np.testing.assert_allclose(ua, 0.5 * ub, rtol=1e-15)
    # moment state must not depend on the scale
    np.testing.assert_array_equal(a.m, b.m)
    np.testing.assert_array_equal(a.v, b.v)


class _WholeArrayAdam:
    """The whole-array Adam expression, kept as the bit-exact reference."""

    def __init__(self, shape, lr):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros(shape), np.zeros(shape)

    def step(self, grad, lr_scale=1.0):
        self.t += 1
        b1, b2, eps = train_mod.ADAM_B1, train_mod.ADAM_B2, train_mod.ADAM_EPS
        self.m += (1.0 - b1) * (grad - self.m)
        self.v += (1.0 - b2) * (grad * grad - self.v)
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        return -(self.lr * lr_scale) * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("shape", [(1,), (ADAM_BLOCK - 1,), (ADAM_BLOCK,),
                                   (ADAM_BLOCK + 1,), (300, 784)])
@pytest.mark.parametrize("lr_scale", [1.0, 0.5])
def test_blocked_adam_is_bit_identical_to_whole_array_adam(shape, lr_scale):
    rng = np.random.default_rng(11)
    param = rng.normal(size=shape)
    ref_param = param.copy()
    adam, ref = AdamState(shape, lr=1e-3), _WholeArrayAdam(shape, lr=1e-3)
    for _ in range(200):
        # gradients spanning many magnitudes, with exact zeros among them
        grad = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3, size=shape)
        grad[rng.random(shape) < 0.05] = 0.0
        adam.step(param, grad, lr_scale)
        ref_param += ref.step(grad, lr_scale)
    assert param.tobytes() == ref_param.tobytes()
    assert adam.m.tobytes() == ref.m.tobytes()
    assert adam.v.tobytes() == ref.v.tobytes()


def test_adam_refuses_a_param_it_would_update_as_a_copy():
    adam = AdamState((4, 3), lr=1e-3)
    param = np.zeros((3, 4)).T      # right shape, Fortran order
    with pytest.raises(ConfigurationError, match="C-contiguous"):
        adam.step(param, np.ones((4, 3)))
    with pytest.raises(ConfigurationError, match="shape"):
        adam.step(np.zeros(12), np.ones(12))
    assert adam.t == 0 and not adam.m.any()


def test_adam_step_allocates_no_weight_sized_temporaries():
    rng = np.random.default_rng(2)
    param, grad = rng.normal(size=(300, 784)), rng.normal(size=(300, 784))
    adam = AdamState(param.shape, lr=1e-3)
    adam.step(param, grad)
    tracemalloc.start()
    try:
        for _ in range(10):
            adam.step(param, grad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (300, 784) float64 temporary alone is 1.9 MB
    assert peak < 1_000_000


@pytest.mark.parametrize("with_extra", [False, True])
def test_step_layers_is_one_adam_step_per_array(with_extra):
    # training steps net.weights and net.biases with one Adam state each;
    # the artifacts stay those of one state per layer array because Adam is
    # elementwise, whatever its block boundaries. with_extra adds a prior
    # gradient into the flat error gradient in place, as retrain does.
    rng = np.random.default_rng(5)
    net = make_network((784, 300, 100, 10), seed=1)
    ref = [(l.weights.copy(), l.biases.copy()) for l in net.layers]
    adam_w = AdamState(net.weights.shape, 1e-2)
    adam_b = AdamState(net.biases.shape, 1e-2)
    ref_adams = [(AdamState(w.shape, 1e-2), AdamState(b.shape, 1e-2)) for w, b in ref]
    for lr_scale in (1.0, 0.5, 1.0):
        d_weights = rng.normal(size=net.weights.shape)
        d_biases = rng.normal(size=net.biases.shape)
        extra = rng.normal(size=net.weights.shape) if with_extra else 0.0
        # the reference sum is a new array: the in-place add below overwrites d_weights
        ref_dws = split_like_weights(net, d_weights + extra)
        d_weights += extra
        adam_w.step(net.weights, d_weights, lr_scale)
        adam_b.step(net.biases, d_biases, lr_scale)
        for (w, b), (aw, ab), dw, db in zip(ref, ref_adams, ref_dws,
                                            np.split(d_biases, [300, 400])):
            aw.step(w, dw, lr_scale)
            ab.step(b, db, lr_scale)
    for layer, (w, b) in zip(net.layers, ref):
        assert layer.weights.tobytes() == w.tobytes()
        assert layer.biases.tobytes() == b.tobytes()


def _tiny_problem(seed=0, n=40, tau=1e-3):
    rng = np.random.default_rng(seed)
    net = make_network((6, 5, 3), seed=seed)
    for layer in net.layers:
        layer.biases[...] = rng.normal(0.0, 0.1, layer.biases.shape)
    data = Batch(rng.normal(0.0, 1.0, (n, 6)), rng.integers(0, 3, n))
    mx = init_mixture(net.weights, n_free=3, pi0=0.9,
                      weight_decay=1e-4, tau=tau)
    return net, mx, data


def test_no_step_array_outlives_its_step():
    rng = np.random.default_rng(1)
    net = make_network((784, 64, 10), seed=1)
    data = Batch(rng.random((512, 784)), rng.integers(0, 10, 512))
    mx = init_mixture(net.weights, n_free=3, pi0=0.9, weight_decay=1e-4, tau=1e-3)
    cfg = ExperimentConfig(layer_sizes=(784, 64, 10), batch_size=256, retrain_epochs=2)
    w0 = net.weights.nbytes
    live = []

    def on_epoch(row):
        snap = tracemalloc.take_snapshot()
        live.append(sorted(t.size for t in snap.traces if t.size >= w0))

    tracemalloc.start()
    try:
        retrain(net, mx, data, cfg, test_data=data, on_epoch=on_epoch)
    finally:
        tracemalloc.stop()
    # the retrained weights and their two Adam moments; the last step's
    # batch, gradients or weight copies would add blocks of w0 bytes or more
    assert live == [[w0] * 3] * 2


def test_retrain_does_not_mutate_inputs():
    net, mx, data = _tiny_problem()
    w_before = net.weights.copy()
    means_before = mx.means.copy()
    x_before = data.inputs.copy()
    net2, mx2, trace = retrain(net, mx, data,
                               ExperimentConfig(retrain_epochs=2, batch_size=16))
    np.testing.assert_array_equal(net.weights, w_before)
    np.testing.assert_array_equal(mx.means, means_before)
    np.testing.assert_array_equal(data.inputs, x_before)
    assert net2 is not net and mx2 is not mx
    assert len(trace) == 2
    assert [r.epoch for r in trace] == [1, 2]


def test_tau_zero_without_hyper_skips_prior_entirely(monkeypatch):
    net, mx, data = _tiny_problem(tau=0.0)

    def boom(*a, **k):
        raise AssertionError("prior evaluated despite tau=0 and no hyper-priors")

    monkeypatch.setattr(train_mod, "prior_grads", boom)
    monkeypatch.setattr(train_mod, "subsampled_prior_grads", boom)
    monkeypatch.setattr(train_mod, "log_prior", boom)
    net2, mx2, trace = retrain(net, mx, data,
                               ExperimentConfig(retrain_epochs=2, batch_size=16))
    np.testing.assert_array_equal(mx2.means, mx.means)
    np.testing.assert_array_equal(mx2.log_vars, mx.log_vars)
    np.testing.assert_array_equal(mx2.logits, mx.logits)
    # the network itself still trains on the error loss
    assert not np.array_equal(net2.weights, net.weights)
    assert all(r.complexity_loss == 0.0 for r in trace)


def test_fixed_quantities_stay_bit_identical():
    net, mx, data = _tiny_problem(tau=1e-3)
    net2, mx2, _ = retrain(net, mx, data,
                           ExperimentConfig(retrain_epochs=3, batch_size=16))
    assert mx2.means[0] == 0.0
    assert mx2.logits[0] == mx.logits[0]  # dead slot in fixed-pi0 mode
    assert not np.array_equal(mx2.means[1:], mx.means[1:])


def test_tau_scales_the_hyper_prior_terms_too():
    # a strong Gamma pin would move the variances if it acted unscaled;
    # with tau = 0 the whole log joint, hyper terms included, weighs nothing
    cfg = ExperimentConfig(retrain_epochs=2, batch_size=16,
                           gamma_zero_alpha=50.0, gamma_zero_beta=1.0,
                           gamma_rest_alpha=20.0, gamma_rest_beta=1.0)
    net, mx, data = _tiny_problem(tau=0.0)
    net2, mx2, _ = retrain(net, mx, data, cfg)
    for got, want in ((mx2.means, mx.means), (mx2.log_vars, mx.log_vars),
                      (mx2.logits, mx.logits)):
        assert got.tobytes() == want.tobytes()
    assert not np.array_equal(net2.weights, net.weights)


def test_variance_floor_is_enforced():
    # a brutal precision pin far above the floor's reciprocal drives the
    # variances down; the per-step clamp must stop them at the floor
    net, mx, data = _tiny_problem(tau=1e-3)
    cfg = ExperimentConfig(retrain_epochs=3, batch_size=16, lr_log_vars=5.0,
                           gamma_zero_alpha=1e12, gamma_zero_beta=1.0,
                           gamma_rest_alpha=1e12, gamma_rest_beta=1.0)
    _, mx2, _ = retrain(net, mx, data, cfg)
    assert np.all(mx2.log_vars >= math.log(VARIANCE_FLOOR) - 1e-12)
    assert np.any(mx2.log_vars <= math.log(VARIANCE_FLOOR) + 1e-6)


def test_divergence_guard_halves_mixture_lr_once(monkeypatch):
    fake_values = iter([1.0, 50.0, 5000.0, 5000.0, 5000.0])
    monkeypatch.setattr(train_mod, "complexity_loss",
                        lambda *a, **k: next(fake_values))
    net, mx, data = _tiny_problem(tau=1e-3)
    _, _, trace = retrain(net, mx, data,
                          ExperimentConfig(retrain_epochs=5, batch_size=16))
    scales = [r.mixture_lr_scale for r in trace]
    # jump detected at epoch 2 (50 -> 5000 breaks 10x); next rows run halved
    assert scales[0] == 1.0 and scales[1] == 1.0
    assert scales[2] == 0.5
    assert scales[-1] == 0.5  # halves once, never again


def test_non_finite_complexity_raises_divergence_error(monkeypatch):
    fake_values = iter([1.0, float("nan")])
    monkeypatch.setattr(train_mod, "complexity_loss",
                        lambda *a, **k: next(fake_values))
    net, mx, data = _tiny_problem(tau=1e-3)
    with pytest.raises(DivergenceError) as exc_info:
        retrain(net, mx, data, ExperimentConfig(retrain_epochs=5, batch_size=16))
    err = exc_info.value
    assert err.network is not None
    assert err.mixture is not None
    assert len(err.trace) == 2


def test_a_non_finite_mixture_step_raises_divergence_error():
    # a Gamma pin this strong overflows Adam's second moment of the spike's
    # log-variance, which turns NaN in the second step, before any epoch ends
    net, mx, data = _tiny_problem(tau=1e-3)
    cfg = ExperimentConfig(retrain_epochs=2, batch_size=16, gamma_zero_alpha=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError, match="log_vars at epoch 1, step 2$") as exc_info:
            retrain(net, mx, data, cfg)
    err = exc_info.value
    assert not np.isfinite(err.mixture.log_vars).all()
    assert err.trace == []
    assert err.network is not None


def test_subsampled_training_runs():
    net, mx, data = _tiny_problem(tau=1e-3)
    cfg = ExperimentConfig(retrain_epochs=2, batch_size=16, subsample=7, seed=3)
    net2, mx2, trace = retrain(net, mx, data, cfg)
    assert np.all(np.isfinite(net2.weights))
    assert np.all(np.isfinite(mx2.log_vars))
    # a subsample at least as large as the weight count means exact gradients
    cfg_big = ExperimentConfig(retrain_epochs=1, batch_size=16, subsample=10**9, seed=3)
    cfg_exact = ExperimentConfig(retrain_epochs=1, batch_size=16, subsample=0, seed=3)
    n3, m3, _ = retrain(net, mx, data, cfg_big)
    n4, m4, _ = retrain(net, mx, data, cfg_exact)
    np.testing.assert_array_equal(n3.weights, n4.weights)
    np.testing.assert_array_equal(m3.log_vars, m4.log_vars)


def test_trace_rows_snapshot_state():
    net, mx, data = _tiny_problem(tau=1e-3)
    net2, mx2, trace = retrain(net, mx, data,
                               ExperimentConfig(retrain_epochs=2, batch_size=16),
                               test_data=data)
    row = trace[-1]
    np.testing.assert_array_equal(row.means, mx2.means)
    assert row.means is not mx2.means  # snapshot, not a view
    assert 0.0 <= row.test_error <= 1.0
    assert math.isfinite(row.complexity_loss)
    # without test data the column is nan
    _, _, trace2 = retrain(net, mx, data,
                           ExperimentConfig(retrain_epochs=1, batch_size=16))
    assert math.isnan(trace2[0].test_error)


def test_trace_csv_round_trips_floats_exactly():
    rows = [
        TraceRow(epoch=1, error_loss=1 / 3, complexity_loss=-2.5e8,
                 test_error=0.0725, means=np.array([0.0, 0.1]),
                 variances=np.array([1e-7, 2e-3]),
                 proportions=np.array([0.9, 0.1]), mixture_lr_scale=1.0),
        TraceRow(epoch=2, error_loss=float("nan"), complexity_loss=0.0,
                 test_error=float("nan"), means=np.array([0.0, -0.2]),
                 variances=np.array([1e-8, 1e-3]),
                 proportions=np.array([0.95, 0.05]), mixture_lr_scale=0.5),
    ]
    text = trace_to_csv(rows)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["epoch", "error_loss", "complexity_loss",
                          "test_error", "mixture_lr_scale"]
    assert "mu_0" in header and "var_1" in header and "pi_1" in header
    first = lines[1].split(",")
    assert float(first[header.index("error_loss")]) == 1 / 3  # repr round trip
    assert float(first[header.index("var_0")]) == 1e-7
    second = lines[2].split(",")
    assert math.isnan(float(second[header.index("error_loss")]))
    assert trace_to_csv([]) == ""


def test_complexity_loss_includes_hyper_terms():
    net, mx, _ = _tiny_problem(tau=1e-3)
    base = complexity_loss(net, mx, None)
    hyper = HyperPriorConfig(gamma_zero=(50.0, 1.0))
    with_hyper = complexity_loss(net, mx, hyper)
    assert with_hyper != base
    assert math.isfinite(with_hyper)


def test_zero_epochs_returns_copies_with_empty_trace():
    net, mx, data = _tiny_problem()
    net2, mx2, trace = retrain(net, mx, data, ExperimentConfig(retrain_epochs=0))
    assert trace == []
    np.testing.assert_array_equal(net2.weights, net.weights)
    np.testing.assert_array_equal(mx2.means, mx.means)
