"""Retraining loop: Adam, the joint update, tracing, and failure guards."""
import math

import numpy as np
import pytest

import softshare.train as train_mod
from softshare.errors import ConfigurationError, DivergenceError
from softshare.mixture import HyperPriorConfig, init_mixture
from softshare.net import Batch, flat_weights, make_network
from softshare.train import (
    VARIANCE_FLOOR,
    AdamState,
    TraceRow,
    TrainConfig,
    complexity_loss,
    layer_adams,
    retrain,
    step_layers,
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
    got = [float(adam.step(np.array([g]))[0]) for g in grads]
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_adam_lr_scale_scales_update_only():
    a = AdamState((2,), lr=1e-3)
    b = AdamState((2,), lr=1e-3)
    g = np.array([0.5, -0.25])
    ua = a.step(g, lr_scale=0.5)
    ub = b.step(g)
    np.testing.assert_allclose(ua, 0.5 * ub, rtol=1e-15)
    # moment state must not depend on the scale
    np.testing.assert_array_equal(a.m, b.m)
    np.testing.assert_array_equal(a.v, b.v)


@pytest.mark.parametrize("with_extra", [False, True])
def test_step_layers_is_one_adam_step_per_array(with_extra):
    rng = np.random.default_rng(5)
    net, ref = make_network((6, 5, 3), seed=1), make_network((6, 5, 3), seed=1)
    adams, ref_adams = layer_adams(net, 1e-2), layer_adams(ref, 1e-2)
    for _ in range(3):
        grads = [(rng.normal(size=l.weights.shape), rng.normal(size=l.biases.shape))
                 for l in net.layers]
        extra = ([rng.normal(size=l.weights.shape) for l in net.layers]
                 if with_extra else None)
        step_layers(net, adams, grads, extra)
        for i, (layer, (aw, ab), (dw, db)) in enumerate(zip(ref.layers, ref_adams, grads)):
            layer.weights += aw.step(dw + extra[i] if with_extra else dw)
            layer.biases += ab.step(db)
    for a, b in zip(net.layers, ref.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr_means=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(subsample=-2)


def _tiny_problem(seed=0, n=40, tau=1e-3):
    rng = np.random.default_rng(seed)
    net = make_network((6, 5, 3), seed=seed)
    for layer in net.layers:
        layer.biases[...] = rng.normal(0.0, 0.1, layer.biases.shape)
    data = Batch(rng.normal(0.0, 1.0, (n, 6)), rng.integers(0, 3, n))
    mx = init_mixture(flat_weights(net), n_free=3, pi0=0.9,
                      weight_decay=1e-4, tau=tau)
    return net, mx, data


def test_retrain_does_not_mutate_inputs():
    net, mx, data = _tiny_problem()
    w_before = flat_weights(net).copy()
    means_before = mx.means.copy()
    x_before = data.inputs.copy()
    net2, mx2, trace = retrain(net, mx, data, TrainConfig(epochs=2, batch_size=16))
    np.testing.assert_array_equal(flat_weights(net), w_before)
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
    net2, mx2, trace = retrain(net, mx, data, TrainConfig(epochs=2, batch_size=16))
    np.testing.assert_array_equal(mx2.means, mx.means)
    np.testing.assert_array_equal(mx2.log_vars, mx.log_vars)
    np.testing.assert_array_equal(mx2.logits, mx.logits)
    # the network itself still trains on the error loss
    assert not np.array_equal(flat_weights(net2), flat_weights(net))
    assert all(r.complexity_loss == 0.0 for r in trace)


def test_fixed_quantities_stay_bit_identical():
    net, mx, data = _tiny_problem(tau=1e-3)
    net2, mx2, _ = retrain(net, mx, data, TrainConfig(epochs=3, batch_size=16))
    assert mx2.means[0] == 0.0
    assert mx2.logits[0] == mx.logits[0]  # dead slot in fixed-pi0 mode
    assert not np.array_equal(mx2.means[1:], mx.means[1:])


def test_tau_scales_the_hyper_prior_terms_too():
    # a strong Gamma pin would move the variances if it acted unscaled;
    # with tau = 0 the whole log joint, hyper terms included, weighs nothing
    hyper = HyperPriorConfig(gamma_zero=(50.0, 1.0), gamma_rest=(20.0, 1.0))
    net, mx, data = _tiny_problem(tau=0.0)
    net2, mx2, _ = retrain(net, mx, data, TrainConfig(epochs=2, batch_size=16), hyper)
    for got, want in ((mx2.means, mx.means), (mx2.log_vars, mx.log_vars),
                      (mx2.logits, mx.logits)):
        assert got.tobytes() == want.tobytes()
    assert not np.array_equal(flat_weights(net2), flat_weights(net))


def test_variance_floor_is_enforced():
    # a brutal precision pin far above the floor's reciprocal drives the
    # variances down; the per-step clamp must stop them at the floor
    hyper = HyperPriorConfig(gamma_zero=(1e12, 1.0), gamma_rest=(1e12, 1.0))
    net, mx, data = _tiny_problem(tau=1e-3)
    cfg = TrainConfig(epochs=3, batch_size=16, lr_log_vars=5.0)
    _, mx2, _ = retrain(net, mx, data, cfg, hyper)
    assert np.all(mx2.log_vars >= math.log(VARIANCE_FLOOR) - 1e-12)
    assert np.any(mx2.log_vars <= math.log(VARIANCE_FLOOR) + 1e-6)


def test_divergence_guard_halves_mixture_lr_once(monkeypatch):
    fake_values = iter([1.0, 50.0, 5000.0, 5000.0, 5000.0])
    monkeypatch.setattr(train_mod, "complexity_loss",
                        lambda *a, **k: next(fake_values))
    net, mx, data = _tiny_problem(tau=1e-3)
    _, _, trace = retrain(net, mx, data, TrainConfig(epochs=5, batch_size=16))
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
        retrain(net, mx, data, TrainConfig(epochs=5, batch_size=16))
    err = exc_info.value
    assert err.network is not None
    assert err.mixture is not None
    assert len(err.trace) == 2


def test_subsampled_training_runs():
    net, mx, data = _tiny_problem(tau=1e-3)
    cfg = TrainConfig(epochs=2, batch_size=16, subsample=7, seed=3)
    net2, mx2, trace = retrain(net, mx, data, cfg)
    assert np.all(np.isfinite(flat_weights(net2)))
    assert np.all(np.isfinite(mx2.log_vars))
    # a subsample at least as large as the weight count means exact gradients
    cfg_big = TrainConfig(epochs=1, batch_size=16, subsample=10**9, seed=3)
    cfg_exact = TrainConfig(epochs=1, batch_size=16, subsample=0, seed=3)
    n3, m3, _ = retrain(net, mx, data, cfg_big)
    n4, m4, _ = retrain(net, mx, data, cfg_exact)
    np.testing.assert_array_equal(flat_weights(n3), flat_weights(n4))
    np.testing.assert_array_equal(m3.log_vars, m4.log_vars)


def test_trace_rows_snapshot_state():
    net, mx, data = _tiny_problem(tau=1e-3)
    net2, mx2, trace = retrain(net, mx, data, TrainConfig(epochs=2, batch_size=16),
                               test_data=data)
    row = trace[-1]
    np.testing.assert_array_equal(row.means, mx2.means)
    assert row.means is not mx2.means  # snapshot, not a view
    assert 0.0 <= row.test_error <= 1.0
    assert math.isfinite(row.complexity_loss)
    # without test data the column is nan
    _, _, trace2 = retrain(net, mx, data, TrainConfig(epochs=1, batch_size=16))
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
    net2, mx2, trace = retrain(net, mx, data, TrainConfig(epochs=0))
    assert trace == []
    np.testing.assert_array_equal(flat_weights(net2), flat_weights(net))
    np.testing.assert_array_equal(mx2.means, mx.means)
