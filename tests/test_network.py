"""Forward pass, loss, and backprop checks for the dense classifier.

The gradient tests compare against central finite differences. Biases are
always randomized: with zero biases a relu unit can sit exactly at its
kink, where the two-sided difference quotient is not a derivative of
anything and the comparison is meaningless.
"""
import tracemalloc

import numpy as np
import pytest
from scipy.special import log_softmax

from softshare.errors import ConfigurationError
from softshare.net import (
    EVAL_BLOCK,
    Batch,
    Layer,
    Network,
    error_loss_and_grad,
    evaluate,
    flat_weights,
    forward,
    iter_batches,
    make_network,
    set_flat_weights,
    split_like_weights,
)


def _random_net(rng, sizes=(6, 5, 4)):
    net = make_network(sizes, seed=int(rng.integers(1 << 30)))
    for layer in net.layers:
        layer.biases[...] = rng.normal(0.0, 0.3, size=layer.biases.shape)
    return net


def _random_batch(rng, net, n=7):
    x = rng.normal(0.0, 1.0, size=(n, net.in_dim))
    y = rng.integers(0, net.out_dim, size=n)
    return Batch(x, y)


def test_forward_rows_are_distributions():
    rng = np.random.default_rng(3)
    net = _random_net(rng)
    probs = forward(net, _random_batch(rng, net))
    assert probs.shape == (7, 4)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)


def test_uint8_pixels_forward_as_pixel_over_255():
    rng = np.random.default_rng(5)
    net = _random_net(rng)
    pixels = rng.integers(0, 256, size=(9, net.in_dim)).astype(np.uint8)
    labels = rng.integers(0, net.out_dim, size=9)
    batch = Batch(pixels, labels)
    assert batch.inputs.dtype == np.uint8
    assert np.array_equal(forward(net, batch), forward(net, Batch(pixels / 255.0, labels)))


def test_loss_matches_scipy_log_softmax():
    rng = np.random.default_rng(4)
    net = _random_net(rng)
    batch = _random_batch(rng, net)
    loss, _ = error_loss_and_grad(net, batch)

    a = batch.inputs
    for layer in net.layers[:-1]:
        a = np.maximum(a @ layer.weights.T + layer.biases, 0.0)
    logits = a @ net.layers[-1].weights.T + net.layers[-1].biases
    expected = -log_softmax(logits, axis=1)[np.arange(len(batch)), batch.labels].mean()
    assert loss == pytest.approx(expected, rel=1e-12)


def _fd_loss(net, batch, get, set_, eps=1e-6):
    base = get()
    g = np.zeros_like(base)
    flat = g.ravel()
    for i in range(flat.size):
        idx = np.unravel_index(i, base.shape)
        orig = base[idx]
        set_(idx, orig + eps)
        up, _ = error_loss_and_grad(net, batch)
        set_(idx, orig - eps)
        down, _ = error_loss_and_grad(net, batch)
        set_(idx, orig)
        g[idx] = (up - down) / (2 * eps)
    return g


@pytest.mark.parametrize("seed", range(5))
def test_backprop_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    net = _random_net(rng, sizes=(5, 4, 3))
    batch = _random_batch(rng, net, n=6)
    _, grads = error_loss_and_grad(net, batch)

    for k, layer in enumerate(net.layers):
        fd_w = _fd_loss(
            net, batch,
            lambda: layer.weights,
            lambda idx, v: layer.weights.__setitem__(idx, v),
        )
        fd_b = _fd_loss(
            net, batch,
            lambda: layer.biases,
            lambda idx, v: layer.biases.__setitem__(idx, v),
        )
        np.testing.assert_allclose(grads[k][0], fd_w, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(grads[k][1], fd_b, rtol=1e-5, atol=1e-9)


def test_confidently_wrong_prediction_keeps_loss_finite():
    # one huge logit on the wrong class; the probability floor must kick in
    w = np.array([[40.0], [-40.0]])
    net = Network([Layer(w, np.zeros(2), "softmax")])
    batch = Batch(np.array([[30.0]]), np.array([1]))
    loss, grads = error_loss_and_grad(net, batch)
    assert np.isfinite(loss)
    assert all(np.all(np.isfinite(g)) for g, _ in grads)


def test_evaluate_counts_top1_errors():
    w = np.array([[1.0], [-1.0]])
    net = Network([Layer(w, np.zeros(2), "softmax")])
    # positive input -> class 0 wins, negative -> class 1
    batch = Batch(np.array([[1.0], [-1.0], [2.0], [-2.0]]), np.array([0, 1, 1, 1]))
    assert evaluate(net, batch) == 0.25


@pytest.mark.parametrize("n", [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 2000])
def test_blocked_evaluate_matches_whole_batch_forward(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        net = _random_net(rng, sizes=(20, 16, 10))
        batch = _random_batch(rng, net, n)
        wrong = np.count_nonzero(forward(net, batch).argmax(axis=1) != batch.labels)
        assert evaluate(net, batch) == wrong / n


def test_evaluate_keeps_one_block_of_trace():
    rng = np.random.default_rng(4)
    net = make_network((784, 300, 100, 10), seed=0)
    batch = Batch(rng.random((2000, 784)), rng.integers(0, 10, 2000))
    tracemalloc.start()
    try:
        evaluate(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole batch's pre-activations and activations of the three layers
    # are 2000 * 2 * 410 float64s, 13 MB; one block of EVAL_BLOCK rows is 1.7 MB
    assert peak < 4_000_000


def test_batch_is_never_empty():
    # evaluate divides by len(batch), so an empty Batch must not exist
    with pytest.raises(ConfigurationError, match="at least one sample"):
        Batch(np.empty((0, 3)), np.empty(0, dtype=np.int64))


def test_make_network_is_deterministic():
    a = make_network((10, 8, 5), seed=7)
    b = make_network((10, 8, 5), seed=7)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
    c = make_network((10, 8, 5), seed=8)
    assert any(
        not np.array_equal(lc.weights, la.weights)
        for lc, la in zip(c.layers, a.layers)
    )


@pytest.mark.parametrize("sizes", [(784, 0, 10), (784, -3, 10)])
def test_make_network_rejects_sizes_below_one(sizes):
    with pytest.raises(ConfigurationError, match="layer sizes"):
        make_network(sizes)


def test_make_network_shapes_and_activations():
    net = make_network((12, 9, 4), seed=0)
    assert [l.weights.shape for l in net.layers] == [(9, 12), (4, 9)]
    assert [l.activation for l in net.layers] == ["relu", "softmax"]
    assert all(np.all(l.biases == 0.0) for l in net.layers)
    assert net.weight_count == 9 * 12 + 4 * 9


def test_network_validators():
    with pytest.raises(ConfigurationError):
        Layer(np.zeros((2, 3)), np.zeros(3), "relu")  # bias length mismatch
    with pytest.raises(ConfigurationError):
        Layer(np.zeros((2, 3)), np.zeros(2), "tanh")
    with pytest.raises(ConfigurationError):
        Network([Layer(np.zeros((2, 3)), np.zeros(2), "relu")])  # no softmax head
    with pytest.raises(ConfigurationError):
        Network([
            Layer(np.zeros((2, 3)), np.zeros(2), "relu"),
            Layer(np.zeros((4, 5)), np.zeros(4), "softmax"),  # 2 -> 5 mismatch
        ])


def test_iter_batches_covers_everything_once():
    inputs = np.arange(10, dtype=float).reshape(10, 1)
    labels = np.arange(10) % 3
    seen = []
    for batch in iter_batches(inputs, labels, 4, np.random.default_rng(0)):
        assert len(batch) <= 4
        seen.extend(batch.inputs.ravel().tolist())
    assert sorted(seen) == list(range(10))
    # without an rng the order is the identity
    plain = np.concatenate(
        [b.inputs.ravel() for b in iter_batches(inputs, labels, 4)]
    )
    np.testing.assert_array_equal(plain, inputs.ravel())


def test_flat_weights_round_trip():
    net = make_network((4, 3, 2), seed=1)
    flat = flat_weights(net)
    assert flat.shape == (net.weight_count,)
    other = make_network((4, 3, 2), seed=2)
    set_flat_weights(other, flat)
    np.testing.assert_array_equal(flat_weights(other), flat)
    views = split_like_weights(net, flat)
    assert [v.shape for v in views] == [(3, 4), (2, 3)]
    np.testing.assert_array_equal(views[0], net.layers[0].weights)
    with pytest.raises(ConfigurationError):
        set_flat_weights(net, flat[:-1])
