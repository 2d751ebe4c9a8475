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

from softshare.checkpoint import load_checkpoint, save_checkpoint
from softshare.errors import ConfigurationError
from softshare.net import (
    EVAL_BLOCK,
    Batch,
    Layer,
    Network,
    error_loss_and_grad,
    evaluate,
    forward,
    iter_batches,
    make_network,
    split_like_weights,
)


def _random_net(rng, sizes=(6, 5, 4)):
    net = make_network(sizes, seed=int(rng.integers(1 << 30)))
    for layer in net.layers:
        layer.biases[...] = rng.normal(0.0, 0.3, size=layer.biases.shape)
    return net


def _random_batch(rng, net, n=7):
    x = rng.normal(0.0, 1.0, size=(n, net.in_dim))
    y = rng.integers(0, net.layers[-1].out_dim, size=n)
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
    labels = rng.integers(0, net.layers[-1].out_dim, size=9)
    batch = Batch(pixels, labels)
    assert batch.inputs.dtype == np.uint8
    assert np.array_equal(forward(net, batch), forward(net, Batch(pixels / 255.0, labels)))


def test_loss_matches_scipy_log_softmax():
    rng = np.random.default_rng(4)
    net = _random_net(rng)
    batch = _random_batch(rng, net)
    loss = error_loss_and_grad(net, batch)[0]

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
        up = error_loss_and_grad(net, batch)[0]
        set_(idx, orig - eps)
        down = error_loss_and_grad(net, batch)[0]
        set_(idx, orig)
        g[idx] = (up - down) / (2 * eps)
    return g


@pytest.mark.parametrize("seed", range(5))
def test_backprop_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    net = _random_net(rng, sizes=(5, 4, 3))
    batch = _random_batch(rng, net, n=6)
    _, d_weights, d_biases = error_loss_and_grad(net, batch)
    d_weights, d_biases = split_like_weights(net, d_weights), np.split(d_biases, [4])

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
        np.testing.assert_allclose(d_weights[k], fd_w, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(d_biases[k], fd_b, rtol=1e-5, atol=1e-9)


def test_confidently_wrong_prediction_keeps_loss_finite():
    # one huge logit on the wrong class; the probability floor must kick in
    w = np.array([[40.0], [-40.0]])
    net = Network([Layer(w, np.zeros(2), "softmax")])
    batch = Batch(np.array([[30.0]]), np.array([1]))
    loss, d_weights, d_biases = error_loss_and_grad(net, batch)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(d_weights)) and np.all(np.isfinite(d_biases))


@pytest.mark.parametrize("label", [-1, 4, 10])
def test_labels_outside_the_output_layer_are_refused(label):
    # a negative label would index the last class, one past it the array's end
    net = make_network((6, 5, 4), seed=0)
    batch = Batch(np.zeros((3, 6)), np.array([0, label, 2]))
    for run in (error_loss_and_grad, evaluate):
        with pytest.raises(ConfigurationError, match=rf"label {label} outside \[0, 4\)"):
            run(net, batch)


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
    # the whole batch's outputs of the three layers are 2000 * 410 float64s,
    # 6.6 MB; one block of EVAL_BLOCK rows is 0.8 MB
    assert peak < 4_000_000


def test_backprop_peaks_under_its_trace_plus_the_gradients():
    rng = np.random.default_rng(4)
    net = make_network((784, 300, 100, 10), seed=0)
    batch = Batch(rng.integers(0, 256, (1000, 784)).astype(np.uint8),
                  rng.integers(0, 10, 1000))
    tracemalloc.start()
    try:
        error_loss_and_grad(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # float64 inputs and the outputs of the three layers, the two gradient
    # vectors, and 1 MB for the loss's small arrays and the deltas: the
    # backward pass frees each layer input after its last read, so the
    # gradients do not stack on the whole trace (17.5 MB when they did), and
    # no pre-activation is kept beside its relu output
    trace = 1000 * (784 + 410) * 8
    assert peak < trace + net.weights.nbytes + net.biases.nbytes + 1_000_000


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


def test_network_rejects_a_hidden_softmax_layer():
    # error_loss_and_grad masks every hidden layer's gradient as relu's
    with pytest.raises(ConfigurationError, match="hidden layers must use relu"):
        Network([Layer(np.zeros((4, 3)), np.zeros(4), "softmax"),
                 Layer(np.zeros((2, 4)), np.zeros(2), "softmax")])


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


def test_layers_view_the_packed_vectors(tmp_path):
    net = make_network((4, 3, 2), seed=1)
    assert net.weights.shape == (net.weight_count,) == (4 * 3 + 3 * 2,)
    assert net.biases.shape == (3 + 2,)
    views = split_like_weights(net, net.weights)
    assert [v.shape for v in views] == [(3, 4), (2, 3)]
    for view, layer in zip(views, net.layers):
        np.testing.assert_array_equal(view, layer.weights)
    # writes through a layer's views show in the flat vectors, and back
    net.layers[1].weights[0, 2] = 7.0
    net.layers[1].biases[1] = -3.0
    assert net.weights[12 + 2] == 7.0 and net.biases[3 + 1] == -3.0
    net.weights[0] = 5.0
    assert net.layers[0].weights[0, 0] == 5.0
    # a copy owns its vectors
    other = net.copy()
    np.testing.assert_array_equal(other.weights, net.weights)
    np.testing.assert_array_equal(other.biases, net.biases)
    other.layers[0].weights[...] = 0.0
    other.biases[...] = 0.0
    assert net.weights[0] == 5.0 and net.biases[4] == -3.0
    assert not other.layers[0].weights.any() and not other.weights[:12].any()
    # a loaded checkpoint comes back packed, in its own writable vectors
    save_checkpoint(net, tmp_path / "net.swsc")
    loaded, _, _ = load_checkpoint(tmp_path / "net.swsc")
    assert loaded.weights.tobytes() == net.weights.tobytes()
    assert loaded.biases.tobytes() == net.biases.tobytes()
    loaded.weights[12 + 2] = 1.0
    loaded.biases[0] = 2.0
    assert loaded.layers[1].weights[0, 2] == 1.0 and loaded.layers[0].biases[0] == 2.0
