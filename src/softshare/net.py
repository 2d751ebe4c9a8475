"""Dense feedforward classifier with hand-derived gradients.

Weights, biases, and activations are float64 numpy arrays (row-major).
A network is an ordered list of layers, each holding a weight matrix of
shape (out, in), a bias vector of shape (out,), and an activation name.
Hidden layers use relu; the final layer must use softmax. The error loss
is the mean cross-entropy of the true class over a batch.

A Network owns two flat vectors: ``weights`` holds every weight matrix,
layer by layer, row-major, and ``biases`` every bias vector in the same
order. Each layer's ``weights`` and ``biases`` are reshaped views into
them, so the mixture prior reads the whole weight vector w in place and
training steps each vector with one Adam state; ``split_like_weights``
views any per-weight vector layer by layer.

Only weight-matrix entries count toward ``weight_count``; biases are
trained normally but are tracked separately (they stay dense and at full
precision through the whole compression pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError

ACTIVATIONS = ("relu", "softmax")

# Probabilities are floored at 1e-300 before taking logs, so a confidently
# wrong prediction yields a large finite loss instead of inf.
LOG_PROB_FLOOR = float(np.log(1e-300))

# Rows per forward pass in evaluate, the retraining batch size: the layer
# trace it keeps is that of one block, whatever the size of the evaluated set.
EVAL_BLOCK = 256


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: str

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ConfigurationError("layer weights must be a 2-d matrix")
        if self.biases.shape != (self.weights.shape[0],):
            raise ConfigurationError(
                f"bias shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} output units"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


def check_activations(activations) -> None:
    """Raise ConfigurationError unless the hidden layers use relu and the
    final layer softmax, the one stack error_loss_and_grad differentiates."""
    if not activations:
        raise ConfigurationError("network needs at least one layer")
    if activations[-1] != "softmax":
        raise ConfigurationError("final layer must use softmax")
    if any(a != "relu" for a in activations[:-1]):
        raise ConfigurationError("hidden layers must use relu")


@dataclass
class Network:
    """Layers whose parameters live in two flat float64 vectors.

    Construction packs every layer's weights into ``weights`` and its
    biases into ``biases``, then rebinds each layer's arrays to views into
    them, one layer at a time, so the layer's own arrays can be freed as
    it goes. The layers belong to the network from then on: write through
    their views, never rebind ``layer.weights`` or ``layer.biases``.
    """

    layers: list[Layer]
    weights: np.ndarray = field(init=False, repr=False)  # (weight_count,)
    biases: np.ndarray = field(init=False, repr=False)   # (total out units,)

    def __post_init__(self):
        check_activations([l.activation for l in self.layers])
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ConfigurationError(
                    f"layer dimensions do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        self.weights = np.empty(sum(l.weights.size for l in self.layers))
        self.biases = np.empty(sum(l.out_dim for l in self.layers))
        for layer, w, b in zip(self.layers, split_like_weights(self, self.weights),
                               _split_like_biases(self, self.biases)):
            w[...], b[...] = layer.weights, layer.biases
            layer.weights, layer.biases = w, b

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def weight_count(self) -> int:
        """Total number of weight-matrix entries (biases excluded)."""
        return self.weights.size

    def copy(self) -> "Network":
        """An independent network; packing copies each vector once."""
        return Network([Layer(l.weights, l.biases, l.activation) for l in self.layers])


@dataclass
class Batch:
    """Samples and their labels.

    inputs are either float64 features or uint8 pixels (both corpora of
    data.py). The forward pass reads a pixel p as p / 255.0, one batch or
    evaluation block at a time, so a corpus of pixels is never held as
    float64 in whole.
    """

    inputs: np.ndarray   # (B, in_dim) float64, or uint8 pixels
    labels: np.ndarray   # (B,) integer class indices

    def __post_init__(self):
        inputs = np.asarray(self.inputs)
        self.inputs = np.ascontiguousarray(
            inputs, dtype=np.uint8 if inputs.dtype == np.uint8 else np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("batch needs 2-d inputs and 1-d labels")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("batch inputs and labels disagree on size")
        if self.inputs.shape[0] < 1:
            raise ConfigurationError("batch must contain at least one sample")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def make_network(sizes, seed=0) -> Network:
    """Random network for the given layer sizes, e.g. (784, 300, 100, 10).

    Hidden layers get relu with He-scaled weights, the final layer softmax
    with 1/sqrt(fan_in) scaling. Biases start at zero.
    """
    if len(sizes) < 2:
        raise ConfigurationError("need at least input and output sizes")
    if not all(n >= 1 for n in sizes):
        raise ConfigurationError(f"layer sizes must all be >= 1, got {tuple(sizes)}")
    rng = np.random.default_rng(seed)
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        last = k == len(sizes) - 2
        scale = np.sqrt(1.0 / fan_in) if last else np.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, scale, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), "softmax" if last else "relu"))
    return Network(layers)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so huge logits stay finite."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward_trace(net: Network, inputs: np.ndarray):
    """Forward pass keeping the inputs and each layer's output: relu
    applied in place on the hidden layers, the last layer's logits as they
    are. uint8 pixels enter as pixel / 255.0."""
    if inputs.shape[1] != net.in_dim:
        raise ConfigurationError(
            f"input width {inputs.shape[1]} does not match first layer "
            f"({net.in_dim} inputs)"
        )
    if inputs.dtype == np.uint8:
        inputs = inputs / 255.0
    acts = [inputs]
    for layer in net.layers:
        z = acts[-1] @ layer.weights.T + layer.biases
        if layer.activation == "relu":
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward(net: Network, batch: Batch) -> np.ndarray:
    """Class probabilities, one simplex row per sample."""
    return _softmax_rows(_forward_trace(net, batch.inputs)[-1])


def _diagnose_nonfinite(net: Network, inputs: np.ndarray) -> str:
    for k, a in enumerate(_forward_trace(net, inputs)[1:]):
        if not np.all(np.isfinite(a)):
            return f"first non-finite output in layer {k}"
    return "layer outputs finite; loss reduction produced a non-finite value"


def _check_labels(net: Network, labels: np.ndarray) -> None:
    """Raise ConfigurationError unless every label is a class of the output
    layer, in [0, output width)."""
    width = net.layers[-1].out_dim
    lo, hi = int(labels.min()), int(labels.max())
    if lo < 0 or hi >= width:
        raise ConfigurationError(
            f"label {lo if lo < 0 else hi} outside [0, {width}): the output "
            f"layer has {width} classes")


def error_loss_and_grad(net: Network, batch: Batch):
    """Mean cross-entropy of the true class and its exact gradients.

    Returns (loss, d_weights, d_biases), the gradients flat vectors laid
    out like ``net.weights`` and ``net.biases``. A label outside the output
    layer's classes raises ConfigurationError.
    """
    _check_labels(net, batch.labels)
    acts = _forward_trace(net, batch.inputs)
    n = len(batch)
    logp = _log_softmax_rows(acts.pop())
    true_logp = np.maximum(logp[np.arange(n), batch.labels], LOG_PROB_FLOOR)
    loss = float(-true_logp.mean())
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite error loss: {_diagnose_nonfinite(net, batch.inputs)}"
        )

    probs = np.exp(logp)
    delta = probs
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    d_weights = np.empty_like(net.weights)
    d_biases = np.empty_like(net.biases)
    dw = split_like_weights(net, d_weights)
    db = _split_like_biases(net, d_biases)
    # each layer input is dropped after its last read, before the next
    # delta is built, so the gradient vectors take no more memory than the
    # trace they replace
    for k in range(len(net.layers) - 1, -1, -1):
        np.matmul(delta.T, acts[k], out=dw[k])
        np.sum(delta, axis=0, out=db[k])
        if k > 0:
            # relu's mask from its output, this layer's input: act > 0 iff pre > 0
            live = acts.pop() > 0.0
            delta = (delta @ net.layers[k].weights) * live
    return loss, d_weights, d_biases


def evaluate(net: Network, batch: Batch) -> float:
    """Top-1 error rate over one Batch, in [0, 1].

    Calls forward on consecutive blocks of EVAL_BLOCK rows and sums their
    wrong counts, so only one block of pixels is turned into float64 at a
    time. A block's probabilities may differ from the whole batch's in the
    last bit (the gemm rounding depends on the row count). A label outside
    the output layer's classes raises ConfigurationError.
    """
    _check_labels(net, batch.labels)
    wrong = 0
    for lo in range(0, len(batch), EVAL_BLOCK):
        block = Batch(batch.inputs[lo:lo + EVAL_BLOCK], batch.labels[lo:lo + EVAL_BLOCK])
        wrong += int(np.count_nonzero(forward(net, block).argmax(axis=1) != block.labels))
    return wrong / len(batch)


def iter_batches(inputs, labels, batch_size, rng=None):
    """Yield Batch objects; shuffled when an rng is given."""
    n = inputs.shape[0]
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield Batch(inputs[idx], labels[idx])


def split_like_weights(net: Network, flat: np.ndarray):
    """Views of a flat per-weight vector reshaped to each layer's matrix."""
    out = []
    pos = 0
    for layer in net.layers:
        size = layer.weights.size
        out.append(flat[pos:pos + size].reshape(layer.weights.shape))
        pos += size
    return out


def _split_like_biases(net: Network, flat: np.ndarray):
    """Views of a flat per-bias vector, one per layer."""
    return np.split(flat, np.cumsum([l.out_dim for l in net.layers])[:-1])
