"""Post-training cleanup: component merging and weight quantization.

After retraining, near-duplicate mixture components are merged (smallest
symmetrized KL first, while below a threshold), then every weight snaps to
the mean of the component holding the largest responsibility for it.
Assignment 0 means the zero spike: those weights become exact zeros and
are the pruned set.

A merge combines moment sums: pi_new = pi_i + pi_j, with the new mean and
variance the pi-weighted averages of the parents'. Merging into the zero
spike is only allowed when the combined mean would land within
ZERO_SNAP_TOL of zero; it is then snapped to exactly 0 so pruning
semantics survive.

The quantized network serializes to a small binary format (magic "SWSQ"):
assignments at minimal byte width plus one global mean table, biases kept
at full precision. All integers little-endian.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import _Cursor, read_artifact, write_file
from .errors import ConfigurationError, DataFormatError
from .mixture import MixtureModel, assignments
from .net import ACTIVATIONS, Layer, Network, check_activations, split_like_weights

ZERO_SNAP_TOL = 1e-4

SWSQ_MAGIC = b"SWSQ"
SWSQ_VERSION = 1


@dataclass
class QuantizedLayer:
    assignments: np.ndarray   # (rows, cols) component indices, row-major
    biases: np.ndarray        # (rows,) full precision
    activation: str

    def __post_init__(self):
        self.assignments = np.ascontiguousarray(self.assignments, dtype=np.int64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        if self.assignments.ndim != 2:
            raise ConfigurationError("assignments must be a matrix")
        if self.biases.shape != (self.assignments.shape[0],):
            raise ConfigurationError("bias length must match assignment rows")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")


@dataclass
class QuantizedNetwork:
    layers: list
    means: np.ndarray         # shared table; means[0] == 0.0

    def __post_init__(self):
        self.means = np.ascontiguousarray(self.means, dtype=np.float64)
        if self.means.ndim != 1 or self.means.shape[0] < 1:
            raise ConfigurationError("mean table must be a non-empty vector")
        if self.means[0] != 0.0:
            raise ConfigurationError("mean table slot 0 must be exactly 0")
        check_activations([ql.activation for ql in self.layers])
        k = self.means.shape[0]
        for ql in self.layers:
            if ql.assignments.min(initial=0) < 0 or ql.assignments.max(initial=0) >= k:
                raise ConfigurationError("assignment index outside the mean table")

    def to_network(self) -> Network:
        """The snapped network; only it holds each layer's snapped matrix,
        so packing frees each one as it is copied."""
        return Network([Layer(self.means[ql.assignments], ql.biases, ql.activation)
                        for ql in self.layers])

    def prune_fraction(self, layer_index: int | None = None) -> float:
        """Share of weights assigned to the zero component."""
        if layer_index is None:
            zero = sum(int((ql.assignments == 0).sum()) for ql in self.layers)
            total = sum(ql.assignments.size for ql in self.layers)
        else:
            a = self.layers[layer_index].assignments
            zero, total = int((a == 0).sum()), a.size
        return zero / total


def kl_gaussian(mu_i: float, var_i: float, mu_j: float, var_j: float) -> float:
    """KL(N(mu_i, var_i) || N(mu_j, var_j)), closed form."""
    if var_i <= 0.0 or var_j <= 0.0:
        raise ConfigurationError("kl_gaussian needs positive variances")
    d = mu_j - mu_i
    return 0.5 * (var_i / var_j + d * d / var_j - 1.0 + math.log(var_j / var_i))


def merge_components(m: MixtureModel, i: int, j: int) -> MixtureModel:
    """Merge components i and j into the lower index slot.

    pi_new = pi_i + pi_j; mean and variance are pi-weighted averages.
    Merging with the zero spike is rejected unless the combined mean lies
    within ZERO_SNAP_TOL of zero, in which case it is snapped to 0.
    """
    k = m.n_components
    if i == j or not (0 <= i < k and 0 <= j < k):
        raise ConfigurationError(f"cannot merge component pair ({i}, {j})")
    lo, hi = min(i, j), max(i, j)
    pi = m.mixing_proportions()
    var = m.variances()

    pi_new = pi[lo] + pi[hi]
    mu_new = (pi[lo] * m.means[lo] + pi[hi] * m.means[hi]) / pi_new
    var_new = (pi[lo] * var[lo] + pi[hi] * var[hi]) / pi_new
    if lo == 0:
        if abs(mu_new) >= ZERO_SNAP_TOL:
            raise ConfigurationError(
                f"merging component {hi} into the zero spike would move its "
                f"mean to {mu_new:.6g}"
            )
        mu_new = 0.0

    keep = [c for c in range(k) if c != hi]
    means = m.means[keep].copy()
    log_vars = m.log_vars[keep].copy()
    pi_out = pi[keep].copy()
    pos = keep.index(lo)
    means[pos] = mu_new
    log_vars[pos] = math.log(var_new)
    pi_out[pos] = pi_new

    # logits whose softmax over slots 1..J reproduces pi_out (up to rounding)
    logits = np.zeros_like(pi_out)
    logits[1:] = np.log(pi_out[1:])
    return MixtureModel(means, log_vars, logits, float(pi_out[0]), m.tau)


def _best_merge_pair(m: MixtureModel, threshold: float):
    """Lowest symmetrized-KL pair strictly below threshold, or None.

    Pairs whose merge would drag the zero spike off zero are not candidates.
    Ties resolve to the lexicographically smallest (i, j).
    """
    k = m.n_components
    pi = m.mixing_proportions()
    var = m.variances()
    best = None
    for i in range(k):
        for j in range(i + 1, k):
            kl = kl_gaussian(m.means[i], var[i], m.means[j], var[j]) \
                + kl_gaussian(m.means[j], var[j], m.means[i], var[i])
            if kl >= threshold:
                continue
            if i == 0:
                mu_new = pi[j] * m.means[j] / (pi[0] + pi[j])
                if abs(mu_new) >= ZERO_SNAP_TOL:
                    continue
            if best is None or kl < best[0]:
                best = (kl, i, j)
    return best


def merge_pass(m: MixtureModel, kl_threshold: float) -> MixtureModel:
    """Repeatedly merge the closest pair while its symmetrized KL is below
    kl_threshold.

    KL distances are recomputed after every merge. Each merge removes one
    component and merging stops at two, so J+1 components merge at most
    J-1 times. threshold 0 never merges (strict comparison).
    """
    while m.n_components > 2:
        best = _best_merge_pair(m, kl_threshold)
        if best is None:
            break
        m = merge_components(m, best[1], best[2])
    return m


def quantize(net: Network, m: MixtureModel) -> QuantizedNetwork:
    """Snap each weight to the mean of its argmax-responsibility component.

    Ties go to the lower component index, preferring the zero spike.
    Each layer's assignments are a view of the one assignment vector.
    Biases pass through untouched. A NaN or infinite weight raises
    NumericError naming its flat index.
    """
    per_layer = split_like_weights(net, assignments(net.weights, m))
    means = m.means.copy()
    means[0] = 0.0
    layers = [
        QuantizedLayer(a, layer.biases.copy(), layer.activation)
        for a, layer in zip(per_layer, net.layers)
    ]
    return QuantizedNetwork(layers, means)


def save_quantized(q: QuantizedNetwork, path) -> None:
    """Write the SWSQ container (see module docstring)."""
    k = q.means.shape[0]
    width = 1 if k <= 256 else 2
    parts = [SWSQ_MAGIC, struct.pack("<HH", SWSQ_VERSION, len(q.layers)),
             struct.pack("<H", k), q.means.astype("<f8").tobytes()]
    for ql in q.layers:
        rows, cols = ql.assignments.shape
        tag = ACTIVATIONS.index(ql.activation)
        parts.append(struct.pack("<IIBB", rows, cols, tag, width))
        dt = "<u1" if width == 1 else "<u2"
        parts.append(np.ascontiguousarray(ql.assignments, dtype=dt).tobytes())
        parts.append(ql.biases.astype("<f8").tobytes())
    write_file(path, b"".join(parts))


def load_quantized(path) -> QuantizedNetwork:
    """Read an SWSQ file. A file whose fields fail the QuantizedNetwork
    checks (mean table, activations, assignment range) raises
    DataFormatError."""
    return read_artifact(path, _read_quantized)


def _read_quantized(cur: _Cursor) -> QuantizedNetwork:
    n_layers = cur.header(SWSQ_MAGIC, SWSQ_VERSION, "a quantized-model file")
    (k,) = cur.unpack("<H")
    means = np.frombuffer(cur.take(8 * k), dtype="<f8").copy()
    layers = []
    for _ in range(n_layers):
        rows, cols, tag, width = cur.unpack("<IIBB")
        if tag >= len(ACTIVATIONS) or width not in (1, 2):
            raise DataFormatError(f"{cur.name}: bad layer header")
        dt = "<u1" if width == 1 else "<u2"
        a = np.frombuffer(cur.take(width * rows * cols), dtype=dt)
        biases = np.frombuffer(cur.take(8 * rows), dtype="<f8").copy()
        layers.append(QuantizedLayer(a.reshape(rows, cols).astype(np.int64),
                                     biases, ACTIVATIONS[tag]))
    return QuantizedNetwork(layers, means)
