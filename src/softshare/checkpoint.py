"""Full-precision model checkpoints (magic "SWSC").

Layout, all integers little-endian, all reals 64-bit:

    "SWSC" | version u16 | layer count u16
    per layer: rows u32 | cols u32 | activation tag u8
               | weights f64 row-major | biases f64
    optional mixture block:
        component count u16
        per component: mean f64 | log variance f64 | logit f64
        flags u8 (bit 0: zero mass trainable) | tau f64 | pi0 f64
        hyper flags u8 (bit 0/1/2: gamma-zero / gamma-rest / beta-pi0 active)
        6 x f64: the (alpha, beta) pairs in that order, zeros when inactive

The mixture block is present exactly when the file extends past the layer
table, so plain network checkpoints and retrained model+prior checkpoints
share one format.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError
from .mixture import HyperPriorConfig, MixtureModel
from .net import ACTIVATIONS, Layer, Network

SWSC_MAGIC = b"SWSC"
SWSC_VERSION = 1


def save_checkpoint(net: Network, path, mixture: Optional[MixtureModel] = None,
                    hyper: Optional[HyperPriorConfig] = None) -> None:
    parts = [SWSC_MAGIC, struct.pack("<HH", SWSC_VERSION, len(net.layers))]
    for layer in net.layers:
        rows, cols = layer.weights.shape
        tag = ACTIVATIONS.index(layer.activation)
        parts.append(struct.pack("<IIB", rows, cols, tag))
        parts.append(layer.weights.astype("<f8").tobytes())
        parts.append(layer.biases.astype("<f8").tobytes())
    if mixture is not None:
        k = mixture.n_components
        parts.append(struct.pack("<H", k))
        comp = np.empty((k, 3))
        comp[:, 0] = mixture.means
        comp[:, 1] = mixture.log_vars
        comp[:, 2] = mixture.logits
        parts.append(comp.astype("<f8").tobytes())
        flags = 1 if mixture.pi0_trainable else 0
        parts.append(struct.pack("<Bdd", flags, mixture.tau, mixture.pi0))
        hflags = 0
        pairs = []
        for bit, ab in enumerate((
                hyper.gamma_zero if hyper else None,
                hyper.gamma_rest if hyper else None,
                hyper.beta_pi0 if hyper else None)):
            if ab is not None:
                hflags |= 1 << bit
                pairs.extend(ab)
            else:
                pairs.extend((0.0, 0.0))
        parts.append(struct.pack("<B6d", hflags, *pairs))
    write_file(path, b"".join(parts))


def write_file(path, data: bytes) -> None:
    """Write data to a sibling temporary file, then os.replace it over path
    (making path's directory), so no interruption leaves half a file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Cursor:
    """Reads a byte string front to back; reading past its end raises error."""

    def __init__(self, blob: bytes, name: str, error=DataFormatError):
        self.blob = blob
        self.pos = 0
        self.name = name
        self.error = error

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.error(f"{self.name} truncated at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[Network, Optional[MixtureModel],
                                   Optional[HyperPriorConfig]]:
    with open(path, "rb") as f:
        cur = _Cursor(f.read(), str(path))
    if cur.take(4) != SWSC_MAGIC:
        raise DataFormatError(f"{cur.name}: bad magic, not a checkpoint")
    version, n_layers = cur.unpack("<HH")
    if version != SWSC_VERSION:
        raise DataFormatError(f"{cur.name}: unsupported version {version}")
    layers = []
    for _ in range(n_layers):
        rows, cols, tag = cur.unpack("<IIB")
        if tag >= len(ACTIVATIONS):
            raise DataFormatError(f"{cur.name}: bad activation tag {tag}")
        w = np.frombuffer(cur.take(8 * rows * cols), dtype="<f8")
        b = np.frombuffer(cur.take(8 * rows), dtype="<f8")
        layers.append(Layer(w.reshape(rows, cols).copy(), b.copy(),
                            ACTIVATIONS[tag]))
    net = Network(layers)
    if cur.remaining == 0:
        return net, None, None

    (k,) = cur.unpack("<H")
    comp = np.frombuffer(cur.take(24 * k), dtype="<f8").reshape(k, 3)
    flags, tau, pi0 = cur.unpack("<Bdd")
    hflags, a0, b0, ar, br, ab, bb = cur.unpack("<B6d")
    if cur.remaining:
        raise DataFormatError(f"{cur.name}: {cur.remaining} trailing bytes")
    mixture = MixtureModel(comp[:, 0].copy(), comp[:, 1].copy(),
                           comp[:, 2].copy(), pi0, bool(flags & 1), tau)
    hyper = HyperPriorConfig(
        gamma_zero=(a0, b0) if hflags & 1 else None,
        gamma_rest=(ar, br) if hflags & 2 else None,
        beta_pi0=(ab, bb) if hflags & 4 else None,
    )
    if not hyper.any_enabled:
        hyper = None
    return net, mixture, hyper
