"""Dataset loading: IDX files (MNIST layout) and a synthetic fallback corpus.

IDX is big-endian: a 4-byte magic (two zero bytes, a dtype code, a
dimension count), one u32 per dimension, then raw data. Only the unsigned
byte dtype (code 0x08) is supported, which covers the MNIST image and
label files. Files may be gzip-compressed (detected by suffix or header);
they are inflated only as far as their IDX header implies, plus one byte to
detect excess data, so a small file that inflates to gigabytes costs no
more memory than its header claims.

The synthetic corpus mimics the MNIST geometry (28x28 grayscale in [0,1]
with a dead border, ten classes) so pipeline behavior carries over. Images
are weighted sums of a shared dictionary of smooth bumps; each class is a
coefficient profile over that dictionary. Per-sample coefficient noise
makes classes genuinely overlap (irreducible error tracks the noise
scale), and one-pixel shifts plus pixel noise add texture.
"""

from __future__ import annotations

import gzip
import math
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_file
from .errors import DataFormatError
from .net import Batch

IDX_UBYTE = 0x08

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
MNIST_COUNTS = (60000, 10000)


@dataclass
class MnistDataset:
    train: Batch
    test: Batch


def _idx_size(head: bytes) -> int:
    """Size of the IDX file that starts with head, as far as head shows: the
    magic, then the dimension table, then the data. Capped so that one more
    byte still fits zlib's max_length."""
    if len(head) < 4:
        return 4
    end = 4 + 4 * head[3]
    if len(head) < end:
        return end
    return min(end + math.prod(struct.unpack(f">{head[3]}I", head[4:end])),
               sys.maxsize - 1)


def _read_raw(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".gz" and data[:2] != b"\x1f\x8b":
        return data
    inflate, out = zlib.decompressobj(wbits=31), b""
    try:
        while data and len(out) <= _idx_size(out):
            if inflate.eof:   # the next gzip member
                inflate = zlib.decompressobj(wbits=31)
            out += inflate.decompress(data, _idx_size(out) + 1 - len(out))
            data = inflate.unused_data if inflate.eof else inflate.unconsumed_tail
    except zlib.error as e:
        raise DataFormatError(f"{path}: bad gzip stream ({e})") from e
    if len(out) <= _idx_size(out) and not inflate.eof:
        raise DataFormatError(f"{path}: bad gzip stream (truncated)")
    return out


def read_idx(path) -> np.ndarray:
    """Parse one IDX file into an array of unsigned bytes."""
    path = Path(path)
    if not path.exists():
        gz = path.with_name(path.name + ".gz")
        if gz.exists():
            path = gz
        else:
            raise DataFormatError(f"{path}: file not found")
    data = _read_raw(path)
    if len(data) < 4:
        raise DataFormatError(f"{path}: shorter than an IDX header")
    zero, dtype, ndim = struct.unpack(">HBB", data[:4])
    if zero != 0 or dtype != IDX_UBYTE:
        raise DataFormatError(f"{path}: bad magic {data[:4].hex()}")
    if ndim < 1 or len(data) < 4 + 4 * ndim:
        raise DataFormatError(f"{path}: truncated dimension table")
    dims = struct.unpack(f">{ndim}I", data[4:4 + 4 * ndim])
    n = math.prod(dims)
    body = data[4 + 4 * ndim:]
    if len(body) != n:   # a gzip body is cut one byte past n
        raise DataFormatError(f"{path}: expected {n} data bytes, found "
                              f"{'more' if len(body) > n else len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(dims).copy()


def write_idx(path, array: np.ndarray) -> None:
    """Write an unsigned-byte array in IDX layout (gzip if path ends .gz)."""
    a = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(">HBB", 0, IDX_UBYTE, a.ndim)
    header += struct.pack(f">{a.ndim}I", *a.shape)
    blob = header + a.tobytes()
    write_file(path, gzip.compress(blob, mtime=0) if Path(path).suffix == ".gz" else blob)


def _to_batch(images: np.ndarray, labels: np.ndarray, name: str) -> Batch:
    if images.ndim != 3:
        raise DataFormatError(f"{name}: images must have 3 dimensions")
    if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
        raise DataFormatError(f"{name}: label count disagrees with image count")
    if labels.max(initial=0) > 9:
        raise DataFormatError(f"{name}: label outside [0, 9]")
    n = images.shape[0]
    return Batch(images.reshape(n, -1).astype(np.float64) / 255.0,
                 labels.astype(np.int64))


def load_mnist(data_dir, expected_counts=MNIST_COUNTS) -> MnistDataset:
    """Load the four IDX files from data_dir.

    expected_counts=(train, test) enforces the official sizes; pass None to
    accept any consistent IDX image/label pairs in the same file layout.
    """
    d = Path(data_dir)
    train_images = read_idx(d / MNIST_FILES["train_images"])
    train_labels = read_idx(d / MNIST_FILES["train_labels"])
    test_images = read_idx(d / MNIST_FILES["test_images"])
    test_labels = read_idx(d / MNIST_FILES["test_labels"])
    if expected_counts is not None:
        want_train, want_test = expected_counts
        if train_images.shape[0] != want_train or test_images.shape[0] != want_test:
            raise DataFormatError(
                f"{d}: expected {want_train}/{want_test} items, found "
                f"{train_images.shape[0]}/{test_images.shape[0]}")
    return MnistDataset(
        train=_to_batch(train_images, train_labels, "train set"),
        test=_to_batch(test_images, test_labels, "test set"),
    )


def _bump_dictionary(rng: np.random.Generator, side: int, margin: int,
                     n_bumps: int) -> np.ndarray:
    """Shared dictionary of smooth Gaussian bumps inside the active region."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    lo, hi = margin + 1, side - margin - 1
    bumps = np.zeros((n_bumps, side, side))
    for m in range(n_bumps):
        cy, cx = rng.uniform(lo, hi, size=2)
        sy, sx = rng.uniform(1.5, 3.5, size=2)
        bumps[m] = np.exp(-((yy - cy) ** 2 / (2 * sy ** 2)
                            + (xx - cx) ** 2 / (2 * sx ** 2)))
    return bumps


def synthetic_digits(n_train: int = 8000, n_test: int = 2000, seed: int = 0,
                     noise: float = 0.055, side: int = 28,
                     n_classes: int = 10, n_bumps: int = 16,
                     pixel_noise: float = 0.10) -> MnistDataset:
    """Deterministic image-classification corpus with MNIST geometry.

    noise is the per-sample coefficient noise; it sets the irreducible
    class overlap. The default lands a well-trained 784-300-100-10 network
    near 1.5 percent test error.
    """
    rng = np.random.default_rng(seed)
    margin = 3
    bumps = _bump_dictionary(rng, side, margin, n_bumps)
    own = rng.uniform(0.0, 1.0, (n_classes, n_bumps))
    coeffs = own / own.sum(axis=1, keepdims=True) * 3.0

    def draw(n: int) -> Batch:
        labels = rng.integers(0, n_classes, size=n)
        a = coeffs[labels] + rng.normal(0.0, noise, (n, n_bumps))
        images = np.einsum("nm,mhw->nhw", a, bumps)
        shifts = rng.integers(-1, 2, size=(n, 2))
        # one roll per distinct shift and block of at most 64 images; small
        # blocks keep the peak memory of rolling image by image
        for dy, dx in np.unique(shifts, axis=0):
            group = np.flatnonzero((shifts[:, 0] == dy) & (shifts[:, 1] == dx))
            for block in np.split(group, range(64, group.size, 64)):
                images[block] = np.roll(images[block], (dy, dx), axis=(1, 2))
        images += rng.normal(0.0, pixel_noise, size=images.shape)
        np.clip(images, 0.0, 1.0, out=images)
        border = margin - 1
        images[:, :border, :] = 0.0
        images[:, -border:, :] = 0.0
        images[:, :, :border] = 0.0
        images[:, :, -border:] = 0.0
        return Batch(images.reshape(n, -1), labels.astype(np.int64))

    return MnistDataset(train=draw(n_train), test=draw(n_test))
