"""Dataset loading: IDX files (MNIST layout) and a synthetic fallback corpus.

IDX is big-endian: a 4-byte magic (two zero bytes, a dtype code, a
dimension count), one u32 per dimension, then raw data. Only the unsigned
byte dtype (code 0x08) is supported, which covers the MNIST image and
label files. Files may be gzip-compressed (detected by suffix or header);
they are inflated only as far as their IDX header implies, plus one byte to
detect excess data, so a small file that inflates to gigabytes costs no
more memory than its header claims. load_mnist checks the official sizes
on the headers alone, before any body is inflated.

Both corpora hold their pixels as 8-bit grayscale, one uint8 per pixel:
MNIST keeps its IDX bytes, and the network reads a pixel p as p / 255.0
(net.Batch). That is an eighth of the memory of float64 features.

The synthetic corpus mimics the MNIST geometry (28x28 grayscale with a dead
border, ten classes) so pipeline behavior carries over. Images are weighted
sums of a shared dictionary of smooth bumps; each class is a coefficient
profile over that dictionary. Per-sample coefficient noise makes classes
genuinely overlap (irreducible error tracks the noise scale), and one-pixel
shifts plus pixel noise add texture. Each image is made in float64 in [0, 1]
and stored as np.rint(255 * x).
"""

from __future__ import annotations

import math
import queue
import struct
import sys
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .net import Batch

IDX_UBYTE = 0x08

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
MNIST_COUNTS = (60000, 10000)
MNIST_SIDE = 28

# Images per block of synthetic_digits. Its float64 working memory is two
# noise buffers of this many images, whatever the size of the corpus: a worker
# thread draws the next block's noise into one while the calling thread makes
# the images of the other (see synthetic_digits). The two hold as much as one
# block of 256 images.
SYNTHETIC_BLOCK = 128
# The synthetic corpus: classes, bumps in the shared dictionary, and the
# standard deviations of the per-sample coefficient noise and of the
# per-pixel noise; its images are MNIST_SIDE wide. The coefficient noise sets
# the irreducible class overlap: a well-trained 784-300-100-10 network lands
# near 1.5 percent test error.
SYNTHETIC_CLASSES = 10
SYNTHETIC_BUMPS = 16
COEFFICIENT_NOISE = 0.055
PIXEL_NOISE = 0.10


@dataclass
class MnistDataset:
    train: Batch
    test: Batch


def _idx_size(head: bytes, header_only: bool = False) -> int:
    """Size of the IDX file that starts with head, as far as head shows: the
    magic, then the dimension table, then (unless header_only) the data.
    Capped so that one more byte still fits zlib's max_length."""
    if len(head) < 4:
        return 4
    end = 4 + 4 * head[3]
    if len(head) < end or header_only:
        return end
    return min(end + math.prod(struct.unpack(f">{head[3]}I", head[4:end])),
               sys.maxsize - 1)


def _read_raw(path: Path, header_only: bool = False) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".gz" and data[:2] != b"\x1f\x8b":
        return data
    inflate, out = zlib.decompressobj(wbits=31), b""
    try:
        while data and len(out) <= _idx_size(out, header_only):
            if inflate.eof:   # the next gzip member
                inflate = zlib.decompressobj(wbits=31)
            out += inflate.decompress(data, _idx_size(out, header_only) + 1 - len(out))
            data = inflate.unused_data if inflate.eof else inflate.unconsumed_tail
    except zlib.error as e:
        raise DataFormatError(f"{path}: bad gzip stream ({e})") from e
    if len(out) <= _idx_size(out, header_only) and not inflate.eof:
        raise DataFormatError(f"{path}: bad gzip stream (truncated)")
    return out


def _locate(path) -> Path:
    """path, or its .gz sibling when only that exists."""
    path = Path(path)
    if path.exists():
        return path
    gz = path.with_name(path.name + ".gz")
    if gz.exists():
        return gz
    raise DataFormatError(f"{path}: file not found")


def _parse_header(path: Path, data: bytes) -> tuple[int, ...]:
    """The dimensions that the IDX header at the start of data claims."""
    if len(data) < 4:
        raise DataFormatError(f"{path}: shorter than an IDX header")
    zero, dtype, ndim = struct.unpack(">HBB", data[:4])
    if zero != 0 or dtype != IDX_UBYTE:
        raise DataFormatError(f"{path}: bad magic {data[:4].hex()}")
    if ndim < 1 or len(data) < 4 + 4 * ndim:
        raise DataFormatError(f"{path}: truncated dimension table")
    return struct.unpack(f">{ndim}I", data[4:4 + 4 * ndim])


def _idx_dims(path) -> tuple[int, ...]:
    """The dimensions an IDX file's header claims; a gzip file is inflated
    only as far as its header."""
    path = _locate(path)
    return _parse_header(path, _read_raw(path, header_only=True))


def read_idx(path) -> np.ndarray:
    """Parse one IDX file into an array of unsigned bytes."""
    path = _locate(path)
    data = _read_raw(path)
    dims = _parse_header(path, data)
    n = math.prod(dims)
    body = data[4 + 4 * len(dims):]
    if len(body) != n:   # a gzip body is cut one byte past n
        raise DataFormatError(f"{path}: expected {n} data bytes, found "
                              f"{'more' if len(body) > n else len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(dims).copy()


def _to_batch(images: np.ndarray, labels: np.ndarray, name: str) -> Batch:
    if images.ndim != 3:
        raise DataFormatError(f"{name}: images must have 3 dimensions")
    if images.shape[0] == 0:
        raise DataFormatError(f"{name}: no images")
    if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
        raise DataFormatError(f"{name}: label count disagrees with image count")
    if labels.max(initial=0) > 9:
        raise DataFormatError(f"{name}: label outside [0, 9]")
    return Batch(images.reshape(images.shape[0], -1), labels.astype(np.int64))


def load_mnist(data_dir, expected_counts=MNIST_COUNTS) -> MnistDataset:
    """Load the four IDX files from data_dir; the images stay uint8 pixels.

    expected_counts=(train, test) enforces the official sizes, (N, 28, 28)
    images and (N,) labels, on the file headers before any body is read;
    pass None to accept any consistent IDX image/label pairs in the same
    file layout.
    """
    d = Path(data_dir)
    paths = {key: d / name for key, name in MNIST_FILES.items()}
    if expected_counts is not None:
        want_train, want_test = expected_counts
        want = {"train_images": (want_train, MNIST_SIDE, MNIST_SIDE),
                "train_labels": (want_train,),
                "test_images": (want_test, MNIST_SIDE, MNIST_SIDE),
                "test_labels": (want_test,)}
        found = {key: _idx_dims(path) for key, path in paths.items()}
        if found != want:
            raise DataFormatError(
                f"{d}: expected {want_train}/{want_test} items of "
                f"{MNIST_SIDE}x{MNIST_SIDE} pixels, found "
                + ", ".join(f"{key} {found[key]}" for key in MNIST_FILES))
    raw = {key: read_idx(path) for key, path in paths.items()}
    return MnistDataset(
        train=_to_batch(raw["train_images"], raw["train_labels"], "train set"),
        test=_to_batch(raw["test_images"], raw["test_labels"], "test set"),
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


def synthetic_digits(n_train: int = 8000, n_test: int = 2000,
                     seed: int = 0) -> MnistDataset:
    """Deterministic image-classification corpus with MNIST geometry.

    The images are made SYNTHETIC_BLOCK at a time in float64, then stored as
    uint8 pixels np.rint(255 * x), so the generator's peak memory is the
    arrays it returns plus two noise buffers and the temporaries of a block.
    No image is rolled: a one-pixel shift of a sum of bumps is, pixel for
    pixel, the same sum of the shifted bumps, so each shift group of a block
    is summed against one of nine rolled copies of the dictionary.

    The pixel noise is drawn one block ahead: a worker thread fills the next
    block's noise buffer while the calling thread adds the bump sums into this
    one, clips, zeroes the border and rounds it (numpy releases the
    interpreter lock while it draws). The worker ends with the call, also when
    the block arithmetic raises, after the draw in flight. The calling thread
    allocates the two buffers once and the worker only fills them, because
    arrays allocated on the worker would come from a second glibc malloc
    arena and raise the process's peak resident memory. The worker is a plain
    thread fed through a queue, not a ThreadPoolExecutor: on a 2-core Xeon,
    importing concurrent.futures (which imports logging) took 5 ms and
    raised the peak resident memory of a perfbench pretrain run by 0.6 MB.

    The bytes are those of one normal(0, PIXEL_NOISE) call over all images.
    The calling thread draws the labels, coefficients and shifts only while
    no noise draw is in flight, so the stream order stays: labels,
    coefficients and shifts, then the noise block by block, train before
    test. standard_normal scaled in place gives z * s where normal gives
    0.0 + s * z; the two differ only in the sign of a zero, which the bump
    sum, the clip and the rint turn into the same pixel 0.
    """
    if n_train < 1 or n_test < 1:
        raise ConfigurationError(f"synthetic_digits needs n_train >= 1 and n_test >= 1, "
                                 f"got {n_train} and {n_test}")
    rng = np.random.default_rng(seed)
    side, n_classes, n_bumps = MNIST_SIDE, SYNTHETIC_CLASSES, SYNTHETIC_BUMPS
    margin = 3
    bumps = _bump_dictionary(rng, side, margin, n_bumps)
    rolled = {(dy, dx): np.roll(bumps, (dy, dx), axis=(1, 2))
              for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
    own = rng.uniform(0.0, 1.0, (n_classes, n_bumps))
    coeffs = own / own.sum(axis=1, keepdims=True) * 3.0
    border = margin - 1
    noise = (np.empty((SYNTHETIC_BLOCK, side, side)),
             np.empty((SYNTHETIC_BLOCK, side, side)))

    # the worker fills each buffer put on jobs and puts it on done, or puts
    # the exception that stopped it there, for the calling thread to raise
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()

    def fill() -> None:
        while (block := jobs.get()) is not None:
            try:
                rng.standard_normal(out=block)
                block *= PIXEL_NOISE
            except Exception as e:
                block = e
            done.put(block)

    def filled() -> np.ndarray:
        block = done.get()
        if isinstance(block, Exception):
            raise block
        return block

    def draw(n: int) -> Batch:
        labels = rng.integers(0, n_classes, size=n)
        a = coeffs[labels] + rng.normal(0.0, COEFFICIENT_NOISE, (n, n_bumps))
        shifts = rng.integers(-1, 2, size=(n, 2))
        pixels = np.empty((n, side, side), dtype=np.uint8)
        jobs.put(noise[0][:min(SYNTHETIC_BLOCK, n)])
        for k, start in enumerate(range(0, n, SYNTHETIC_BLOCK)):
            stop = min(start + SYNTHETIC_BLOCK, n)
            block = filled()
            if stop < n:   # the next block's noise, into the other buffer
                jobs.put(noise[(k + 1) % 2][:min(SYNTHETIC_BLOCK, n - stop)])
            # each shift group's sum of bumps added into the pixel noise
            for (dy, dx), dictionary in rolled.items():
                group = np.flatnonzero((shifts[start:stop, 0] == dy)
                                       & (shifts[start:stop, 1] == dx))
                block[group] += np.einsum("nm,mhw->nhw", a[start + group], dictionary)
            np.clip(block, 0.0, 1.0, out=block)
            block[:, :border, :] = 0.0
            block[:, -border:, :] = 0.0
            block[:, :, :border] = 0.0
            block[:, :, -border:] = 0.0
            block *= 255
            pixels[start:stop] = np.rint(block, out=block)
        return Batch(pixels.reshape(n, -1), labels.astype(np.int64))

    worker = threading.Thread(target=fill)
    worker.start()
    try:
        return MnistDataset(train=draw(n_train), test=draw(n_test))
    finally:
        jobs.put(None)
        worker.join()
