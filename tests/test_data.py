"""IDX parsing, the MNIST directory layout, and the synthetic corpus."""
import gzip
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from softshare.data import (
    _bump_dictionary,
    MNIST_FILES,
    SYNTHETIC_BLOCK,
    load_mnist,
    read_idx,
    synthetic_digits,
)
from softshare.errors import DataFormatError
from softshare.net import Batch, error_loss_and_grad, evaluate, make_network


def write_idx(path, array):
    """Write an unsigned-byte array in IDX layout (gzip if path ends .gz)."""
    a = np.ascontiguousarray(array, dtype=np.uint8)
    blob = struct.pack(f">HBB{a.ndim}I", 0, 0x08, a.ndim, *a.shape) + a.tobytes()
    path.write_bytes(gzip.compress(blob, mtime=0) if path.suffix == ".gz" else blob)


def test_idx_round_trip_rank_1_and_3(tmp_path):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, 50).astype(np.uint8)
    images = rng.integers(0, 256, (50, 7, 9)).astype(np.uint8)
    write_idx(tmp_path / "labels.idx", labels)
    write_idx(tmp_path / "images.idx", images)
    np.testing.assert_array_equal(read_idx(tmp_path / "labels.idx"), labels)
    got = read_idx(tmp_path / "images.idx")
    assert got.shape == (50, 7, 9)
    np.testing.assert_array_equal(got, images)


def test_idx_gzip_round_trip_and_fallback(tmp_path):
    data = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_idx(tmp_path / "a.idx.gz", data)
    np.testing.assert_array_equal(read_idx(tmp_path / "a.idx.gz"), data)
    # asking for the plain name finds the .gz sibling
    np.testing.assert_array_equal(read_idx(tmp_path / "a.idx"), data)
    # gz output is deterministic (no timestamp)
    write_idx(tmp_path / "b.idx.gz", data)
    assert (tmp_path / "a.idx.gz").read_bytes() == (tmp_path / "b.idx.gz").read_bytes()


def test_read_idx_detects_gzip_by_header(tmp_path):
    data = np.arange(6, dtype=np.uint8)
    write_idx(tmp_path / "x.idx", data)
    gz = gzip.compress((tmp_path / "x.idx").read_bytes())
    (tmp_path / "nosuffix").write_bytes(gz)
    np.testing.assert_array_equal(read_idx(tmp_path / "nosuffix"), data)


def test_read_idx_error_cases(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        read_idx(tmp_path / "missing.idx")

    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(DataFormatError, match="shorter than"):
        read_idx(short)

    bad_magic = tmp_path / "magic.idx"
    bad_magic.write_bytes(b"\x00\x01\x08\x01" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="bad magic"):
        read_idx(bad_magic)

    bad_dtype = tmp_path / "dtype.idx"
    bad_dtype.write_bytes(b"\x00\x00\x0d\x01" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="bad magic"):
        read_idx(bad_dtype)

    truncated_dims = tmp_path / "dims.idx"
    truncated_dims.write_bytes(b"\x00\x00\x08\x03" + b"\x00\x00\x00\x01")
    with pytest.raises(DataFormatError, match="dimension table"):
        read_idx(truncated_dims)

    wrong_body = tmp_path / "body.idx"
    wrong_body.write_bytes(b"\x00\x00\x08\x01" + (5).to_bytes(4, "big") + b"abc")
    with pytest.raises(DataFormatError, match="expected 5 data bytes"):
        read_idx(wrong_body)

    # 65536^4 = 2^64 data bytes, which wraps to 0 in 64-bit arithmetic
    huge_dims = tmp_path / "huge.idx"
    huge_dims.write_bytes(b"\x00\x00\x08\x04" + (65536).to_bytes(4, "big") * 4)
    with pytest.raises(DataFormatError, match=f"expected {2**64} data bytes"):
        read_idx(huge_dims)

    bad_gz = tmp_path / "broken.idx.gz"
    bad_gz.write_bytes(b"\x1f\x8b" + b"\x00" * 20)
    with pytest.raises(DataFormatError, match="bad gzip"):
        read_idx(bad_gz)


def test_read_idx_inflates_no_further_than_the_header_implies(tmp_path):
    # the header claims 16 data bytes; the ~64 KB stream inflates to 64 MB
    pack = zlib.compressobj(9, zlib.DEFLATED, 31)
    chunks = [pack.compress(b"\x00\x00\x08\x01" + (16).to_bytes(4, "big"))]
    chunks += [pack.compress(bytes(1 << 20)) for _ in range(64)]
    bomb = tmp_path / "bomb.idx.gz"
    bomb.write_bytes(b"".join(chunks) + pack.flush())
    assert bomb.stat().st_size < 100_000
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="expected 16 data bytes"):
            read_idx(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak / 2**20:.0f} MB"


def test_read_idx_rejects_a_truncated_gzip_stream(tmp_path):
    path = tmp_path / "truncated.idx.gz"
    write_idx(path, np.arange(200, dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-6])   # drop most of the gzip trailer
    with pytest.raises(DataFormatError, match="bad gzip stream"):
        read_idx(path)


def _write_fake_mnist(d, n_train=30, n_test=10, side=5, bad_label=False):
    rng = np.random.default_rng(1)
    sets = [("train", n_train), ("test", n_test)]
    for name, n in sets:
        images = rng.integers(0, 256, (n, side, side)).astype(np.uint8)
        labels = rng.integers(0, 10, n).astype(np.uint8)
        if bad_label:
            labels[0] = 11
        write_idx(d / MNIST_FILES[f"{name}_images"], images)
        write_idx(d / MNIST_FILES[f"{name}_labels"], labels)


def test_load_mnist_layout(tmp_path):
    _write_fake_mnist(tmp_path)
    ds = load_mnist(tmp_path, expected_counts=None)
    assert ds.train.inputs.shape == (30, 25)
    assert ds.test.inputs.shape == (10, 25)
    assert ds.train.labels.dtype == np.int64
    # the pixels are the IDX bytes themselves
    assert ds.train.inputs.dtype == np.uint8
    raw = read_idx(tmp_path / MNIST_FILES["train_images"])
    np.testing.assert_array_equal(ds.train.inputs, raw.reshape(30, -1))


def test_mnist_pixels_train_and_evaluate_as_value_over_255(tmp_path):
    # the uint8 set trains and evaluates with the bits of its float64
    # features pixel / 255.0
    _write_fake_mnist(tmp_path, n_train=300, side=28)
    ds = load_mnist(tmp_path, expected_counts=None)
    raw = read_idx(tmp_path / MNIST_FILES["train_images"])
    floats = Batch(raw.reshape(300, -1) / 255.0, ds.train.labels)
    net = make_network((784, 12, 10), seed=3)
    loss, dw, db = error_loss_and_grad(net, ds.train)
    want_loss, want_dw, want_db = error_loss_and_grad(net, floats)
    assert loss == want_loss
    assert np.array_equal(dw, want_dw) and np.array_equal(db, want_db)
    assert evaluate(net, ds.train) == evaluate(net, floats)


def test_load_mnist_enforces_official_counts(tmp_path):
    _write_fake_mnist(tmp_path)
    with pytest.raises(DataFormatError, match="expected 60000/10000"):
        load_mnist(tmp_path)


def _write_zero_idx_gz(path, dims):
    """A gzip IDX file of zero bytes, compressed a megabyte at a time."""
    pack = zlib.compressobj(9, zlib.DEFLATED, 31)
    chunks = [pack.compress(b"\x00\x00\x08" + bytes([len(dims)])
                            + b"".join(d.to_bytes(4, "big") for d in dims))]
    left = int(np.prod(dims))
    while left:
        chunks.append(pack.compress(bytes(min(left, 1 << 20))))
        left -= min(left, 1 << 20)
    path.write_bytes(b"".join(chunks) + pack.flush())


def test_load_mnist_checks_official_sizes_before_inflating(tmp_path):
    # a well-formed set whose train images claim 60001 images: 47 MB of body
    # that need not be inflated to see the wrong count
    for key, dims in (("train_images", (60001, 28, 28)), ("train_labels", (60000,)),
                      ("test_images", (10000, 28, 28)), ("test_labels", (10000,))):
        _write_zero_idx_gz(tmp_path / (MNIST_FILES[key] + ".gz"), dims)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="expected 60000/10000"):
            load_mnist(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 4 << 20, f"peak {peak / 2**20:.0f} MB"


def test_load_mnist_rejects_bad_labels(tmp_path):
    _write_fake_mnist(tmp_path, bad_label=True)
    with pytest.raises(DataFormatError, match="label outside"):
        load_mnist(tmp_path, expected_counts=None)


@pytest.mark.parametrize("n_train, n_test", [(0, 10), (30, 0)])
def test_load_mnist_rejects_a_set_with_zero_items(tmp_path, n_train, n_test):
    _write_fake_mnist(tmp_path, n_train=n_train, n_test=n_test)
    with pytest.raises(DataFormatError, match="no images"):
        load_mnist(tmp_path, expected_counts=None)


def test_synthetic_corpus_shapes_and_ranges():
    ds = synthetic_digits(n_train=64, n_test=16, seed=3)
    assert ds.train.inputs.shape == (64, 784)
    assert ds.test.inputs.shape == (16, 784)
    assert ds.train.labels.min() >= 0 and ds.train.labels.max() <= 9
    assert ds.train.inputs.dtype == np.uint8   # 8-bit grayscale, as MNIST
    # the dead border stays exactly zero, like centered digit data
    images = ds.train.inputs.reshape(64, 28, 28)
    assert np.all(images[:, :2, :] == 0.0)
    assert np.all(images[:, -2:, :] == 0.0)
    assert np.all(images[:, :, :2] == 0.0)
    assert np.all(images[:, :, -2:] == 0.0)
    # all ten classes appear in a reasonable draw
    assert len(np.unique(ds.train.labels)) == 10


def test_synthetic_corpus_is_deterministic():
    a = synthetic_digits(n_train=32, n_test=8, seed=7)
    b = synthetic_digits(n_train=32, n_test=8, seed=7)
    np.testing.assert_array_equal(a.train.inputs, b.train.inputs)
    np.testing.assert_array_equal(a.train.labels, b.train.labels)
    np.testing.assert_array_equal(a.test.inputs, b.test.inputs)
    c = synthetic_digits(n_train=32, n_test=8, seed=8)
    assert not np.array_equal(a.train.inputs, c.train.inputs)


def test_synthetic_train_and_test_are_distinct_draws():
    ds = synthetic_digits(n_train=16, n_test=16, seed=0)
    assert not np.array_equal(ds.train.inputs, ds.test.inputs)


def _per_image_shift_corpus(n_train, n_test, seed, noise=0.055,
                            pixel_noise=0.10):
    """synthetic_digits with its one-pixel shifts applied one image at a time."""
    rng = np.random.default_rng(seed)
    bumps = _bump_dictionary(rng, 28, 3, 16)
    own = rng.uniform(0.0, 1.0, (10, 16))
    coeffs = own / own.sum(axis=1, keepdims=True) * 3.0

    def draw(n):
        labels = rng.integers(0, 10, size=n)
        a = coeffs[labels] + rng.normal(0.0, noise, (n, 16))
        images = np.einsum("nm,mhw->nhw", a, bumps)
        shifts = rng.integers(-1, 2, size=(n, 2))
        for i in range(n):
            images[i] = np.roll(images[i], tuple(shifts[i]), axis=(0, 1))
        images += rng.normal(0.0, pixel_noise, size=images.shape)
        np.clip(images, 0.0, 1.0, out=images)
        for edge in (np.s_[:, :2, :], np.s_[:, -2:, :],
                     np.s_[:, :, :2], np.s_[:, :, -2:]):
            images[edge] = 0.0
        return images.reshape(n, -1), labels

    return draw(n_train), draw(n_test)


def test_grouped_shifts_match_the_per_image_loop():
    ds = synthetic_digits(n_train=300, n_test=90, seed=11)
    (train_x, train_y), (test_x, test_y) = _per_image_shift_corpus(300, 90, 11)
    assert np.array_equal(ds.train.inputs, np.rint(255 * train_x))
    assert np.array_equal(ds.train.labels, train_y)
    assert np.array_equal(ds.test.inputs, np.rint(255 * test_x))
    assert np.array_equal(ds.test.labels, test_y)


@pytest.mark.parametrize("n", [1, 64, 129, SYNTHETIC_BLOCK - 1, SYNTHETIC_BLOCK + 1])
def test_blockwise_noise_matches_the_whole_array_draw_at_block_edges(n):
    ds = synthetic_digits(n_train=n, n_test=n, seed=5)
    (train_x, train_y), (test_x, test_y) = _per_image_shift_corpus(n, n, 5)
    assert np.array_equal(ds.train.inputs, np.rint(255 * train_x))
    assert np.array_equal(ds.train.labels, train_y)
    assert np.array_equal(ds.test.inputs, np.rint(255 * test_x))
    assert np.array_equal(ds.test.labels, test_y)


def test_synthetic_corpus_peaks_under_4_mb_above_its_arrays():
    tracemalloc.start()
    try:
        ds = synthetic_digits(n_train=2000, n_test=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (ds.train.inputs, ds.train.labels,
                                  ds.test.inputs, ds.test.labels))
    assert peak - kept < 4 << 20, f"{(peak - kept) / 2**20:.1f} MiB above the arrays"
