"""Hostile input to the file readers: truncated and bit-flipped files.

Each reader gets small valid SWSB (with and without the expected shapes),
SWSC and SWSQ files, and IDX image and label files (plain and gzip), cut
short or with a few bits flipped. A reader may accept the result or raise
from the DataFormatError family, nothing else, and each call ends within a
second.
"""
import gzip
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softshare.checkpoint import load_checkpoint, save_checkpoint
from softshare.codec import decode_network, encode_network
from softshare.data import MNIST_FILES, MNIST_SIDE, load_mnist, read_idx
from softshare.errors import DataFormatError
from softshare.mixture import HyperPriorConfig, init_mixture
from softshare.net import make_network
from softshare.postprocess import QuantizedLayer, QuantizedNetwork, load_quantized, \
    save_quantized

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _quantized():
    rng = np.random.default_rng(0)
    layers = []
    for rows, cols, act in [(6, 10, "relu"), (3, 6, "softmax")]:
        a = rng.integers(0, 5, size=(rows, cols))
        a[rng.random((rows, cols)) < 0.5] = 0
        layers.append(QuantizedLayer(a, rng.normal(0.0, 0.1, rows), act))
    return QuantizedNetwork(layers, np.concatenate([[0.0], rng.normal(0.0, 0.4, 4)]))


def _valid_files():
    """Small valid SWSB, SWSQ and SWSC files, as bytes."""
    q = _quantized()
    net = make_network((6, 4, 3), seed=0)
    mixture = init_mixture(net.weights, n_free=3, pi0=0.9, weight_decay=0.0,
                           tau=1e-3, pi0_trainable=True)
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        save_quantized(q, tmp / "valid.swsq")
        save_checkpoint(net, tmp / "valid.swsc", mixture,
                        HyperPriorConfig(gamma_zero=(2.0, 1.0), beta_pi0=(3.0, 2.0)))
        return {"swsb": encode_network(q)[0], "swsq": (tmp / "valid.swsq").read_bytes(),
                "swsc": (tmp / "valid.swsc").read_bytes()}


VALID = _valid_files()
SHAPES = [(6, 10), (3, 6)]


def _idx(a):
    return struct.pack(f">HBB{a.ndim}I", 0, 0x08, a.ndim, *a.shape) + a.tobytes()


def _valid_mnist(counts):
    """The four IDX files of a small MNIST-layout set, as bytes by key."""
    rng = np.random.default_rng(0)
    out = {}
    for split, n in zip(("train", "test"), counts):
        out[f"{split}_images"] = _idx(rng.integers(0, 256, (n, MNIST_SIDE, MNIST_SIDE),
                                                   dtype=np.uint8))
        out[f"{split}_labels"] = _idx(rng.integers(0, 10, n, dtype=np.uint8))
    return out


IDX_COUNTS = (8, 4)
VALID_IDX = _valid_mnist(IDX_COUNTS)


def _in_form(blob, gz):
    return gzip.compress(blob, mtime=0) if gz else blob


def _corrupted(blob):
    """A prefix of blob, or blob with one to four bits flipped."""
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)),
                     min_size=1, max_size=4)

    def flip(positions):
        out = bytearray(blob)
        for pos, bit in positions:
            out[pos] ^= 1 << bit
        return bytes(out)

    return st.one_of(st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
                     flips.map(flip))


def _accepts_or_rejects_fast(read):
    t0 = time.perf_counter()
    try:
        read()
    except DataFormatError:
        pass
    assert time.perf_counter() - t0 < 1.0


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=_corrupted(VALID["swsb"]), with_shapes=st.booleans())
def test_swsb_reader_raises_only_data_format_errors(data, with_shapes):
    _accepts_or_rejects_fast(lambda: decode_network(data, SHAPES if with_shapes else None))


@FUZZ
@given(data=_corrupted(VALID["swsc"]))
def test_swsc_reader_raises_only_data_format_errors(tmp, data):
    path = tmp / "fuzzed.swsc"
    path.write_bytes(data)
    _accepts_or_rejects_fast(lambda: load_checkpoint(path))


@FUZZ
@given(data=_corrupted(VALID["swsq"]))
def test_swsq_reader_raises_only_data_format_errors(tmp, data):
    path = tmp / "fuzzed.swsq"
    path.write_bytes(data)
    _accepts_or_rejects_fast(lambda: load_quantized(path))


def _corrupted_idx():
    """(key, gz, bytes): one IDX file of VALID_IDX, plain or gzip, corrupted."""
    return st.tuples(st.sampled_from(sorted(VALID_IDX)), st.booleans()).flatmap(
        lambda kg: st.tuples(st.just(kg[0]), st.just(kg[1]),
                             _corrupted(_in_form(VALID_IDX[kg[0]], kg[1]))))


@FUZZ
@given(case=_corrupted_idx())
def test_idx_reader_raises_only_data_format_errors(tmp, case):
    _, gz, data = case
    path = tmp / ("fuzzed.idx.gz" if gz else "fuzzed.idx")
    path.write_bytes(data)
    _accepts_or_rejects_fast(lambda: read_idx(path))


@FUZZ
@given(case=_corrupted_idx(), expected_counts=st.sampled_from([None, IDX_COUNTS]))
def test_mnist_loader_raises_only_data_format_errors(tmp, case, expected_counts):
    key, gz, data = case
    d = tmp / ("mnist_gz" if gz else "mnist")
    d.mkdir(exist_ok=True)
    for k, blob in VALID_IDX.items():
        name = MNIST_FILES[k] + (".gz" if gz else "")
        (d / name).write_bytes(data if k == key else _in_form(blob, gz))
    _accepts_or_rejects_fast(lambda: load_mnist(d, expected_counts))
