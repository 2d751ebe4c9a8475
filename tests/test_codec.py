"""Sparse codec: bit IO, CSR, relative indexing, codebook, Huffman, blobs.

Expected values in the hand cases below are worked out by hand first;
round-trip properties are driven by hypothesis.
"""
import dataclasses
import hashlib
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import softshare.codec as codec
from hypothesis import strategies as st

from softshare.codec import (
    CsrMatrix,
    HuffmanTable,
    _canonical,
    _pack_bits,
    _read_fixed,
    build_codebook,
    decode_network,
    encode_layer,
    encode_network,
    from_csr,
    huffman_decode,
    huffman_encode,
    naive_rate,
    p_prun_for,
    rel_decode,
    rel_encode,
    to_csr,
)
from softshare.errors import ConfigurationError, DecodeError
from softshare.postprocess import QuantizedLayer, QuantizedNetwork


# ---------------------------------------------------------------- bit IO

def test_bit_writer_packs_msb_first():
    # 1, 101, 0110 -> 11010110 = 0xD6
    assert _pack_bits([1, 0b101, 0b0110], [1, 3, 4]) == (bytes([0xD6]), 8)


def test_bit_writer_pads_final_byte_with_zeros():
    assert _pack_bits([0b11], [2]) == (bytes([0b11000000]), 2)


def _read_fields(data, widths):
    """Consecutive fields of the given widths, read one at a time."""
    starts = np.cumsum([0] + widths[:-1])
    return [int(_read_fixed(data, s, n, 1)[0]) for s, n in zip(starts, widths)]


def test_bit_reader_inverts_writer():
    fields = [(5, 3), (0, 1), (1023, 10), (1, 2), (77, 7)]
    data, _ = _pack_bits([v for v, _ in fields], [n for _, n in fields])
    assert _read_fields(data, [n for _, n in fields]) == [v for v, _ in fields]
    with pytest.raises(DecodeError):
        _read_fixed(b"\xff", 0, 9, 1)


@given(st.lists(st.tuples(st.integers(1, 24), st.integers(0, 2**24 - 1)),
                min_size=1, max_size=50))
def test_bit_io_round_trips(fields):
    fields = [(n, v & ((1 << n) - 1)) for n, v in fields]
    data, nbits = _pack_bits([v for _, v in fields], [n for n, _ in fields])
    assert nbits == sum(n for n, _ in fields)
    assert _read_fields(data, [n for n, _ in fields]) == [v for _, v in fields]


# ------------------------------------------------------------------ CSR

def test_to_csr_hand_case():
    dense = np.array([[0.0, 5.0], [3.0, 0.0], [0.0, 0.0]])
    csr = to_csr(dense)
    np.testing.assert_array_equal(csr.a, [5.0, 3.0])
    np.testing.assert_array_equal(csr.ir, [0, 1, 2, 2])
    np.testing.assert_array_equal(csr.ic, [1, 0])
    assert csr.nnz == 2
    # dense 6 entries vs 2*2 + 4 stored
    assert naive_rate(csr) == 6 / 8
    np.testing.assert_array_equal(from_csr(csr), dense)


def test_csr_validation():
    with pytest.raises(DecodeError, match="IR length"):
        CsrMatrix(np.array([1.0]), np.array([0, 1]), np.array([0]), 2, 2)
    with pytest.raises(DecodeError, match="non-decreasing"):
        CsrMatrix(np.array([1.0]), np.array([0, 1, 0]), np.array([0]), 2, 2)
    with pytest.raises(DecodeError, match="disagrees"):
        CsrMatrix(np.array([1.0]), np.array([0, 1, 2]), np.array([0]), 2, 2)
    with pytest.raises(DecodeError, match="column range"):
        CsrMatrix(np.array([1.0, 1.0]), np.array([0, 1, 2]),
                  np.array([0, 5]), 2, 2)
    bad_order = CsrMatrix(np.array([1.0, 2.0]), np.array([0, 2]),
                          np.array([1, 0]), 1, 3)
    with pytest.raises(DecodeError, match="strictly increasing"):
        from_csr(bad_order)


@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6),
       st.floats(0.0, 1.0))
def test_csr_round_trips(rows, cols, seed, density):
    rng = np.random.default_rng(seed)
    dense = rng.choice([0.0, -0.5, 0.25, 2.0], size=(rows, cols),
                       p=[1 - density * 0.75] + [density * 0.25] * 3)
    np.testing.assert_array_equal(from_csr(to_csr(dense)), dense)


# ------------------------------------------------------- relative index

def _rel_encode_row(indices, values, p):
    """rel_encode of a single row given as lists."""
    ic = np.array(indices, dtype=np.int64)
    return rel_encode(ic, np.array(values, dtype=np.float64),
                      np.array([0, ic.size]), p)


def _entries(gaps, values):
    return list(zip(gaps.tolist(), values.tolist()))


def test_rel_encode_hand_case_with_filler():
    # p=2 means spans of 4: reaching column 5 from 0 needs one filler
    gaps, values = _rel_encode_row([0, 5], [7.0, 9.0], p=2)
    assert _entries(gaps, values) == [(0, 7.0), (3, 0.0), (0, 9.0)]
    rows, cols, kept = rel_decode(gaps, values, np.array([0, 2]), 6)
    assert (rows.tolist(), cols.tolist(), kept.tolist()) == ([0, 0], [0, 5], [7.0, 9.0])


def test_rel_encode_gap_exactly_span_needs_no_filler():
    assert _entries(*_rel_encode_row([3], [1.5], p=2)) == [(3, 1.5)]
    # one past the span does need a filler
    assert _entries(*_rel_encode_row([4], [1.5], p=2)) == [(3, 0.0), (0, 1.5)]


def test_rel_encode_rejects_bad_input():
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        _rel_encode_row([3, 3], [1.0, 1.0], p=4)
    with pytest.raises(ConfigurationError, match="bit width"):
        _rel_encode_row([0], [1.0], p=0)
    with pytest.raises(ValueError):
        _rel_encode_row([0, 1], [1.0], p=4)  # length mismatch


@given(st.integers(1, 8),
       st.sets(st.integers(0, 300), min_size=0, max_size=40),
       st.integers(0, 10**6))
def test_rel_round_trips(p, index_set, seed):
    indices = sorted(index_set)
    rng = np.random.default_rng(seed)
    values = list(rng.choice([-1.5, 0.25, 3.0], size=len(indices)))
    gaps, entry_values = _rel_encode_row(indices, values, p)
    _, got_idx, got_val = rel_decode(gaps, entry_values,
                                     np.array([0, len(indices)]), 301)
    assert got_idx.tolist() == indices
    assert got_val.tolist() == values


# -------------------------------------------------------------- codebook

def test_codebook_hand_case():
    values = np.array([0.5, -1.0, 0.5, 0.0, 3.0])
    table, idx = build_codebook(values)
    np.testing.assert_array_equal(table, [-1.0, 0.0, 0.5, 3.0])
    assert idx.dtype == np.int64
    np.testing.assert_array_equal(idx, [2, 0, 2, 1, 3])
    np.testing.assert_array_equal(table[idx], values)


# --------------------------------------------------------------- Huffman

def test_huffman_hand_case_five_two_one_one():
    # frequencies 5,2,1,1 give depths 1,2,3,3: 5+4+3+3 = 15 bits
    symbols = [0] * 5 + [1] * 2 + [2] + [3]
    table, payload, bits = huffman_encode(symbols, 4)
    np.testing.assert_array_equal(table.lengths, [1, 2, 3, 3])
    assert bits == 15
    assert len(payload) == 2
    assert huffman_decode(table, payload, len(symbols)).tolist() == symbols


def test_huffman_single_symbol_costs_one_bit():
    table, payload, bits = huffman_encode([4] * 9, 6)
    assert bits == 9
    assert table.lengths[4] == 1 and table.lengths.sum() == 1
    assert huffman_decode(table, payload, 9).tolist() == [4] * 9


def test_huffman_codes_are_prefix_free_and_canonical():
    symbols = [0] * 8 + [1] * 4 + [2] * 2 + [3] + [4]
    table, _, _ = huffman_encode(symbols, 5)
    syms, lens, cs = _canonical(table.lengths)
    codes = {s: (c, l) for s, l, c in zip(syms.tolist(), lens.tolist(), cs.tolist())}
    bitstrings = {format(c, f"0{l}b") for c, l in codes.values()}
    assert len(bitstrings) == len(codes)
    for a in bitstrings:
        for b in bitstrings:
            if a != b:
                assert not b.startswith(a)
    # canonical codes increase with (length, symbol)
    ordered = sorted(codes.items(), key=lambda kv: (kv[1][1], kv[0]))
    values = [c << (16 - l) for _, (c, l) in ordered]
    assert values == sorted(values)


def test_huffman_kraft_and_entropy_bound():
    rng = np.random.default_rng(0)
    symbols = rng.choice(8, size=500, p=[0.4, 0.2, 0.15, 0.1, 0.06, 0.04,
                                         0.03, 0.02]).tolist()
    table, _, bits = huffman_encode(symbols, 8)
    used = table.lengths[table.lengths > 0]
    assert math.isclose(float(np.sum(2.0 ** (-used.astype(float)))), 1.0)
    counts = np.bincount(symbols, minlength=8)
    freq = counts[counts > 0] / len(symbols)
    entropy = float(-(freq * np.log2(freq)).sum())
    assert entropy <= bits / len(symbols) < entropy + 1.0


def test_huffman_rejects_bad_streams():
    with pytest.raises(ConfigurationError, match="empty"):
        huffman_encode([], 4)
    with pytest.raises(ConfigurationError, match="alphabet"):
        huffman_encode([4], 4)


def test_huffman_decode_rejects_invalid_code():
    # lengths (2,2,2) leave the code 11 unassigned
    table = HuffmanTable(np.array([2, 2, 2]))
    with pytest.raises(DecodeError, match="invalid Huffman code"):
        huffman_decode(table, bytes([0b11000000]), 1)
    with pytest.raises(DecodeError, match="exhausted"):
        huffman_decode(table, b"", 1)
    with pytest.raises(DecodeError, match="empty Huffman table"):
        huffman_decode(HuffmanTable(np.zeros(3, dtype=int)), b"", 1)


@given(st.integers(2, 20), st.integers(1, 300), st.integers(0, 10**6))
def test_huffman_round_trips(alphabet, length, seed):
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, alphabet, size=length).tolist()
    table, payload, bits = huffman_encode(symbols, alphabet)
    assert huffman_decode(table, payload, length).tolist() == symbols
    assert len(payload) == (bits + 7) // 8


# ------------------------------------------------------------ layer blob

def test_p_prun_width_rule():
    assert p_prun_for(0) == 1
    assert p_prun_for(1) == 1
    assert p_prun_for(2) == 2
    assert p_prun_for(255) == 8
    assert p_prun_for(256) == 9


def _random_quantized_matrix(rng, rows, cols, density, k=5):
    table = np.concatenate([[0.0], rng.normal(0.0, 0.5, k - 1)])
    assign = rng.integers(1, k, size=(rows, cols))
    assign[rng.random((rows, cols)) > density] = 0
    return table[assign]


def test_encode_layer_round_trip_and_accounting():
    rng = np.random.default_rng(7)
    w = _random_quantized_matrix(rng, 20, 33, 0.3)
    blob, report = encode_layer(w, p=5)
    assert report.total_bits == 8 * len(blob)
    assert report.overhead_bits + report.payload_bits() == report.total_bits
    assert report.nnz == int(np.count_nonzero(w))
    assert report.n_entries >= report.nnz
    assert report.params == 20 * 33
    cur_mat = decode_network(b"SWSB" + struct.pack("<HH", 1, 1) + blob)
    np.testing.assert_array_equal(cur_mat[0], w)


def test_encode_layer_all_zero_matrix():
    blob, report = encode_layer(np.zeros((4, 6)), p=5)
    assert report.nnz == 0 and report.n_entries == 0
    mats = decode_network(b"SWSB" + struct.pack("<HH", 1, 1) + blob)
    np.testing.assert_array_equal(mats[0], np.zeros((4, 6)))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(1, 40), st.floats(0.0, 1.0),
       st.integers(0, 10**6), st.integers(1, 8))
def test_encode_decode_layer_round_trips(rows, cols, density, seed, p):
    rng = np.random.default_rng(seed)
    w = _random_quantized_matrix(rng, rows, cols, density)
    blob, report = encode_layer(w, p=p)
    mats = decode_network(b"SWSB" + struct.pack("<HH", 1, 1) + blob)
    np.testing.assert_array_equal(mats[0], w)
    assert report.total_bits == 8 * len(blob)


def _quantized_net(seed=3):
    rng = np.random.default_rng(seed)
    means = np.concatenate([[0.0], rng.normal(0.0, 0.4, 4)])
    layers = []
    for rows, cols in [(6, 10), (3, 6)]:
        a = rng.integers(0, 5, size=(rows, cols))
        a[rng.random((rows, cols)) < 0.5] = 0
        act = "relu" if cols == 10 else "softmax"
        layers.append(QuantizedLayer(a, rng.normal(0.0, 0.1, rows), act))
    return QuantizedNetwork(layers, means)


def test_encode_network_round_trip():
    q = _quantized_net()
    blob, report = encode_network(q, p_fc=5)
    mats = decode_network(blob)
    assert len(mats) == 2
    for mat, ql in zip(mats, q.layers):
        np.testing.assert_array_equal(mat, q.means[ql.assignments])
    assert report.total_bits == 8 * len(blob)
    assert report.total_params == 6 * 10 + 3 * 6
    assert report.compression_rate == 32 * report.total_params / report.total_bits
    assert report.payload_compression_rate > report.compression_rate
    d = dataclasses.asdict(report)
    assert d["layers"][0]["prune_fraction"] == q.prune_fraction(0)


def test_encode_network_refuses_a_network_decode_network_would(monkeypatch):
    # the encoder holds the decoder's cap on the total weights, so it never
    # writes a blob its own reader refuses
    q = _quantized_net()
    blob, _ = encode_network(q)
    monkeypatch.setattr(codec, "MAX_DECODED_WEIGHTS", 77)
    with pytest.raises(DecodeError, match="more than 77 weights"):
        decode_network(blob)
    with pytest.raises(ConfigurationError, match="of 78 weights: a blob may hold at most 77"):
        encode_network(q)
    monkeypatch.setattr(codec, "MAX_DECODED_WEIGHTS", 78)
    assert encode_network(q)[0] == blob
    assert len(decode_network(blob)) == 2


def test_decode_network_rejects_corruption():
    blob, _ = encode_network(_quantized_net())
    with pytest.raises(DecodeError, match="magic"):
        decode_network(b"XXXX" + blob[4:])
    with pytest.raises(DecodeError, match="version"):
        decode_network(blob[:4] + struct.pack("<HH", 9, 2) + blob[8:])
    with pytest.raises(DecodeError, match="trailing"):
        decode_network(blob + b"\x00")
    with pytest.raises(DecodeError, match="truncated"):
        decode_network(blob[:-4])
    with pytest.raises(DecodeError, match="layer tag"):
        decode_network(blob[:8] + b"\x07" + blob[9:])


@pytest.mark.parametrize("rows, pp", [(0xFFFFFFFF, 0), (1, 70)])
def test_decode_rejects_ir_width_that_does_not_match_nnz(rows, pp):
    # p_prun = 0 would loop rows + 1 times without reading a bit; p_prun =
    # 70 overflows int64. Both must fail on the header, before the IR.
    header = struct.pack("<BIIBBII", 0, rows, 4, 5, pp, 3, 3)
    blob = b"SWSB" + struct.pack("<HH", 1, 1) + header + b"\xff" * 64
    with pytest.raises(DecodeError, match="IR bit width"):
        decode_network(blob)


def test_report_stage_bit_accounting():
    rng = np.random.default_rng(1)
    w = _random_quantized_matrix(rng, 10, 17, 0.4)
    _, r = encode_layer(w, p=3)
    naive = r.stages["naive32"]
    assert naive["a"] == naive["ic"] == 32 * r.nnz
    assert naive["ir"] == 32 * 11
    assert r.stages["reduced"]["ir"] == r.p_prun * 11
    assert r.stages["relative"]["ic"] == 3 * r.n_entries
    assert r.stages["coded"]["ir"] == r.p_prun * 11
    # entropy coding must not lose to the fixed-width relative stage by
    # more than the plus-one-bit-per-symbol Huffman overhead
    assert r.stages["coded"]["ic"] <= r.stages["relative"]["ic"] + r.n_entries


# ------------------------------------------------- SWSB v1 golden bytes

def _reference_net(seed=2017):
    """784-300-100-10 at about 11%/27%/60% density, 14 shared values."""
    rng = np.random.default_rng(seed)
    means = np.concatenate([[0.0], rng.normal(0.0, 0.1, 14)])
    usage = 0.75 ** np.arange(14)
    layers = []
    sizes = (784, 300, 100, 10)
    for (n_in, n_out), density in zip(zip(sizes, sizes[1:]), (0.11, 0.27, 0.60)):
        a = 1 + rng.choice(14, size=(n_out, n_in), p=usage / usage.sum())
        a[rng.random((n_out, n_in)) >= density] = 0
        layers.append(QuantizedLayer(a, np.zeros(n_out), "softmax" if n_out == 10 else "relu"))
    return QuantizedNetwork(layers, means)


def _net_of(*assignments):
    acts = ["relu"] * (len(assignments) - 1) + ["softmax"]
    return QuantizedNetwork(
        [QuantizedLayer(np.array(a), np.zeros(len(a)), act)
         for a, act in zip(assignments, acts)],
        np.array([0.0, -0.5, 0.25, 1.5]))


# sha256 of encode_network's blob, recorded from the symbol-at-a-time codec
# that first wrote SWSB v1: (network, p_fc, digest)
GOLDEN_BLOBS = {
    "quantized_net": (
        _quantized_net, 5,
        "b38a58b31982f9ef56e3b77e113a7af813d2a2ac77d93bfd22d4dd8d234047f5"),
    "reference_net": (
        _reference_net, 5,
        "2af6656767d455ec415e77e1853d472b01dc8a361abfa3b4dada5872fc281802"),
    "all_zero": (
        lambda: _net_of(np.zeros((4, 6), dtype=int)), 5,
        "d96f1d98e583d6cdef52310adebf14088a0aa7cf163a9d171fac4e40d5d6ad84"),
    # one value and one gap symbol: both streams use a 1-bit code
    "single_symbol": (
        lambda: _net_of(np.full((3, 4), 2)), 5,
        "866b490aa8b61142e360fb64da6ee88d79499c9381561abacf1aed8002d75271"),
    # p = 1: gaps of 10 and 12 need four and five fillers in a row
    "filler_runs": (
        lambda: _net_of([[0] * 9 + [1, 0, 3], [0] * 11 + [2]]), 1,
        "7a0f0b2a9de88e200c31311846b13ee38e9ca758c2aff9e491548c72b3da6297"),
    "empty_first_last_rows": (
        lambda: _net_of([[0, 0, 0, 0, 0], [1, 0, 2, 0, 3],
                         [0, 3, 0, 0, 1], [0, 0, 0, 0, 0]]), 2,
        "b444a558c34da117146b570a99fe0e7464313de3b8abac0f292294794f062b04"),
    "p1": (
        lambda: _net_of([[1, 0, 0, 2, 0, 0, 0, 3], [0, 0, 3, 0, 0, 0, 0, 1]]), 1,
        "5b605ad06e70939af4ebbf9d286d6d0bbd85439a90d481ee79a6f09294a6892d"),
    "p16": (
        lambda: _net_of([[1, 0, 0, 2, 0, 0, 0, 3], [0, 0, 3, 0, 0, 0, 0, 1]]), 16,
        "aa1e8d92627ffd861ef51bbd8b7c614205b430c66b2c9c60d4a32f2d46b1c490"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BLOBS))
def test_swsb_v1_bytes_are_pinned(name):
    make, p, digest = GOLDEN_BLOBS[name]
    q = make()
    blob, _ = encode_network(q, p_fc=p)
    assert hashlib.sha256(blob).hexdigest() == digest
    for mat, ql in zip(decode_network(blob), q.layers):
        np.testing.assert_array_equal(mat, q.means[ql.assignments])


# ------------------------------------------ hostile Huffman code tables

def _raises_fast(fn, match):
    t0 = time.perf_counter()
    with pytest.raises(DecodeError, match=match):
        fn()
    assert time.perf_counter() - t0 < 1.0


def test_huffman_decode_rejects_over_full_table():
    # three 1-bit codes: Kraft sum 3/2
    _raises_fast(lambda: huffman_decode(HuffmanTable([1, 1, 1]), b"\x00", 1),
                 "over-full")


def test_huffman_decode_rejects_codes_longer_than_47_bits():
    lengths = np.zeros(256, dtype=int)
    lengths[:2] = (1, 255)
    _raises_fast(lambda: huffman_decode(HuffmanTable(lengths), b"\xff" * 64, 8),
                 "length 255 above 47")
    _raises_fast(lambda: huffman_decode(HuffmanTable([1, 48]), b"\xff" * 8, 1),
                 "length 48 above 47")


def test_huffman_decode_rejects_more_symbols_than_bits():
    _raises_fast(lambda: huffman_decode(HuffmanTable([1, 1]), b"\x00" * 4, 33),
                 "33 symbols in 32 bits")
    # the same through a blob whose entry count claims 2^32 - 1 entries
    blob, _ = encode_network(_quantized_net())
    n_entries_at = 8 + 1 + 4 + 4 + 1 + 1 + 4
    hostile = (blob[:n_entries_at] + struct.pack("<I", 0xFFFFFFFF)
               + blob[n_entries_at + 4:])
    _raises_fast(lambda: decode_network(hostile), "exhausted")


def test_huffman_decodes_a_47_bit_code():
    # lengths 1, 2, ..., 47, 47: complete, the last symbol's code is 47 ones
    table = HuffmanTable(list(range(1, 48)) + [47])
    syms, lens, codes = _canonical(table.lengths)
    code_of = dict(zip(syms.tolist(), zip(codes.tolist(), lens.tolist())))
    assert code_of[47] == ((1 << 47) - 1, 47)
    message = [code_of[s] for s in (47, 0, 46, 3)]
    payload, _ = _pack_bits([c for c, _ in message], [l for _, l in message])
    assert huffman_decode(table, payload, 4).tolist() == [47, 0, 46, 3]


# ------------------------------------------ the expected shapes as a decode budget

def test_decode_with_shapes_rejects_a_huge_empty_layer_before_allocating():
    # an empty layer costs no bytes per weight, so only the expected shape
    # bounds the rows * cols its header may claim
    q = _net_of(np.zeros((4, 6), dtype=int))
    blob, _ = encode_network(q)
    cols_at = 8 + 1 + 4
    hostile = blob[:cols_at] + struct.pack("<I", 0xFFFFFFFF) + blob[cols_at + 4:]
    _raises_fast(lambda: decode_network(hostile, [(4, 6)]), "shape")


def test_decode_without_shapes_caps_the_layer_size_before_allocating():
    q = _net_of(np.zeros((4, 6), dtype=int))
    blob, _ = encode_network(q)
    cols_at = 8 + 1 + 4
    hostile = blob[:cols_at] + struct.pack("<I", 0xFFFFFFFF) + blob[cols_at + 4:]
    tracemalloc.start()
    try:
        _raises_fast(lambda: decode_network(hostile), "more than")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_decode_without_shapes_caps_the_total_size_before_allocating():
    # three empty (1, 2^23) layers: each alone is under the cap, the third
    # takes the blob past it, and the 74-byte blob must not claim 192 MiB
    layer = (struct.pack("<BIIBBII", 0, 1, 1 << 23, 5, 1, 0, 0)
             + b"\x00" + struct.pack("<H", 0))
    hostile = b"SWSB" + struct.pack("<HH", 1, 3) + 3 * layer
    matrix_bytes = 8 << 23
    tracemalloc.start()
    try:
        _raises_fast(lambda: decode_network(hostile), "more than")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * matrix_bytes <= peak < 3 * matrix_bytes


def test_decode_with_shapes_checks_layer_count_and_each_shape():
    q = _quantized_net()
    blob, _ = encode_network(q)
    shapes = [ql.assignments.shape for ql in q.layers]
    for mat, ql in zip(decode_network(blob, shapes), q.layers):
        np.testing.assert_array_equal(mat, q.means[ql.assignments])
    with pytest.raises(DecodeError, match="layer count"):
        decode_network(blob, shapes[:1])
    with pytest.raises(DecodeError, match=r"\(3, 6\) where \(6, 3\)"):
        decode_network(blob, [shapes[0], (6, 3)])
