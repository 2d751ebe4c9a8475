"""Bit-exact sparse storage for quantized weight matrices.

Encoding stages per layer, each a function over whole arrays with an exact
inverse:

1. CSR, `to_csr`/`from_csr`: row-major nonzero values A (float64),
   cumulative row counts IR (int64, length rows+1), column indices IC
   (int64).
2. Width reduction: IR entries fit in p_prun bits, the smallest width with
   nnz < 2^p_prun (`p_prun_for`); `_pack_bits`/`_read_fixed` write and read
   such fixed-width fields.
3. Relative indexing, `rel_encode(ic, a, ir, p) -> (gaps, values)` and
   `rel_decode(gaps, values, ir, cols) -> (rows, cols, values)`: per row,
   IC becomes gaps between consecutive nonzero columns (previous column
   starts at -1). A gap g is stored as g-1 in p bits; while g exceeds 2^p a
   filler entry (stored gap 2^p - 1, value 0) advances the cursor by 2^p.
   Fillers are recognized on decode by their zero value, so A itself gains
   zero entries. gaps are int64, values float64, one per entry.
4. Codebook, `build_codebook(values) -> (table, idx)`: the value stream
   (fillers included) is mapped to int64 indices into a sorted float64
   table of its distinct values.
5. Huffman, `huffman_encode(symbols, alphabet_size) -> (table, payload,
   bits)` and `huffman_decode(table, payload, count) -> symbols`:
   canonical prefix codes over the gap symbols and over the codebook
   indices, built from stream frequencies; symbols are int64 arrays.

The blob container (magic "SWSB") stores, per layer: a fixed header, IR
bit-packed at p_prun, the codebook, both canonical code-length tables, and
the two bit-packed payloads, everything little-endian and byte-padded per
section. The compression report tallies exact bit counts per stage; its
total equals the blob length times 8.

Huffman decoding is table-driven (Moffat & Turpin 1997): the L-bit window
at every bit position of a payload (L the longest code) gets its code length
from a searchsorted on the canonical per-length limits, the symbol starts
are the chain of next-code positions from bit 0 (64 at a time), and no 2^L
table is built, so decode memory is linear in the payload bits plus the
alphabet. The decoder first rejects code lengths above 47 (a length-L code
needs Fibonacci(L + 2) symbols, above every u32 entry count for L > 47),
over-full length tables (Kraft sum above 1) and streams claiming more
symbols than payload bits.

Compression rate baseline is 32 bits per dense weight: deployment storage
is float32 even though compute here is float64.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checkpoint import _Cursor
from .errors import ConfigurationError, DecodeError
from .postprocess import QuantizedNetwork

SWSB_MAGIC = b"SWSB"
SWSB_VERSION = 1

LAYER_TAG_FC = 0
LAYER_TAG_CONV = 1

DENSE_BITS_PER_WEIGHT = 32

MAX_CODE_LENGTH = 47   # longest Huffman code a decoder accepts
MAX_FIELD_BITS = 57    # widest field read: 64 bits from the byte it starts in
# Most weights a decoded blob may hold over all its layers: an empty layer
# costs no blob bytes per weight, so this caps the matrices headers alone can
# make the decoder allocate (128 MiB of float64). LeNet-300-100 has 266,200.
MAX_DECODED_WEIGHTS = 1 << 24

# Per-layer fixed header: tag u8, rows u32, cols u32, p u8, p_prun u8,
# nnz u32, n_entries u32.
_LAYER_HEADER = "<BIIBBII"


def _pack_bits(values, widths) -> tuple[bytes, int]:
    """Each value in its width of bits, MSB-first and back to back; the
    last byte is zero-padded. Returns the bytes and the exact bit count."""
    widths = np.asarray(widths, dtype=np.int64)
    ends = np.cumsum(widths)        # bit offset after each value
    nbits = int(ends[-1]) if ends.size else 0
    shift = (np.repeat(ends, widths) - np.arange(1, nbits + 1)).astype(np.uint64)
    bits = np.repeat(np.asarray(values, dtype=np.uint64), widths) >> shift
    return np.packbits((bits & np.uint64(1)).astype(np.uint8)).tobytes(), nbits


def _windows(data: bytes, width: int) -> np.ndarray:
    """The width bits starting at every bit position of data, MSB-first, as
    unsigned integers; bits past the end read as 0."""
    if not 1 <= width <= MAX_FIELD_BITS:
        raise ConfigurationError(f"field width {width} outside [1, {MAX_FIELD_BITS}]")
    n = len(data)
    padded = np.frombuffer(bytes(data) + bytes(8), dtype=np.uint8)
    words = np.zeros(n, dtype=np.uint64)   # the 64 bits from every byte on
    for k in range(8):
        words = (words << np.uint64(8)) | padded[k:k + n]
    return ((words[:, None] << np.arange(8, dtype=np.uint64))
            >> np.uint64(64 - width)).ravel()


def _read_fixed(data: bytes, start: int, width: int, count: int) -> np.ndarray:
    """count consecutive width-bit fields from bit start on."""
    end = start + width * count
    if end > 8 * len(data):
        raise DecodeError(f"bit stream exhausted at bit {start}")
    section = data[start >> 3:(end + 7) >> 3]
    return _windows(section, width)[(start & 7) + width * np.arange(count)]


@dataclass
class CsrMatrix:
    a: np.ndarray    # nonzero values, row-major
    ir: np.ndarray   # cumulative row counts, length rows+1
    ic: np.ndarray   # column index per value
    rows: int
    cols: int

    def __post_init__(self):
        self.a = np.ascontiguousarray(self.a, dtype=np.float64)
        self.ir = np.ascontiguousarray(self.ir, dtype=np.int64)
        self.ic = np.ascontiguousarray(self.ic, dtype=np.int64)
        if self.ir.shape != (self.rows + 1,):
            raise DecodeError("IR length must be rows + 1")
        if self.ir[0] != 0 or np.any(np.diff(self.ir) < 0):
            raise DecodeError("IR must be non-decreasing from 0")
        if self.ir[-1] != self.a.shape[0] or self.a.shape != self.ic.shape:
            raise DecodeError("IR total disagrees with A/IC length")
        if self.a.size and (self.ic.min() < 0 or self.ic.max() >= self.cols):
            raise DecodeError("IC entry outside column range")

    @property
    def nnz(self) -> int:
        return int(self.a.shape[0])


def to_csr(dense) -> CsrMatrix:
    w = np.asarray(dense, dtype=np.float64)
    if w.ndim != 2:
        raise ConfigurationError("to_csr expects a matrix")
    rows, cols = w.shape
    r, c = np.nonzero(w)
    ir = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=rows), out=ir[1:])
    return CsrMatrix(w[r, c], ir, c.astype(np.int64), rows, cols)


def from_csr(csr: CsrMatrix) -> np.ndarray:
    rows = np.repeat(np.arange(csr.rows), np.diff(csr.ir))
    bad = np.flatnonzero((np.diff(csr.ic) <= 0) & (rows[1:] == rows[:-1]))
    if bad.size:
        raise DecodeError(f"IC not strictly increasing within row {rows[bad[0]]}")
    w = np.zeros((csr.rows, csr.cols))
    w[rows, csr.ic] = csr.a
    return w


def naive_rate(csr: CsrMatrix) -> float:
    """Dense-entry count over stored-entry count for plain CSR storage."""
    return csr.rows * csr.cols / (2 * csr.nnz + csr.rows + 1)


def rel_encode(ic: np.ndarray, a: np.ndarray, ir: np.ndarray,
               p: int) -> tuple[np.ndarray, np.ndarray]:
    """Relative-index entries of CSR rows, fillers included, in row order:
    (stored gaps, values).

    Gap g from the previous column of the row (start -1) is stored as g-1;
    gaps above 2^p emit filler entries (stored 2^p - 1, value 0.0) first,
    each advancing the cursor by 2^p.
    """
    if not 1 <= p <= 16:
        raise ConfigurationError(f"index bit width {p} outside [1, 16]")
    if ic.shape != a.shape:
        raise ValueError("indices and values differ in length")
    prev = np.empty_like(ic)       # previous column of the row, -1 at its start
    prev[1:] = ic[:-1]
    prev[ir[:-1][ir[:-1] < ir[1:]]] = -1
    gap = ic - prev
    if np.any(gap <= 0):
        k = np.flatnonzero(gap <= 0)[0]
        raise ConfigurationError(
            f"indices must be strictly increasing, got {ic[k]} after {prev[k]}")
    fillers = (gap - 1) >> p
    at = np.cumsum(fillers + 1) - 1    # entry index of each nonzero
    gaps = np.full(at[-1] + 1 if at.size else 0, (1 << p) - 1, dtype=np.int64)
    gaps[at] = gap - 1 - (fillers << p)
    values = np.zeros(gaps.size)
    values[at] = a
    return gaps, values


def rel_decode(gaps: np.ndarray, values: np.ndarray, ir: np.ndarray,
               cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of rel_encode: row, column and value of every weight, the
    rows delimited by the cumulative counts ir; fillers (zero-valued
    entries) are dropped. Raises at the first weight outside cols, on too
    few weights and on entries left over."""
    nnz = int(ir[-1])
    nz = np.flatnonzero(values != 0.0)[:nnz]   # the rest are fillers
    row = np.searchsorted(ir, np.arange(nz.size), side="right") - 1
    reach = np.cumsum(gaps + 1)[nz]            # column + 1, counted from row 0
    start = ir[row]                            # first weight of the row
    col = reach - np.where(start > 0, reach[start - 1], 0) - 1
    out = np.flatnonzero(col >= cols)
    if out.size:
        raise DecodeError(f"column {col[out[0]]} outside row {row[out[0]]}")
    if nz.size < nnz:
        raise DecodeError("entry stream exhausted in row "
                          f"{np.searchsorted(ir, nz.size, side='right') - 1}")
    left = gaps.size - (nz[-1] + 1 if nz.size else 0)
    if left:
        raise DecodeError(f"{left} unconsumed entries")
    return row, col, values[nz]


def build_codebook(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values, ascending, and the int64 indices into them that
    reproduce the input."""
    table = np.unique(values)
    if table.size > (1 << 16):
        raise ConfigurationError(f"codebook overflow: {table.size} distinct values")
    return table, np.searchsorted(table, values).astype(np.int64)


def _canonical(lengths: np.ndarray):
    """Used symbols in canonical order (length, then symbol), with their
    code lengths and codes. Rejects lengths above MAX_CODE_LENGTH and
    over-full tables before anything is built from them."""
    syms = np.flatnonzero(lengths)
    syms = syms[np.argsort(lengths[syms], kind="stable")]
    lens = lengths[syms]
    top = int(lens[-1]) if lens.size else 0
    if top > MAX_CODE_LENGTH:
        raise DecodeError(f"Huffman code length {top} above {MAX_CODE_LENGTH}")
    per_length = np.bincount(lens, minlength=top + 1).tolist()
    if sum(c << (top - l) for l, c in enumerate(per_length)) > 1 << top:
        raise DecodeError("over-full Huffman code lengths (Kraft sum above 1)")
    # a code is the share of the 2^top code space the codes before it take
    space = np.left_shift(1, top - lens)
    return syms, lens, (np.cumsum(space) - space) >> (top - lens)


@dataclass
class HuffmanTable:
    """Canonical code lengths per symbol; length 0 marks an unused symbol."""

    lengths: np.ndarray

    def __post_init__(self):
        self.lengths = np.ascontiguousarray(self.lengths, dtype=np.int64)
        if self.lengths.ndim != 1 or self.lengths.size == 0:
            raise ConfigurationError("Huffman table needs at least one symbol slot")
        if self.lengths.min() < 0 or self.lengths.max() > 255:
            raise DecodeError("Huffman code length outside [0, 255]")


def _code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code lengths from symbol frequencies (0 = unused symbol).
    Ties break on node creation order: leaves in symbol order, then merged
    nodes as they are made. A single used symbol gets length 1."""
    syms = np.flatnonzero(freqs)
    n = syms.size
    heap = [(f, node) for node, f in enumerate(freqs[syms].tolist())]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        (fa, a), (fb, b) = heapq.heappop(heap), heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (fa + fb, node))
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):   # parents are made after children
        depth[node] = depth[parent[node]] + 1
    lengths = np.zeros(freqs.size, dtype=np.int64)
    lengths[syms] = np.maximum(depth[:n], 1)
    return lengths


def huffman_encode(symbols, alphabet_size: int) -> tuple[HuffmanTable, bytes, int]:
    """Canonical Huffman coding of an integer symbol stream.

    Returns (table, payload, exact bit count); the payload's final byte is
    zero-padded. A single-symbol alphabet codes at 1 bit per symbol.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size == 0:
        raise ConfigurationError("cannot Huffman-code an empty stream")
    outside = (symbols < 0) | (symbols >= alphabet_size)
    if outside.any():
        raise ConfigurationError(
            f"symbol {symbols[outside][0]} outside alphabet of {alphabet_size}")
    table = HuffmanTable(_code_lengths(np.bincount(symbols, minlength=alphabet_size)))
    syms, _, codes = _canonical(table.lengths)
    code_of = np.zeros(alphabet_size, dtype=np.int64)
    code_of[syms] = codes
    payload, nbits = _pack_bits(code_of[symbols], table.lengths[symbols])
    return table, payload, nbits


def _chain(step: np.ndarray, count: int) -> np.ndarray:
    """The first count positions of 0, step[0], step[step[0]], ...: every
    64th is walked with step applied 64 times (six squarings), and the 63
    after each of those follow for all of them at once."""
    jump = step
    for _ in range(6):
        jump = jump.take(jump)
    every64 = [0]
    for _ in range((count - 1) // 64):
        every64.append(int(jump[every64[-1]]))
    chain = np.empty((64, len(every64)), dtype=np.int64)
    chain[0] = every64
    for k in range(1, 64):
        chain[k] = step.take(chain[k - 1])
    return chain.T.ravel()[:count]


def huffman_decode(table: HuffmanTable, payload: bytes, count: int) -> np.ndarray:
    """Decode exactly count symbols; surplus padding bits are ignored."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if not table.lengths.any():
        raise DecodeError("empty Huffman table for a non-empty stream")
    nbits = 8 * len(payload)
    if count > nbits:
        raise DecodeError(f"bit stream exhausted: {count} symbols in {nbits} bits")
    syms, lens, _ = _canonical(table.lengths)
    top = int(lens[-1])
    per_length = np.bincount(lens, minlength=top + 1)[1:]
    shift = top - np.arange(1, top + 1)
    space = per_length << shift
    limit = np.cumsum(space)    # one past the last top-bit window per length
    window = _windows(payload, top).view(np.int64)
    li = np.searchsorted(limit, window, side="right")   # length - 1, top if invalid
    # the next code's position; an invalid code, a code running past the
    # end and the end itself lead to the mark nbits + 1, which leads to itself
    advance = np.append(np.arange(1, top + 1), nbits + 1)
    step = np.full(nbits + 2, nbits + 1)
    np.minimum(np.arange(nbits) + advance.take(li), nbits + 1, out=step[:nbits])
    starts = _chain(step, count)
    if step[starts[-1]] > nbits:
        s = int(starts[np.argmax(step.take(starts) > nbits)])
        if s < nbits and li[s] == top and s + top <= nbits:
            raise DecodeError(f"invalid Huffman code ending at bit {s + top}")
        raise DecodeError(f"bit stream exhausted at bit {nbits}")
    li = li.take(starts)
    offset = np.cumsum(per_length) - per_length - ((limit - space) >> shift)
    return syms.take((window.take(starts) >> shift.take(li)) + offset.take(li))


@dataclass
class LayerReport:
    rows: int
    cols: int
    params: int
    nnz: int
    n_entries: int          # relative-index entries, fillers included
    p: int
    p_prun: int
    naive_rate: float
    prune_fraction: float
    # conceptual per-stage bit counts for the three CSR vectors
    stages: dict            # stage name -> {"a": bits, "ir": bits, "ic": bits}
    overhead_bits: int      # header, codebook, code-length tables, padding
    total_bits: int         # exact footprint of this layer in the blob

    def payload_bits(self) -> int:
        s = self.stages["coded"]
        return s["a"] + s["ir"] + s["ic"]


@dataclass
class CompressionReport:
    layers: list
    total_params: int
    total_nnz: int
    total_bits: int            # 8 x blob byte length
    compression_rate: float    # dense 32-bit baseline over everything stored
    payload_compression_rate: float  # same baseline over coded payload bits only
    error_before: Optional[float] = None
    error_after: Optional[float] = None


def p_prun_for(nnz: int) -> int:
    """Smallest width holding every IR entry: nnz < 2^p_prun, at least 1."""
    return max(1, int(nnz).bit_length())


def _index_width(cols: int) -> int:
    return max(1, math.ceil(math.log2(cols))) if cols > 1 else 1


def encode_layer(dense: np.ndarray, p: int,
                 prune_fraction: float = 0.0) -> tuple[bytes, LayerReport]:
    csr = to_csr(dense)
    rows, cols = csr.rows, csr.cols
    pp = p_prun_for(csr.nnz)
    gaps, values = rel_encode(csr.ic, csr.a, csr.ir, p)
    n_entries = gaps.size
    chunks = [struct.pack(_LAYER_HEADER, LAYER_TAG_FC, rows, cols, p, pp, csr.nnz, n_entries),
              _pack_bits(csr.ir, np.full(rows + 1, pp))[0]]
    if n_entries:
        table, vidx = build_codebook(values)
        val_table, val_payload, val_bits = huffman_encode(vidx, table.size)
        gap_table, gap_payload, gap_bits = huffman_encode(gaps, 1 << p)
        chunks += [struct.pack("<H", table.size), table.astype("<f8").tobytes(),
                   val_table.lengths.astype("<u1").tobytes(),
                   gap_table.lengths.astype("<u1").tobytes(),
                   struct.pack("<I", len(gap_payload)), gap_payload,
                   struct.pack("<I", len(val_payload)), val_payload]
    else:
        chunks.append(struct.pack("<H", 0))
        val_bits = gap_bits = 0

    blob = b"".join(chunks)
    stages = {
        "naive32": {"a": 32 * csr.nnz, "ir": 32 * (rows + 1), "ic": 32 * csr.nnz},
        "reduced": {"a": 32 * csr.nnz, "ir": pp * (rows + 1),
                    "ic": _index_width(cols) * csr.nnz},
        "relative": {"a": 32 * n_entries, "ir": pp * (rows + 1),
                     "ic": p * n_entries},
        "coded": {"a": val_bits, "ir": pp * (rows + 1), "ic": gap_bits},
    }
    total_bits = 8 * len(blob)
    payload = val_bits + gap_bits + pp * (rows + 1)
    report = LayerReport(
        rows=rows, cols=cols, params=rows * cols, nnz=csr.nnz,
        n_entries=n_entries, p=p, p_prun=pp,
        naive_rate=naive_rate(csr), prune_fraction=prune_fraction,
        stages=stages, overhead_bits=total_bits - payload, total_bits=total_bits,
    )
    return blob, report


def encode_network(q: QuantizedNetwork, p_fc: int = 5,
                   p_conv: int = 8) -> tuple[bytes, CompressionReport]:
    """Encode every layer of a quantized network into one blob.

    Every layer of a feedforward Network is fully connected: each is
    tagged LAYER_TAG_FC and coded at index width p_fc. p_conv is never
    read; it is accepted only so that existing callers keep working. A
    network of more than MAX_DECODED_WEIGHTS weights, which decode_network
    would refuse, raises ConfigurationError before any layer is encoded.
    """
    n_weights = sum(ql.assignments.size for ql in q.layers)
    if n_weights > MAX_DECODED_WEIGHTS:
        raise ConfigurationError(f"network of {n_weights} weights: a blob may hold "
                                 f"at most {MAX_DECODED_WEIGHTS}")
    encoded = [encode_layer(q.means[ql.assignments], p_fc, q.prune_fraction(li))
               for li, ql in enumerate(q.layers)]
    blob = b"".join([SWSB_MAGIC, struct.pack("<HH", SWSB_VERSION, len(encoded))]
                    + [layer_blob for layer_blob, _ in encoded])
    reports = [lr for _, lr in encoded]

    total_params = sum(r.params for r in reports)
    total_bits = 8 * len(blob)
    payload_bits = sum(r.payload_bits() for r in reports)
    report = CompressionReport(
        layers=reports, total_params=total_params,
        total_nnz=sum(r.nnz for r in reports), total_bits=total_bits,
        compression_rate=DENSE_BITS_PER_WEIGHT * total_params / total_bits,
        payload_compression_rate=(
            DENSE_BITS_PER_WEIGHT * total_params / payload_bits
            if payload_bits else float("inf")),
    )
    return blob, report


def decode_layer(cur: _Cursor, shape: Optional[tuple], budget: int) -> np.ndarray:
    """The next layer's weight matrix; a given shape must match the header's
    (rows, cols), and rows * cols may not exceed budget, the weights the
    blob may still hold, both checked before anything is allocated."""
    tag, rows, cols, p, pp, nnz, n_entries = cur.unpack(_LAYER_HEADER)
    if shape is not None and (rows, cols) != shape:
        raise DecodeError(f"layer of shape {(rows, cols)} where {shape} is expected")
    if tag not in (LAYER_TAG_FC, LAYER_TAG_CONV):
        raise DecodeError(f"unknown layer tag {tag}")
    if not 1 <= p <= 16:
        raise DecodeError(f"index bit width {p} outside [1, 16]")
    if pp != p_prun_for(nnz):
        raise DecodeError(f"IR bit width {pp} is not the width for nnz {nnz}")
    if rows * cols > budget:
        raise DecodeError(f"layer of shape {(rows, cols)} takes the blob to more "
                          f"than {MAX_DECODED_WEIGHTS} weights")
    ir = _read_fixed(cur.take((pp * (rows + 1) + 7) // 8), 0, pp, rows + 1)
    ir = ir.astype(np.int64)

    (cb_size,) = cur.unpack("<H")
    w = np.zeros((rows, cols))
    if n_entries == 0:
        if cb_size != 0 or nnz != 0:
            raise DecodeError("empty entry stream with nonzero counts")
        if np.any(ir != 0):
            raise DecodeError("empty layer with nonzero row counts")
        return w
    if cb_size == 0:
        raise DecodeError("entry stream without a codebook")
    table = np.frombuffer(cur.take(8 * cb_size), dtype="<f8").copy()
    val_lengths = np.frombuffer(cur.take(cb_size), dtype="<u1")
    gap_lengths = np.frombuffer(cur.take(1 << p), dtype="<u1")
    gap_payload = cur.take(*cur.unpack("<I"))
    val_payload = cur.take(*cur.unpack("<I"))

    gaps = huffman_decode(HuffmanTable(gap_lengths), gap_payload, n_entries)
    vidx = huffman_decode(HuffmanTable(val_lengths), val_payload, n_entries)
    if ir[0] != 0 or np.any(np.diff(ir) < 0) or ir[-1] != nnz:
        raise DecodeError("inconsistent IR vector")
    r, c, v = rel_decode(gaps, table[vidx], ir, cols)
    w[r, c] = v
    return w


def decode_network(blob: bytes, shapes: Optional[list] = None) -> list:
    """Recover the quantized weight matrices from a blob, exactly.

    An empty layer takes no blob bytes per weight, so the blob's length does
    not bound the (rows, cols) its headers claim; MAX_DECODED_WEIGHTS bounds
    their running total, checked before each layer is allocated. A caller
    that knows the matrix shapes passes them: the layer count and each
    header's shape are then checked before the layer is allocated.
    """
    cur = _Cursor(blob, "blob", DecodeError)
    n_layers = cur.header(SWSB_MAGIC, SWSB_VERSION, "an encoded-weights blob")
    if shapes is None:
        shapes = [None] * n_layers
    elif len(shapes) != n_layers:
        raise DecodeError(f"blob has {n_layers} layers where the layer count "
                          f"{len(shapes)} is expected")
    matrices = []
    budget = MAX_DECODED_WEIGHTS
    for shape in shapes:
        matrices.append(decode_layer(cur, shape, budget))
        budget -= matrices[-1].size
    cur.end()
    return matrices
