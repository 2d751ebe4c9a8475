"""Bit-exact sparse storage for quantized weight matrices.

Encoding stages per layer, each with an exact inverse:

1. CSR: row-major nonzero values A, cumulative row counts IR (length
   rows+1), column indices IC.
2. Width reduction: IR entries fit in p_prun bits, the smallest width with
   nnz < 2^p_prun.
3. Relative indexing: per row, IC becomes gaps between consecutive nonzero
   columns (previous column starts at -1). A gap g is stored as g-1 in p
   bits; while g exceeds 2^p a filler entry (stored gap 2^p - 1, value 0)
   advances the cursor by 2^p. Fillers are recognized on decode by their
   zero value, so A itself gains zero entries.
4. Codebook: the value stream (fillers included) is mapped to indices into
   a sorted table of its distinct values.
5. Huffman: canonical prefix codes over the gap symbols and over the
   codebook indices, built from stream frequencies.

The blob container (magic "SWSB") stores, per layer: a fixed header, IR
bit-packed at p_prun, the codebook, both canonical code-length tables, and
the two bit-packed payloads, everything little-endian and byte-padded per
section. The compression report tallies exact bit counts per stage; its
total equals the blob length times 8.

Compression rate baseline is 32 bits per dense weight: deployment storage
is float32 even though compute here is float64.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DecodeError
from .postprocess import QuantizedNetwork

SWSB_MAGIC = b"SWSB"
SWSB_VERSION = 1

LAYER_TAG_FC = 0
LAYER_TAG_CONV = 1

DENSE_BITS_PER_WEIGHT = 32

# Per-layer fixed header: tag u8, rows u32, cols u32, p u8, p_prun u8,
# nnz u32, n_entries u32.
_LAYER_HEADER = struct.Struct("<BIIBBII")


class BitWriter:
    """Packs unsigned integers MSB-first into bytes."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits <= 0 or value < 0 or value >> nbits:
            raise ConfigurationError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    @property
    def bit_count(self) -> int:
        return len(self._out) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Byte string padded with zero bits on the right."""
        out = bytes(self._out)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """Reads MSB-first unsigned integers from bytes."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    @property
    def bit_position(self) -> int:
        return self._pos

    def read(self, nbits: int) -> int:
        end = self._pos + nbits
        if end > len(self._data) * 8:
            raise DecodeError(f"bit stream exhausted at bit {self._pos}")
        value = 0
        pos = self._pos
        while pos < end:
            byte = self._data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, end - pos)
            chunk = (byte >> (8 - offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
        self._pos = end
        return value


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
    w = np.zeros((csr.rows, csr.cols))
    for k in range(csr.rows):
        lo, hi = csr.ir[k], csr.ir[k + 1]
        cols = csr.ic[lo:hi]
        if cols.size > 1 and np.any(np.diff(cols) <= 0):
            raise DecodeError(f"IC not strictly increasing within row {k}")
        w[k, cols] = csr.a[lo:hi]
    return w


def naive_rate(csr: CsrMatrix) -> float:
    """Dense-entry count over stored-entry count for plain CSR storage."""
    return csr.rows * csr.cols / (2 * csr.nnz + csr.rows + 1)


@dataclass
class RelIndexStream:
    p: int
    entries: list   # (stored_gap, value) pairs, fillers carry value 0.0

    def __post_init__(self):
        if not 1 <= self.p <= 16:
            raise ConfigurationError(f"index bit width {self.p} outside [1, 16]")
        span = 1 << self.p
        for g, _ in self.entries:
            if not 0 <= g < span:
                raise ConfigurationError(f"stored gap {g} needs more than {self.p} bits")


def rel_encode(indices, values, p: int) -> RelIndexStream:
    """Gap-encode one row's strictly increasing column indices.

    Gap g from the previous index (start -1) is stored as g-1; gaps above
    2^p emit filler entries (stored 2^p - 1, value 0.0) first, each
    advancing the cursor by 2^p.
    """
    if not 1 <= p <= 16:
        raise ConfigurationError(f"index bit width {p} outside [1, 16]")
    span = 1 << p
    entries = []
    prev = -1
    for idx, val in zip(indices, values, strict=True):
        idx = int(idx)
        gap = idx - prev
        if gap <= 0:
            raise ConfigurationError(
                f"indices must be strictly increasing, got {idx} after {prev}")
        while gap > span:
            entries.append((span - 1, 0.0))
            gap -= span
        entries.append((gap - 1, float(val)))
        prev = idx
    return RelIndexStream(p, entries)


def rel_decode(stream: RelIndexStream):
    """Inverse of rel_encode; fillers (zero-valued entries) are dropped."""
    indices = []
    values = []
    prev = -1
    for g, v in stream.entries:
        prev += g + 1
        if v != 0.0:
            indices.append(prev)
            values.append(v)
    return indices, values


@dataclass
class Codebook:
    table: np.ndarray   # distinct values, ascending
    width: int          # index bit width

    def __post_init__(self):
        self.table = np.ascontiguousarray(self.table, dtype=np.float64)


def build_codebook(values) -> tuple[Codebook, np.ndarray]:
    """Distinct-value table plus the index stream reproducing the input."""
    v = np.asarray(values, dtype=np.float64)
    table = np.unique(v)
    if table.size > (1 << 16):
        raise ConfigurationError(f"codebook overflow: {table.size} distinct values")
    width = max(1, math.ceil(math.log2(table.size))) if table.size else 1
    idx = np.searchsorted(table, v)
    return Codebook(table, width), idx.astype(np.int64)


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

    def codes(self) -> dict:
        """symbol -> (code, length), canonical order (length, then symbol)."""
        order = sorted(
            (int(l), s) for s, l in enumerate(self.lengths) if l > 0
        )
        out = {}
        code = 0
        prev_len = order[0][0] if order else 0
        for length, sym in order:
            code <<= length - prev_len
            out[sym] = (code, length)
            code += 1
            prev_len = length
        return out


def _code_lengths(freqs: dict) -> dict:
    """Huffman code lengths from symbol frequencies, deterministic tie-break."""
    if not freqs:
        return {}
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    heap = []
    for counter, (sym, f) in enumerate(sorted(freqs.items())):
        heap.append((f, counter, {sym: 0}))
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in a.items()}
        merged.update({s: d + 1 for s, d in b.items()})
        heapq.heappush(heap, (fa + fb, counter, merged))
        counter += 1
    return heap[0][2]


def huffman_encode(symbols, alphabet_size: int) -> tuple[HuffmanTable, bytes, int]:
    """Canonical Huffman coding of an integer symbol stream.

    Returns (table, payload, exact bit count); the payload's final byte is
    zero-padded. A single-symbol alphabet codes at 1 bit per symbol.
    """
    symbols = [int(s) for s in symbols]
    if not symbols:
        raise ConfigurationError("cannot Huffman-code an empty stream")
    freqs: dict = {}
    for s in symbols:
        if not 0 <= s < alphabet_size:
            raise ConfigurationError(f"symbol {s} outside alphabet of {alphabet_size}")
        freqs[s] = freqs.get(s, 0) + 1
    depth = _code_lengths(freqs)
    lengths = np.zeros(alphabet_size, dtype=np.int64)
    for s, d in depth.items():
        lengths[s] = max(d, 1)
    table = HuffmanTable(lengths)
    codes = table.codes()
    writer = BitWriter()
    for s in symbols:
        code, length = codes[s]
        writer.write(code, length)
    return table, writer.getvalue(), writer.bit_count


def huffman_decode(table: HuffmanTable, payload: bytes, count: int) -> list:
    """Decode exactly count symbols; surplus padding bits are ignored."""
    order = sorted((int(l), s) for s, l in enumerate(table.lengths) if l > 0)
    if not order and count > 0:
        raise DecodeError("empty Huffman table for a non-empty stream")
    # canonical decode tables: per code length, the first code value and
    # the symbols it covers in order
    first_code: dict = {}
    syms_at: dict = {}
    code = 0
    prev_len = order[0][0] if order else 0
    for length, sym in order:
        code <<= length - prev_len
        if length not in first_code:
            first_code[length] = code
            syms_at[length] = []
        syms_at[length].append(sym)
        code += 1
        prev_len = length
    max_len = order[-1][0] if order else 0

    reader = BitReader(payload)
    out = []
    for _ in range(count):
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read(1)
            length += 1
            if length in first_code:
                offset = code - first_code[length]
                if 0 <= offset < len(syms_at[length]):
                    out.append(syms_at[length][offset])
                    break
            if length >= max_len:
                raise DecodeError(
                    f"invalid Huffman code ending at bit {reader.bit_position}")
    return out


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

    def as_dict(self) -> dict:
        return {
            "rows": self.rows, "cols": self.cols, "params": self.params,
            "nnz": self.nnz, "n_entries": self.n_entries,
            "p": self.p, "p_prun": self.p_prun,
            "naive_rate": self.naive_rate,
            "prune_fraction": self.prune_fraction,
            "stages": self.stages,
            "overhead_bits": self.overhead_bits,
            "total_bits": self.total_bits,
        }


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

    def as_dict(self) -> dict:
        return {
            "layers": [l.as_dict() for l in self.layers],
            "total_params": self.total_params,
            "total_nnz": self.total_nnz,
            "total_bits": self.total_bits,
            "compression_rate": self.compression_rate,
            "payload_compression_rate": self.payload_compression_rate,
            "error_before": self.error_before,
            "error_after": self.error_after,
        }


def p_prun_for(nnz: int) -> int:
    """Smallest width holding every IR entry: nnz < 2^p_prun, at least 1."""
    return max(1, int(nnz).bit_length())


def _index_width(cols: int) -> int:
    return max(1, math.ceil(math.log2(cols))) if cols > 1 else 1


def encode_layer(dense: np.ndarray, p: int, tag: int = LAYER_TAG_FC,
                 prune_fraction: float = 0.0) -> tuple[bytes, LayerReport]:
    csr = to_csr(dense)
    rows, cols = csr.rows, csr.cols
    pp = p_prun_for(csr.nnz)

    entries = []
    for k in range(rows):
        lo, hi = csr.ir[k], csr.ir[k + 1]
        entries.extend(rel_encode(csr.ic[lo:hi], csr.a[lo:hi], p).entries)
    n_entries = len(entries)

    ir_writer = BitWriter()
    for v in csr.ir:
        ir_writer.write(int(v), pp)
    ir_bytes = ir_writer.getvalue()

    chunks = [_LAYER_HEADER.pack(tag, rows, cols, p, pp, csr.nnz, n_entries),
              ir_bytes]
    if n_entries:
        values = [v for _, v in entries]
        gaps = [g for g, _ in entries]
        cb, vidx = build_codebook(values)
        val_table, val_payload, val_bits = huffman_encode(vidx, cb.table.size)
        gap_table, gap_payload, gap_bits = huffman_encode(gaps, 1 << p)
        chunks.append(struct.pack("<H", cb.table.size))
        chunks.append(cb.table.astype("<f8").tobytes())
        chunks.append(val_table.lengths.astype("<u1").tobytes())
        chunks.append(gap_table.lengths.astype("<u1").tobytes())
        chunks.append(struct.pack("<I", len(gap_payload)))
        chunks.append(gap_payload)
        chunks.append(struct.pack("<I", len(val_payload)))
        chunks.append(val_payload)
        cb_size = cb.table.size
    else:
        chunks.append(struct.pack("<H", 0))
        val_bits = gap_bits = 0
        cb_size = 0

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

    All layers of a feedforward Network are fully connected, so p_fc
    applies; p_conv is part of the format for convolutional matrices
    stored through the same container.
    """
    dense_layers = [q.means[ql.assignments] for ql in q.layers]
    chunks = [SWSB_MAGIC, struct.pack("<HH", SWSB_VERSION, len(dense_layers))]
    reports = []
    for li, w in enumerate(dense_layers):
        frac = q.prune_fraction(li)
        layer_blob, lr = encode_layer(w, p_fc, LAYER_TAG_FC, frac)
        chunks.append(layer_blob)
        reports.append(lr)
    blob = b"".join(chunks)

    total_params = sum(r.params for r in reports)
    total_bits = 8 * len(blob)
    payload_bits = sum(r.payload_bits() for r in reports)
    report = CompressionReport(
        layers=reports,
        total_params=total_params,
        total_nnz=sum(r.nnz for r in reports),
        total_bits=total_bits,
        compression_rate=DENSE_BITS_PER_WEIGHT * total_params / total_bits,
        payload_compression_rate=(
            DENSE_BITS_PER_WEIGHT * total_params / payload_bits
            if payload_bits else float("inf")),
    )
    return blob, report


class _ByteCursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DecodeError(f"blob truncated at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, st: struct.Struct):
        return st.unpack(self.take(st.size))


def decode_layer(cur: _ByteCursor) -> np.ndarray:
    tag, rows, cols, p, pp, nnz, n_entries = cur.unpack(_LAYER_HEADER)
    if tag not in (LAYER_TAG_FC, LAYER_TAG_CONV):
        raise DecodeError(f"unknown layer tag {tag}")
    if not 1 <= p <= 16:
        raise DecodeError(f"index bit width {p} outside [1, 16]")
    if pp != p_prun_for(nnz):
        raise DecodeError(f"IR bit width {pp} is not the width for nnz {nnz}")
    ir_bytes = cur.take((pp * (rows + 1) + 7) // 8)
    reader = BitReader(ir_bytes)
    ir = np.array([reader.read(pp) for _ in range(rows + 1)], dtype=np.int64)

    (cb_size,) = struct.unpack("<H", cur.take(2))
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
    (gap_len,) = struct.unpack("<I", cur.take(4))
    gap_payload = cur.take(gap_len)
    (val_len,) = struct.unpack("<I", cur.take(4))
    val_payload = cur.take(val_len)

    gaps = huffman_decode(HuffmanTable(gap_lengths), gap_payload, n_entries)
    vidx = huffman_decode(HuffmanTable(val_lengths), val_payload, n_entries)

    if ir[0] != 0 or np.any(np.diff(ir) < 0) or ir[-1] != nnz:
        raise DecodeError("inconsistent IR vector")
    pos = 0
    emitted_total = 0
    for k in range(rows):
        needed = int(ir[k + 1] - ir[k])
        prev = -1
        emitted = 0
        while emitted < needed:
            if pos >= n_entries:
                raise DecodeError(f"entry stream exhausted in row {k}")
            prev += gaps[pos] + 1
            value = table[vidx[pos]]
            pos += 1
            if value != 0.0:
                if prev >= cols:
                    raise DecodeError(f"column {prev} outside row {k}")
                w[k, prev] = value
                emitted += 1
        emitted_total += emitted
    if pos != n_entries:
        raise DecodeError(f"{n_entries - pos} unconsumed entries")
    if emitted_total != nnz:
        raise DecodeError("nonzero count mismatch after decode")
    return w


def decode_network(blob: bytes) -> list:
    """Recover the quantized weight matrices from a blob, exactly."""
    cur = _ByteCursor(blob)
    if cur.take(4) != SWSB_MAGIC:
        raise DecodeError("bad magic, not an encoded-weights blob")
    version, n_layers = struct.unpack("<HH", cur.take(4))
    if version != SWSB_VERSION:
        raise DecodeError(f"unsupported blob version {version}")
    matrices = [decode_layer(cur) for _ in range(n_layers)]
    if cur.pos != len(cur.blob):
        raise DecodeError(f"{len(cur.blob) - cur.pos} trailing bytes in blob")
    return matrices
