"""Bit-exact NIfTI-1 reading and writing plus the sparse-annotation sidecar.

Only the single-file layout is produced on write: 348-byte header,
4-byte extension flag, voxel payload at offset 352, always little-endian.
``_LAYOUT`` declares the offset and struct format of every header field
that is read or written; parsing and packing both go through it.
``gzip_nifti`` writes one gzip member with a fixed header, so reruns
give byte-identical ``.nii.gz`` files. Its deflate has three tiers,
chosen by how much of a fixed sample of the payload is left after a
level-1 deflate: up to a quarter (labels, soft labels, regions, CLAHE
output) takes zlib level 1; up to three quarters (noisy intensities such
as warped training patches) takes zlib's run-length strategy
(``Z_RLE``), about twice as fast at about the same size; past three
quarters (phantom magnitude and phase) the payload is stored, since
Huffman coding it saves 10-16% of the bytes at 10-15 times the cost
of writing and reading them.
Reads auto-detect gzip compression and byte order. zlib's gzip mode
frames each member: it parses the header (extra field, name, comment,
header CRC), rejects reserved flag bits and checks the CRC32 and ISIZE
trailer. cordpipe bounds the rest: the stream is inflated in bounded
pieces into buffers sized from the NIfTI header, so bytes decoded past
the payload are never held. Supported datatypes are uint8 (2), int16 (4)
and float32 (16); anything else is rejected rather than silently cast.
Files are 2D or 3D; a 4D header (``dim[0] = 4``) is read as 3D when it
holds a single timepoint (``dim[4] = 1``).

One decode loop and one encoder serve bytes and files alike. The
private file reader ``_read_chunks`` reads a regular file in
``_INFLATE_INPUT`` pieces, so its stored bytes are never held whole, and
yields the checked volumes of runs of whole slices: one run for a
whole-volume read, or runs of a given voxel count. ``read_nifti`` runs
the same loop on bytes as one run.
The private chunk writer ``_write_chunks`` feeds one deflate stream
from the volume's array a run of slices at a time, copying a run only
if the array is not x-fastest, and the tier probe reads its windows
from the array; ``write_nifti`` and ``gzip_nifti`` are its one-piece
case, with the same bytes.
Voxel sizes are read in millimetres: the spatial unit code
(``xyzt_units & 0x07``) may be 0 (unknown, read as mm), 1 (m), 2 (mm)
or 3 (µm), and any other code is rejected. Writes always use mm.
Every decode failure, including a truncated or corrupt gzip stream, is
a ``FormatError``.

The sparse-annotation sidecar is a JSON document::

    { "volume_id": str, "z_indices": [int, ...], "planes_nifti": str }

where ``planes_nifti`` names a companion NIfTI of shape (H, W, K) whose
K axial planes are the annotated label planes, in ``z_indices`` order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import stat
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    FormatError,
    LabelRangeError,
    SidecarError,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    ValidationError,
)
from .volume import (LabelVolume, ScalarVolume, SparseAnnotation, Spacing, _all_finite,
                     _in_order, _z_runs)

HEADER_SIZE = 348
SINGLE_FILE_VOX_OFFSET = 352

# zlib's fastest level. On label, soft-label, region and CLAHE volumes
# it deflates about twice as fast as level 6; a training patch's files
# grow by ~8% and label volumes stay near 2% of their raw size. Noisy
# intensity volumes barely shrink at any level, and string matching is
# wasted on them: they take Z_RLE at this level, or are stored (see
# _deflate_strategy).
_GZIP_LEVEL = 1
# A payload whose level-1 probe sample keeps more than _NOISY_SHARE of
# its bytes is mostly noise and takes Z_RLE; past _STORED_SHARE, Huffman
# coding saves too little to pay for itself and the payload is stored.
# Warped patch intensities keep 0.44-0.62 (Z_RLE) and phantom magnitude
# and phase 0.83-0.91 (stored: 10.22 MB at 192x208x64 against 9.16 and
# 8.58 MB under Z_RLE, but written and read in 7-9 instead of 69-131 ms),
# so the cut sits in the gap; CLAHE output keeps under 0.1 and labels,
# soft labels and regions at most 0.04.
_NOISY_SHARE = 0.25
_STORED_SHARE = 0.75
# The probe deflates _PROBE_WINDOWS windows of _PROBE_WINDOW bytes
# (64 KiB), at golden-ratio steps through the payload so that they do not
# line up with rows or slices, which start with background.
_PROBE_WINDOW = 1 << 10
_PROBE_WINDOWS = 64
_GOLDEN = (5**0.5 - 1) / 2
# The largest stored deflate block (RFC 1951: a 16-bit LEN).
_STORED_BLOCK = 0xFFFF
# ID1 ID2, CM deflate, no flags, mtime 0, XFL 4 (fastest), OS 255 (unknown):
# the header gzip.GzipFile writes at level 1.
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\xff"
# Reads inflate at most _INFLATE_PIECE decoded bytes per call, fed
# _INFLATE_INPUT compressed bytes at a time, so their scratch stays
# bounded whatever a member decodes to.
_INFLATE_PIECE = 1 << 18
_INFLATE_INPUT = 1 << 16
# Voxels per z-chunk of the chunk writer (_write_chunks): 13 slices of a
# 192x208 plane, 2 MB of float32, so a file is written with per-chunk
# buffers whatever its depth.
_PIECE_VOXELS = 1 << 19
# Deflate decodes to at most 1032 bytes per input byte (a 258-byte match
# in two 1-bit codes), so a payload ending past this many bytes per
# gzip byte cannot be in the stream.
_MAX_INFLATE_RATIO = 1032
_NONZERO = re.compile(rb"[^\x00]")

DT_UINT8 = 2
DT_INT16 = 4
DT_FLOAT32 = 16

_DTYPES = {
    DT_UINT8: (np.dtype(np.uint8), 8),
    DT_INT16: (np.dtype(np.int16), 16),
    DT_FLOAT32: (np.dtype(np.float32), 32),
}

# The header layout: name -> (byte offset, struct format) for every field
# cordpipe reads or writes. ``parse_header`` unpacks these in the detected
# byte order and ``_pack_header`` packs them little-endian; every other
# header byte is written as zero and ignored on read.
_LAYOUT = {
    "sizeof_hdr": (0, "i"),
    "regular": (38, "c"),
    "dim": (40, "8h"),
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "pixdim": (76, "8f"),
    "vox_offset": (108, "f"),
    "scl_slope": (112, "f"),
    "scl_inter": (116, "f"),
    "xyzt_units": (123, "B"),
    "magic": (344, "4s"),
}


# Spatial unit code (xyzt_units & 0x07) -> millimetres per unit.
_MM_PER_UNIT = {0: 1.0, 1: 1000.0, 2: 1.0, 3: 0.001}


def _mm(value: float, unit_code: int) -> float:
    """A pixdim value in millimetres, rounded to float32 like the header
    field it came from, so that 75 µm and 0.075 mm read as one spacing.
    Out of float32 range it becomes inf or 0.0."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.float32(value * _MM_PER_UNIT[unit_code]))


def _unpack(raw: bytes, order: str, name: str):
    offset, fmt = _LAYOUT[name]
    val = struct.unpack_from(order + fmt, raw, offset)
    return val if len(val) > 1 else val[0]


@dataclass
class NiftiHeader:
    """What the readers need of the 348-byte NIfTI-1 header."""

    shape: tuple[int, int, int]
    dtype: np.dtype  # the payload's, in the stream's byte order
    spacing: Spacing
    vox_offset: int
    end: int  # the stream offset one past the last payload byte
    scl_slope: float
    scl_inter: float

    @property
    def dims(self) -> tuple[int, int, int]:
        """The volume's dims, so that ``volume._on_grid`` takes a header."""
        return self.shape


def parse_header(raw: bytes) -> NiftiHeader:
    """Parse and validate the fixed 348-byte header of a decompressed stream.

    Returns the payload geometry: an (H, W, Z) shape (Z is 1 for a 2D
    file), the dtype in the stream's byte order, the spacing in mm, and
    the payload's byte range ``[vox_offset, end)``. A two-file (``ni1``)
    header, a non-positive dim or a ``vox_offset`` inside the header is a
    ``FormatError``.
    """
    if len(raw) < HEADER_SIZE:
        raise TruncatedPayloadError(f"stream of {len(raw)} bytes is shorter than a header")

    if _unpack(raw, "<", "sizeof_hdr") == HEADER_SIZE:
        order = "<"
    elif _unpack(raw, ">", "sizeof_hdr") == HEADER_SIZE:
        order = ">"
    else:
        raise FormatError("sizeof_hdr is not 348 in either byte order")
    fields = {name: _unpack(raw, order, name) for name in _LAYOUT}

    magic = fields["magic"]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise BadMagicError(f"unrecognized magic {magic!r}")

    nd = fields["dim"][0]
    if nd not in (2, 3, 4):
        raise FormatError(f"dim[0] must be 2, 3 or 4, got {nd}")
    if nd == 4 and fields["dim"][4] != 1:
        raise FormatError(f"4D files must hold one timepoint, got dim[4] = {fields['dim'][4]}")
    nd = min(nd, 3)  # a single-timepoint 4D file is read as 3D

    dt = fields["datatype"]
    if dt not in _DTYPES:
        raise UnsupportedDatatypeError(f"datatype code {dt} not in supported set {sorted(_DTYPES)}")
    if fields["bitpix"] != _DTYPES[dt][1]:
        raise FormatError(f"bitpix {fields['bitpix']} inconsistent with datatype {dt}")
    unit_code = fields["xyzt_units"] & 0x07
    if unit_code not in _MM_PER_UNIT:
        raise FormatError(f"spatial unit code {unit_code} in xyzt_units is not "
                          f"0 (unknown), 1 (m), 2 (mm) or 3 (um)")
    steps = tuple(_mm(p, unit_code) for p in fields["pixdim"][1:nd + 1])
    if not all(0 < s < np.inf for s in steps):
        raise FormatError(f"pixdim[1:{nd + 1}] must be positive and finite in mm, got {steps}")
    if not np.isfinite(fields["vox_offset"]):
        raise FormatError(f"vox_offset must be finite, got {fields['vox_offset']}")
    if magic == b"ni1\x00":
        raise FormatError("two-file (ni1) streams carry no payload; only n+1 is readable")
    shape = tuple(int(d) for d in fields["dim"][1:nd + 1]) + (1,) * (3 - nd)
    if min(shape) <= 0:
        raise FormatError(f"non-positive header dims {shape}")
    vox_offset = int(fields["vox_offset"])
    if vox_offset < HEADER_SIZE:
        raise FormatError(f"vox_offset {vox_offset} overlaps the header")

    dtype = _DTYPES[dt][0].newbyteorder(order)
    return NiftiHeader(
        shape=shape,
        dtype=dtype,
        spacing=Spacing(*steps, *(1.0,) * (3 - nd)),
        vox_offset=vox_offset,
        end=vox_offset + math.prod(shape) * dtype.itemsize,
        scl_slope=float(fields["scl_slope"]),
        scl_inter=float(fields["scl_inter"]),
    )


def _inflate(chunks):
    """Yield the decoded bytes of the gzip stream whose stored bytes the
    iterator ``chunks`` yields, in pieces of at most ``_INFLATE_PIECE``.

    Decodes as ``gzip.decompress`` does: members are concatenated and
    zero bytes after a member are padding. zlib's gzip mode parses each
    member's header, rejects its reserved flag bits and a wrong header
    CRC, and checks its CRC32 and ISIZE trailer once it ends; a failed
    check is a ``FormatError``. This loop only bounds the pieces.
    """
    data = b""
    while True:
        inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
        while not inflate.eof:
            if not data:
                data = next(chunks, b"")
            try:
                piece = inflate.decompress(data, _INFLATE_PIECE)
            except zlib.error as exc:
                raise FormatError(f"gzip stream failed to decode: {exc}") from exc
            if not (piece or data):
                raise FormatError("gzip stream ends before its end-of-stream marker")
            data = inflate.unconsumed_tail
            yield piece
        data = inflate.unused_data
        while not (member := _NONZERO.search(data)):
            data = next(chunks, b"")
            if not data:
                return
        data = data[member.start():]


def _peek(pieces, n: int):
    """The first ``n`` or more bytes of the iterator ``pieces`` (all of
    them if fewer), and an iterator over every piece, those included."""
    head = b""
    for piece in pieces:
        head += piece
        if len(head) >= n:
            break
    return head, itertools.chain((head,), pieces)


def _pieces(raw):
    """The bytes-like ``raw`` as views of ``_INFLATE_INPUT`` bytes."""
    view = memoryview(raw)
    return (view[i:i + _INFLATE_INPUT] for i in range(0, len(view), _INFLATE_INPUT))


def _decode(chunks, size: int, voxels: int | None, labels: bool):
    """Yield the ``NiftiHeader`` of the NIfTI stream whose ``size`` stored
    bytes the iterator ``chunks`` yields, then ``(zs, vol)`` for each run
    ``zs`` of ``volume._z_runs(shape, voxels)``: ``vol`` is the volume
    ``_typed`` builds of those slices.

    A gzip stream is inflated by ``_inflate`` and read to its end before
    its last block is yielded, so its trailer is checked first; a payload
    that would end past ``_MAX_INFLATE_RATIO`` decoded bytes per stored
    byte is rejected before any block is allocated. A plain stream is read
    up to the end of its payload. Each block is a buffer of its own, and
    decoded bytes outside the payload are never held.
    """
    magic, pieces = _peek(chunks, 2)
    gz = magic[:2] == b"\x1f\x8b"
    if gz:
        pieces = _inflate(pieces)
    head, pieces = _peek(pieces, SINGLE_FILE_VOX_OFFSET)
    hdr = parse_header(head)
    start, end = hdr.vox_offset, hdr.end
    if gz and end > _MAX_INFLATE_RATIO * size:
        raise TruncatedPayloadError(
            f"payload ends at byte {end} of the stream, but a {size}-byte gzip "
            f"stream decodes to at most {_MAX_INFLATE_RATIO * size}")
    if not gz and end > size:
        raise TruncatedPayloadError(
            f"payload needs {end - start} bytes at offset {start}, stream has {size - start}")
    yield hdr

    h, w, _ = hdr.shape
    plane = h * w * hdr.dtype.itemsize
    runs = iter(_z_runs(hdr.shape, voxels))
    zs = next(runs)
    block, filled = np.empty((zs.stop - zs.start) * plane, np.uint8), 0
    pos = 0  # the stream offset of the next piece
    for piece in pieces:
        piece = np.frombuffer(piece, np.uint8)
        at = min(max(start - pos, 0), piece.size)
        pos += piece.size
        while at < piece.size and filled < block.size:
            n = min(piece.size - at, block.size - filled)
            block[filled:filled + n] = piece[at:at + n]
            filled += n
            at += n
            if filled == block.size and (following := next(runs, None)) is not None:
                yield zs, _typed(hdr, block, labels)
                zs = following
                block, filled = np.empty((zs.stop - zs.start) * plane, np.uint8), 0
        if filled == block.size and not gz:
            break  # a plain stream's bytes past the payload are not read
    if filled < block.size:
        raise TruncatedPayloadError(
            f"payload needs {end - start} bytes at offset {start}, stream has {pos - start}")
    yield zs, _typed(hdr, block, labels)


def _typed(hdr: NiftiHeader, block: np.ndarray, labels: bool):
    """The volume ``read_nifti`` returns of ``block``, a buffer of its own
    holding whole slices of payload bytes as stored; the volume type's
    ``ValidationError`` is a ``FormatError``."""
    arr = block.view(hdr.dtype).reshape(hdr.shape[:2] + (-1,), order="F")
    if labels:
        if hdr.dtype.kind == "f":
            raise UnsupportedDatatypeError("label volumes require an integer datatype")
        if hdr.scl_slope not in (0.0, 1.0) or hdr.scl_inter != 0.0:
            raise FormatError("label volumes must not carry intensity scaling")
        try:
            return LabelVolume(arr, hdr.spacing)
        except ValidationError as exc:
            raise LabelRangeError(str(exc)) from exc

    if hdr.scl_slope != 0.0 and (hdr.scl_slope != 1.0 or hdr.scl_inter != 0.0):
        arr = arr.astype(np.float32, copy=False)  # arr itself if stored as native float32
        arr *= np.float32(hdr.scl_slope)
        arr += np.float32(hdr.scl_inter)
    try:
        return ScalarVolume(arr, hdr.spacing)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def read_nifti(raw: bytes, labels: bool = False):
    """Decode a NIfTI-1 stream into a ScalarVolume or LabelVolume.

    A magnitude and a phase file decode alike: the caller knows which is
    which. ``labels=True`` enforces an integer datatype, no intensity scaling
    and class ids within 0..4.

    ``raw`` goes through the decode loop of ``_read_chunks``, in pieces of
    ``_INFLATE_INPUT`` bytes, as one block: a buffer sized from the NIfTI
    header that a gzip stream is inflated into piece by piece, each member
    framed and checked by zlib, and that a plain stream's payload is copied
    into, x fastest as stored. Bytes outside the payload are not kept, and
    the result never shares memory with ``raw``. When the payload is stored
    in the volume's dtype, the returned data is a view on that buffer, and
    intensity scaling is applied to it in place. The volume types make the
    one pass over the payload (finite intensities, or label ids in range
    before the cast to uint8); their ``ValidationError`` is re-raised as a
    ``FormatError``.
    """
    _, (_, vol) = _decode(_pieces(raw), len(raw), None, labels)
    return vol


def _read_chunks(fh, voxels: int | None = None, labels: bool = False):
    """Read the NIfTI file ``fh`` (binary, at its start) in runs of slices.

    Returns an iterator over its ``NiftiHeader``, then ``(zs, vol)`` for
    each run of whole slices of at most ``voxels`` voxels (one run if
    None), at least one slice each: ``zs`` is its z slice and ``vol`` the
    volume ``read_nifti`` builds of those slices, checked once. A regular
    file is read in ``_INFLATE_INPUT`` pieces and its size bounds the
    inflate ratio. A pipe or FIFO has no size until it ends, so it is read
    whole first. Every decode rule and error is that of ``read_nifti``; a
    gzip stream's trailer is checked before the last run is yielded.
    """
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        return _decode(iter(functools.partial(fh.read, _INFLATE_INPUT), b""), info.st_size,
                       voxels, labels)
    raw = fh.read()
    return _decode(_pieces(raw), len(raw), voxels, labels)


def _pack_header(shape, spacing: Spacing, datatype: int) -> bytes:
    fields = {
        "sizeof_hdr": HEADER_SIZE,
        "regular": b"r",
        "dim": (3, *shape, 1, 1, 1, 1),
        "datatype": datatype,
        "bitpix": _DTYPES[datatype][1],
        "pixdim": (1.0, spacing.dx, spacing.dy, spacing.dz, 0, 0, 0, 0),
        "vox_offset": float(SINGLE_FILE_VOX_OFFSET),
        "scl_slope": 1.0,
        "scl_inter": 0.0,
        "xyzt_units": 2,  # millimeters
        "magic": b"n+1\x00",
    }
    buf = bytearray(HEADER_SIZE)
    for name, value in fields.items():
        offset, fmt = _LAYOUT[name]
        struct.pack_into("<" + fmt, buf, offset, *(value if isinstance(value, tuple) else (value,)))
    return bytes(buf)


def _encode(vol, datatype: int | None = None) -> "_Stream":
    """The NIfTI stream of a volume, checked as ``write_nifti`` documents."""
    if isinstance(vol, LabelVolume):
        if datatype not in (None, DT_UINT8):
            raise ValidationError("label volumes are written as uint8")
        payload = vol.data.astype(np.uint8, copy=False)
        datatype = DT_UINT8
    elif isinstance(vol, ScalarVolume):
        if not _all_finite(vol.data):
            raise ValidationError("cannot write non-finite intensities")
        if datatype is None or datatype == DT_FLOAT32:
            payload = vol.data.astype(np.float32, copy=False)
            datatype = DT_FLOAT32
        elif datatype == DT_INT16:
            rounded = np.rint(vol.data)
            if not np.array_equal(rounded, vol.data):
                raise ValidationError("int16 output requires integral intensities")
            info = np.iinfo(np.int16)
            if vol.data.min() < info.min or vol.data.max() > info.max:
                raise ValidationError("intensities exceed the int16 range")
            payload = vol.data.astype(np.int16, copy=False)
        else:
            raise UnsupportedDatatypeError(f"cannot write datatype code {datatype}")
    else:
        raise ValidationError(f"cannot serialize object of type {type(vol).__name__}")
    # no extensions: a zero extension flag, then the payload
    return _Stream(_pack_header(vol.dims, vol.spacing, datatype) + bytes(4), payload)


class _Stream:
    """A single-file NIfTI stream held as its header bytes and its (H, W, Z)
    payload array, in any layout: its length, its bytes in x-fastest
    pieces, and byte ranges for the tier probe, read from the array."""

    def __init__(self, head: bytes, payload: np.ndarray):
        self.head, self.payload = head, payload
        self.dtype = payload.dtype.newbyteorder("<")
        # an x-fastest payload is its own byte string
        self.flat = payload.ravel(order="F").view(np.uint8) \
            if payload.flags.f_contiguous and payload.dtype == self.dtype else None

    def __len__(self) -> int:
        return len(self.head) + self.payload.size * self.dtype.itemsize

    def __getitem__(self, cut: slice) -> bytes:
        start, stop, _ = cut.indices(len(self))
        out = self.head[start:stop]
        lo, hi = max(start - len(self.head), 0), max(stop - len(self.head), 0)
        if hi <= lo:
            return out
        if self.flat is not None:
            return out + self.flat[lo:hi].tobytes()
        size = self.dtype.itemsize
        first = lo // size
        at = np.unravel_index(np.arange(first, -(-hi // size)), self.payload.shape, order="F")
        data = self.payload[at].astype(self.dtype).tobytes()
        return out + data[lo - first * size:hi - first * size]

    def pieces(self, voxels: int | None):
        """The stream's bytes: the header, then runs of whole slices of at
        most ``voxels`` voxels (at least one; ``None``: one run), each
        copied only if the payload is not x-fastest in its stored dtype."""
        yield self.head
        for zs in _z_runs(self.payload.shape, voxels):
            run = _in_order(self.payload[:, :, zs], "F", self.dtype)
            yield run.ravel(order="F").view(np.uint8)


def write_nifti(vol, datatype: int | None = None) -> bytes:
    """Encode a volume as single-file little-endian NIfTI-1 bytes.

    Scalar volumes default to float32; pass ``datatype=DT_INT16`` to
    store integral intensities as int16. Labels are always uint8. The
    bytes are the one-piece case of the chunk writer ``_write_chunks``: an
    x-fastest payload is joined as it is, another layout is copied once.
    """
    return b"".join(_encode(vol, datatype).pieces(None))


def _write_chunks(vol, gz: bool):
    """The bytes of ``vol``'s NIfTI file, gzipped as ``gzip_nifti`` does
    when ``gz``, as an iterator of pieces made as they are taken.

    The volume is checked at the call. The payload is encoded in runs of
    whole slices of at most ``_PIECE_VOXELS`` voxels, which one deflate
    stream is fed one at a time, so neither the encoded stream nor a
    reordered copy of the payload is held. The tier probe reads its
    windows from the array, so every byte is that of
    ``gzip_nifti(write_nifti(vol))``.
    """
    stream = _encode(vol)
    pieces = stream.pieces(_PIECE_VOXELS)
    return _gzip(stream, pieces) if gz else pieces


def _deflate_strategy(raw) -> tuple[int, int]:
    """The ``(level, strategy)`` that ``gzip_nifti`` deflates ``raw``, an
    encoded stream (bytes or a ``_Stream``), with.

    Deflates a fixed sample of ``raw`` (all of it when short) at level 1.
    A sample that keeps more than ``_STORED_SHARE`` of its bytes gives
    level 0 (stored blocks); more than ``_NOISY_SHARE``, ``zlib.Z_RLE``
    at ``_GZIP_LEVEL``; anything else the default strategy at that level.
    """
    if len(raw) <= _PROBE_WINDOW * _PROBE_WINDOWS:
        sample = raw[:]
    else:
        span = len(raw) - _PROBE_WINDOW
        starts = (int(span * (k * _GOLDEN % 1.0)) for k in range(1, _PROBE_WINDOWS + 1))
        sample = b"".join(raw[s:s + _PROBE_WINDOW] for s in starts)
    deflate = zlib.compressobj(_GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    kept = len(deflate.compress(sample)) + len(deflate.flush())
    if kept > _STORED_SHARE * len(sample):
        return 0, zlib.Z_DEFAULT_STRATEGY
    if kept > _NOISY_SHARE * len(sample):
        return _GZIP_LEVEL, zlib.Z_RLE
    return _GZIP_LEVEL, zlib.Z_DEFAULT_STRATEGY


class _StoredDeflate:
    """A raw deflate stream of stored blocks of ``_STORED_BLOCK`` bytes,
    fed like a ``zlib.compressobj``: ``compress`` returns the full blocks
    it can but always holds back the last bytes, which ``flush`` returns
    as the final block.

    zlib's level 0 sizes each stored block by the output room it is
    handed, so its stream changes with the pieces the input comes in;
    this one depends on the payload alone.
    """

    # BFINAL 0, BTYPE 00 (stored), LEN and its one's complement NLEN
    _FULL = struct.pack("<BHH", 0, _STORED_BLOCK, _STORED_BLOCK ^ 0xFFFF)

    def __init__(self):
        self._held = b""

    def compress(self, data) -> bytes:
        data = self._held + bytes(data)
        cut = max(len(data) - 1, 0) // _STORED_BLOCK * _STORED_BLOCK
        self._held = data[cut:]
        view = memoryview(data)
        return b"".join(part for start in range(0, cut, _STORED_BLOCK)
                        for part in (self._FULL, view[start:start + _STORED_BLOCK]))

    def flush(self) -> bytes:
        held, self._held = self._held, b""
        return struct.pack("<BHH", 1, len(held), len(held) ^ 0xFFFF) + held


def _deflater(level: int, strategy: int):
    """A raw-deflate compressor for one ``_deflate_strategy`` tier."""
    if level == 0:
        return _StoredDeflate()
    return zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS, 8, strategy)


def gzip_nifti(raw: bytes) -> bytes:
    """Deterministically gzip an encoded stream in one of three tiers.

    One gzip member with a fixed header: mtime 0, no file name, XFL 4,
    OS byte 255 (unknown). ``_deflate_strategy`` picks the tier from a
    level-1 probe of the payload:

    * the default strategy at level 1, for everything that deflates well
      (labels, soft labels, regions, CLAHE output): the bytes
      ``gzip.GzipFile`` writes at level 1;
    * ``Z_RLE`` at level 1, for payloads whose probe keeps more than a
      quarter of its bytes, such as warped training-patch intensities
      (0.44-0.62): about twice as fast at about the same size;
    * stored blocks of 65 535 bytes, for payloads whose probe keeps more
      than three quarters, such as phantom magnitude and phase
      (0.83-0.91). At 192x208x64 these files grow from 9.16 and 8.58 MB
      to 10.22 MB (+11.6% and +19.2%), but gzip in 7-9 instead of
      122-131 ms and read back in 7-9 instead of 69-79 ms.

    The stream decodes to ``raw`` exactly.
    """
    return b"".join(_gzip(raw, (raw,)))


def _gzip(stream, pieces):
    """Yield the gzip member of ``gzip_nifti`` for the encoded ``stream``
    (bytes or a ``_Stream``) whose bytes ``pieces`` yields in order: the
    tier probe reads ``stream``, and one deflate stream is fed each piece.
    Feeding in pieces gives the one-shot stream in every tier."""
    deflate = _deflater(*_deflate_strategy(stream))
    yield _GZIP_HEADER
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        yield deflate.compress(piece)
    yield deflate.flush()
    yield struct.pack("<II", crc, len(stream) & 0xFFFFFFFF)


def write_sparse_annotation(ann: SparseAnnotation, planes_filename: str,
                            spacing: Spacing) -> tuple[bytes, bytes]:
    """Serialize to (sidecar JSON bytes, companion planes NIfTI bytes)."""
    doc = {
        "volume_id": ann.volume_id,
        "z_indices": list(int(z) for z in ann.z_indices),
        "planes_nifti": planes_filename,
    }
    planes_vol = LabelVolume(ann.planes, spacing)
    return (json.dumps(doc, indent=2).encode() + b"\n", write_nifti(planes_vol))


def parse_sidecar(json_bytes: bytes) -> dict:
    """Decode and validate a sidecar document, without its planes file.

    Returns ``{"volume_id": str, "z_indices": [int, ...], "planes_nifti":
    str}``; anything else is a ``SidecarError``.
    """
    try:
        doc = json.loads(json_bytes)
    except ValueError as exc:
        raise SidecarError(f"sidecar is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SidecarError(f"sidecar must be a JSON object, got {type(doc).__name__}")
    for key in ("volume_id", "z_indices", "planes_nifti"):
        if key not in doc:
            raise SidecarError(f"sidecar missing key {key!r}")
    z_indices = doc["z_indices"]
    if not isinstance(z_indices, list) or any(type(z) is not int for z in z_indices):
        raise SidecarError(f"z_indices must be a list of integers, got {z_indices!r}")
    if len(set(z_indices)) != len(z_indices):
        raise SidecarError("duplicate z index in sidecar")
    if not isinstance(doc["planes_nifti"], str) or not doc["planes_nifti"]:
        raise SidecarError(f"planes_nifti must be a file name, got {doc['planes_nifti']!r}")
    return {"volume_id": str(doc["volume_id"]), "z_indices": z_indices,
            "planes_nifti": doc["planes_nifti"]}


def _annotation(doc: dict, planes: LabelVolume) -> SparseAnnotation:
    """The annotation of the ``parse_sidecar`` document ``doc`` and its
    decoded planes file: one plane per index, put in index order. The
    result carries the planes file's spacing."""
    z_indices = doc["z_indices"]
    if planes.dims[2] != len(z_indices):
        raise SidecarError("plane count does not match the index list")
    return SparseAnnotation(doc["volume_id"], sorted(z_indices),
                            planes.data[:, :, np.argsort(z_indices)], planes.spacing)


def read_sparse_annotation(json_bytes: bytes, planes_bytes: bytes) -> SparseAnnotation:
    """Decode sidecar JSON plus its companion planes file.

    Only the sidecar's own consistency is checked here: one plane per
    index, each index unique and not negative. ``volume._on_grid`` checks
    the planes against a grid. The result carries the planes file's
    spacing.
    """
    return _annotation(parse_sidecar(json_bytes), read_nifti(planes_bytes, labels=True))
