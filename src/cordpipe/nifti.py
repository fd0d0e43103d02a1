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
pieces into one buffer sized from the NIfTI header, so bytes decoded
past the payload are never held. Supported
datatypes are uint8 (2), int16 (4) and float32 (16); anything else is
rejected rather than silently cast. Files are 2D or 3D; a 4D header (``dim[0] = 4``)
is read as 3D when it holds a single timepoint (``dim[4] = 1``).
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

import itertools
import json
import math
import re
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
from .volume import LabelVolume, ScalarVolume, SparseAnnotation, Spacing, _all_finite, _in_order

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


def _read_payload(raw, hdr: NiftiHeader) -> np.ndarray:
    """The payload as an (H, W, Z) view on ``raw``, in the header's dtype."""
    start, end = hdr.vox_offset, hdr.end
    if len(raw) < end:
        raise TruncatedPayloadError(
            f"payload needs {end - start} bytes at offset {start}, stream has {len(raw) - start}"
        )
    flat = np.frombuffer(raw, dtype=hdr.dtype, count=(end - start) // hdr.dtype.itemsize,
                         offset=start)
    # Serialized order is x fastest, matching Fortran order of (H, W, Z).
    return flat.reshape(hdr.shape, order="F")


def _inflate(raw: bytes):
    """Yield the decoded bytes of the gzip stream ``raw`` in pieces of at
    most ``_INFLATE_PIECE``.

    Decodes as ``gzip.decompress`` does: members are concatenated and
    zero bytes after a member are padding. zlib's gzip mode parses each
    member's header, rejects its reserved flag bits and a wrong header
    CRC, and checks its CRC32 and ISIZE trailer once it ends; a failed
    check is a ``zlib.error``. This loop only bounds the pieces.
    """
    view = memoryview(raw)
    pos = 0
    while True:
        inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
        while not inflate.eof:
            data = inflate.unconsumed_tail
            if not data:
                data = view[pos:pos + _INFLATE_INPUT]
                pos += len(data)
            piece = inflate.decompress(data, _INFLATE_PIECE)
            if not (piece or data):
                raise FormatError("gzip stream ends before its end-of-stream marker")
            yield piece
        member = _NONZERO.search(raw, pos - len(inflate.unused_data))
        if member is None:
            return
        pos = member.start()


def _gunzip(raw: bytes) -> tuple[NiftiHeader, np.ndarray]:
    """The NIfTI header of the gzip stream ``raw`` and its decoded bytes up
    to the end of the payload, as one uint8 buffer.

    The buffer is sized from the header once the first pieces are out,
    never from a trailer's size field. Decoded bytes past the payload are
    inflated for zlib's CRC32 and ISIZE checks only and dropped.
    """
    pieces = _inflate(raw)
    head = b""
    for piece in pieces:
        head += piece
        if len(head) >= SINGLE_FILE_VOX_OFFSET:
            break
    hdr = parse_header(head)
    end = hdr.end
    if end > _MAX_INFLATE_RATIO * len(raw):
        raise TruncatedPayloadError(
            f"payload ends at byte {end} of the stream, but a {len(raw)}-byte gzip "
            f"stream decodes to at most {_MAX_INFLATE_RATIO * len(raw)}")
    buf = np.empty(end, np.uint8)
    filled = 0
    for piece in itertools.chain((head,), pieces):
        n = min(len(piece), end - filled)
        if n:
            buf[filled:filled + n] = np.frombuffer(piece, np.uint8, n)
            filled += n
    return hdr, buf[:filled]


def read_nifti(raw: bytes, labels: bool = False):
    """Decode a NIfTI-1 stream into a ScalarVolume or LabelVolume.

    A magnitude and a phase file decode alike: the caller knows which is
    which. ``labels=True`` enforces an integer datatype, no intensity scaling
    and class ids within 0..4.

    A gzip stream is inflated piece by piece into one buffer sized from
    the NIfTI header, with each member framed and checked by zlib; bytes
    decoded past the payload are not kept. When the payload is stored in
    the native dtype, the returned data is a view on that buffer. A plain
    stream's payload is always copied, x fastest as stored, so the result
    never shares memory with ``raw`` and has the layout of a gzip read.
    The volume types make the one pass over the payload (finite
    intensities, or label ids in range before the cast to uint8); their
    ``ValidationError`` is re-raised as a ``FormatError``.
    """
    owned = raw[:2] == b"\x1f\x8b"
    if owned:
        try:
            hdr, raw = _gunzip(raw)
        except zlib.error as exc:
            raise FormatError(f"gzip stream failed to decode: {exc}") from exc
    else:
        hdr = parse_header(raw)
    arr = _read_payload(raw, hdr)
    # The volume types keep a payload already in their dtype as it is, so
    # it must be aligned and not a view on the caller's ``raw``.
    if arr.dtype == (np.uint8 if labels else np.float32) and not (owned and arr.flags.aligned):
        arr = arr.copy(order="F")

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
        arr = arr.astype(np.float32, copy=False) * np.float32(hdr.scl_slope) \
            + np.float32(hdr.scl_inter)
    try:
        return ScalarVolume(arr, hdr.spacing)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


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


def write_nifti(vol, datatype: int | None = None) -> bytes:
    """Encode a volume as single-file little-endian NIfTI-1 bytes.

    Scalar volumes default to float32; pass ``datatype=DT_INT16`` to
    store integral intensities as int16. Labels are always uint8.
    """
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

    hdr = _pack_header(vol.dims, vol.spacing, datatype)
    little = payload.dtype.newbyteorder("<")
    # ravel is a view of an x-fastest payload, so join makes the one copy;
    # another layout is first copied in cache-sized slabs
    data = _in_order(payload, "F", little).ravel(order="F")
    return b"".join((hdr, b"\x00\x00\x00\x00", data))  # no extensions


def _deflate_strategy(raw: bytes) -> tuple[int, int]:
    """The ``(level, strategy)`` that ``gzip_nifti`` deflates ``raw`` with.

    Deflates a fixed sample of ``raw`` (all of it when short) at level 1.
    A sample that keeps more than ``_STORED_SHARE`` of its bytes gives
    level 0 (stored blocks); more than ``_NOISY_SHARE``, ``zlib.Z_RLE``
    at ``_GZIP_LEVEL``; anything else the default strategy at that level.
    """
    if len(raw) <= _PROBE_WINDOW * _PROBE_WINDOWS:
        sample = raw
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
    deflate = _deflater(*_deflate_strategy(raw))
    trailer = struct.pack("<II", zlib.crc32(raw), len(raw) & 0xFFFFFFFF)
    return b"".join((_GZIP_HEADER, deflate.compress(raw), deflate.flush(), trailer))


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


def read_sparse_annotation(json_bytes: bytes, planes_bytes: bytes) -> SparseAnnotation:
    """Decode sidecar JSON plus its companion planes file.

    Only the sidecar's own consistency is checked here: one plane per
    index, each index unique and not negative. ``volume._on_grid`` checks
    the planes against a grid. The result carries the planes file's
    spacing.
    """
    doc = parse_sidecar(json_bytes)
    z_indices = doc["z_indices"]
    planes_vol = read_nifti(planes_bytes, labels=True)
    if planes_vol.dims[2] != len(z_indices):
        raise SidecarError("plane count does not match the index list")
    return SparseAnnotation(doc["volume_id"], sorted(z_indices),
                            planes_vol.data[:, :, np.argsort(z_indices)],
                            planes_vol.spacing)
