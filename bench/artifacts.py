"""Artifact digests and a minimal NIfTI-1 decoder for output checks.

Both deliberately avoid ``cordpipe.nifti`` so that a defect in the
package's reader cannot hide the same defect in its writer. The decoder
handles only what the package writes: single-file, little-endian,
uint8 or float32 payloads at ``vox_offset``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct

import numpy as np

_DTYPES = {2: np.dtype("<u1"), 16: np.dtype("<f4")}


def nifti_stream(path: str) -> bytes:
    """The uncompressed NIfTI bytes of a ``.nii`` or ``.nii.gz`` file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return gzip.decompress(raw) if raw[:2] == b"\x1f\x8b" else raw


def decode_nifti(stream: bytes) -> np.ndarray:
    if struct.unpack_from("<i", stream, 0)[0] != 348:
        raise ValueError("not a little-endian NIfTI-1 stream")
    dim = struct.unpack_from("<8h", stream, 40)
    datatype = struct.unpack_from("<h", stream, 70)[0]
    offset = int(struct.unpack_from("<f", stream, 108)[0])
    if dim[0] != 3 or datatype not in _DTYPES:
        raise ValueError(f"unexpected dim {dim} or datatype {datatype}")
    shape = dim[1:4]
    count = shape[0] * shape[1] * shape[2]
    flat = np.frombuffer(stream, dtype=_DTYPES[datatype], count=count, offset=offset)
    return flat.reshape(shape, order="F")


def float32_payload(array: np.ndarray) -> bytes:
    """The bytes a float32 NIfTI payload of ``array`` holds (x fastest)."""
    return np.asarray(array, dtype=_DTYPES[16]).tobytes(order="F")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(path: str) -> str:
    """sha256 of a NIfTI's decompressed stream, so only gzip framing may
    differ, or of a JSON report's canonical form."""
    if path.endswith(".json"):
        with open(path, "rb") as fh:
            return sha256(canonical_json(json.load(fh)))
    return sha256(nifti_stream(path))
