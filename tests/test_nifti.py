import gzip
import io
import json
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordpipe import (
    LabelVolume,
    ScalarVolume,
    Spacing,
    SparseAnnotation,
    evaluate,
    gzip_nifti,
    read_nifti,
    read_sparse_annotation,
    write_nifti,
    write_sparse_annotation,
)
from cordpipe.errors import (
    BadMagicError,
    DimensionError,
    FormatError,
    LabelRangeError,
    SidecarError,
    TruncatedPayloadError,
    UnsupportedDatatypeError,
    ValidationError,
)
from cordpipe import nifti, volume
from cordpipe.nifti import (
    DT_INT16,
    HEADER_SIZE,
    _deflate_strategy,
    parse_header,
    parse_sidecar,
)

from oracles import deflate_stream, laid_out, reference_nifti_header, stored_deflate

ISO = Spacing.isotropic()


def _random_scalar(rng, dims=(5, 4, 3)):
    return ScalarVolume(rng.random(dims, dtype=np.float32), ISO)


def test_golden_header_matches_reference_builder():
    vol = ScalarVolume(np.zeros((4, 4, 2), np.float32), Spacing(0.075, 0.075, 0.075))
    raw = write_nifti(vol)
    expected = reference_nifti_header(
        (4, 4, 2), (np.float32(0.075),) * 3, datatype_code=16, bitpix=32)
    assert raw[:HEADER_SIZE] == expected


@pytest.mark.parametrize("labels", [False, True])
def test_write_bytes_independent_of_memory_layout(labels):
    rng = np.random.default_rng(12)
    if labels:
        base = rng.integers(0, 5, (6, 5, 4)).astype(np.uint8)
        make = LabelVolume
    else:
        base = rng.random((6, 5, 4), dtype=np.float32)
        make = ScalarVolume
    strided = np.zeros((12, 5, 8), base.dtype)
    strided[::2, :, ::2] = base
    layouts = [np.ascontiguousarray(base), np.asfortranarray(base), strided[::2, :, ::2]]
    raws = [write_nifti(make(data, ISO)) for data in layouts]
    assert raws[0] == raws[1] == raws[2]
    assert raws[0][HEADER_SIZE + 4:] == base.transpose().tobytes()  # x fastest on disk


@pytest.mark.parametrize("source", [">f4", np.float64])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_write_bytes_independent_of_source_dtype(source, layout):
    # 19 columns span three slabs of a C -> Fortran payload copy
    base = np.random.default_rng(13).random((6, 19, 4), dtype=np.float32)
    raw = write_nifti(ScalarVolume(laid_out(base.astype(source), layout), ISO))
    assert raw == write_nifti(ScalarVolume(base, ISO))
    assert raw[HEADER_SIZE + 4:] == base.transpose().tobytes()


def test_header_fixture_is_stable():
    import hashlib
    vol = ScalarVolume(np.zeros((4, 4, 2), np.float32), Spacing(0.075, 0.075, 0.075))
    digest = hashlib.sha256(write_nifti(vol)[:HEADER_SIZE]).hexdigest()
    assert digest == "f749905ee04c07421c58bba6665bfb290ddbefb9a2cc26a6771f00224ff6e62c"


def test_float32_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        vol = _random_scalar(rng)
        back = read_nifti(write_nifti(vol))
        assert back.data.tobytes() == vol.data.tobytes()
        assert back.dims == vol.dims


def test_label_roundtrip_identical_ids():
    rng = np.random.default_rng(1)
    for _ in range(20):
        vol = LabelVolume(rng.integers(0, 5, (4, 5, 3)).astype(np.uint8), ISO)
        back = read_nifti(write_nifti(vol), labels=True)
        assert np.array_equal(back.data, vol.data)


def test_int16_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    data = rng.integers(-300, 300, (4, 4, 4)).astype(np.float32)
    vol = ScalarVolume(data, ISO)
    back = read_nifti(write_nifti(vol, datatype=DT_INT16))
    assert np.array_equal(back.data, data)


def test_int16_rejects_fractional_values():
    vol = ScalarVolume(np.full((2, 2, 2), 0.5, np.float32), ISO)
    with pytest.raises(ValidationError):
        write_nifti(vol, datatype=DT_INT16)


def test_native_spacing_survives_roundtrip():
    vol = ScalarVolume(np.zeros((2, 2, 2), np.float32), Spacing(0.075, 0.075, 0.075))
    back = read_nifti(write_nifti(vol))
    assert back.spacing.dx == np.float32(0.075)
    assert back.spacing.dy == np.float32(0.075)
    assert back.spacing.dz == np.float32(0.075)


def test_gzip_and_plain_decode_identically():
    rng = np.random.default_rng(3)
    vol = _random_scalar(rng)
    raw = write_nifti(vol)
    plain = read_nifti(raw)
    zipped = read_nifti(gzip_nifti(raw))
    assert np.array_equal(plain.data, zipped.data)
    # stdlib gzip output decodes the same way
    assert np.array_equal(read_nifti(gzip.compress(raw)).data, plain.data)


@pytest.mark.parametrize("labels", [False, True])
def test_plain_and_gzip_reads_keep_x_fastest_order(labels):
    rng = np.random.default_rng(4)
    vol = (LabelVolume(rng.integers(0, 5, (5, 6, 7)).astype(np.uint8), ISO) if labels
           else _random_scalar(rng, (5, 6, 7)))
    raw = write_nifti(vol)
    for stream in (raw, gzip_nifti(raw)):
        data = read_nifti(stream, labels=labels).data
        assert data.flags.f_contiguous and not data.flags.c_contiguous
        assert np.array_equal(data, vol.data)


def _check_gzip_member(zipped, raw):
    assert zipped[:3] == b"\x1f\x8b\x08"        # gzip magic, deflate
    assert zipped[3] == 0                           # no FNAME (or other) flag
    assert zipped[4:8] == b"\x00\x00\x00\x00"  # mtime 0
    assert zipped[8] == 4                           # XFL: fastest level
    assert zipped[9] == 255                         # OS unknown, not the host's
    assert zipped[-8:] == struct.pack("<II", zlib.crc32(raw), len(raw) & 0xFFFFFFFF)
    assert gzip.decompress(zipped) == raw


def test_gzip_nifti_is_deterministic_level_1():
    # label ids in 8-voxel blocks: LZ-compressible, and longer than the probe sample
    x, y, z = np.indices((64, 64, 24))
    raw = write_nifti(LabelVolume(((x // 8 + y // 8 + z // 8) % 5).astype(np.uint8), ISO))
    zipped = gzip_nifti(raw)
    assert gzip_nifti(raw) == zipped
    _check_gzip_member(zipped, raw)
    assert _deflate_strategy(raw) == (1, zlib.Z_DEFAULT_STRATEGY)
    assert zipped[10:-8] == deflate_stream(raw, 1, zlib.Z_DEFAULT_STRATEGY)
    # the bytes gzip.GzipFile writes at level 1
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=1, mtime=0) as fh:
        fh.write(raw)
    assert zipped == buf.getvalue()


def test_gzip_nifti_deflates_noise_with_z_rle():
    # 60% zeros: the sample keeps about half its bytes, like a warped patch
    rng = np.random.default_rng(9)
    data = rng.random((64, 64, 24), dtype=np.float32)
    data[rng.random(data.shape) < 0.6] = 0.0
    raw = write_nifti(ScalarVolume(data, ISO))
    assert 0.4 < len(deflate_stream(raw, 1, zlib.Z_DEFAULT_STRATEGY)) / len(raw) < 0.6
    assert _deflate_strategy(raw) == (1, zlib.Z_RLE)
    zipped = gzip_nifti(raw)
    assert gzip_nifti(raw) == zipped
    _check_gzip_member(zipped, raw)
    assert zipped[10:-8] == deflate_stream(raw, 1, zlib.Z_RLE)
    assert zipped[10:-8] != deflate_stream(raw, 1, zlib.Z_DEFAULT_STRATEGY)


def test_gzip_nifti_stores_pure_noise():
    raw = write_nifti(_random_scalar(np.random.default_rng(9), (64, 64, 24)))
    assert _deflate_strategy(raw) == (0, zlib.Z_DEFAULT_STRATEGY)
    zipped = gzip_nifti(raw)
    assert gzip_nifti(raw) == zipped
    _check_gzip_member(zipped, raw)
    assert zipped[10:-8] == stored_deflate(raw)
    # 5 header bytes per block of at most 65 535
    assert len(zipped) == 10 + len(raw) + 5 * -(-len(raw) // 65535) + 8


def test_probe_windows_do_not_line_up_with_slice_starts():
    # Noise framed by 16 background rows at each edge of every slice, as in
    # a scan: windows at or near slice starts would see only background.
    data = np.random.default_rng(13).random((64, 64, 64), dtype=np.float32)
    data[:, :16, :] = 0.0
    data[:, 48:, :] = 0.0
    raw = write_nifti(ScalarVolume(data, ISO))
    assert len(deflate_stream(raw, 1, zlib.Z_DEFAULT_STRATEGY)) > 0.25 * len(raw)
    assert _deflate_strategy(raw) == (1, zlib.Z_RLE)


def test_probe_reads_a_short_payload_whole():
    # 48 KiB, shorter than the probe sample: its noisy tail must be seen
    data = np.zeros((64, 64, 3), np.float32)
    data[:, :, 1:] = np.random.default_rng(14).random((64, 64, 2), dtype=np.float32)
    assert _deflate_strategy(write_nifti(ScalarVolume(data, ISO))) == (1, zlib.Z_RLE)
    data[:, :, 1:] = 0.5
    assert _deflate_strategy(write_nifti(ScalarVolume(data, ISO))) == (1, zlib.Z_DEFAULT_STRATEGY)


@st.composite
def _payloads(draw):
    """An encoded volume of one kind, from one voxel to past the 64 KiB
    probe sample, and a prefix length from 0 to its whole size."""
    kind = draw(st.sampled_from(["noise", "constant", "labels", "soft", "noise-zero-filled"]))
    n = draw(st.integers(1, 24_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "labels":
        vol = LabelVolume(rng.integers(0, 5, (n, 4, 1)).astype(np.uint8), ISO)
    else:
        if kind == "constant":
            data = np.full(n, draw(st.floats(-1e6, 1e6, width=32)), np.float32)
        elif kind == "soft":
            alpha = draw(st.floats(0.0, 1.0, width=32))
            data = rng.choice(np.array([0.0, alpha, 1.0], np.float32), n)
        else:
            data = rng.random(n, dtype=np.float32)
            if kind == "noise-zero-filled":
                data[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
        vol = ScalarVolume(data.reshape(n, 1, 1), ISO)
    raw = write_nifti(vol)
    return raw, draw(st.integers(0, len(raw)))


@settings(max_examples=120, deadline=None)
@given(_payloads())
def test_gzip_nifti_roundtrips_every_payload_kind(payload):
    raw, cut = payload
    for stream in (raw, raw[:cut]):
        zipped = gzip_nifti(stream)
        assert gzip_nifti(stream) == zipped
        _check_gzip_member(zipped, stream)
        assert zipped[10:-8] == deflate_stream(stream, *_deflate_strategy(stream))
    assert read_nifti(gzip_nifti(raw)).data.tobytes() == read_nifti(raw).data.tobytes()


def _fed_in_pieces(tier, raw, piece):
    """The deflate stream of ``raw`` fed to a ``tier`` compressor ``piece``
    bytes at a time."""
    deflate = nifti._deflater(*tier)
    fed = [deflate.compress(raw[i:i + piece]) for i in range(0, len(raw), piece)]
    return b"".join(fed) + deflate.flush()


@pytest.mark.parametrize("size", [0, 1, 65_534, 65_535, 65_536, 2 * 65_535, 2 * 65_535 + 7])
def test_stored_tier_splits_every_65535_bytes_whatever_the_pieces(size):
    raw = np.random.default_rng(size).bytes(size)
    for piece in (352, 12_345, 65_535, 1 << 20):
        stream = _fed_in_pieces((0, zlib.Z_DEFAULT_STRATEGY), raw, piece)
        assert stream == stored_deflate(raw), piece
        assert zlib.decompress(stream, -zlib.MAX_WBITS) == raw


@st.composite
def _planed_payloads(draw):
    """An encoded float32 or label volume of up to ~2.5 MB, so that 1 MiB
    pieces split it, and the bytes of one of its planes."""
    h, w, z = draw(st.integers(1, 192)), draw(st.integers(1, 208)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "noise-zero-filled", "labels"]))
    if kind == "labels":
        return write_nifti(LabelVolume(rng.integers(0, 5, (h, w, z)).astype(np.uint8), ISO)), h * w
    data = rng.random((h, w, z), dtype=np.float32)
    if kind == "noise-zero-filled":
        data[rng.random(data.shape) < draw(st.floats(0.0, 1.0))] = 0.0
    return write_nifti(ScalarVolume(data, ISO)), 4 * h * w


@settings(max_examples=25, deadline=None)
@given(_planed_payloads(), st.sampled_from(
    [(0, zlib.Z_DEFAULT_STRATEGY), (1, zlib.Z_RLE), (1, zlib.Z_DEFAULT_STRATEGY)]))
def test_deflate_fed_in_pieces_is_the_one_shot_stream(payload, tier):
    # A writer that streams a volume slab by slab must give the same bytes.
    raw, plane = payload
    whole = _fed_in_pieces(tier, raw, len(raw))
    assert whole == deflate_stream(raw, *tier)
    for piece in (352, plane, 12_345, 1 << 20):
        assert _fed_in_pieces(tier, raw, piece) == whole, piece


@pytest.mark.parametrize("level", [6, 9])
def test_older_gzip_levels_decode_like_gzip_nifti(level):
    # .nii.gz files written at the earlier levels read back to the same volume
    raw = write_nifti(_random_scalar(np.random.default_rng(10)))
    older, ours = gzip.compress(raw, compresslevel=level, mtime=0), gzip_nifti(raw)
    assert older[10:-8] != ours[10:-8]  # another deflate stream
    assert gzip.decompress(older) == gzip.decompress(ours) == raw
    a, b = read_nifti(older), read_nifti(ours)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.spacing == b.spacing


def test_minimal_wellformed_file():
    # dim = (3, 4, 4, 2), float32, 32 voxels
    hdr = reference_nifti_header((4, 4, 2), (1.0, 1.0, 1.0), 16, 32)
    payload = np.arange(32, dtype="<f4").tobytes()
    vol = read_nifti(hdr + b"\x00" * 4 + payload)
    assert vol.dims == (4, 4, 2)
    assert vol.data[1, 0, 0] == 1.0  # x fastest on disk
    assert vol.data[0, 1, 0] == 4.0
    assert vol.data[0, 0, 1] == 16.0


def test_big_endian_stream_decodes():
    # Independently packed big-endian header and payload.
    buf = bytearray(HEADER_SIZE)
    struct.pack_into(">i", buf, 0, HEADER_SIZE)
    struct.pack_into(">8h", buf, 40, 3, 2, 2, 2, 1, 1, 1, 1)
    struct.pack_into(">h", buf, 70, 16)
    struct.pack_into(">h", buf, 72, 32)
    struct.pack_into(">8f", buf, 76, 1.0, 0.5, 0.5, 0.5, 0, 0, 0, 0)
    struct.pack_into(">f", buf, 108, 352.0)
    struct.pack_into(">4s", buf, 344, b"n+1\x00")
    payload = np.arange(8, dtype=">f4").tobytes()
    vol = read_nifti(bytes(buf) + b"\x00" * 4 + payload)
    assert vol.dims == (2, 2, 2)
    assert vol.data[1, 1, 1] == 7.0
    assert vol.spacing.dx == 0.5


def test_bad_magic():
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    raw[344:348] = b"XXX\x00"
    with pytest.raises(BadMagicError):
        read_nifti(bytes(raw))


def test_unsupported_datatype():
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<h", raw, 70, 8)   # int32: not supported
    struct.pack_into("<h", raw, 72, 32)
    with pytest.raises(UnsupportedDatatypeError):
        read_nifti(bytes(raw))


def test_truncated_payload():
    raw = write_nifti(ScalarVolume(np.zeros((4, 4, 4), np.float32), ISO))
    with pytest.raises(TruncatedPayloadError):
        read_nifti(raw[:-5])


def test_label_value_out_of_range():
    data = np.zeros((2, 2, 2), np.uint8)
    vol = ScalarVolume(data.astype(np.float32), ISO)
    raw = bytearray(write_nifti(vol))
    # rewrite as uint8 with an out-of-range id
    struct.pack_into("<h", raw, 70, 2)
    struct.pack_into("<h", raw, 72, 8)
    payload = np.full(8, 7, np.uint8).tobytes()
    raw = bytes(raw[:352]) + payload
    with pytest.raises(LabelRangeError):
        read_nifti(raw, labels=True)


@pytest.mark.parametrize("bad", [-252, 260])
def test_int16_label_ids_are_range_checked_before_the_cast(bad):
    # both are 4 as uint8
    ids = np.zeros((2, 2, 2), np.float32)
    ids[1, 1, 1] = bad
    raw = write_nifti(ScalarVolume(ids, ISO), datatype=DT_INT16)
    for stream in (raw, gzip_nifti(raw)):
        with pytest.raises(LabelRangeError, match=f"id {bad} outside"):
            read_nifti(stream, labels=True)


def test_float_payload_rejected_as_labels():
    raw = write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO))
    with pytest.raises(UnsupportedDatatypeError):
        read_nifti(raw, labels=True)


def test_nan_write_rejected():
    vol = ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)
    vol.data[0, 0, 0] = np.nan  # mutated after construction
    with pytest.raises(ValidationError):
        write_nifti(vol)


def test_scl_scaling_applied():
    raw = bytearray(write_nifti(ScalarVolume(np.ones((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<f", raw, 112, 2.0)  # slope
    struct.pack_into("<f", raw, 116, 1.0)  # inter
    vol = read_nifti(bytes(raw))
    assert (vol.data == 3.0).all()


def test_zero_slope_means_unscaled():
    raw = bytearray(write_nifti(ScalarVolume(np.ones((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<f", raw, 112, 0.0)
    struct.pack_into("<f", raw, 116, 9.0)
    vol = read_nifti(bytes(raw))
    assert (vol.data == 1.0).all()


def test_parse_header_bitpix_consistency():
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<h", raw, 72, 16)  # wrong bitpix for float32
    with pytest.raises(Exception) as exc:
        parse_header(bytes(raw))
    assert "bitpix" in str(exc.value)


@pytest.mark.parametrize("offset", [80, 84, 88])  # pixdim[1], pixdim[2], pixdim[3]
@pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf")])
def test_bad_pixdim_is_format_error(offset, value):
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<f", raw, offset, value)
    with pytest.raises(FormatError, match="pixdim"):
        read_nifti(bytes(raw))


def _with_units(vol, unit_code, scale):
    """``vol`` encoded with its spacing given in another spatial unit."""
    raw = bytearray(write_nifti(vol))
    struct.pack_into("<3f", raw, 80, *(s * scale for s in vol.spacing.as_tuple()))
    struct.pack_into("<B", raw, 123, unit_code)
    return bytes(raw)


def test_micrometre_and_millimetre_files_read_alike():
    from cordpipe import hd95

    rng = np.random.default_rng(12)
    sp = Spacing(0.075, 0.075, 0.3)
    gt = LabelVolume((rng.random((12, 10, 6)) > 0.6).astype(np.uint8), sp)
    pred = LabelVolume((rng.random((12, 10, 6)) > 0.6).astype(np.uint8), sp)
    mm_gt, mm_pred = (read_nifti(write_nifti(v), labels=True) for v in (gt, pred))
    for code in (3, 3 | 0x08):  # um, and um with a time unit (seconds) set
        um_gt, um_pred = (read_nifti(_with_units(v, code, 1000.0), labels=True)
                          for v in (gt, pred))
        assert um_gt.spacing == mm_gt.spacing
        assert um_gt.spacing.dx == np.float32(0.075)
        assert hd95(um_gt.data == 1, um_pred.data == 1, um_gt.spacing) == \
            hd95(mm_gt.data == 1, mm_pred.data == 1, mm_gt.spacing)


@pytest.mark.parametrize("code, scale", [(0, 1.0), (1, 0.001), (2, 1.0)])
def test_metre_and_unknown_units_read_as_mm(code, scale):
    vol = ScalarVolume(np.zeros((2, 2, 2), np.float32), Spacing(0.5, 0.25, 2.0))
    back = read_nifti(_with_units(vol, code, scale))
    assert back.spacing == Spacing(0.5, 0.25, 2.0)


@pytest.mark.parametrize("code", [4, 5, 6, 7, 7 | 0x18])
def test_unknown_spatial_unit_is_format_error(code):
    vol = ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)
    with pytest.raises(FormatError, match="unit"):
        read_nifti(_with_units(vol, code, 1.0))


@pytest.mark.parametrize("code, value", [(1, 1e36), (3, 1e-44)])
def test_spacing_out_of_range_in_mm_is_format_error(code, value):
    raw = bytearray(_with_units(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO), code, 1.0))
    struct.pack_into("<f", raw, 80, value)
    with pytest.raises(FormatError, match="pixdim"):
        read_nifti(bytes(raw))


def _with_dims(vol, dims):
    raw = bytearray(write_nifti(vol))
    struct.pack_into("<8h", raw, 40, *dims)
    return bytes(raw)


def test_single_timepoint_4d_file_reads_as_3d():
    vol = _random_scalar(np.random.default_rng(10), dims=(4, 3, 2))
    back = read_nifti(_with_dims(vol, (4, 4, 3, 2, 1, 1, 1, 1)))
    plain = read_nifti(write_nifti(vol))
    assert back.dims == (4, 3, 2)
    assert back.spacing == plain.spacing
    assert np.array_equal(back.data, plain.data)


def test_single_timepoint_4d_checks_only_spatial_pixdim():
    raw = bytearray(_with_dims(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO),
                               (4, 2, 2, 2, 1, 1, 1, 1)))
    struct.pack_into("<f", raw, 92, 0.0)  # pixdim[4]: time step, not a voxel size
    assert read_nifti(bytes(raw)).dims == (2, 2, 2)
    struct.pack_into("<f", raw, 88, 0.0)  # pixdim[3]
    with pytest.raises(FormatError, match="pixdim"):
        read_nifti(bytes(raw))


@pytest.mark.parametrize("dims", [(4, 2, 2, 1, 2, 1, 1, 1), (4, 2, 2, 1, 0, 1, 1, 1),
                                  (5, 2, 2, 1, 1, 1, 1, 1)])
def test_multi_timepoint_or_5d_file_is_format_error(dims):
    raw = _with_dims(ScalarVolume(np.zeros((2, 2, 1), np.float32), ISO), dims)
    with pytest.raises(FormatError, match="dim"):
        read_nifti(raw)


def test_truncated_gzip_is_format_error():
    gz = gzip_nifti(write_nifti(_random_scalar(np.random.default_rng(11))))
    with pytest.raises(FormatError, match="gzip"):
        read_nifti(gz[:len(gz) // 2])


def test_corrupt_deflate_body_is_format_error():
    gz = gzip_nifti(write_nifti(_random_scalar(np.random.default_rng(12))))
    corrupt = gz[:10] + b"\x07" + gz[11:]  # final block with the reserved type 3
    with pytest.raises(FormatError, match="gzip"):
        read_nifti(corrupt)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vox_offset_is_format_error(value):
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<f", raw, 108, value)
    with pytest.raises(FormatError, match="vox_offset"):
        read_nifti(bytes(raw))


# Start offsets of the header fields the reader interprets, so that the
# fuzzer overwrites whole field values as well as random bytes.
_FIELD_STARTS = (0, 40, 42, 44, 46, 48, 70, 72, 80, 84, 88, 108, 112, 116, 344)
_FUZZ_BASES = (
    write_nifti(ScalarVolume(np.random.default_rng(13).random((3, 2, 2), np.float32), ISO)),
    write_nifti(LabelVolume(np.random.default_rng(14).integers(0, 5, (3, 2, 2)), ISO)),
)


@st.composite
def _mangled_streams(draw):
    raw = bytearray(draw(st.sampled_from(_FUZZ_BASES)))
    offsets = st.one_of(st.sampled_from(_FIELD_STARTS), st.integers(0, len(raw) - 1))
    for offset, patch in draw(st.lists(st.tuples(offsets, st.binary(min_size=1, max_size=4)),
                                       max_size=4)):
        raw[offset:offset + len(patch)] = patch
    if draw(st.booleans()):
        del raw[draw(st.integers(0, len(raw))):]
    raw = bytes(raw)
    wrap = draw(st.sampled_from(["plain", "gzip", "gzip-truncated"]))
    if wrap == "plain":
        return raw
    gz = gzip_nifti(raw)
    return gz if wrap == "gzip" else gz[:draw(st.integers(0, len(gz) - 1))]


@settings(max_examples=300, deadline=None)
@given(_mangled_streams())
def test_fuzzed_streams_decode_or_raise_format_error(raw):
    for labels in (False, True):
        try:
            vol = read_nifti(raw, labels=labels)
        except FormatError:
            continue
        expected = LabelVolume if labels else ScalarVolume
        assert isinstance(vol, expected)
        assert min(vol.dims) > 0
        assert np.all(np.isfinite(vol.data))


# ---------------------------------------------------------------------------
# piecewise gzip reads

_FEXTRA, _FNAME, _FCOMMENT, _FHCRC = 0x04, 0x08, 0x10, 0x02


@st.composite
def _gzip_members(draw, data):
    """One gzip member of ``data``: from ``gzip.compress``, from
    ``gzip.GzipFile`` with a file name, or with a hand-built header."""
    kind = draw(st.sampled_from(["compress", "gzipfile", "hand"]))
    level = draw(st.integers(0, 9))
    mtime = draw(st.integers(0, 2**32 - 1))
    if kind == "compress":
        return gzip.compress(data, compresslevel=level, mtime=mtime)
    if kind == "gzipfile":
        buf = io.BytesIO()
        name = draw(st.text("abcxyz._-", min_size=1, max_size=12))
        with gzip.GzipFile(filename=name, mode="wb", fileobj=buf, compresslevel=level,
                           mtime=mtime) as fh:
            fh.write(data)
        return buf.getvalue()
    flags = draw(st.sets(st.sampled_from([_FEXTRA, _FNAME, _FCOMMENT, _FHCRC])))
    header = bytearray(struct.pack("<BBBBIBB", 0x1F, 0x8B, 8, sum(flags), mtime, 0, 255))
    if _FEXTRA in flags:
        extra = draw(st.binary(max_size=40))
        header += struct.pack("<H", len(extra)) + extra
    for flag in (_FNAME, _FCOMMENT):
        if flag in flags:
            header += draw(st.binary(max_size=20)).replace(b"\x00", b"") + b"\x00"
    if _FHCRC in flags:
        header += struct.pack("<H", zlib.crc32(header) & 0xFFFF)
    deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(data) + deflate.flush()
    return bytes(header) + body + struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF)


@st.composite
def _gzip_streams(draw):
    """An encoded volume, a gzip stream of it (one member or two, and zero
    padding or none), whether it holds labels, and where its last member
    starts and ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    kind = draw(st.sampled_from(["float32", "int16", "labels"]))
    if kind == "labels":
        raw = write_nifti(LabelVolume(rng.integers(0, 5, dims).astype(np.uint8), ISO))
    elif kind == "int16":
        raw = write_nifti(ScalarVolume(rng.integers(-99, 99, dims).astype(np.float32), ISO),
                          datatype=DT_INT16)
    else:
        raw = write_nifti(_random_scalar(rng, dims))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(raw)))
        first, last = draw(_gzip_members(raw[:cut])), draw(_gzip_members(raw[cut:]))
    else:
        first, last = b"", draw(_gzip_members(raw))
    padding = bytes(draw(st.integers(0, 600)))
    return raw, first + last + padding, kind == "labels", (len(first), len(first + last))


@settings(max_examples=150, deadline=None)
@given(_gzip_streams())
def test_gzip_reads_decode_as_gzip_decompress(case):
    raw, stream, labels, _ = case
    assert gzip.decompress(stream) == raw
    assert b"".join(nifti._inflate(iter([stream]))) == raw
    got, want = read_nifti(stream, labels=labels), read_nifti(raw, labels=labels)
    assert got.data.dtype == want.data.dtype and got.spacing == want.spacing
    assert got.data.tobytes("F") == want.data.tobytes("F")
    for vol, source in ((got, stream), (want, raw)):
        assert vol.data.flags.writeable
        assert not np.shares_memory(vol.data, np.frombuffer(source, np.uint8))


@settings(max_examples=150, deadline=None)
@given(_gzip_streams(), st.data())
def test_cut_or_flipped_gzip_trailer_is_format_error(case, data):
    _, stream, labels, (last, end) = case
    how = data.draw(st.sampled_from(["cut", "crc", "isize"]))
    if how == "cut":
        # a cut before the last member would leave a valid shorter stream
        bad = stream[:data.draw(st.integers(last + 1, end - 1))]
    else:
        at = end - data.draw(st.integers(5, 8) if how == "crc" else st.integers(1, 4))
        bad = bytearray(stream)
        bad[at] ^= 1 << data.draw(st.integers(0, 7))
        bad = bytes(bad)
    with pytest.raises(FormatError):
        read_nifti(bad, labels=labels)


def _outcome(read):
    """What ``read()`` gives: the decoded bytes, dtype and spacing, or the
    type and message of the ``FormatError`` it raises."""
    try:
        vol = read()
    except FormatError as exc:
        return type(exc), str(exc)
    return vol.data.tobytes("F"), vol.data.dtype, vol.spacing


def _read_file_chunks(stream: bytes, labels: bool, voxels):
    """The volume the chunk reader assembles from a file holding ``stream``."""
    with tempfile.TemporaryFile() as fh:
        fh.write(stream)
        fh.seek(0)
        chunks = nifti._read_chunks(fh, voxels, labels)
        hdr = next(chunks)
        data = np.empty(hdr.shape, np.uint8 if labels else np.float32, order="F")
        for zs, chunk in chunks:
            data[:, :, zs] = chunk.data
    return (LabelVolume if labels else ScalarVolume)(data, hdr.spacing)


@settings(max_examples=150, deadline=None)
@given(_gzip_streams(), st.data())
def test_file_chunk_reader_reads_and_fails_as_read_nifti(case, data):
    # every member, padding and FNAME/FEXTRA/FHCRC layout _gzip_streams
    # draws, and the plain stream, as they are, cut short or with one bit
    # flipped; read in chunks of one slice, a few voxels or the default
    raw, stream, labels, _ = case
    source = data.draw(st.sampled_from([stream, raw]))
    how = data.draw(st.sampled_from(["whole", "cut", "flip"]))
    if how == "cut":
        source = source[:data.draw(st.integers(0, len(source) - 1))]
    elif how == "flip":
        at = data.draw(st.integers(0, len(source) - 1))
        source = source[:at] + bytes([source[at] ^ 1 << data.draw(st.integers(0, 7))]) \
            + source[at + 1:]
    voxels = data.draw(st.sampled_from([1, 7, None]))
    want = _outcome(lambda: read_nifti(source, labels=labels))
    assert _outcome(lambda: _read_file_chunks(source, labels, voxels)) == want


def _traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs, and what it raised."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        try:
            fn(*args)
            raised = None
        except Exception as exc:
            raised = exc
        return tracemalloc.get_traced_memory()[1], raised
    finally:
        tracemalloc.stop()


def _member_with_tail(raw, tail_mib, isize=None):
    """One gzip member holding ``raw`` and then ``tail_mib`` MiB of zeros."""
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    parts, crc, zero = [deflate.compress(raw)], zlib.crc32(raw), bytes(1 << 20)
    for _ in range(tail_mib):
        parts.append(deflate.compress(zero))
        crc = zlib.crc32(zero, crc)
    size = len(raw) + (tail_mib << 20) if isize is None else isize
    return b"".join([nifti._GZIP_HEADER, *parts, deflate.flush(),
                     struct.pack("<II", crc, size & 0xFFFFFFFF)])


def test_stream_bytes_past_the_payload_are_not_kept():
    labels = np.random.default_rng(15).integers(0, 5, (8, 8, 4)).astype(np.uint8)
    bomb = _member_with_tail(write_nifti(LabelVolume(labels, ISO)), tail_mib=48)
    assert len(bomb) < 100_000
    peak, raised = _traced_peak(read_nifti, bomb, True)
    assert raised is None
    assert peak < 4 << 20  # the 48 MiB tail is inflated for its CRC only
    assert np.array_equal(read_nifti(bomb, labels=True).data, labels)


def test_forged_isize_allocates_no_more_than_the_header_declares():
    raw = write_nifti(_random_scalar(np.random.default_rng(16), (64, 64, 16)))
    forged = bytearray(gzip.compress(raw, mtime=0))
    forged[-4:] = b"\xff\xff\xff\xff"
    peak, raised = _traced_peak(read_nifti, bytes(forged))
    assert isinstance(raised, FormatError) and "incorrect length check" in str(raised)
    assert peak < len(raw) + (2 << 20)


def test_noisy_read_holds_no_whole_volume_temporary(tmp_path):
    # The CLI reads a file in pieces into one payload buffer, so its read
    # holds neither the stored file nor a second payload; the finite check
    # adds a block, not 1 B/voxel.
    from cordpipe.cli import _read_volume

    path = tmp_path / "noise.nii.gz"
    raw = write_nifti(_random_scalar(np.random.default_rng(18), (192, 208, 64)))
    path.write_bytes(gzip_nifti(raw))
    peak, raised = _traced_peak(_read_volume, str(path))
    assert raised is None
    assert peak < len(raw) + (1 << 20)


def _header_fault(gz, how):
    """The gzip stream ``gz`` with a reserved flag bit set in its first
    member's header, or with a header CRC added that is wrong."""
    gz = bytearray(gz)
    if how == "reserved":
        gz[3] |= 0x20  # FLG bit 5, reserved by RFC 1952
    else:
        gz[3] |= _FHCRC
        gz[10:10] = struct.pack("<H", zlib.crc32(gz[:10]) & 0xFFFF ^ 0x0001)
    return bytes(gz)


def _hostile_stored_member(how):
    """The stored member ``gzip_nifti`` writes for 16 slices of noise, cut
    inside its second block, with a payload byte of that block flipped,
    with the first block's NLEN not the complement of its LEN, with a
    reserved header flag bit set, or with a header CRC that is wrong."""
    raw = write_nifti(_random_scalar(np.random.default_rng(19), (64, 64, 16)))
    gz = bytearray(gzip_nifti(raw))
    assert gz[10:15] == b"\x00\xff\xff\x00\x00"  # a full, non-final stored block
    inside = 10 + 5 + 65535 + 5 + 1000
    if how == "cut":
        return bytes(gz[:inside])
    if how in ("reserved", "fhcrc"):
        return _header_fault(gz, how)
    gz[inside if how == "crc" else 13] ^= 0x01
    return bytes(gz)


@pytest.mark.parametrize("how, match", [("cut", "end-of-stream"), ("crc", "incorrect data check"),
                                        ("nlen", "stored block lengths"),
                                        ("reserved", "unknown header flags"),
                                        ("fhcrc", "header crc mismatch")],
                         ids=["cut-end-of-stream", "crc-CRC32", "nlen-stored block lengths",
                              "reserved-FLG", "fhcrc-FHCRC"])
def test_hostile_stored_member_is_format_error(how, match):
    with pytest.raises(FormatError, match=match):
        read_nifti(_hostile_stored_member(how))


def test_float32_gzip_read_checks_finiteness_once(monkeypatch):
    raw = gzip_nifti(write_nifti(_random_scalar(np.random.default_rng(21), (32, 32, 4))))
    calls = []
    check = volume._all_finite
    for module in (volume, nifti):
        monkeypatch.setattr(module, "_all_finite", lambda data: calls.append(1) or check(data))
    read_nifti(raw)
    assert len(calls) == 1


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_in_the_first_or_last_block_is_caught(where, value):
    # three blocks of the finite check
    depth = 3 * volume._BLOCK_VOXELS // (128 * 128)
    data = np.random.default_rng(20).random((128, 128, depth), dtype=np.float32)
    bad = data.copy()
    bad[(0, 0, 0) if where == "first" else (-1, -1, -1)] = value
    raw = bytearray(write_nifti(ScalarVolume(data, ISO)))
    at = HEADER_SIZE + 4 + (0 if where == "first" else 4 * (data.size - 1))
    raw[at:at + 4] = np.float32(value).tobytes()
    for stream in (bytes(raw), gzip_nifti(bytes(raw))):
        with pytest.raises(FormatError, match="non-finite"):
            read_nifti(stream)
    vol = ScalarVolume(data, ISO)
    vol.data[...] = bad  # mutated after construction
    with pytest.raises(ValidationError, match="non-finite"):
        write_nifti(vol)


def test_header_dims_past_what_the_stream_can_hold_are_truncated_not_allocated():
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    struct.pack_into("<4h", raw, 40, 3, 32767, 32767, 32767)  # a 140 TB float32 payload
    peak, raised = _traced_peak(read_nifti, gzip.compress(bytes(raw)))
    assert isinstance(raised, TruncatedPayloadError)
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# sparse annotation sidecar


def _annotation(rng, z_indices, plane_dims=(4, 4)):
    planes = rng.integers(0, 5, plane_dims + (len(z_indices),)).astype(np.uint8)
    return SparseAnnotation("vol-a", list(z_indices), planes)


def test_sidecar_roundtrip_exact():
    rng = np.random.default_rng(4)
    ann = _annotation(rng, [1, 4, 7])
    sidecar, planes = write_sparse_annotation(ann, "planes.nii", ISO)
    back = read_sparse_annotation(sidecar, planes)
    assert back.volume_id == "vol-a"
    assert back.z_indices == [1, 4, 7]
    assert np.array_equal(back.planes, ann.planes)


def test_training_and_test_slice_counts():
    # 374 annotated slices in training, 54 held out: both accepted.
    rng = np.random.default_rng(5)
    train = _annotation(rng, range(0, 374))
    test = _annotation(rng, range(0, 54))
    assert len(train) == 374
    assert len(test) == 54


def test_empty_annotation_is_accepted():
    ann = SparseAnnotation("v", [], np.zeros((4, 4, 0), np.uint8))
    assert len(ann) == 0
    assert ann.plane_dims == (4, 4)


def test_index_at_z_extent_rejected():
    # the reader decodes the sidecar; evaluate checks it against the prediction
    rng = np.random.default_rng(7)
    ann = _annotation(rng, [1, 4])
    sidecar, planes = write_sparse_annotation(ann, "p.nii", ISO)
    pred = LabelVolume(np.zeros((4, 4, 4), np.uint8), ISO)
    with pytest.raises(ValidationError, match="index 4 .* 4 slices"):
        evaluate(pred, read_sparse_annotation(sidecar, planes))  # 4 is out of range


def test_negative_index_rejected():
    doc = {"volume_id": "v", "z_indices": [-1, 2], "planes_nifti": "p.nii"}
    planes = write_nifti(LabelVolume(np.zeros((4, 4, 2), np.uint8), ISO))
    with pytest.raises(SidecarError, match="negative"):
        read_sparse_annotation(json.dumps(doc).encode(), planes)


def test_duplicate_index_rejected():
    doc = {"volume_id": "v", "z_indices": [2, 2], "planes_nifti": "p.nii"}
    planes = write_nifti(LabelVolume(np.zeros((4, 4, 2), np.uint8), ISO))
    with pytest.raises(SidecarError):
        read_sparse_annotation(json.dumps(doc).encode(), planes)


def test_decreasing_indices_rejected_in_type():
    with pytest.raises(SidecarError):
        SparseAnnotation("v", [3, 1], np.zeros((4, 4, 2), np.uint8))


def test_plane_shape_mismatch_rejected():
    rng = np.random.default_rng(8)
    ann = _annotation(rng, [1], plane_dims=(3, 3))
    sidecar, planes = write_sparse_annotation(ann, "p.nii", ISO)
    pred = LabelVolume(np.zeros((4, 4, 8), np.uint8), ISO)
    with pytest.raises(DimensionError):
        evaluate(pred, read_sparse_annotation(sidecar, planes))


def test_read_sidecar_keeps_planes_spacing():
    ann = _annotation(np.random.default_rng(11), [0, 2])
    aniso = Spacing(0.5, 0.25, 2.0)
    back = read_sparse_annotation(*write_sparse_annotation(ann, "p.nii", aniso))
    assert back.spacing == Spacing(0.5, 0.25, 2.0)


@pytest.mark.parametrize("text", [b"{bad", b"[1, 2]", b"\xff\xfe{",
                                  b'{"volume_id": "v", "z_indices": [1.5], "planes_nifti": "p"}',
                                  b'{"volume_id": "v", "z_indices": ["1"], "planes_nifti": "p"}',
                                  b'{"volume_id": "v", "z_indices": [true], "planes_nifti": "p"}',
                                  b'{"volume_id": "v", "z_indices": 3, "planes_nifti": "p"}',
                                  b'{"volume_id": "v", "z_indices": [1], "planes_nifti": 7}',
                                  b'{"volume_id": "v", "z_indices": [1]}'])
def test_malformed_sidecar_document_is_sidecar_error(text):
    with pytest.raises(SidecarError):
        parse_sidecar(text)
    planes = write_nifti(LabelVolume(np.zeros((4, 4, 1), np.uint8), ISO))
    with pytest.raises(SidecarError):
        read_sparse_annotation(text, planes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, bool])
def test_annotation_planes_must_be_integer_like_label_volumes(dtype):
    # 3.7 would truncate to class 3 in the cast to uint8
    planes = np.full((1, 1, 1), 3.7).astype(dtype)
    for build in (lambda: SparseAnnotation("v", [0], planes), lambda: LabelVolume(planes, ISO)):
        with pytest.raises(ValidationError, match="label data must be integer"):
            build()


@pytest.mark.parametrize("bad", [-252, 260])
def test_annotation_ids_outside_range_rejected_before_the_cast(bad):
    # both are 4 as uint8
    planes = np.zeros((2, 2, 1), np.int64)
    planes[1, 1, 0] = bad
    with pytest.raises(LabelRangeError):
        SparseAnnotation("v", [0], planes)
