import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordpipe import (
    ClaheConfig,
    ScalarVolume,
    Spacing,
    StretchConfig,
    apply_mask,
    clahe_slicewise,
    otsu_mask,
    percentile_stretch,
    zscore_normalize,
)
from cordpipe.errors import (
    ConfigError,
    DegenerateHistogramError,
    DegenerateRangeError,
    DimensionError,
    ValidationError,
    ZeroVarianceError,
)
from cordpipe import volume
from cordpipe.preprocess import _clip_and_redistribute

from oracles import (
    LAYOUTS,
    exhaustive_otsu_bin,
    global_hist_equalize,
    laid_out,
    loop_clahe_plane,
)

ISO = Spacing.isotropic()


def _vol(data):
    return ScalarVolume(np.asarray(data, dtype=np.float32), ISO)


# ---------------------------------------------------------------------------
# Otsu


def test_otsu_bimodal_half_and_half():
    data = np.zeros((4, 4, 4), np.float32)
    data[:2] = 100.0
    res = otsu_mask(_vol(data))
    assert 0.0 < res.threshold < 100.0
    assert np.array_equal(res.mask.astype(bool), data == 100.0)
    # same split the exhaustive search finds
    t = exhaustive_otsu_bin(data)
    edges = np.linspace(0.0, 100.0, 257)
    assert res.threshold == pytest.approx(edges[t + 1])


def test_otsu_three_level_dominant_low():
    data = np.zeros((6, 6, 6), np.float32)
    data.ravel()[:20] = 50.0
    data.ravel()[20:30] = 100.0
    res = otsu_mask(_vol(data))
    assert res.threshold < 50.0
    t = exhaustive_otsu_bin(data)
    edges = np.linspace(0.0, 100.0, 257)
    assert res.threshold == pytest.approx(edges[t + 1])


def test_otsu_matches_exhaustive_search_on_random_bimodal():
    rng = np.random.default_rng(10)
    edges_of = lambda d: np.linspace(d.min(), d.max(), 257)
    for _ in range(25):
        n = int(rng.integers(50, 400))
        lo = rng.normal(20, 3, n)
        hi = rng.normal(80, 5, n // 2 + 1)
        data = np.concatenate([lo, hi]).astype(np.float32)
        data = data[: (data.size // 4) * 4]
        data = data.reshape(2, 2, -1)
        res = otsu_mask(_vol(data))
        t = exhaustive_otsu_bin(data)
        assert res.threshold == float(edges_of(np.asarray(data, np.float64))[t + 1])


def test_otsu_constant_volume_degenerate():
    with pytest.raises(DegenerateHistogramError):
        otsu_mask(_vol(np.full((3, 3, 3), 5.0)))


def test_otsu_affine_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        data = np.concatenate([rng.normal(10, 2, 200), rng.normal(60, 4, 150)])
        data = data.astype(np.float32).reshape(5, 10, 7)
        base = otsu_mask(_vol(data))
        a = float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(-20, 20))
        remapped = otsu_mask(_vol(a * data + b))
        assert np.array_equal(base.mask, remapped.mask)
        assert remapped.threshold == pytest.approx(a * base.threshold + b, rel=1e-6, abs=1e-6)


def test_otsu_histogram_shape():
    data = np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4)
    res = otsu_mask(_vol(data))
    assert res.histogram.shape == (256,)
    assert res.histogram.sum() == 64


# ---------------------------------------------------------------------------
# apply_mask


def test_apply_mask_all_ones_is_identity():
    rng = np.random.default_rng(12)
    vol = _vol(rng.random((4, 4, 4)))
    out = apply_mask(vol, np.ones(vol.dims, np.uint8))
    assert np.array_equal(out.data, vol.data)


def test_apply_mask_all_zeros_gives_constant():
    rng = np.random.default_rng(13)
    vol = _vol(rng.random((4, 4, 4)))
    out = apply_mask(vol, np.zeros(vol.dims, np.uint8))
    assert (out.data == 0.0).all()


def test_apply_mask_idempotent():
    rng = np.random.default_rng(14)
    vol = _vol(rng.random((4, 4, 4)))
    mask = (rng.random(vol.dims) > 0.5).astype(np.uint8)
    once = apply_mask(vol, mask)
    twice = apply_mask(once, mask)
    assert np.array_equal(once.data, twice.data)


def test_apply_mask_dim_mismatch():
    vol = _vol(np.zeros((4, 4, 4)))
    with pytest.raises(DimensionError):
        apply_mask(vol, np.ones((3, 3, 3)))


def test_phase_masked_by_magnitude_mask():
    # Magnitude-derived mask zeroes phase background, leaves cord values.
    rng = np.random.default_rng(15)
    mag = np.full((6, 6, 4), 0.05, np.float32)
    mag[2:4, 2:4, :] = 1.0
    phase = rng.random((6, 6, 4)).astype(np.float32)
    res = otsu_mask(_vol(mag))
    masked = apply_mask(ScalarVolume(phase, ISO), res.mask)
    assert (masked.data[res.mask == 0] == 0.0).all()
    assert np.array_equal(masked.data[res.mask == 1], phase[res.mask == 1])


# ---------------------------------------------------------------------------
# CLAHE


def _clahe_one_slice(plane, cfg):
    """CLAHE of one plane, run as a one-slice volume."""
    return clahe_slicewise(_vol(np.asarray(plane)[:, :, None]), cfg).data[:, :, 0]


def test_clahe_constant_slice_makes_constant_output():
    plane = np.full((16, 16), 0.4)
    out = _clahe_one_slice(plane, ClaheConfig(tiles=(2, 2), clip_limit=0.5, bins=32))
    assert np.unique(out).size == 1


def test_clahe_single_tile_equals_global_equalization():
    rng = np.random.default_rng(16)
    for _ in range(5):
        # the volume holds float32, so the oracle sees the same rounded plane
        plane = rng.random((12, 18)).astype(np.float32)
        got = _clahe_one_slice(plane, ClaheConfig(tiles=(1, 1), clip_limit=1.0, bins=64))
        want = global_hist_equalize(plane, 64)
        assert np.allclose(got, want, atol=1e-7)


def test_clahe_output_range():
    rng = np.random.default_rng(17)
    plane = rng.random((20, 20))
    out = _clahe_one_slice(plane, ClaheConfig(tiles=(4, 4), clip_limit=0.02, bins=128))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_clahe_volume_matches_per_slice():
    rng = np.random.default_rng(18)
    vol = _vol(rng.random((10, 10, 3)))
    cfg = ClaheConfig(tiles=(2, 2), clip_limit=0.1, bins=32)
    out = clahe_slicewise(vol, cfg)
    for z in range(3):
        assert np.array_equal(out.data[:, :, z], _clahe_one_slice(vol.data[:, :, z], cfg))


def test_clip_contract():
    rng = np.random.default_rng(19)
    npix = 4096
    for _ in range(20):
        hist = rng.multinomial(npix, rng.dirichlet(np.ones(64) * 0.05))
        clip = int(np.ceil(0.05 * npix))
        out = _clip_and_redistribute(hist, clip)
        assert out.sum() == npix
        assert out.max() <= clip + 1
    # pathological: everything in one bin
    hist = np.zeros(64, np.int64)
    hist[0] = npix
    out = _clip_and_redistribute(hist, int(np.ceil(0.05 * npix)))
    assert out.sum() == npix
    assert out.max() <= int(np.ceil(0.05 * npix)) + 1


def test_clip_below_uniform_level_still_terminates():
    hist = np.zeros(256, np.int64)
    hist[0] = 4096
    out = _clip_and_redistribute(hist, 1)  # uniform level is 16
    assert out.sum() == 4096
    assert out.max() <= 17


def test_clip_batched_equals_row_by_row():
    rng = np.random.default_rng(20)
    for nbins in (2, 7, 64, 256):
        npix = rng.integers(1, 3000, 12)
        hist = np.stack([rng.multinomial(n, rng.dirichlet(np.ones(nbins) * 0.05)) for n in npix])
        clip = rng.integers(1, npix + 1)
        clip[:3] = 1  # below the uniform level: several waterfill rounds
        got = _clip_and_redistribute(hist, clip)
        assert got.shape == hist.shape
        for row, c, out in zip(hist, clip, got):
            assert np.array_equal(out, _clip_and_redistribute(row, c))
        scalar = _clip_and_redistribute(hist.reshape(3, 4, nbins), 5)
        for row, out in zip(hist, scalar.reshape(12, nbins)):
            assert np.array_equal(out, _clip_and_redistribute(row, 5))


@st.composite
def _clahe_cases(draw):
    h, w = draw(st.integers(1, 39)), draw(st.integers(1, 39))
    tiles = (draw(st.integers(1, h)), draw(st.integers(1, w)))
    if draw(st.booleans()):
        tiles = (h, w)
    cfg = ClaheConfig(tiles=tiles, bins=draw(st.integers(2, 256)),
                      clip_limit=draw(st.floats(1e-4, 1.0)))
    z = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "half", "levels"]))
    if kind == "uniform":
        data = rng.random((h, w, z))
    elif kind == "half":
        # saturated halves pile every count into two bins
        data = np.zeros((h, w, z))
        data[h // 2:] = 1.0
    else:
        data = rng.choice([0.0, 0.25, 0.5, 1.0], (h, w, z))
    return data.astype(np.float32), cfg


@settings(max_examples=80, deadline=None)
@given(_clahe_cases())
def test_clahe_matches_loop_oracle(case):
    data, cfg = case
    out = clahe_slicewise(_vol(data), cfg).data
    for z in range(data.shape[2]):
        want = loop_clahe_plane(data[:, :, z], cfg.tiles, cfg.clip_limit, cfg.bins)
        assert out[:, :, z].tobytes() == want.tobytes()
        assert _clahe_one_slice(data[:, :, z], cfg).tobytes() == want.tobytes()


def test_clahe_tile_larger_than_slice_rejected():
    with pytest.raises(ConfigError):
        _clahe_one_slice(np.zeros((4, 4)), ClaheConfig(tiles=(8, 8)))


def test_clahe_requires_normalized_input():
    with pytest.raises(ValidationError):
        _clahe_one_slice(np.full((8, 8), 2.0), ClaheConfig(tiles=(1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clahe_rejects_non_finite_input(bad):
    # ScalarVolume rejects non-finite data, so the value is put in after
    # construction to reach the check of CLAHE itself
    plane = np.full((8, 8), 0.5)
    one = _vol(plane[:, :, None])
    one.data[3, 4, 0] = bad
    with pytest.raises(ValidationError, match="CLAHE input must be finite"):
        clahe_slicewise(one, ClaheConfig(tiles=(2, 2)))
    two = _vol(np.stack([np.zeros((8, 8)), plane], axis=2))
    two.data[3, 4, 1] = bad
    with pytest.raises(ValidationError, match="CLAHE input must be finite"):
        clahe_slicewise(two, ClaheConfig(tiles=(2, 2)))


def test_clahe_config_validation():
    with pytest.raises(ConfigError):
        ClaheConfig(tiles=(0, 4))
    with pytest.raises(ConfigError):
        ClaheConfig(clip_limit=0.0)
    with pytest.raises(ConfigError):
        ClaheConfig(bins=1)


@pytest.mark.parametrize("tiles", [(8, 8, 8), (8,), (8.5, 8), (True, 8), 8, "88"])
def test_clahe_config_tiles_not_two_integers(tiles):
    with pytest.raises(ConfigError, match="tiles must be two integers"):
        ClaheConfig(tiles=tiles)


def test_clahe_config_tiles_normalized_to_int_tuple():
    assert ClaheConfig(tiles=[np.int64(4), 2]).tiles == (4, 2)


# ---------------------------------------------------------------------------
# percentile stretch


def test_stretch_uniform_fixture():
    # Ramp 0..100 defines the percentile window (15 -> 0, 70 -> 1); an
    # extra masked-out voxel holding 42.5 checks the midpoint mapping.
    vals = np.concatenate([np.arange(101, dtype=np.float32), [42.5]]).reshape(102, 1, 1)
    mask = np.ones_like(vals)
    mask[101] = 0
    out = percentile_stretch(_vol(vals), mask=mask).data
    assert abs(out[15, 0, 0] - 0.0) <= 1e-12
    assert abs(out[70, 0, 0] - 1.0) <= 1e-12
    assert abs(out[101, 0, 0] - 0.5) <= 1e-12


def test_stretch_default_percentiles_are_15_70():
    cfg = StretchConfig()
    assert (cfg.p_low, cfg.p_high) == (15.0, 70.0)


def test_stretch_clamps_below_and_above():
    vals = np.arange(101, dtype=np.float32).reshape(101, 1, 1)
    out = percentile_stretch(_vol(vals)).data
    assert (out[:16, 0, 0] == 0.0).all()  # at or below q_low clamps to 0
    assert (out[70:, 0, 0] == 1.0).all()  # at or above q_high clamps to 1


def test_stretch_monotone():
    rng = np.random.default_rng(20)
    data = rng.normal(0, 10, (6, 6, 6)).astype(np.float32)
    out = percentile_stretch(_vol(data)).data
    order = np.argsort(data.ravel())
    stretched = out.ravel()[order]
    assert (np.diff(stretched) >= 0).all()


def test_stretch_masked_scope():
    data = np.zeros((4, 4, 2), np.float32)
    data[2:] = 100.0
    mask = np.zeros_like(data)
    mask[2:] = 1  # percentiles over the 100s only -> degenerate
    with pytest.raises(DegenerateRangeError):
        percentile_stretch(_vol(data), mask=mask)


@pytest.mark.parametrize("order", ["C", "F"])
def test_unmasked_stretch_copies_the_volume_once(order):
    # one float64 copy for np.percentile: twice the float32 volume
    rng = np.random.default_rng(12)
    data = np.asarray(rng.normal(size=(128, 128, 64)).astype(np.float32), order=order)
    vol = _vol(data)
    want = percentile_stretch(vol, mask=np.ones(data.shape, np.uint8)).data
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = percentile_stretch(vol).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * data.nbytes
    assert got.tobytes("K") == want.tobytes("K")


def test_stretch_constant_degenerate():
    with pytest.raises(DegenerateRangeError):
        percentile_stretch(_vol(np.full((3, 3, 3), 1.0)))


def test_stretch_config_validation():
    with pytest.raises(ConfigError):
        StretchConfig(p_low=70, p_high=15)


@settings(max_examples=80, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(2, 6)),
       block=st.integers(1, 9), layout=st.sampled_from(LAYOUTS),
       mask_layout=st.sampled_from(LAYOUTS + [None]), seed=st.integers(0, 2**16))
def test_stretch_and_otsu_are_the_same_in_every_layout(shape, block, layout, mask_layout,
                                                      seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 10, shape).astype(np.float32)  # distinct values: no degenerate range
    mask = None
    if mask_layout is not None:
        mask = (rng.random(shape) < 0.6).astype(np.uint8)
        mask.flat[[0, -1]] = 1  # at least two voxels in scope
    cfg = StretchConfig(p_low=float(rng.uniform(0, 50)), p_high=float(rng.uniform(50, 100)))
    scope = (data if mask is None else data[mask > 0]).astype(np.float64)
    q_low, q_high = np.percentile(scope, [cfg.p_low, cfg.p_high])
    want = np.clip((data.astype(np.float64) - q_low) / (q_high - q_low), 0.0, 1.0)
    want = want.astype(np.float32)
    lo, hi = float(data.min()), float(data.max())
    want_hist, _ = np.histogram(data.astype(np.float64), bins=256, range=(lo, hi))

    vol = _vol(laid_out(data, layout))
    laid_mask = None if mask is None else laid_out(mask, mask_layout)
    with mock.patch.object(volume, "_BLOCK_VOXELS", block):
        got = percentile_stretch(vol, cfg, mask=laid_mask).data
        otsu, contiguous = otsu_mask(vol), otsu_mask(_vol(data))
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    assert otsu.threshold == contiguous.threshold
    assert np.array_equal(otsu.histogram, want_hist)
    assert np.array_equal(contiguous.histogram, want_hist)
    assert otsu.mask.tobytes() == contiguous.mask.tobytes()


# ---------------------------------------------------------------------------
# z-score


def test_zscore_two_values():
    out = zscore_normalize(_vol(np.array([0.0, 2.0]).reshape(2, 1, 1))).data
    assert out[0, 0, 0] == -1.0
    assert out[1, 0, 0] == 1.0


def test_zscore_idempotent_on_normalized_input():
    vol = _vol(np.array([-1.0, 1.0, -1.0, 1.0]).reshape(4, 1, 1))
    out = zscore_normalize(vol).data
    assert np.abs(out - vol.data).max() <= 1e-12


def test_zscore_statistics():
    rng = np.random.default_rng(21)
    vol = _vol(rng.normal(5, 3, (8, 8, 8)))
    out = zscore_normalize(vol).data.astype(np.float64)
    assert abs(out.mean()) < 1e-6
    assert abs(out.std() - 1.0) < 1e-6


def test_zscore_masked_scope():
    data = np.zeros((4, 4, 1), np.float32)
    data[0, 0, 0], data[0, 1, 0] = 1.0, 3.0
    mask = np.zeros_like(data)
    mask[0, 0, 0] = mask[0, 1, 0] = 1
    out = zscore_normalize(_vol(data), mask=mask).data
    assert out[0, 0, 0] == -1.0
    assert out[0, 1, 0] == 1.0


def test_zscore_constant_zero_variance():
    with pytest.raises(ZeroVarianceError):
        zscore_normalize(_vol(np.full((3, 3, 3), 2.0)))


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4), (4, 4, 4, 1)])
@pytest.mark.parametrize("call", [
    lambda vol, mask: apply_mask(vol, mask),
    lambda vol, mask: percentile_stretch(vol, mask=mask),
    lambda vol, mask: zscore_normalize(vol, mask=mask),
], ids=["apply_mask", "percentile_stretch", "zscore_normalize"])
def test_a_mask_of_another_shape_is_a_dimension_error(call, shape):
    vol = _vol(np.arange(64, dtype=np.float32).reshape(4, 4, 4))
    with pytest.raises(DimensionError, match=r"mask shape .* != volume dims \(4, 4, 4\)"):
        call(vol, np.ones(shape, np.uint8))
