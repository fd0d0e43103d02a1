import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordpipe import (
    AUG1,
    AUG2,
    AUG3,
    AugProfile,
    SampledTransform,
    build_matrix,
    sample_transform,
    slice_seed,
    warp_pair,
)
from cordpipe import augment
from cordpipe.errors import ConfigError, DimensionError, TransformError

from oracles import loop_warp_image, loop_warp_labels, where_warp

PLANE = (32, 32)

# All ranges zero: sample_transform maps it to the exact identity.
ZERO = AugProfile(0.0, 0.0, (1.0, 1.0), (0.0, 0.0), 0.0, name="zero")


def _warp_image(plane, t):
    (out,), _ = warp_pair([plane], np.zeros(plane.shape, np.uint8), t)
    return out


def _warp_labels(labels, t):
    return warp_pair([], labels, t)[1]


def test_profiles_match_published_table():
    assert (AUG1.translation_frac, AUG1.rotation_deg) == (0.45, 90.0)
    assert AUG1.scale == (0.7, 1.7)
    assert AUG1.shear_deg == (-35.0, 35.0)
    assert AUG1.perspective == 0.35

    assert (AUG2.translation_frac, AUG2.rotation_deg) == (0.45, 180.0)
    assert AUG2.scale == (0.3, 2.0)
    assert AUG2.shear_deg == (-55.0, 55.0)
    assert AUG2.perspective == 0.55

    assert (AUG3.translation_frac, AUG3.rotation_deg) == (0.80, 180.0)
    assert AUG3.scale == (0.1, 3.0)
    assert AUG3.shear_deg == (-85.0, 85.0)
    assert AUG3.perspective == 0.85


def test_none_profile_is_identity():
    t = sample_transform(ZERO, seed=123)
    assert np.array_equal(t.matrix, np.eye(3))
    assert t.is_identity


def test_sampled_parameters_within_bounds():
    for profile in (AUG1, AUG2, AUG3):
        for seed in range(500):
            t = sample_transform(profile, seed=seed, plane_shape=PLANE)
            assert abs(t.translation[0]) <= profile.translation_frac
            assert abs(t.translation[1]) <= profile.translation_frac
            assert abs(t.rotation_deg) <= profile.rotation_deg
            assert profile.scale[0] <= t.scale <= profile.scale[1]
            assert profile.shear_deg[0] <= t.shear_deg <= profile.shear_deg[1]
            assert abs(t.perspective[0]) <= profile.perspective
            assert abs(t.perspective[1]) <= profile.perspective


def test_same_seed_bitwise_equal():
    a = sample_transform(AUG2, seed=99, plane_shape=PLANE)
    b = sample_transform(AUG2, seed=99, plane_shape=PLANE)
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.rotation_deg == b.rotation_deg
    assert a.scale == b.scale


def test_different_seed_differs():
    a = sample_transform(AUG2, seed=1, plane_shape=PLANE)
    b = sample_transform(AUG2, seed=2, plane_shape=PLANE)
    assert not np.array_equal(a.matrix, b.matrix)


def test_profile_with_translation_needs_plane_shape():
    with pytest.raises(ConfigError):
        sample_transform(AUG1, seed=0)


def test_identity_warp_bit_identical():
    rng = np.random.default_rng(30)
    plane = rng.random(PLANE).astype(np.float32)
    labels = rng.integers(0, 5, PLANE).astype(np.uint8)
    ident = sample_transform(ZERO, seed=0)
    (out,), out_labels = warp_pair([plane], labels, ident)
    assert out.tobytes() == plane.tobytes()
    assert out_labels.tobytes() == labels.tobytes()


def test_quarter_turn_is_exact_permutation():
    rng = np.random.default_rng(31)
    plane = rng.random((9, 9)).astype(np.float32)
    for deg in (90, 180, 270):
        t = SampledTransform(build_matrix(rotation_deg=deg), (0, 0), deg, 1.0, 0.0, (0, 0))
        out = _warp_image(plane, t)
        assert np.array_equal(np.sort(out.ravel()), np.sort(plane.ravel()))


def test_rotation_180_twice_restores_labels():
    rng = np.random.default_rng(32)
    labels = rng.integers(0, 5, (10, 10)).astype(np.uint8)
    t = SampledTransform(build_matrix(rotation_deg=180), (0, 0), 180.0, 1.0, 0.0, (0, 0))
    assert np.array_equal(_warp_labels(_warp_labels(labels, t), t), labels)


def test_label_warp_never_invents_ids():
    rng = np.random.default_rng(33)
    for seed in range(100):
        labels = np.zeros(PLANE, np.uint8)
        labels[rng.random(PLANE) > 0.6] = 2
        t = sample_transform(AUG2, seed=seed, plane_shape=PLANE)
        out = _warp_labels(labels, t)
        assert set(np.unique(out)) <= {0, 2}


def test_foreground_mass_bounded_under_mild_warps():
    # centered square, |rotation| <= 90, scale 1: mass change < 30%
    labels = np.zeros((40, 40), np.uint8)
    labels[14:26, 14:26] = 1
    base = int((labels > 0).sum())
    rng = np.random.default_rng(34)
    for _ in range(25):
        deg = float(rng.uniform(-90, 90))
        t = SampledTransform(build_matrix(rotation_deg=deg), (0, 0), deg, 1.0, 0.0, (0, 0))
        out = _warp_labels(labels, t)
        change = abs(int((out > 0).sum()) - base) / base
        assert change < 0.30


def test_warp_pair_shares_one_transform():
    rng = np.random.default_rng(35)
    mag = rng.random(PLANE).astype(np.float32)
    phs = rng.random(PLANE).astype(np.float32)
    labels = rng.integers(0, 3, PLANE).astype(np.uint8)
    t = sample_transform(AUG1, seed=5, plane_shape=PLANE)
    (wm, wp), wl = warp_pair([mag, phs], labels, t)
    assert np.array_equal(wm, _warp_image(mag, t))
    assert np.array_equal(wp, _warp_image(phs, t))
    assert np.array_equal(wl, _warp_labels(labels, t))
    assert set(np.unique(wl)) <= set(np.unique(labels)) | {0}


def test_warp_pair_identity_unchanged():
    rng = np.random.default_rng(36)
    mag = rng.random(PLANE).astype(np.float32)
    phs = rng.random(PLANE).astype(np.float32)
    labels = rng.integers(0, 3, PLANE).astype(np.uint8)
    ident = sample_transform(ZERO, seed=0)
    (wm, wp), wl = warp_pair([mag, phs], labels, ident)
    assert np.array_equal(wm, mag) and np.array_equal(wp, phs) and np.array_equal(wl, labels)


def test_warp_pair_dim_mismatch():
    t = sample_transform(ZERO, seed=0)
    with pytest.raises(DimensionError):
        warp_pair([np.zeros((4, 4)), np.zeros((5, 5))], np.zeros((4, 4), np.uint8), t)


def test_singular_matrix_rejected():
    m = np.eye(3)
    m[0, 0] = 0.0
    m[0, 1] = 0.0
    with pytest.raises(TransformError):
        SampledTransform(m, (0, 0), 0.0, 1.0, 0.0, (0, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    for at in ((0, 0), (1, 2), (2, 2)):
        m = np.eye(3)
        m[at] = bad
        with pytest.raises(TransformError):
            SampledTransform(m, (0, 0), 0.0, 1.0, 0.0, (0, 0))
    with pytest.raises(TransformError):
        SampledTransform(np.full((3, 3), bad), (0, 0), 0.0, 1.0, 0.0, (0, 0))


def test_slice_seed_deterministic_and_distinct():
    assert slice_seed(7, 3) == slice_seed(7, 3)
    assert slice_seed(7, 3) != slice_seed(7, 4)


def test_warped_output_reproducible_from_seed():
    rng = np.random.default_rng(37)
    plane = rng.random(PLANE).astype(np.float32)
    t1 = sample_transform(AUG3, seed=11, plane_shape=PLANE)
    t2 = sample_transform(AUG3, seed=11, plane_shape=PLANE)
    assert _warp_image(plane, t1).tobytes() == _warp_image(plane, t2).tobytes()


def test_profile_named_none_still_warps():
    # the identity shortcut is decided by the ranges alone, not the name
    aug1_as_none = AugProfile(AUG1.translation_frac, AUG1.rotation_deg, AUG1.scale,
                              AUG1.shear_deg, AUG1.perspective, name="none")
    t = sample_transform(aug1_as_none, seed=5, plane_shape=PLANE)
    assert not t.is_identity
    assert t.matrix.tobytes() == sample_transform(AUG1, seed=5, plane_shape=PLANE).matrix.tobytes()
    zero = AugProfile(0.0, 0.0, (1.0, 1.0), (0.0, 0.0), 0.0, name="unnamed")
    assert sample_transform(zero, seed=5).is_identity


def test_warp_pair_maps_each_draw_once(monkeypatch):
    calls = []
    inverse_coords = augment._inverse_coords
    monkeypatch.setattr(augment, "_inverse_coords",
                        lambda t, shape: calls.append(shape) or inverse_coords(t, shape))
    rng = np.random.default_rng(38)
    planes = [rng.random(PLANE).astype(np.float32) for _ in range(2)]
    labels = rng.integers(0, 3, PLANE).astype(np.uint8)
    t = sample_transform(AUG2, seed=7, plane_shape=PLANE)
    warp_pair(planes, labels, t)
    assert calls == [PLANE]


# matrices whose source coordinates land on half-integers, where rounding
# and the floor of the bilinear corners are most fragile
_HALF_STEP_MATRICES = [
    build_matrix(scale=0.5),
    build_matrix(scale=2.0),
    build_matrix(translation=(0.5, -0.5)),
    build_matrix(translation=(0.5, 1.5), scale=2.0),
    build_matrix(rotation_deg=90),
    build_matrix(rotation_deg=180, translation=(0.5, 0.5)),
    build_matrix(rotation_deg=270, translation=(-1.5, 0.5)),
    build_matrix(perspective=(0.3, -0.2)),
    build_matrix(perspective=(-1.5, 2.0), scale=0.3),
]


@st.composite
def _warp_cases(draw):
    h, w = draw(st.integers(1, 69)), draw(st.integers(1, 69))
    if draw(st.booleans()):
        profile = draw(st.sampled_from([AUG1, AUG2, AUG3, ZERO]))
        t = sample_transform(profile, seed=draw(st.integers(0, 2**32 - 1)), plane_shape=(h, w))
    else:
        t = SampledTransform(draw(st.sampled_from(_HALF_STEP_MATRICES)),
                             (0, 0), 0.0, 1.0, 0.0, (0, 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from("CF"))
    mag = np.asarray(rng.normal(size=(h, w)).astype(np.float32), order=order)
    mag[rng.random((h, w)) < 0.2] = -0.0
    phase = rng.random((h + 2, 2 * w)).astype(np.float32)[1:h + 1, ::2]  # strided view
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    labels = np.asarray(rng.integers(0, 6, (h, w)), dtype=dtype, order=order)
    return t, mag, phase, labels


@settings(max_examples=60, deadline=None)
@given(_warp_cases())
def test_warps_match_loop_oracle(case):
    t, mag, phase, labels = case

    def same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    (got_mag, got_phase), got_labels = warp_pair([mag, phase], labels, t)
    same(got_mag, loop_warp_image(mag, t.matrix))
    same(got_phase, loop_warp_image(phase, t.matrix))
    same(got_labels, loop_warp_labels(labels, t.matrix))


def _edge_translations(h, w):
    """Translations that put pixel (0, 0)'s bilinear corner x0 at -3, -2,
    -1, h-1, h and h+1 (and y0 likewise), with the source on the corner
    or a quarter, half or three quarters past it, so nearest samples also
    land at -1 and h."""
    def offsets(n):
        return (-3, -2, -1, n - 1, n, n + 1)

    for frac in (0.0, 0.25, 0.5, 0.75):
        for x0 in offsets(h):
            for y0 in offsets(w):
                yield -(x0 + frac), -(y0 + (frac + 0.25) % 1)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 6)])
def test_warps_at_the_clip_edges_match_loop_oracle(shape):
    rng = np.random.default_rng(39)
    mag = rng.normal(size=shape).astype(np.float32)
    labels = rng.integers(1, 5, shape).astype(np.uint8)
    for translation in _edge_translations(*shape):
        matrix = build_matrix(translation=translation)
        (got,), got_labels = warp_pair([mag], labels, SampledTransform(
            matrix, (0, 0), 0.0, 1.0, 0.0, (0, 0)))
        assert got.tobytes() == loop_warp_image(mag, matrix).tobytes(), translation
        assert got_labels.tobytes() == loop_warp_labels(labels, matrix).tobytes(), translation


@pytest.mark.parametrize("shape", [(1, 3), (5, 4)])
def test_divergent_rays_read_the_fill(shape):
    # the inverse's last row is (1, 0, 0), so the homogeneous divisor is
    # the centered x: exactly zero on the middle row of an odd plane
    matrix = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    rng = np.random.default_rng(42)
    mag = rng.normal(size=shape).astype(np.float32)
    labels = rng.integers(1, 5, shape).astype(np.uint8)
    (got,), got_labels = warp_pair([mag], labels, SampledTransform(
        matrix, (0, 0), 0.0, 1.0, 0.0, (0, 0)))
    middle = shape[0] // 2
    assert (got[middle] == 0).all() and (got_labels[middle] == 0).all()
    assert got.tobytes() == loop_warp_image(mag, matrix).tobytes()
    assert got_labels.tobytes() == loop_warp_labels(labels, matrix).tobytes()


def test_non_finite_source_reads_the_fill():
    # finite and invertible, but its inverse is ~1e307 wide: the source
    # coordinates of most pixels overflow to +-inf, and to NaN where an
    # overflowing x term meets an overflowing y term of the other sign
    matrix = np.array([[5e-308, -5e306, 0.0], [5e-308, 5e306, 0.0], [0.0, 0.0, 1.0]])
    t = SampledTransform(matrix, (0, 0), 0.0, 1.0, 0.0, (0, 0))
    shape = (40, 41)
    with np.errstate(all="ignore"):
        src = augment._inverse_coords(t, shape)
        rng = np.random.default_rng(40)
        mag = rng.normal(size=shape).astype(np.float32)
        labels = rng.integers(1, 5, shape).astype(np.uint8)
        (got,), got_labels = warp_pair([mag], labels, t)
        want, want_labels = where_warp(mag, labels, matrix)
    non_finite = ~np.isfinite(src).all(axis=0)
    assert np.isnan(src).any() and np.isinf(src).any() and (~non_finite).any()
    assert (got_labels[non_finite] == 0).all()
    assert got.tobytes() == want.tobytes()
    assert got_labels.tobytes() == want_labels.tobytes()


@pytest.mark.parametrize("seed", [None, 0, 5, 123, 2**40])
@pytest.mark.parametrize("plane_shape", [None, PLANE])
def test_zero_profile_draws_the_exact_identity(seed, plane_shape):
    t = sample_transform(ZERO, seed=seed, plane_shape=plane_shape)
    assert t.matrix.tobytes() == np.eye(3).tobytes()
    record = (*t.translation, t.rotation_deg, t.scale, t.shear_deg, *t.perspective)
    assert [(v, np.signbit(v)) for v in record] == \
        [(0.0, False)] * 3 + [(1.0, False)] + [(0.0, False)] * 3
    assert t.seed == seed


def test_a_negative_zero_bound_draws_like_zero():
    signed = AugProfile(-0.0, -0.0, (1.0, 1.0), (0.0, -0.0), -0.0)
    assert sample_transform(signed, seed=5).matrix.tobytes() == np.eye(3).tobytes()
    bounds = dict(translation_frac=0.1, rotation_deg=30.0, perspective=0.2)
    for field in bounds:
        plain = sample_transform(AugProfile(scale=(0.5, 2.0), shear_deg=(-5.0, 5.0),
                                            **{**bounds, field: 0.0}), 7, PLANE)
        signed = sample_transform(AugProfile(scale=(0.5, 2.0), shear_deg=(-5.0, 5.0),
                                             **{**bounds, field: -0.0}), 7, PLANE)
        assert signed.matrix.tobytes() == plain.matrix.tobytes(), field
