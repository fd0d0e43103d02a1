import numpy as np
import pytest

from cordpipe import (
    AUG1,
    AUG2,
    AUG3,
    AUG_NONE,
    SampledTransform,
    build_matrix,
    sample_transform,
    slice_seed,
    warp_image,
    warp_labels,
    warp_pair,
)
from cordpipe.errors import ConfigError, DimensionError, TransformError

PLANE = (32, 32)


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
    t = sample_transform(AUG_NONE, seed=123)
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
    ident = sample_transform(AUG_NONE, seed=0)
    assert warp_image(plane, ident).tobytes() == plane.tobytes()
    assert warp_labels(labels, ident).tobytes() == labels.tobytes()


def test_quarter_turn_is_exact_permutation():
    rng = np.random.default_rng(31)
    plane = rng.random((9, 9)).astype(np.float32)
    for deg in (90, 180, 270):
        t = SampledTransform(build_matrix(rotation_deg=deg), (0, 0), deg, 1.0, 0.0, (0, 0))
        out = warp_image(plane, t)
        assert np.array_equal(np.sort(out.ravel()), np.sort(plane.ravel()))


def test_rotation_180_twice_restores_labels():
    rng = np.random.default_rng(32)
    labels = rng.integers(0, 5, (10, 10)).astype(np.uint8)
    t = SampledTransform(build_matrix(rotation_deg=180), (0, 0), 180.0, 1.0, 0.0, (0, 0))
    assert np.array_equal(warp_labels(warp_labels(labels, t), t), labels)


def test_label_warp_never_invents_ids():
    rng = np.random.default_rng(33)
    for seed in range(100):
        labels = np.zeros(PLANE, np.uint8)
        labels[rng.random(PLANE) > 0.6] = 2
        t = sample_transform(AUG2, seed=seed, plane_shape=PLANE)
        out = warp_labels(labels, t)
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
        out = warp_labels(labels, t)
        change = abs(int((out > 0).sum()) - base) / base
        assert change < 0.30


def test_warp_pair_shares_one_transform():
    rng = np.random.default_rng(35)
    mag = rng.random(PLANE).astype(np.float32)
    phs = rng.random(PLANE).astype(np.float32)
    labels = rng.integers(0, 3, PLANE).astype(np.uint8)
    t = sample_transform(AUG1, seed=5, plane_shape=PLANE)
    (wm, wp), wl = warp_pair([mag, phs], labels, t)
    assert np.array_equal(wm, warp_image(mag, t))
    assert np.array_equal(wp, warp_image(phs, t))
    assert np.array_equal(wl, warp_labels(labels, t))
    assert set(np.unique(wl)) <= set(np.unique(labels)) | {0}


def test_warp_pair_identity_unchanged():
    rng = np.random.default_rng(36)
    mag = rng.random(PLANE).astype(np.float32)
    phs = rng.random(PLANE).astype(np.float32)
    labels = rng.integers(0, 3, PLANE).astype(np.uint8)
    ident = sample_transform(AUG_NONE, seed=0)
    (wm, wp), wl = warp_pair([mag, phs], labels, ident)
    assert np.array_equal(wm, mag) and np.array_equal(wp, phs) and np.array_equal(wl, labels)


def test_warp_pair_dim_mismatch():
    t = sample_transform(AUG_NONE, seed=0)
    with pytest.raises(DimensionError):
        warp_pair([np.zeros((4, 4)), np.zeros((5, 5))], np.zeros((4, 4), np.uint8), t)


def test_singular_matrix_rejected():
    m = np.eye(3)
    m[0, 0] = 0.0
    m[0, 1] = 0.0
    with pytest.raises(TransformError):
        SampledTransform(m, (0, 0), 0.0, 1.0, 0.0, (0, 0))


def test_slice_seed_deterministic_and_distinct():
    assert slice_seed(7, 3) == slice_seed(7, 3)
    assert slice_seed(7, 3) != slice_seed(7, 4)


def test_warped_output_reproducible_from_seed():
    rng = np.random.default_rng(37)
    plane = rng.random(PLANE).astype(np.float32)
    t1 = sample_transform(AUG3, seed=11, plane_shape=PLANE)
    t2 = sample_transform(AUG3, seed=11, plane_shape=PLANE)
    assert warp_image(plane, t1).tobytes() == warp_image(plane, t2).tobytes()
