from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from cordpipe import (
    SOFT1,
    SOFT2,
    SOFT3,
    LabelVolume,
    Spacing,
    SoftLabelVolume,
    SoftProfile,
    boundary_margin,
    harden,
    soften,
)
from cordpipe.errors import ConfigError
from cordpipe.volume import HEALTHY_GM, HEALTHY_WM, LESION_GM, LESION_WM

from oracles import loop_margin

ISO = Spacing.isotropic()


def soften_one(plane, profile):
    """(4, H, W) soft targets of one label plane, softened as a one-slice volume."""
    return soften(LabelVolume(plane[:, :, None], ISO), profile).channels[..., 0]


def test_profiles_match_published_table():
    assert SOFT1.weights == {HEALTHY_WM: 0.9, HEALTHY_GM: 0.9, LESION_WM: 0.6, LESION_GM: 0.4}
    assert SOFT1.kernels == {HEALTHY_WM: 7, HEALTHY_GM: 3, LESION_WM: 5, LESION_GM: 7}
    assert SOFT2.weights == {HEALTHY_WM: 0.9, HEALTHY_GM: 0.9, LESION_WM: 0.6, LESION_GM: 0.4}
    assert SOFT2.kernels == {HEALTHY_WM: 7, HEALTHY_GM: 3, LESION_WM: 3, LESION_GM: 3}
    assert SOFT3.weights == {HEALTHY_WM: 0.7, HEALTHY_GM: 0.6, LESION_WM: 0.2, LESION_GM: 0.2}
    assert SOFT3.kernels == {HEALTHY_WM: 5, HEALTHY_GM: 3, LESION_WM: 3, LESION_GM: 3}


# ---------------------------------------------------------------------------
# boundary_margin


def test_margin_empty_mask():
    assert (boundary_margin(np.zeros((8, 8), bool), 3) == 0).all()


def test_margin_full_plane_is_border_ring():
    full = np.ones((8, 8), bool)
    got = boundary_margin(full, 3)
    want = loop_margin(full, 3)
    assert np.array_equal(got.astype(bool), want)
    # dilation cannot grow a full plane; erosion shrinks one ring at k=3
    inner = np.zeros((8, 8), bool)
    inner[1:-1, 1:-1] = True
    assert np.array_equal(got.astype(bool), ~inner)


def test_margin_5x5_square_k3_exact():
    plane = np.zeros((9, 9), bool)
    plane[2:7, 2:7] = True
    got = boundary_margin(plane, 3).astype(bool)
    want = loop_margin(plane, 3)
    assert np.array_equal(got, want)
    # ring between the 3x3 core and the 7x7 dilation: 40 voxels
    assert got.sum() == 40
    assert not got[3:6, 3:6].any()
    assert got[1:8, 1:8].sum() == 40


def test_margin_matches_loop_oracle_on_random_masks():
    rng = np.random.default_rng(40)
    for k in (3, 5, 7):
        for _ in range(10):
            mask = rng.random((12, 12)) > 0.7
            assert np.array_equal(boundary_margin(mask, k).astype(bool),
                                  loop_margin(mask, k))


def _loop_margin_nd(mask, k):
    """``loop_margin`` of a plane, or of each axial plane of a volume."""
    if mask.ndim == 2:
        return loop_margin(mask, k)
    return np.stack([loop_margin(mask[:, :, z], k) for z in range(mask.shape[2])], axis=-1)


@st.composite
def _margin_cases(draw):
    """A 2D or 3D boolean mask with sides down to 1 (random, empty, full or
    touching every border), and a C, Fortran or strided view of it."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=9))
    fill = draw(st.sampled_from(["random", "empty", "full", "border"]))
    if fill == "empty":
        mask = np.zeros(shape, bool)
    elif fill == "full":
        mask = np.ones(shape, bool)
    else:
        mask = draw(hnp.arrays(bool, shape))
        if fill == "border":
            mask[[0, -1]] = True
            mask[:, [0, -1]] = True
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "C":
        view = mask
    elif layout == "F":
        view = np.asfortranarray(mask)
    else:
        base = np.zeros([2 * n for n in shape], bool)
        pick = (slice(None, None, 2), slice(None, None, -2)) + (slice(None, None, 2),) * (ndim - 2)
        base[pick] = mask
        view = base[pick]
        assert not view.flags.c_contiguous or view.size <= 1
    return mask, view


_FILTERS = ("maximum_filter", "minimum_filter", "maximum_filter1d", "minimum_filter1d")


@settings(max_examples=200, deadline=None)
@given(_margin_cases(), st.sampled_from([3, 5, 7]))
def test_margin_matches_loop_oracle_on_any_layout(case, k):
    mask, view = case
    with mock.patch.multiple(ndimage, **{f: mock.DEFAULT for f in _FILTERS}) as spies:
        got = boundary_margin(view, k)
    assert not any(spy.called for spy in spies.values())
    assert got.dtype == np.uint8 and got.shape == mask.shape
    assert np.array_equal(got.astype(bool), _loop_margin_nd(mask, k))


def test_margin_even_kernel_rejected():
    with pytest.raises(ConfigError):
        boundary_margin(np.zeros((4, 4), bool), 4)
    with pytest.raises(ConfigError):
        boundary_margin(np.zeros((4, 4), bool), 1)


def test_margin_monotone_in_kernel():
    rng = np.random.default_rng(41)
    mask = rng.random((16, 16)) > 0.8
    m3 = boundary_margin(mask, 3).astype(bool)
    m5 = boundary_margin(mask, 5).astype(bool)
    m7 = boundary_margin(mask, 7).astype(bool)
    assert (m3 <= m5).all()
    assert (m5 <= m7).all()


# ---------------------------------------------------------------------------
# soften


def test_soften_empty_labels():
    out = soften_one(np.zeros((6, 6), np.uint8), SOFT2)
    assert (out == 0).all()


def test_soften_5x5_lesion_gm_square_soft2():
    plane = np.zeros((11, 11), np.uint8)
    plane[3:8, 3:8] = LESION_GM
    ch = soften_one(plane, SOFT2)[LESION_GM - 1]

    # frozen expectation: core 3x3 at 1.0, dilate-erode ring at 0.4, else 0
    expected = np.zeros((11, 11), np.float32)
    expected[2:9, 2:9] = np.float32(0.4)
    expected[4:7, 4:7] = 1.0
    assert np.array_equal(ch, expected)

    # and the brute-force morphology oracle agrees voxel for voxel
    margin = loop_margin(plane == LESION_GM, 3)
    oracle = np.zeros_like(expected)
    oracle[(plane == LESION_GM) & ~margin] = 1.0
    oracle[margin] = np.float32(0.4)
    assert np.array_equal(ch, oracle)


def test_soft1_margins_contain_soft2_margins_on_lesions():
    plane = np.zeros((16, 16), np.uint8)
    plane[5:11, 5:11] = LESION_GM
    s1 = soften_one(plane, SOFT1)[LESION_GM - 1]
    s2 = soften_one(plane, SOFT2)[LESION_GM - 1]
    m1 = s1 == np.float32(0.4)
    m2 = s2 == np.float32(0.4)
    assert (m2 <= m1).all()
    assert m1.sum() > m2.sum()


def test_soft_values_limited_to_zero_alpha_one():
    rng = np.random.default_rng(42)
    labels = LabelVolume(rng.integers(0, 5, (12, 12, 3)).astype(np.uint8), ISO)
    soft = soften(labels, SOFT3)
    for cid in (HEALTHY_WM, HEALTHY_GM, LESION_WM, LESION_GM):
        vals = set(np.unique(soft.class_channel(cid)))
        assert vals <= {np.float32(0.0), np.float32(SOFT3.weights[cid]), np.float32(1.0)}


def test_soft_equals_hard_outside_margins():
    rng = np.random.default_rng(43)
    labels = LabelVolume(rng.integers(0, 5, (14, 14, 2)).astype(np.uint8), ISO)
    soft = soften(labels, SOFT2)
    for z in range(2):
        plane = labels.data[:, :, z]
        margin_union = np.zeros(plane.shape, bool)
        for cid in (1, 2, 3, 4):
            margin_union |= loop_margin(plane == cid, SOFT2.kernels[cid])
        outside = ~margin_union
        for cid in (1, 2, 3, 4):
            hard = (plane == cid).astype(np.float32)
            assert np.array_equal(soft.class_channel(cid)[:, :, z][outside], hard[outside])


def test_soften_deterministic():
    rng = np.random.default_rng(44)
    labels = LabelVolume(rng.integers(0, 5, (10, 10, 2)).astype(np.uint8), ISO)
    a = soften(labels, SOFT1)
    b = soften(labels, SOFT1)
    assert a.channels.tobytes() == b.channels.tobytes()


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=3, max_dims=3, max_side=12),
                  elements=st.integers(0, 4)))
def test_volume_soften_equals_stacked_planes(data):
    # margins never reach across slices: the volume is its planes, stacked
    for profile in (SOFT1, SOFT2, SOFT3):
        want = np.stack([soften_one(data[:, :, z], profile)
                         for z in range(data.shape[2])], axis=-1)
        got = soften(LabelVolume(data, ISO), profile).channels
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# harden


def test_harden_all_zero_is_background():
    soft = SoftLabelVolume(np.zeros((4, 3, 3, 2), np.float32), ISO)
    assert (harden(soft).data == 0).all()


def test_harden_drops_subthreshold_alpha():
    # Lesion GM at 0.4 hardens to background: documented lossiness of the
    # low-confidence lesion weights.
    ch = np.zeros((4, 2, 2, 1), np.float32)
    ch[LESION_GM - 1, 0, 0, 0] = 0.4
    out = harden(SoftLabelVolume(ch, ISO))
    assert out.data[0, 0, 0] == 0


def test_harden_tiebreak_prefers_rarest_class():
    ch = np.zeros((4, 1, 1, 1), np.float32)
    ch[HEALTHY_WM - 1] = 0.9
    ch[LESION_GM - 1] = 0.9
    assert harden(SoftLabelVolume(ch, ISO)).data[0, 0, 0] == LESION_GM
    ch = np.zeros((4, 1, 1, 1), np.float32)
    ch[HEALTHY_WM - 1] = 0.9
    ch[HEALTHY_GM - 1] = 0.9
    assert harden(SoftLabelVolume(ch, ISO)).data[0, 0, 0] == HEALTHY_GM


def test_roundtrip_exact_on_background_free_volumes():
    # With every alpha above 0.5 and no background for margins to spill
    # into, harden inverts soften exactly.
    rng = np.random.default_rng(45)
    for profile in (SOFT1, SOFT2):
        for _ in range(5):
            data = rng.integers(1, 3, (10, 10, 4)).astype(np.uint8)  # healthy classes
            labels = LabelVolume(data, ISO)
            back = harden(soften(labels, profile))
            assert np.array_equal(back.data, labels.data)


def test_roundtrip_restores_foreground_with_background_present():
    # Foreground voxels always come back; deviations are confined to
    # background voxels inside some class margin (outward alpha spill).
    rng = np.random.default_rng(46)
    data = np.zeros((16, 16, 2), np.uint8)
    data[4:12, 4:12, :] = HEALTHY_WM
    data[6:10, 6:10, :] = HEALTHY_GM
    labels = LabelVolume(data, ISO)
    back = harden(soften(labels, SOFT2)).data

    fg = data > 0
    assert np.array_equal(back[fg], data[fg])
    changed = back != data
    margin_union = np.zeros(data.shape, bool)
    for z in range(2):
        for cid in (1, 2, 3, 4):
            margin_union[:, :, z] |= loop_margin(data[:, :, z] == cid, SOFT2.kernels[cid])
    assert (changed <= (margin_union & ~fg)).all()


def test_soften_never_marks_other_classes_territory():
    # outward spill lands on background only
    data = np.zeros((16, 16, 1), np.uint8)
    data[2:14, 2:8, 0] = HEALTHY_WM
    data[2:14, 8:14, 0] = HEALTHY_GM
    soft = soften(LabelVolume(data, ISO), SOFT2)
    wm_ch = soft.class_channel(HEALTHY_WM)
    gm_ch = soft.class_channel(HEALTHY_GM)
    assert (wm_ch[data == HEALTHY_GM] == 0).all()
    assert (gm_ch[data == HEALTHY_WM] == 0).all()


def test_bad_profile_rejected():
    with pytest.raises(ConfigError):
        SoftProfile(weights={1: 0.5, 2: 0.5, 3: 0.5, 4: 1.5},
                    kernels={1: 3, 2: 3, 3: 3, 4: 3})
    with pytest.raises(ConfigError):
        SoftProfile(weights={1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5},
                    kernels={1: 3, 2: 3, 3: 3, 4: 4})
