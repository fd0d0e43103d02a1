import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordpipe import (
    LabelVolume,
    RegionStack,
    Spacing,
    merge_region_arrays,
    merge_regions,
    to_regions,
)
from cordpipe.errors import ConfigError, DimensionError, ValidationError
from cordpipe.volume import (
    BACKGROUND,
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
)

from oracles import where_merge

ISO = Spacing.isotropic()


def _scalar_merge(wm, gm, lesion, tt=0.5, lt=0.5):
    """Reference rule, evaluated one voxel at a time."""
    if max(wm, gm) < tt:
        return BACKGROUND
    tissue = HEALTHY_GM if gm >= wm else HEALTHY_WM
    if lesion >= lt:
        return tissue + 2
    return tissue


def test_region_expansion_per_class():
    data = np.array([[[BACKGROUND, HEALTHY_WM, HEALTHY_GM, LESION_WM, LESION_GM]]],
                    dtype=np.uint8)
    stack = to_regions(LabelVolume(data, ISO))
    v = lambda ch: list(ch[0, 0, :])
    assert v(stack.wm) == [0, 1, 0, 1, 0]
    assert v(stack.gm) == [0, 0, 1, 0, 1]
    assert v(stack.lesion) == [0, 0, 0, 1, 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int16, np.uint32, np.int64])
def test_region_channels_of_any_integer_plane(dtype):
    # a plane in any integer dtype, ids outside 0..4 included, against set membership
    rng = np.random.default_rng(41)
    data = rng.integers(-3, 9, (7, 9)).astype(dtype)
    stack = to_regions(data)
    for channel, ids in ((stack.wm, (HEALTHY_WM, LESION_WM)),
                         (stack.gm, (HEALTHY_GM, LESION_GM)),
                         (stack.lesion, (LESION_WM, LESION_GM))):
        want = np.array([[float(v in ids) for v in row] for row in data.tolist()], np.float32)
        assert channel.dtype == np.float32 and channel.tobytes() == want.tobytes()


def test_merge_examples():
    assert _scalar_merge(0.9, 0.1, 0.8) == LESION_WM
    out = merge_region_arrays(np.array([0.9]), np.array([0.1]), np.array([0.8]))
    assert out[0] == LESION_WM
    out = merge_region_arrays(np.array([0.0]), np.array([0.0]), np.array([0.0]))
    assert out[0] == BACKGROUND
    out = merge_region_arrays(np.array([0.6]), np.array([0.6]), np.array([0.0]))
    assert out[0] == HEALTHY_GM  # tie goes to gray matter


def test_merge_matches_scalar_rule_exhaustively():
    levels = [0.0, 0.25, 0.5, 0.6, 1.0]
    combos = list(itertools.product(levels, repeat=3))
    wm = np.array([c[0] for c in combos])
    gm = np.array([c[1] for c in combos])
    lesion = np.array([c[2] for c in combos])
    got = merge_region_arrays(wm, gm, lesion)
    want = np.array([_scalar_merge(*c) for c in combos], dtype=np.uint8)
    assert np.array_equal(got, want)


SPECIALS = [np.nan, np.inf, -np.inf, 0.0, 0.5, 1.0]


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
       dtypes=st.tuples(*[st.sampled_from([np.float32, np.float64])] * 3),
       special_share=st.sampled_from([0.0, 0.3, 1.0]),
       tissue_thresh=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
       lesion_thresh=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
       seed=st.integers(0, 2**16))
def test_merge_matches_where_formula(shape, dtypes, special_share, tissue_thresh,
                                     lesion_thresh, seed):
    # random, quantized and non-finite probabilities in float32 and
    # float64, mixed across channels; thresholds at the ends of [0, 1]
    rng = np.random.default_rng(seed)
    channels = []
    for dtype in dtypes:
        values = rng.random(shape) * 1.2 - 0.1
        values = np.where(rng.random(shape) < 0.3, np.round(values * 4) / 4, values)
        special = rng.random(shape) < special_share
        values[special] = rng.choice(SPECIALS, int(special.sum()))
        channels.append(values.astype(dtype))
    got = merge_region_arrays(*channels, tissue_thresh, lesion_thresh)
    want = where_merge(*channels, tissue_thresh, lesion_thresh)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_lesion_on_background_dropped():
    out = merge_region_arrays(np.array([0.0]), np.array([0.0]), np.array([1.0]))
    assert out[0] == BACKGROUND


def test_roundtrip_identity_on_random_volumes():
    rng = np.random.default_rng(50)
    for _ in range(50):
        data = rng.integers(0, 5, (6, 5, 4)).astype(np.uint8)
        labels = LabelVolume(data, ISO)
        back = merge_regions(to_regions(labels), ISO)
        assert np.array_equal(back.data, labels.data)


def test_roundtrip_identity_per_voxel_value():
    for cid in range(5):
        data = np.full((1, 1, 1), cid, np.uint8)
        back = merge_regions(to_regions(LabelVolume(data, ISO)), ISO)
        assert back.data[0, 0, 0] == cid


def test_merge_output_is_valid_label_volume():
    rng = np.random.default_rng(51)
    stack = RegionStack(rng.random((4, 4, 4)), rng.random((4, 4, 4)),
                        rng.random((4, 4, 4)))
    out = merge_regions(stack, ISO)
    assert set(np.unique(out.data)) <= {0, 1, 2, 3, 4}


def test_lesion_monotonicity():
    rng = np.random.default_rng(52)
    wm = rng.random((5, 5, 5))
    gm = rng.random((5, 5, 5))
    lesion = rng.random((5, 5, 5)) * 0.5
    base = merge_region_arrays(wm, gm, lesion)
    raised = merge_region_arrays(wm, gm, np.minimum(lesion + 0.5, 1.0))
    # raising lesion probability never converts lesioned tissue back to healthy
    was_lesion = np.isin(base, (LESION_WM, LESION_GM))
    assert np.isin(raised[was_lesion], (LESION_WM, LESION_GM)).all()
    # and never changes the underlying tissue choice
    tissue_of = np.where(base == 0, 0, np.where(np.isin(base, (1, 3)), 1, 2))
    tissue_raised = np.where(raised == 0, 0, np.where(np.isin(raised, (1, 3)), 1, 2))
    assert np.array_equal(tissue_of, tissue_raised)


def test_custom_thresholds():
    out = merge_region_arrays(np.array([0.4]), np.array([0.0]), np.array([0.0]),
                              tissue_thresh=0.3)
    assert out[0] == HEALTHY_WM
    out = merge_region_arrays(np.array([0.9]), np.array([0.0]), np.array([0.4]),
                              lesion_thresh=0.4)
    assert out[0] == LESION_WM


def test_region_stack_validation():
    with pytest.raises(DimensionError):
        RegionStack(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((5, 5)))
    with pytest.raises(ValidationError):
        RegionStack(np.full((2, 2), 1.5), np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("channel", ["wm", "gm", "lesion"])
def test_region_stack_rejects_nan(channel):
    # NaN passes both "min < 0" and "max > 1" unnoticed; an all-NaN wm
    # channel used to merge to healthy white matter
    planes = {name: np.zeros((2, 2, 2), np.float32) for name in ("wm", "gm", "lesion")}
    planes[channel][1, 0, 1] = np.nan
    with pytest.raises(ValidationError):
        RegionStack(**planes)


def test_merge_rejects_planes():
    stack = RegionStack(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        merge_regions(stack, ISO)


def test_merge_thresholds_must_lie_in_unit_range():
    # a NaN tissue threshold used to turn every background voxel into tissue
    wm = np.array([0.0, 0.2, 1.0], np.float32)
    zero = np.zeros(3, np.float32)
    for name in ("tissue_thresh", "lesion_thresh"):
        for bad in (np.nan, np.inf, -0.1, 1.5):
            with pytest.raises(ConfigError, match=name):
                merge_region_arrays(wm, zero, zero, **{name: bad})
    # the bounds themselves are valid
    assert merge_region_arrays(wm, zero, zero, tissue_thresh=0.0).tolist() == [2, 1, 1]
    assert merge_region_arrays(wm, zero, zero, tissue_thresh=1.0).tolist() == [0, 0, 1]
