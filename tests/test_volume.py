import numpy as np
import pytest

from cordpipe import (
    PATCH5,
    LabelVolume,
    PatchSpec,
    ScalarVolume,
    SoftLabelVolume,
    Spacing,
    axial_slice,
    extract_patch,
    new_scalar_volume,
    patch1,
)
from cordpipe.errors import DimensionError, ValidationError

ISO = Spacing.isotropic()


@pytest.fixture(scope="module")
def acquisition_volume():
    # Full acquisition-matrix size with a position-dependent ramp.
    rng = np.random.default_rng(0)
    data = rng.random((200, 306, 730), dtype=np.float32)
    return ScalarVolume(data, ISO)


def test_constant_fill():
    v = new_scalar_volume((2, 2, 2), ISO, fill=0.0)
    assert v.data.shape == (2, 2, 2)
    assert (v.data == 0.0).all()


def test_acquisition_matrix_dims(acquisition_volume):
    assert acquisition_volume.dims == (200, 306, 730)
    assert acquisition_volume.spacing == Spacing(0.075, 0.075, 0.075)


def test_zero_dimension_rejected():
    with pytest.raises(DimensionError):
        new_scalar_volume((0, 1, 1), ISO)


def test_overflow_dimension_rejected():
    with pytest.raises(DimensionError):
        new_scalar_volume((2**20, 2**20, 2**20), ISO)


def test_nonfinite_fill_rejected():
    with pytest.raises(ValidationError):
        new_scalar_volume((2, 2, 2), ISO, fill=float("nan"))


def test_nonfinite_data_rejected():
    data = np.zeros((2, 2, 2), np.float32)
    data[0, 0, 0] = np.inf
    with pytest.raises(ValidationError):
        ScalarVolume(data, ISO)


def test_label_range_enforced():
    data = np.zeros((2, 2, 2), np.uint8)
    data[1, 1, 1] = 5
    with pytest.raises(ValidationError):
        LabelVolume(data, ISO)


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
def test_soft_label_values_outside_unit_range_rejected(bad):
    channels = np.zeros((4, 2, 2, 2), np.float32)
    channels[2, 1, 0, 1] = bad
    with pytest.raises(ValidationError):
        SoftLabelVolume(channels, ISO)


def test_patch_inbounds_copy(acquisition_volume):
    patch = extract_patch(acquisition_volume, (0, 0, 0), PATCH5)
    assert patch.dims == (192, 208, 64)
    assert np.array_equal(patch.data, acquisition_volume.data[:192, :208, :64])


def test_patch_padding_at_corner():
    vol = new_scalar_volume((4, 4, 4), ISO, fill=7.0)
    patch = extract_patch(vol, (2, 2, 2), PatchSpec(4, 4, 4), pad_value=-1.0)
    assert (patch.data[:2, :2, :2] == 7.0).all()
    # everything past the overlap is padding
    assert (patch.data[2:] == -1.0).all()
    assert (patch.data[:, 2:] == -1.0).all()
    assert (patch.data[:, :, 2:] == -1.0).all()


def test_patch_fully_outside_is_all_padding():
    vol = new_scalar_volume((4, 4, 4), ISO, fill=7.0)
    patch = extract_patch(vol, (10, 10, 10), PatchSpec(3, 3, 3), pad_value=0.5)
    assert (patch.data == 0.5).all()


def test_full_volume_patch_is_identity():
    rng = np.random.default_rng(1)
    vol = ScalarVolume(rng.random((5, 6, 7), dtype=np.float32), ISO)
    patch = extract_patch(vol, (0, 0, 0), PatchSpec(5, 6, 7))
    assert np.array_equal(patch.data, vol.data)


def test_label_patch_pads_with_background():
    data = np.full((3, 3, 3), 2, np.uint8)
    vol = LabelVolume(data, ISO)
    patch = extract_patch(vol, (-1, -1, -1), PatchSpec(5, 5, 5))
    assert patch.data[0, 0, 0] == 0
    assert patch.data[1, 1, 1] == 2
    assert set(np.unique(patch.data)) == {0, 2}


def test_axial_slice_roundtrip():
    vol = new_scalar_volume((4, 5, 6), ISO)
    plane = np.arange(20, dtype=np.float32).reshape(4, 5)
    vol.data[:, :, 3] = plane
    assert np.array_equal(axial_slice(vol, 3), plane)


def test_axial_slice_bounds():
    vol = new_scalar_volume((4, 5, 6), ISO)
    with pytest.raises(IndexError):
        axial_slice(vol, 6)
    with pytest.raises(IndexError):
        axial_slice(vol, -1)


def test_axial_slice_corpus_scale_iteration():
    # 43,719 slices, the full corpus slice count, iterated end to end.
    vol = new_scalar_volume((2, 2, 43719), ISO)
    count = sum(1 for z in range(vol.dims[2]) if axial_slice(vol, z).shape == (2, 2))
    assert count == 43719


def test_named_patch_profiles():
    assert PATCH5.as_tuple() == (192, 208, 64)
    p1 = patch1(40, 40)
    assert p1.pz == 144
    assert (p1.px, p1.py) == (40, 40)
    with pytest.raises(DimensionError):
        PatchSpec(0, 1, 1)


def test_scalar_volume_is_data_and_spacing():
    import dataclasses

    import cordpipe
    assert [f.name for f in dataclasses.fields(ScalarVolume)] == ["data", "spacing"]
    assert not hasattr(cordpipe, "MAGNITUDE") and not hasattr(cordpipe, "PHASE")


@pytest.mark.parametrize("ids", [[-252, 260, 3], [-252, 0, 3], [0, 260, 3]])
def test_wide_label_ids_outside_range_rejected_before_the_cast(ids):
    # -252 and 260 are 4 as uint8: they used to wrap into lesion GM
    with pytest.raises(ValidationError, match="outside 0..4"):
        LabelVolume(np.array([[ids]], np.int64), ISO)
