import numpy as np
import pytest

from cordpipe import (
    PATCH5,
    LabelVolume,
    PatchSpec,
    ScalarVolume,
    SoftLabelVolume,
    Spacing,
    SparseAnnotation,
    extract_patch,
    patch1,
)
from cordpipe.volume import _BLOCK_VOXELS, _check_dims, _in_order
from cordpipe.errors import DimensionError, ValidationError

from oracles import LAYOUTS, laid_out

ISO = Spacing.isotropic()


@pytest.fixture(scope="module")
def acquisition_volume():
    # Full acquisition-matrix size with a position-dependent ramp.
    rng = np.random.default_rng(0)
    data = rng.random((200, 306, 730), dtype=np.float32)
    return ScalarVolume(data, ISO)


def test_acquisition_matrix_dims(acquisition_volume):
    assert acquisition_volume.dims == (200, 306, 730)
    assert acquisition_volume.spacing == Spacing(0.075, 0.075, 0.075)


def test_zero_dimension_rejected():
    with pytest.raises(DimensionError):
        ScalarVolume(np.zeros((0, 1, 1), np.float32), ISO)


def test_overflow_dimension_rejected():
    with pytest.raises(DimensionError):
        _check_dims((2**20, 2**20, 2**20))


def test_nonfinite_data_rejected():
    data = np.zeros((2, 2, 2), np.float32)
    data[0, 0, 0] = np.inf
    with pytest.raises(ValidationError):
        ScalarVolume(data, ISO)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_in_the_first_or_last_block_rejected(layout, where, value):
    # six blocks of the finite check (three when strided), walked in memory order
    depth = 6 * _BLOCK_VOXELS // (128 * 128)
    data = np.zeros((128, 128, depth), np.float32, order="F" if layout == "F" else "C")
    if layout == "strided":
        data = data[:, :, ::2]
    data[(where,) * 3] = value
    with pytest.raises(ValidationError, match="non-finite"):
        ScalarVolume(data, ISO)
    data[(where,) * 3] = 1.0
    ScalarVolume(data, ISO)  # finite again: accepted


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
    vol = ScalarVolume(np.full((4, 4, 4), 7.0, np.float32), ISO)
    patch = extract_patch(vol, (2, 2, 2), PatchSpec(4, 4, 4))
    assert (patch.data[:2, :2, :2] == 7.0).all()
    # everything past the overlap is padding
    assert (patch.data[2:] == 0.0).all()
    assert (patch.data[:, 2:] == 0.0).all()
    assert (patch.data[:, :, 2:] == 0.0).all()


def test_patch_fully_outside_is_all_padding():
    vol = ScalarVolume(np.full((4, 4, 4), 7.0, np.float32), ISO)
    patch = extract_patch(vol, (10, 10, 10), PatchSpec(3, 3, 3))
    assert (patch.data == 0.0).all()


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("labels", [False, True])
def test_patch_keeps_the_source_memory_order(order, labels):
    rng = np.random.default_rng(2)
    data = np.asarray(rng.integers(0, 5, (6, 7, 8)), np.uint8 if labels else np.float32,
                      order=order)
    vol = (LabelVolume if labels else ScalarVolume)(data, ISO)
    for origin in ((1, 1, 1), (-2, 3, 5)):
        patch = extract_patch(vol, origin, PatchSpec(4, 5, 6))
        assert patch.data.flags[f"{order}_CONTIGUOUS"]
        assert patch.data.flags.writeable and not np.shares_memory(patch.data, data)
    assert np.array_equal(extract_patch(vol, (1, 1, 1), PatchSpec(4, 5, 6)).data,
                          data[1:5, 1:6, 1:7])


def test_axial_slice_corpus_scale_iteration():
    # 43,719 slices, the full corpus slice count, in one volume.
    vol = ScalarVolume(np.zeros((2, 2, 43719), np.float32), ISO)
    assert vol.dims == (2, 2, 43719)


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


@pytest.mark.parametrize("shape", [(7, 19, 3), (5, 17)])
@pytest.mark.parametrize("source", [np.float32, ">f4"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [None, np.float32, "<f4", np.float64])
def test_in_order_is_asarray_in_that_layout(shape, source, layout, order, dtype):
    a = laid_out(np.random.default_rng(3).standard_normal(shape).astype(source), layout)
    got = _in_order(a, order, dtype)
    want = np.asarray(a, dtype, order=order)
    kept = want.dtype == a.dtype and a.flags[f"{order}_CONTIGUOUS"]
    assert (got is a) == kept
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.flags[f"{order}_CONTIGUOUS"]


# One case per clause of the grid rule, against a 4x4x4 reference at 75 um.
@pytest.mark.parametrize("make, kind", [
    (lambda: LabelVolume(np.zeros((4, 4, 5), np.uint8), ISO), DimensionError),
    (lambda: LabelVolume(np.zeros((4, 4, 4), np.uint8), Spacing(0.075, 0.075, 0.5)),
     ValidationError),
    (lambda: SparseAnnotation("v", [1], np.zeros((3, 4, 1), np.uint8)), DimensionError),
    (lambda: SparseAnnotation("v", [1, 4], np.zeros((4, 4, 2), np.uint8)), ValidationError),
    (lambda: SparseAnnotation("v", [1], np.zeros((4, 4, 1), np.uint8),
                              Spacing(0.5, 0.075, 0.075)), ValidationError),
], ids=["dense-dims", "dense-spacing", "sparse-plane-size", "sparse-index-past-end",
        "sparse-in-plane-spacing"])
def test_the_grid_rule_gives_each_disagreement_its_kind(make, kind):
    from cordpipe.volume import _on_grid

    ref = ScalarVolume(np.zeros((4, 4, 4), np.float32), ISO)
    with pytest.raises(ValidationError) as exc:
        _on_grid(make(), ref)
    assert exc.type is kind
    # inputs on the grid pass: an annotation with ref's in-plane spacing and
    # another dz, one without a spacing, and a volume of ref's dims and spacing
    _on_grid(SparseAnnotation("v", [0, 3], np.zeros((4, 4, 2), np.uint8),
                              Spacing(0.075, 0.075, 0.5)), ref)
    _on_grid(SparseAnnotation("v", [], np.zeros((4, 4, 0), np.uint8)), ref)
    _on_grid(LabelVolume(np.zeros((4, 4, 4), np.uint8), ISO), ref)
