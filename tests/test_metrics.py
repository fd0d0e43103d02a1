from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from cordpipe import (
    LabelVolume,
    PhantomConfig,
    Spacing,
    SparseAnnotation,
    dice,
    evaluate,
    fold_aggregate,
    generate,
    hd95,
    inter_slice_dice,
    perturb_slices,
    report_to_csv,
    surface_mask,
)
from cordpipe import metrics
from cordpipe.errors import DimensionError, ValidationError
from cordpipe.metrics import CSV_COLUMNS, ClassMetrics, MetricsReport

from oracles import brute_hd95, loop_surface, set_dice, set_inter_slice_dice

ISO = Spacing.isotropic()


# ---------------------------------------------------------------------------
# dice


def test_dice_identity():
    g = np.zeros((4, 4, 4), bool)
    g[1:3, 1:3, 1:3] = True
    assert dice(g, g) == 1.0


def test_dice_disjoint():
    g = np.zeros((4, 4, 1), bool)
    p = np.zeros((4, 4, 1), bool)
    g[0, 0, 0] = True
    p[3, 3, 0] = True
    assert dice(g, p) == 0.0


def test_dice_half_overlap():
    g = np.zeros((4, 4, 1), bool)
    p = np.zeros((4, 4, 1), bool)
    g[0, :4, 0] = True            # |G| = 4
    p[0, 2:4, 0] = True           # overlap 2
    p[1, :2, 0] = True            # |P| = 4
    assert dice(g, p) == 0.5


def test_dice_both_empty_undefined():
    z = np.zeros((3, 3, 3), bool)
    assert dice(z, z) is None


def test_dice_one_empty_is_zero():
    g = np.zeros((3, 3, 3), bool)
    p = g.copy()
    p[0, 0, 0] = True
    assert dice(g, p) == 0.0


def test_dice_symmetry_and_range():
    rng = np.random.default_rng(60)
    for _ in range(50):
        g = rng.random((5, 5, 3)) < 0.4
        p = rng.random((5, 5, 3)) < 0.4
        d1, d2 = dice(g, p), dice(p, g)
        assert d1 == d2
        if d1 is not None:
            assert 0.0 <= d1 <= 1.0


def test_dice_matches_set_oracle():
    rng = np.random.default_rng(61)
    for _ in range(50):
        g = rng.random((6, 6, 4)) < 0.3
        p = rng.random((6, 6, 4)) < 0.3
        assert dice(g, p) == set_dice(g, p)


def test_dice_dim_mismatch():
    with pytest.raises(DimensionError):
        dice(np.zeros((3, 3, 3), bool), np.zeros((4, 4, 4), bool))


# ---------------------------------------------------------------------------
# hd95


def test_hd95_identical_sets():
    g = np.zeros((5, 5, 5), bool)
    g[1:4, 1:4, 1:4] = True
    assert hd95(g, g, ISO) == 0.0


def test_hd95_adjacent_single_voxels():
    g = np.zeros((4, 4, 4), bool)
    p = np.zeros((4, 4, 4), bool)
    g[0, 0, 0] = True
    p[1, 0, 0] = True
    got = hd95(g, p, Spacing.isotropic(0.075))
    assert got == pytest.approx(0.075, abs=1e-12)
    assert got == brute_hd95(g, p, (0.075,) * 3)


def test_hd95_one_empty_undefined():
    g = np.zeros((4, 4, 4), bool)
    p = g.copy()
    p[0, 0, 0] = True
    assert hd95(g, p, ISO) is None
    assert hd95(p, g, ISO) is None


def test_hd95_both_empty_zero():
    z = np.zeros((4, 4, 4), bool)
    assert hd95(z, z, ISO) == 0.0


def test_hd95_matches_brute_force():
    rng = np.random.default_rng(62)
    for _ in range(20):
        g = rng.random((8, 8, 5)) < 0.25
        p = rng.random((8, 8, 5)) < 0.25
        if not g.any() or not p.any():
            continue
        got = hd95(g, p, ISO)
        want = brute_hd95(g, p, ISO.as_tuple())
        assert abs(got - want) <= 1e-9


def test_hd95_anisotropic_spacing():
    g = np.zeros((4, 4, 4), bool)
    p = np.zeros((4, 4, 4), bool)
    g[0, 0, 0] = True
    p[0, 0, 1] = True  # one step along z
    got = hd95(g, p, Spacing(0.075, 0.075, 0.3))
    assert got == pytest.approx(0.3, abs=1e-12)


def test_hd95_spacing_scaling_law():
    rng = np.random.default_rng(63)
    for _ in range(30):
        g = rng.random((7, 7, 4)) < 0.3
        p = rng.random((7, 7, 4)) < 0.3
        if not g.any() or not p.any():
            continue
        h1 = hd95(g, p, Spacing.isotropic(0.075))
        h2 = hd95(g, p, Spacing.isotropic(0.150))
        assert h2 == 2.0 * h1


_STEPS = st.sampled_from([0.075, 0.3, 1.0]) | st.floats(0.05, 3.0)
_SPACINGS = st.builds(Spacing, _STEPS, _STEPS, _STEPS)


def _laid_out(mask, layout):
    """The same values as ``mask`` in another memory layout: C, Fortran, a
    box of a larger Fortran array (how boxes of ``read_nifti`` data
    arrive), or a view with a reversed and a strided axis."""
    if layout == "C":
        return np.ascontiguousarray(mask)
    if layout == "F":
        return np.asfortranarray(mask)
    if layout == "F-box":
        inner = (slice(1, -1),) * mask.ndim
        big = np.ones([n + 2 for n in mask.shape], mask.dtype, order="F")
        big[inner] = mask
        return big[inner]
    view = np.repeat(mask[::-1], 2, axis=-1)[::-1, ..., ::2]
    assert mask.size < 2 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


_LAYOUTS = st.sampled_from(["C", "F", "F-box", "strided"])


@st.composite
def _mask(draw, shape):
    """A single voxel or a random fill of a sub-box, so masks range from
    one voxel to the whole grid and often touch the volume border."""
    m = np.zeros(shape, bool)
    lo = [draw(st.integers(0, s - 1)) for s in shape]
    if draw(st.booleans()):
        m[tuple(lo)] = True
    else:
        box = tuple(slice(a, draw(st.integers(a + 1, s))) for a, s in zip(lo, shape))
        m[box] = draw(hnp.arrays(bool, m[box].shape))
    return m


@st.composite
def _nonempty_mask(draw, shape):
    m = draw(_mask(shape))
    m[tuple(draw(st.integers(0, n - 1)) for n in shape)] = True
    return m


@st.composite
def _mask_pairs(draw):
    ndim = draw(st.sampled_from([2, 3]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, max_side=9))
    return draw(_mask(shape)), draw(_mask(shape))


@settings(max_examples=150, deadline=None)
@given(_mask_pairs(), _SPACINGS)
def test_hd95_property_matches_brute_force(masks, spacing):
    g, p = masks
    got = hd95(g, p, spacing)
    want = brute_hd95(g, p, spacing.as_tuple())
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= 1e-9


def _counting_edt():
    """Spy on the exact-transform fallback of the surface distances."""
    return mock.patch.object(ndimage, "distance_transform_edt",
                             wraps=ndimage.distance_transform_edt)


@st.composite
def _shifted_pairs(draw):
    """g, and p = g moved by at most one voxel per axis, with spacings whose
    ratios keep every such move within the 3-voxel search shell."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, max_side=7))
    g = np.zeros([n + 2 for n in shape], bool)  # margin: the move never clips
    g[tuple(slice(1, n + 1) for n in shape)] = draw(_nonempty_mask(shape))
    move = draw(st.tuples(*[st.integers(-1, 1)] * ndim))
    base = draw(_STEPS)
    steps = [base * draw(st.floats(1.0, 1.7)) for _ in range(ndim)] + [base] * (3 - ndim)
    return g, np.roll(g, move, axis=tuple(range(ndim))), Spacing(*steps)


@settings(max_examples=100, deadline=None)
@given(_shifted_pairs())
def test_hd95_shell_search_matches_brute_force(case):
    g, p, spacing = case
    with _counting_edt() as edt:
        got = hd95(g, p, spacing)
    assert edt.call_count == 0
    assert abs(got - brute_hd95(g, p, spacing.as_tuple())) <= 1e-9


@st.composite
def _far_pairs(draw):
    """Masks at least 5 voxels apart along the first axis, beyond the search
    shell at any spacing; p may also hold a copy of g, so that one call mixes
    shell hits and the exact fallback."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, max_side=6))
    n, gap = shape[0], 4
    g = np.zeros((2 * n + gap,) + shape[1:], bool)
    p = g.copy()
    g[:n] = draw(_nonempty_mask(shape))
    p[n + gap:] = draw(_nonempty_mask(shape))
    if draw(st.booleans()):
        p[:n] |= g[:n]
    return g, p


def _p95_beyond_shell(src, dst, sampling) -> bool:
    """Whether an order statistic the linear 95th percentile of src's
    distances to dst reads lies beyond the search shell."""
    d = np.sort(ndimage.distance_transform_edt(~dst, sampling=sampling)[src])
    k = int((d.size - 1) * 0.95)
    return bool(d[min(k + 1, d.size - 1)] > metrics._SHELL_RADIUS_VOXELS * min(sampling))


@settings(max_examples=100, deadline=None)
@given(_far_pairs(), _SPACINGS)
def test_hd95_fallback_beyond_the_shell_matches_brute_force(masks, spacing):
    # the exact transform runs once for each direction whose 95th
    # percentile lies beyond the shell, and for no other
    g, p = masks
    gs, ps = surface_mask(g), surface_mask(p)
    sampling = spacing.as_tuple()[:g.ndim]
    far = _p95_beyond_shell(gs, ps, sampling) + _p95_beyond_shell(ps, gs, sampling)
    with _counting_edt() as edt:
        got = hd95(g, p, spacing)
    assert edt.call_count == far
    assert abs(got - brute_hd95(g, p, spacing.as_tuple())) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(_mask_pairs() | _far_pairs(), _SPACINGS, _LAYOUTS)
def test_hd95_is_the_same_in_every_memory_layout(masks, spacing, layout):
    g, p = masks
    got = hd95(_laid_out(g, layout), _laid_out(p, layout), spacing)
    assert got == hd95(g, p, spacing)
    want = brute_hd95(g, p, spacing.as_tuple())
    assert got is None if want is None else abs(got - want) <= 1e-9


def _line(shape, n, row):
    """A 2D mask holding the first n voxels of one row."""
    m = np.zeros(shape, bool)
    m[row, :n] = True
    return m


@settings(max_examples=150, deadline=None)
@given(_mask_pairs() | _far_pairs(), _SPACINGS, _LAYOUTS, st.sampled_from([0, 1, 3]))
@example((_line((3, 3), 1, 0), _line((3, 3), 1, 2)), ISO, "C", 3)           # n = 1
@example((_line((3, 3), 2, 0), _line((3, 3), 1, 2)), ISO, "F", 1)           # n = 2, gamma .95
@example((_line((3, 12), 12, 0), _line((3, 12), 12, 2)), ISO, "strided", 1)  # all tied
@example((_line((9, 12), 12, 0), _line((9, 12), 3, 8)), Spacing(0.3, 0.075, 1.0),
         "F-box", 3)                                                          # n = 12, gamma .45
@example((_line((9, 11), 11, 0), _line((9, 11), 2, 8)), ISO, "C", 0)        # n = 11, gamma .5
def test_directed_p95_is_np_percentile_of_the_exact_transform(masks, spacing, layout, radius):
    # radius 0 and 1 send every voxel, or the far ones, to the fallback
    g, p = (_laid_out(m, layout) for m in masks)
    assume(g.any() and p.any())
    directed, calls = metrics._directed_p95, []

    def spy(src, dst, sampling):
        calls.append((src, dst, sampling, directed(src, dst, sampling)))
        return calls[-1][-1]

    with mock.patch.object(metrics, "_SHELL_RADIUS_VOXELS", radius), \
            mock.patch.object(metrics, "_directed_p95", spy):
        got = metrics._hd95_in_box(g, p, spacing)
    gs, ps = surface_mask(g), surface_mask(p)
    assert len(calls) == 2
    for (src, dst, *_), pair in zip(calls, [(gs, ps), (ps, gs)]):
        assert np.array_equal(src, pair[0]) and np.array_equal(dst, pair[1])
    for src, dst, sampling, value in calls:
        assert sampling == spacing.as_tuple()[:g.ndim]
        want = np.percentile(ndimage.distance_transform_edt(~dst, sampling=sampling)[src], 95)
        assert type(value) is float and value == want
    assert got == max(value for *_, value in calls)


@settings(max_examples=100, deadline=None)
@given(_mask_pairs() | _far_pairs(), _SPACINGS, st.data())
def test_hd95_is_unchanged_when_both_masks_are_flipped(masks, spacing, data):
    g, p = masks
    axis = data.draw(st.integers(0, g.ndim - 1))
    assert hd95(np.flip(g, axis), np.flip(p, axis), spacing) == hd95(g, p, spacing)


def test_perturbed_phantom_needs_no_exact_transform_but_a_far_pair_does():
    _, _, gt = generate(PhantomConfig.fitted((48, 52, 16), seed=3))
    pred = perturb_slices(gt, max_shift=1, seed=4)
    with _counting_edt() as edt:
        rep = evaluate(pred, gt)
    assert edt.call_count == 0
    assert rep.per_class[1].hd95_mm > 0

    far = gt.data.copy()
    far[:2, :2, :2] = 3  # a spurious lesion far from the cord
    with _counting_edt() as edt:
        evaluate(LabelVolume(far, gt.spacing), gt)
    assert edt.call_count >= 1


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=3, max_dims=3, max_side=7),
                  elements=st.integers(0, 4)),
       st.data(), _SPACINGS)
def test_sparse_hd95_is_mean_of_plane_brute_force(pred_data, data, spacing):
    h, w, z = pred_data.shape
    z_idx = sorted(data.draw(st.sets(st.integers(0, z - 1), min_size=1)))
    planes = data.draw(hnp.arrays(np.uint8, (h, w, len(z_idx)), elements=st.integers(0, 4)))
    rep = evaluate(LabelVolume(pred_data, spacing), SparseAnnotation("v", z_idx, planes))
    for cid in (1, 2, 3, 4):
        vals = []
        for k, zk in enumerate(z_idx):
            g, p = planes[:, :, k] == cid, pred_data[:, :, zk] == cid
            v = brute_hd95(g, p, spacing.as_tuple()) if g.any() or p.any() else None
            if v is not None:
                vals.append(v)
        got = rep.per_class[cid].hd95_mm
        if not vals:
            assert got is None
        else:
            assert abs(got - sum(vals) / len(vals)) <= 1e-9


def test_surface_matches_loop_oracle():
    rng = np.random.default_rng(64)
    for _ in range(20):
        mask = rng.random((6, 6, 4)) < 0.4
        got = {tuple(c) for c in np.argwhere(surface_mask(mask))}
        assert got == set(loop_surface(mask))


def test_border_voxels_count_as_surface():
    mask = np.ones((3, 3, 3), bool)
    got = surface_mask(mask)
    # all border voxels are surface; the fully surrounded center is not
    assert not got[1, 1, 1]
    got[1, 1, 1] = True
    assert got.all()


def _erosion_surface(mask):
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    return mask & ~ndimage.binary_erosion(mask, structure, border_value=0)


@st.composite
def _surface_cases(draw):
    """2D and 3D masks, sides down to one voxel: random, all-ones, empty, or
    random with every border face touched."""
    ndim = draw(st.sampled_from([2, 3]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=8))
    kind = draw(st.sampled_from(["random", "ones", "empty", "every-face"]))
    if kind == "ones":
        mask = np.ones(shape, bool)
    elif kind == "empty":
        mask = np.zeros(shape, bool)
    else:
        mask = draw(hnp.arrays(bool, shape))
    if kind == "every-face":
        for axis, n in enumerate(shape):
            for end in (0, n - 1):
                at = [draw(st.integers(0, m - 1)) for m in shape]
                at[axis] = end
                mask[tuple(at)] = True
    return _laid_out(mask, draw(_LAYOUTS))


@settings(max_examples=200, deadline=None)
@given(_surface_cases())
def test_surface_mask_property_matches_erosion_and_loop_definitions(mask):
    before = mask.copy()
    got = surface_mask(mask)
    assert got.dtype == bool and got.shape == mask.shape
    assert np.array_equal(got, _erosion_surface(mask))
    assert {tuple(c) for c in np.argwhere(got)} == set(loop_surface(mask))
    assert np.array_equal(mask, before)


@pytest.mark.parametrize("layout", ["C", "F", "F-box", "strided"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (1, 1, 1), (1, 4, 3), (3, 1, 4),
                                   (5, 4, 1), (4, 5, 6)])
def test_surface_mask_of_full_and_empty_masks(shape, layout):
    ones = _laid_out(np.ones(shape, bool), layout)
    want = _erosion_surface(np.ones(shape, bool))
    assert np.array_equal(surface_mask(ones), want)
    # only a block at least 3 voxels thick on every axis has an interior
    assert want.all() == (min(shape) < 3)
    assert not surface_mask(_laid_out(np.zeros(shape, bool), layout)).any()


# ---------------------------------------------------------------------------
# inter-slice dice


def _labels(data):
    return LabelVolume(np.asarray(data, np.uint8), ISO)


def test_dscz_constant_class():
    data = np.zeros((4, 4, 5), np.uint8)
    data[1:3, 1:3, :] = 1
    assert inter_slice_dice(_labels(data), 1) == 1.0


def test_dscz_three_slice_fixture():
    # transitions score 1.0 and 0.5, mean 0.75
    data = np.zeros((4, 4, 3), np.uint8)
    data[0, 0:2, 0] = 1          # S_0: 2 voxels
    data[0, 0:2, 1] = 1          # S_1 = S_0        -> dice 1.0
    data[0, 1:3, 2] = 1          # S_2 overlaps 1   -> dice 0.5
    assert inter_slice_dice(_labels(data), 1) == 0.75


def test_dscz_absent_class_undefined():
    data = np.zeros((4, 4, 4), np.uint8)
    assert inter_slice_dice(_labels(data), 3) is None


def test_dscz_single_slice_error():
    data = np.zeros((4, 4, 1), np.uint8)
    with pytest.raises(DimensionError):
        inter_slice_dice(_labels(data), 1)


def test_dscz_empty_to_nonempty_transition_counts_as_zero():
    data = np.zeros((4, 4, 2), np.uint8)
    data[0, 0, 1] = 1
    assert inter_slice_dice(_labels(data), 1) == 0.0


def test_dscz_matches_set_oracle():
    rng = np.random.default_rng(65)
    for _ in range(30):
        data = rng.integers(0, 3, (6, 6, 5)).astype(np.uint8)
        for cid in (1, 2):
            assert inter_slice_dice(_labels(data), cid) == \
                set_inter_slice_dice(data, cid)


def test_dscz_duplicating_slices_never_decreases():
    rng = np.random.default_rng(66)
    for _ in range(10):
        data = rng.integers(0, 3, (6, 6, 4)).astype(np.uint8)
        doubled = np.repeat(data, 2, axis=2)
        for cid in (1, 2):
            base = inter_slice_dice(_labels(data), cid)
            dup = inter_slice_dice(_labels(doubled), cid)
            if base is None:
                assert dup is None
            else:
                assert dup >= base


# ---------------------------------------------------------------------------
# evaluate / aggregate


def test_evaluate_perfect_dense():
    rng = np.random.default_rng(67)
    data = rng.integers(0, 5, (8, 8, 6)).astype(np.uint8)
    labels = _labels(data)
    rep = evaluate(labels, labels, volume_id="v0")
    for cm in rep.per_class.values():
        if cm.present_in_gt:
            assert cm.dice == 1.0
            assert cm.hd95_mm == 0.0
    assert rep.mean_dice == 1.0
    assert rep.evaluated_slices == 6
    assert not rep.sparse_gt


def test_evaluate_sparse_scope():
    rng = np.random.default_rng(68)
    pred_data = rng.integers(0, 5, (6, 6, 100)).astype(np.uint8)
    pred = _labels(pred_data)
    z_idx = sorted(rng.choice(100, size=54, replace=False).tolist())
    planes = np.stack([pred_data[:, :, z] for z in z_idx], axis=2)
    ann = SparseAnnotation("v", z_idx, planes)
    rep = evaluate(pred, ann)
    assert rep.evaluated_slices == 54
    assert rep.sparse_gt
    for cm in rep.per_class.values():
        if cm.present_in_gt:
            assert cm.dice == 1.0


def test_evaluate_sparse_restricts_scope():
    # prediction wrong only on unannotated slices still scores perfectly
    data = np.zeros((4, 4, 6), np.uint8)
    data[1:3, 1:3, :] = 1
    pred_data = data.copy()
    pred_data[:, :, 1] = 0  # error on an unannotated slice
    ann = SparseAnnotation("v", [0, 4], np.stack([data[:, :, 0], data[:, :, 4]], axis=2))
    rep = evaluate(_labels(pred_data), ann)
    assert rep.per_class[1].dice == 1.0


def test_evaluate_absent_class_undefined_and_excluded():
    data = np.zeros((6, 6, 4), np.uint8)
    data[2:4, 2:4, :] = 1
    rep = evaluate(_labels(data), _labels(data))
    assert rep.per_class[4].dice is None
    assert not rep.per_class[4].present_in_gt
    assert rep.mean_dice == 1.0  # undefined classes excluded from the mean


def test_evaluate_empty_annotation_rejected():
    pred = _labels(np.zeros((4, 4, 4), np.uint8))
    ann = SparseAnnotation("v", [], np.zeros((4, 4, 0), np.uint8))
    with pytest.raises(ValidationError):
        evaluate(pred, ann)


def test_evaluate_dscz_runs_on_dense_prediction():
    data = np.zeros((4, 4, 6), np.uint8)
    data[1:3, 1:3, :] = 2
    ann = SparseAnnotation("v", [2], data[:, :, 2:3])
    rep = evaluate(_labels(data), ann)
    assert rep.per_class[2].dscz == 1.0


def _full_grid_class_metrics(pred, gt, cid):
    g, p = gt.data == cid, pred.data == cid
    dscz = inter_slice_dice(pred, cid) if pred.dims[2] >= 2 else None
    return ClassMetrics(cid, dice(g, p), hd95(g, p, pred.spacing), dscz,
                        bool(g.any()), bool(p.any()))


def test_dense_evaluate_per_class_boxes_match_the_full_grid():
    gt = np.zeros((10, 9, 7), np.uint8)
    pred = np.zeros_like(gt)
    gt[2:6, 2:6, 1:6] = 1
    pred[3:7, 2:6, 1:5] = 1          # DSC_z transitions into z=1 and out of z=4
    gt[0:3, 6:9, :] = 2              # touches three volume faces
    pred[0:2, 6:9, 2:] = 2
    pred[8:10, 0:2, 3:5] = 3         # present only in the prediction
    spacing = Spacing(0.075, 0.1, 0.3)
    pv, gv = LabelVolume(pred, spacing), LabelVolume(gt, spacing)
    rep = evaluate(pv, gv)
    for cid in (1, 2, 3, 4):
        assert rep.per_class[cid] == _full_grid_class_metrics(pv, gv, cid)
    assert rep.per_class[1].dscz == pytest.approx(3 / 5)  # two 0-transitions of 5
    assert rep.per_class[3].present_in_pred and not rep.per_class[3].present_in_gt
    assert rep.per_class[4].dice is None and rep.per_class[4].hd95_mm == 0.0


@st.composite
def _boxed_labels(draw, shape):
    """Each class filled at random inside its own random sub-box, so class
    boxes are small, overlap, or touch the border."""
    data = np.zeros(shape, np.uint8)
    for cid in (1, 2, 3, 4):
        if draw(st.booleans()):
            m = draw(_mask(shape))
            data[m] = cid
    return data


@settings(max_examples=60, deadline=None)
@given(st.data(), hnp.array_shapes(min_dims=3, max_dims=3, max_side=8), _SPACINGS)
def test_dense_evaluate_property_matches_the_full_grid(data, shape, spacing):
    pv = LabelVolume(data.draw(_boxed_labels(shape)), spacing)
    gv = LabelVolume(data.draw(_boxed_labels(shape)), spacing)
    rep = evaluate(pv, gv)
    for cid in (1, 2, 3, 4):
        assert rep.per_class[cid] == _full_grid_class_metrics(pv, gv, cid)


def _counting_find_objects():
    return mock.patch.object(ndimage, "find_objects", wraps=ndimage.find_objects)


@settings(max_examples=150, deadline=None)
@given(st.data(), hnp.array_shapes(min_dims=3, max_dims=3, max_side=9), _LAYOUTS)
def test_class_boxes_property_match_find_objects(data, shape, layout):
    labels = data.draw(_boxed_labels(shape) | hnp.arrays(
        np.uint8, shape, elements=st.sampled_from([0, 0, 0, 1, 2, 3, 4])))
    want = ndimage.find_objects(labels, max_label=4)
    assert metrics._class_boxes(_laid_out(labels, layout), 4) == want


def _corner_voxel(corner):
    data = np.zeros((5, 6, 4), np.uint8)
    data[tuple(c * (n - 1) for c, n in zip(corner, data.shape))] = 3
    return data


def _border_only_class():
    data = np.zeros((6, 7, 5), np.uint8)
    data[2:4, 2:5, 1:4] = 1
    data[0, 3, 2] = data[5, 1, 0] = data[4, 0, 4] = data[1, 6, 1] = 2
    data[3, 3, 0] = data[2, 4, 4] = 2
    return data


@pytest.mark.parametrize("layout", ["C", "F", "F-box", "strided"])
@pytest.mark.parametrize("data", [
    np.zeros((4, 5, 3), np.uint8),
    np.zeros((1, 1, 1), np.uint8),
    np.full((1, 1, 1), 4, np.uint8),
    _border_only_class(),
    *[_corner_voxel(c) for c in np.ndindex(2, 2, 2)],
], ids=["background", "one-voxel-background", "one-voxel-class",
        "class-on-border-voxels"] + [f"corner-{c}" for c in np.ndindex(2, 2, 2)])
def test_class_boxes_match_find_objects_on_edge_cases(data, layout):
    with _counting_find_objects() as spy:
        got = metrics._class_boxes(_laid_out(data, layout), 4)
    assert got == ndimage.find_objects(data, max_label=4)
    assert spy.call_count == 0


def test_dense_evaluate_measures_each_union_box_whole_without_find_objects():
    spacing = Spacing(0.075, 0.1, 0.3)
    _, _, gt = generate(PhantomConfig.fitted((40, 44, 12), seed=5))
    pred = perturb_slices(gt, max_shift=1, seed=6).data.copy()
    pred[pred == 3] = 0               # lesion_wm absent from the prediction
    pred[0, 0, 0] = 4                 # and a stray lesion_gm voxel in a corner
    gv = LabelVolume(np.asfortranarray(gt.data), spacing)
    pv = LabelVolume(np.asfortranarray(pred), spacing)
    with _counting_find_objects() as spy, \
            mock.patch.object(metrics, "_hd95_in_box", wraps=metrics._hd95_in_box) as core:
        rep = evaluate(pv, gv)
    assert spy.call_count == 0
    assert core.call_count == 3       # lesion_wm is in one volume only: HD95 undefined
    for call in core.call_args_list:  # hd95 got each pair already in its bounding box
        g, p = call.args[:2]
        whole = tuple(slice(0, n) for n in g.shape)
        assert ndimage.find_objects((g | p).view(np.uint8))[0] == whole
    for cid in (1, 2, 3, 4):
        assert rep.per_class[cid] == _full_grid_class_metrics(pv, gv, cid)
    assert rep.per_class[3].hd95_mm is None and rep.per_class[3].present_in_gt


def test_fold_aggregate_identical_reports():
    rng = np.random.default_rng(69)
    data = rng.integers(0, 5, (6, 6, 4)).astype(np.uint8)
    rep = evaluate(_labels(data), _labels(data))
    agg = fold_aggregate([rep, rep, rep])
    row = agg.row(1, "dice")
    assert row.std == 0.0
    assert row.cov == 0.0


def test_fold_aggregate_hand_values():
    def rep_with_dice(d):
        cm = ClassMetrics(1, d, None, None, True, True)
        return MetricsReport({1: cm}, d, None, 4, False, "v")

    agg = fold_aggregate([rep_with_dice(0.6), rep_with_dice(0.7)])
    row = agg.row(1, "dice")
    assert row.mean == pytest.approx(0.65)
    assert row.std == pytest.approx(0.05)
    assert row.cov == pytest.approx(0.0769, abs=1e-4)
    assert row.cov_percent == pytest.approx(7.69, abs=1e-2)


def test_fold_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        fold_aggregate([])


def test_csv_columns_frozen():
    assert CSV_COLUMNS == ["volume_id", "class", "dice", "hd95_mm", "dscz",
                           "defined_flags"]
    data = np.zeros((4, 4, 4), np.uint8)
    data[1:3, 1:3, :] = 1
    rep = evaluate(_labels(data), _labels(data), volume_id="vol7")
    text = report_to_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # header + 4 classes
    first = lines[1].split(",")
    assert first[0] == "vol7"
    assert first[1] == "healthy_wm"
    assert first[2] == "1"
    assert "dice=1" in first[5]
    # absent class rows carry empty cells and zero flags
    absent = lines[4].split(",")
    assert absent[1] == "lesion_gm"
    assert absent[2] == ""
    assert "dice=0" in absent[5]


def test_json_report_shape():
    data = np.zeros((4, 4, 4), np.uint8)
    data[1:3, 1:3, :] = 2
    rep = evaluate(_labels(data), _labels(data), volume_id="x")
    doc = rep.to_json_dict()
    assert doc["scope"]["evaluated_slices"] == 4
    assert doc["classes"]["healthy_gm"]["dice"] == 1.0
    assert doc["classes"]["lesion_wm"]["dice"] is None


def test_scipy_loads_only_for_the_exact_transform_fallback():
    # in a fresh interpreter: neither the CLI import nor a dense evaluate of
    # a one-voxel jitter, whose surfaces all lie within the shell, loads it;
    # nor does one far island, whose distance is in the top 5% the
    # percentile never reads
    import os
    import pathlib
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import numpy as np\n"
        "import cordpipe.cli\n"
        "assert 'scipy.ndimage' not in sys.modules, 'import'\n"
        "from cordpipe import LabelVolume, PhantomConfig, evaluate, generate, perturb_slices\n"
        "_, _, gt = generate(PhantomConfig.fitted((48, 48, 12), seed=3))\n"
        "pred = perturb_slices(gt, max_shift=1, seed=4)\n"
        "report = evaluate(pred, gt)\n"
        "assert report.mean_hd95 > 0\n"
        "assert 'scipy.ndimage' not in sys.modules, 'evaluate'\n"
        "island = (0, 0, 5)\n"
        "assert pred.data[island] == 0\n"
        "data = pred.data.copy()\n"
        "data[island] = 1\n"
        "mm = (np.argwhere(gt.data == 1) - island) * gt.spacing.as_tuple()\n"
        "assert np.sqrt((mm ** 2).sum(axis=1)).min() > 3 * min(gt.spacing.as_tuple())\n"
        "assert evaluate(LabelVolume(data, pred.spacing), gt).per_class[1].hd95_mm > 0\n"
        "assert 'scipy.ndimage' not in sys.modules, 'far island'\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_metrics_imports_nothing_from_nifti():
    # `import cordpipe` loads every module, so only the source can show
    # that metrics takes its types from volume, where the grid rule lives
    import ast
    from pathlib import Path

    tree = ast.parse(Path(metrics.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update("." * node.level + a.name for a in node.names if not node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert ".volume" in imported
    assert not imported & {".nifti", "cordpipe.nifti"}
