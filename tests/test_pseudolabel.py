import itertools
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cordpipe import (
    LabelVolume,
    MockPredictor,
    PhantomConfig,
    RegionStack,
    ScalarVolume,
    Spacing,
    SubprocessPredictor,
    TtaConfig,
    ensemble,
    generate,
    jitter_score,
    perturb_slices,
    predict_labels,
    predict_volume,
    predict_with_tta,
    stack_slices,
)
from cordpipe.errors import ConfigError, DimensionError, ValidationError
from cordpipe import merge_regions, pseudolabel, volume
from cordpipe.pseudolabel import FLIP_NAMES, SlicePredictor, _flip

from oracles import LAYOUTS, argmin_nearest_class, laid_out

ISO = Spacing.isotropic()


def _mock():
    return MockPredictor({0: (0.0, 0.5), 1: (0.4, 0.2), 2: (0.6, 0.8),
                          3: (0.85, 0.5), 4: (0.95, 0.9)})


class PatternPredictor(SlicePredictor):
    """Deliberately not flip-equivariant: output depends on position."""

    def predict(self, magnitude, phase=None):
        h, w = magnitude.shape
        ramp = np.tile(np.linspace(0, 1, w), (h, 1)).astype(np.float32)
        return RegionStack(ramp, 1 - ramp, np.zeros_like(ramp))


class WrongShapePredictor(SlicePredictor):
    def predict(self, magnitude, phase=None):
        z = np.zeros((2, 2), np.float32)
        return RegionStack(z, z, z)


def test_tta_noop_for_equivariant_predictor():
    rng = np.random.default_rng(70)
    mag = rng.random((12, 12)).astype(np.float32)
    phs = rng.random((12, 12)).astype(np.float32)
    pred = _mock()
    plain = pred.predict(mag, phs)
    tta = predict_with_tta(pred, mag, phs, TtaConfig())
    for a, b in zip(plain.channels(), tta.channels()):
        assert np.array_equal(a, b)


def test_tta_identity_only_equals_plain():
    pred = PatternPredictor()
    mag = np.zeros((6, 8), np.float32)
    plain = pred.predict(mag)
    tta = predict_with_tta(pred, mag, None, TtaConfig(transforms=("identity",)))
    for a, b in zip(plain.channels(), tta.channels()):
        assert np.array_equal(a, b)


def test_tta_two_term_mean():
    pred = PatternPredictor()
    mag = np.zeros((6, 8), np.float32)
    cfg = TtaConfig(transforms=("identity", "flip-y"))
    got = predict_with_tta(pred, mag, None, cfg)
    p = pred.predict(mag)
    q = pred.predict(_flip(mag, "flip-y"))
    for ch_got, ch_p, ch_q in zip(got.channels(), p.channels(), q.channels()):
        want = (ch_p.astype(np.float64) + _flip(ch_q, "flip-y")) / 2
        assert np.allclose(ch_got, want, atol=0)


def test_tta_config_requires_identity():
    with pytest.raises(ValidationError):
        TtaConfig(transforms=("flip-x",))
    with pytest.raises(ValidationError):
        TtaConfig(transforms=("identity", "spin"))
    with pytest.raises(ValidationError):
        TtaConfig(transforms=("identity", "identity"))


def test_tta_rejects_wrong_predictor_shape():
    with pytest.raises(DimensionError):
        predict_with_tta(WrongShapePredictor(), np.zeros((6, 6), np.float32))


# ---------------------------------------------------------------------------
# ensemble


def _random_stack(rng, shape=(6, 6)):
    return RegionStack(rng.random(shape), rng.random(shape), rng.random(shape))


def test_ensemble_identical_stacks():
    rng = np.random.default_rng(71)
    s = _random_stack(rng)
    out = ensemble([s, s, s, s])
    for a, b in zip(out.channels(), s.channels()):
        assert np.allclose(a, b, atol=1e-15)


def test_ensemble_two_values():
    a = RegionStack(np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 0.2))
    b = RegionStack(np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 0.6))
    out = ensemble([a, b])
    assert np.allclose(out.lesion, 0.4, atol=1e-15)


def test_ensemble_permutation_invariant():
    rng = np.random.default_rng(72)
    stacks = [_random_stack(rng) for _ in range(4)]
    base = ensemble(stacks)
    order = [2, 0, 3, 1]
    shuffled = ensemble([stacks[i] for i in order])
    for a, b in zip(base.channels(), shuffled.channels()):
        assert np.abs(a - b).max() <= 1e-12


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        ensemble([])
    rng = np.random.default_rng(73)
    with pytest.raises(DimensionError):
        ensemble([_random_stack(rng, (4, 4)), _random_stack(rng, (5, 5))])


# ---------------------------------------------------------------------------
# stacking


def test_stack_single_slice():
    rng = np.random.default_rng(74)
    plane = _random_stack(rng, (5, 4))
    vol = stack_slices({0: plane}, 1)
    assert vol.shape == (5, 4, 1)
    assert np.array_equal(vol.wm[:, :, 0], plane.wm)


def test_stack_roundtrips_every_plane():
    rng = np.random.default_rng(75)
    planes = {z: _random_stack(rng, (4, 4)) for z in range(6)}
    vol = stack_slices(planes, 6)
    for z in range(6):
        assert np.array_equal(vol.gm[:, :, z], planes[z].gm)
        assert np.array_equal(vol.lesion[:, :, z], planes[z].lesion)


def test_stack_missing_slice():
    rng = np.random.default_rng(76)
    planes = {z: _random_stack(rng, (4, 4)) for z in (0, 2)}
    with pytest.raises(ValidationError):
        stack_slices(planes, 3)


def test_stack_shape_mismatch():
    rng = np.random.default_rng(78)
    planes = {0: _random_stack(rng, (4, 4)), 1: _random_stack(rng, (5, 5))}
    with pytest.raises(DimensionError):
        stack_slices(planes, 2)


# ---------------------------------------------------------------------------
# volume prediction and jitter


def test_predict_volume_threaded_matches_serial():
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 8), seed=5))
    pred = MockPredictor.fit(mag, phs, labels)
    serial = predict_volume(pred, mag, phs, threads=1)
    threaded = predict_volume(pred, mag, phs, threads=4)
    for a, b in zip(serial.channels(), threaded.channels()):
        assert np.array_equal(a, b)
    capped = predict_volume(pred, mag, phs, threads=8)
    for a, b in zip(serial.channels(), capped.channels()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", [0, -7])
def test_thread_counts_below_1_are_rejected(threads):
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 8), seed=5))
    with pytest.raises(ValidationError, match=f"got {threads}"):
        pseudolabel.thread_map(abs, [1, 2, 3], threads)
    # a thread-safe predictor, and one that runs serially whatever the count
    for pred in (MockPredictor.fit(mag, phs, labels), PassCountingPredictor()):
        with pytest.raises(ValidationError, match=f"got {threads}"):
            predict_volume(pred, mag, phs, threads=threads)
    assert pseudolabel.thread_map(abs, [1, -2, 3], None) == [1, 2, 3]


def test_jitter_direction_on_phantom():
    # smooth phantom scores near 1; per-slice jitter strictly lowers every
    # class, the same ordering as stacked-2D vs native-3D predictions
    _, _, labels = generate(PhantomConfig(seed=2))
    base = jitter_score(labels)
    shaken = jitter_score(perturb_slices(labels, 1, seed=3))
    for cid in (1, 2, 3, 4):
        assert base[cid] >= 0.95
        assert shaken[cid] < base[cid]


def test_mock_predictor_fit_recovers_phantom():
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 4), seed=6))
    pred = MockPredictor.fit(mag, phs, labels)
    plane = pred.predict(mag.data[:, :, 0], phs.data[:, :, 0])
    want_wm = np.isin(labels.data[:, :, 0], (1, 3))
    agree = (plane.wm.astype(bool) == want_wm).mean()
    assert agree > 0.98


def test_mock_predictor_missing_class_center():
    with pytest.raises(ValidationError):
        MockPredictor({0: (0, 0), 1: (1, 1)})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_mock_predictor_rejects_non_finite_center(bad):
    centers = {0: (0.0, 0.5), 1: (0.4, 0.2), 2: (0.6, 0.8), 3: (0.85, bad), 4: (0.95, 0.9)}
    with pytest.raises(ValidationError):
        MockPredictor(centers)


def test_mock_predictor_matches_argmin_reference():
    # quantized inputs and centers make exact distance ties common; the
    # first class in id order wins them, as np.argmin picks
    rng = np.random.default_rng(80)
    centers = {0: (0.0, 0.5), 1: (0.5, 0.0), 2: (0.5, 1.0), 3: (1.0, 0.5),
               4: (0.5, 0.5), 7: (0.25, 0.25)}
    mag = rng.integers(0, 5, (9, 7, 3)) / 4
    phs = rng.integers(0, 5, (9, 7, 3)) / 4
    cls_map = argmin_nearest_class(mag, phs, centers)
    got = MockPredictor(centers).predict_batch(mag, phs)
    _assert_regions_of(got, cls_map)


def _assert_regions_of(stack, cls_map):
    assert np.array_equal(stack.wm, np.isin(cls_map, (1, 3)))
    assert np.array_equal(stack.gm, np.isin(cls_map, (2, 4)))
    assert np.array_equal(stack.lesion, np.isin(cls_map, (3, 4)))


@settings(max_examples=120, deadline=None)
@given(shape=st.lists(st.integers(1, 7), min_size=2, max_size=3).map(tuple),
       block=st.integers(1, 9), mag_layout=st.sampled_from(LAYOUTS),
       phase_layout=st.sampled_from(LAYOUTS + [None]),
       dtype=st.sampled_from([np.float32, np.float64]),
       extra_class=st.booleans(), seed=st.integers(0, 2**16))
def test_blocked_predict_matches_argmin_reference(shape, block, mag_layout, phase_layout,
                                                  dtype, extra_class, seed):
    # blocks of a few voxels, so most draws end on a partial block and
    # many blocks split planes; quantized values make exact ties common
    rng = np.random.default_rng(seed)
    centers = {c: tuple(rng.integers(0, 5, 2) / 4) for c in range(5)}
    if extra_class:
        centers[7] = (0.25, 0.25)
    mag = laid_out((rng.integers(0, 5, shape) / 4).astype(dtype), mag_layout)
    phs = None if phase_layout is None else \
        laid_out((rng.integers(0, 5, shape) / 4).astype(dtype), phase_layout)
    with mock.patch.object(volume, "_BLOCK_VOXELS", block):
        got = MockPredictor(centers).predict(mag, phs)
    assert got.shape == shape
    _assert_regions_of(got, argmin_nearest_class(mag, phs, centers))


def test_blocked_predict_matches_argmin_reference_on_a_phantom(monkeypatch):
    # unquantized float32 channels over many blocks, one of them partial
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 8), seed=5))
    centers = MockPredictor.fit(mag, phs, labels).centers
    monkeypatch.setattr(volume, "_BLOCK_VOXELS", 97)
    for m, p in ((mag.data, phs.data), (mag.data[:, :, 2], phs.data[:, :, 2]),
                 (mag.data, None)):
        got = MockPredictor(centers).predict_batch(m, p) if m.ndim == 3 else \
            MockPredictor(centers).predict(m, p)
        _assert_regions_of(got, argmin_nearest_class(m, p, centers))


@pytest.mark.parametrize("layouts", [("F", "F", "F"), ("C", "C", "C"), ("F", "C", "F"),
                                     ("C", "F", "reversed")])
def test_fit_centers_equal_masked_means_bit_for_bit(layouts):
    # per-class sums of thousands of float32 values round differently in
    # another element order, so only a C-order gather gives these bits
    rng = np.random.default_rng(83)
    shape = (40, 36, 9)
    labels = rng.integers(0, 5, shape).astype(np.uint8)
    mag = rng.random(shape, dtype=np.float32) * 3
    phs = rng.standard_normal(shape).astype(np.float32)
    want = {c: (float(mag[labels == c].mean()), float(phs[labels == c].mean()))
            for c in range(5)}
    m, p, lab = (laid_out(a, lay) for a, lay in zip((mag, phs, labels), layouts))
    got = MockPredictor.fit(ScalarVolume(m, ISO), ScalarVolume(p, ISO),
                            LabelVolume(lab, ISO)).centers
    assert got == want


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 5), z=st.integers(5, 9),
       rows=st.sampled_from([None, 1, 3]), layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * 3),
       seed=st.integers(0, 2**32 - 1))
@example(h=16, w=3, z=5, rows=None, layouts=("C", "F", "strided"), seed=1)
@example(h=17, w=3, z=5, rows=None, layouts=("F", "F", "F"), seed=2)
@example(h=9, w=4, z=6, rows=3, layouts=("strided", "C", "F"), seed=3)
def test_fit_centers_equal_masked_means_for_every_slab_split(h, w, z, rows, layouts, seed):
    rows = rows or pseudolabel._FIT_ROWS
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, (h, w, z)).astype(np.uint8)
    # class 4 occurs only in the last slab of rows
    last = labels[(h - 1) // rows * rows:]
    last[rng.random(last.shape) < 0.3] = 4
    last[-1, -1, -1] = 4
    labels[0, 0, :4] = range(4)
    mag = rng.random(labels.shape, dtype=np.float32) * 3
    phs = rng.standard_normal(labels.shape).astype(np.float32)
    want = {c: (float(mag[labels == c].mean()), float(phs[labels == c].mean()))
            for c in range(5)}
    m, p, lab = (laid_out(a, lay) for a, lay in zip((mag, phs, labels), layouts))
    with mock.patch.object(pseudolabel, "_FIT_ROWS", rows):
        got = MockPredictor.fit(ScalarVolume(m, ISO), ScalarVolume(p, ISO),
                                LabelVolume(lab, ISO)).centers
    assert got == want


def test_fit_rejects_an_absent_class():
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 4), seed=6))
    data = labels.data.copy()
    data[data == 3] = 1
    with pytest.raises(ValidationError, match="class 3 absent"):
        MockPredictor.fit(mag, phs, LabelVolume(data, ISO))


def test_fit_names_the_lowest_absent_class_before_copying_an_intensity_slab(monkeypatch):
    mag, phs, labels = generate(PhantomConfig.fitted((40, 32, 4), seed=6))
    copied, in_order = [], pseudolabel._in_order

    def spy(a, order, dtype=None):
        copied.append(a.dtype)
        return in_order(a, order, dtype)

    monkeypatch.setattr(pseudolabel, "_in_order", spy)
    MockPredictor.fit(mag, phs, labels)
    assert np.dtype(np.float32) in copied  # the spy sees the intensity slabs
    copied.clear()
    data = labels.data.copy()
    data[(data == 2) | (data == 4)] = 1
    with pytest.raises(ValidationError, match=r"^cannot fit centers: class 2 absent$"):
        MockPredictor.fit(mag, phs, LabelVolume(data, ISO))
    assert np.dtype(np.float32) not in copied


# ---------------------------------------------------------------------------
# chunked volume prediction


class MixPredictor(SlicePredictor):
    """Not flip-equivariant, and its outputs are not 0/1, so the float64
    TTA mean and its rounding to float32 are exercised."""

    def predict(self, magnitude, phase=None):
        h, w = magnitude.shape
        pos = (np.arange(h)[:, None] * 0.37 + np.arange(w)[None, :] * 0.11) % 1
        p = np.zeros_like(magnitude) if phase is None else phase
        wm = (magnitude * 0.6 + pos * 0.4).astype(np.float32)
        gm = (np.abs(magnitude - p) * 0.5 + pos * 0.25).astype(np.float32)
        return RegionStack(wm, gm, (wm * gm).astype(np.float32))


TTA_SUBSETS = [None] + [
    TtaConfig(("identity", *extra))
    for n in range(4) for extra in itertools.combinations(FLIP_NAMES[1:], n)
]


def _volumes(h, w, z, seed):
    rng = np.random.default_rng(seed)
    mag = ScalarVolume(rng.random((h, w, z), dtype=np.float32), ISO)
    phs = ScalarVolume(rng.random((h, w, z), dtype=np.float32), ISO)
    return mag, phs


def _per_slice_reference(predictor, mag, phs, tta):
    cfg = TtaConfig(("identity",)) if tta is None else tta
    planes = {z: predict_with_tta(predictor, mag.data[:, :, z],
                                  None if phs is None else phs.data[:, :, z], cfg)
              for z in range(mag.dims[2])}
    return stack_slices(planes, mag.dims[2])


def _same_bytes(a, b):
    return all(x.dtype == y.dtype == np.float32 and x.tobytes("F") == y.tobytes("F")
               for x, y in zip(a.channels(), b.channels()))


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), z=st.integers(1, 9),
       chunk_slices=st.integers(0, 10), slack=st.integers(0, 5),
       tta=st.sampled_from(TTA_SUBSETS), with_phase=st.booleans(),
       predictor=st.sampled_from([PatternPredictor(), MixPredictor()]),
       seed=st.integers(0, 2**16))
def test_predict_volume_equals_stacked_per_slice_tta(h, w, z, chunk_slices, slack, tta,
                                                     with_phase, predictor, seed):
    mag, phs = _volumes(h, w, z, seed)
    phs = phs if with_phase else None
    # chunks of chunk_slices planes, and at least one; the slack below one
    # plane must not matter
    voxels = max(1, chunk_slices * h * w + min(slack, h * w - 1))
    with mock.patch.object(pseudolabel, "_CHUNK_VOXELS", voxels):
        got = predict_volume(predictor, mag, phs, tta=tta)
    assert _same_bytes(got, _per_slice_reference(predictor, mag, phs, tta))


def test_flip_equivariant_mock_matches_full_tta():
    class PlainMock(MockPredictor):
        flip_equivariant = False

    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 8), seed=5))
    centers = MockPredictor.fit(mag, phs, labels).centers
    for tta in (TtaConfig(), TtaConfig(("identity", "flip-xy"))):
        with mock.patch.object(pseudolabel, "_CHUNK_VOXELS", 3 * 32 * 32):
            fast = predict_volume(MockPredictor(centers), mag, phs, tta=tta)
            full = predict_volume(PlainMock(centers), mag, phs, tta=tta)
        assert _same_bytes(fast, full)


def test_flip_equivariant_runs_identity_pass_only():
    calls = []

    class CountingMock(MockPredictor):
        def predict_batch(self, magnitude, phase=None):
            calls.append(magnitude.shape)
            return super().predict_batch(magnitude, phase)

    mag, phs = _volumes(16, 16, 5, seed=9)
    pred = CountingMock(_mock().centers)
    with mock.patch.object(pseudolabel, "_CHUNK_VOXELS", 2 * 16 * 16):
        predict_volume(pred, mag, phs, tta=TtaConfig())
    assert calls == [(16, 16, 2), (16, 16, 2), (16, 16, 1)]


class WrongBatchShapePredictor(MixPredictor):
    def predict_batch(self, magnitude, phase=None):
        return super().predict_batch(magnitude[:-1], None if phase is None else phase[:-1])


@pytest.mark.parametrize("tta", [None, TtaConfig()])
def test_predict_batch_wrong_shape_is_dimension_error(tta):
    mag, phs = _volumes(5, 4, 3, seed=81)
    with pytest.raises(DimensionError):
        predict_volume(WrongBatchShapePredictor(), mag, phs, tta=tta)
    with pytest.raises(DimensionError):
        predict_with_tta(WrongBatchShapePredictor(), mag.data[:, :, 0], phs.data[:, :, 0])
    with pytest.raises(DimensionError):
        predict_volume(WrongShapePredictor(), mag, phs, tta=tta)


def test_predict_volume_threaded_matches_serial_across_chunks(monkeypatch):
    mag, phs = _volumes(7, 6, 11, seed=82)
    monkeypatch.setattr(pseudolabel, "_CHUNK_VOXELS", 2 * 7 * 6)
    for predictor in (MixPredictor(), _mock()):
        serial = predict_volume(predictor, mag, phs, tta=TtaConfig(), threads=1)
        threaded = predict_volume(predictor, mag, phs, tta=TtaConfig(), threads=4)
        assert _same_bytes(serial, threaded)
        assert _same_bytes(serial, _per_slice_reference(predictor, mag, phs, TtaConfig()))



@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("predictor, tta", [
    (MixPredictor(), TtaConfig()), (MixPredictor(), None), (_mock(), TtaConfig())])
def test_predict_labels_equals_merged_predict_volume_across_chunks(
        monkeypatch, predictor, tta, threads):
    k = 3  # slices per chunk
    monkeypatch.setattr(pseudolabel, "_CHUNK_VOXELS", k * 7 * 6)
    for depth in (1, k - 1, k, k + 1, 2 * k + 3):
        mag, phs = _volumes(7, 6, depth, seed=84 + depth)
        spacing = Spacing(0.5, 0.5, 2.0)
        mag, phs = ScalarVolume(mag.data, spacing), ScalarVolume(phs.data, spacing)
        for thresholds in ((0.5, 0.5), (0.3, 0.7)):
            want = merge_regions(predict_volume(predictor, mag, phs, tta=tta, threads=threads),
                                 spacing, *thresholds)
            got = predict_labels(predictor, mag, phs, tta=tta, threads=threads,
                                 tissue_thresh=thresholds[0], lesion_thresh=thresholds[1])
            assert got.spacing == spacing and got.data.dtype == np.uint8
            assert got.data.tobytes("F") == want.data.tobytes("F"), (depth, thresholds)


class PassCountingPredictor(SlicePredictor):
    """Constant planes of 0.5 on every TTA pass but each fourth, which gives
    the float32 just below 0.5: the float64 mean of four passes is then
    0.5 - 2**-27, below the threshold, and its float32 cast is 0.5."""

    thread_safe = False

    def __init__(self):
        self.calls = 0

    def predict(self, magnitude, phase=None):
        raise AssertionError("predict_batch is overridden")

    def predict_batch(self, magnitude, phase=None):
        self.calls += 1
        value = np.nextafter(np.float32(0.5), np.float32(0)) if self.calls % 4 == 0 else 0.5
        plane = np.full(magnitude.shape, value, np.float32)
        return RegionStack(plane, plane, plane)


def test_predict_labels_merges_the_float32_tta_mean():
    mag, phs = _volumes(4, 3, 5, seed=85)
    with mock.patch.object(pseudolabel, "_CHUNK_VOXELS", 2 * 4 * 3):
        got = predict_labels(PassCountingPredictor(), mag, phs, tta=TtaConfig())
        want = merge_regions(predict_volume(PassCountingPredictor(), mag, phs,
                                            tta=TtaConfig()), ISO)
    # gm == wm == 0.5 after the cast: tissue, gray matter wins the tie, lesion set
    assert np.all(got.data == 4)
    assert got.data.tobytes() == want.data.tobytes()


def test_predict_labels_checks_thresholds_before_predicting():
    mag, phs = _volumes(4, 3, 2, seed=86)
    with pytest.raises(ConfigError):
        predict_labels(WrongShapePredictor(), mag, phs, tissue_thresh=1.5)


# ---------------------------------------------------------------------------
# subprocess seam

PREDICTOR_SCRIPT = """
import sys
import numpy as np
from cordpipe import read_nifti, write_nifti, ScalarVolume

mag_path, phase_path, out_path = sys.argv[1:4]
mag = read_nifti(open(mag_path, 'rb').read())
phs = read_nifti(open(phase_path, 'rb').read())
m = mag.data[:, :, 0]
p = phs.data[:, :, 0]
wm = (m > 0.5).astype(np.float32)
gm = (p > 0.5).astype(np.float32)
lesion = ((m > 0.5) & (p > 0.5)).astype(np.float32)
out = np.stack([wm, gm, lesion], axis=2)
open(out_path, 'wb').write(write_nifti(ScalarVolume(out, mag.spacing)))
"""


def test_subprocess_predictor_roundtrip(tmp_path):
    script = tmp_path / "predictor.py"
    script.write_text(PREDICTOR_SCRIPT)
    pred = SubprocessPredictor([sys.executable, str(script)])
    rng = np.random.default_rng(79)
    mag = rng.random((6, 7)).astype(np.float32)
    phs = rng.random((6, 7)).astype(np.float32)
    stack = pred.predict(mag, phs)
    assert np.array_equal(stack.wm, (mag > 0.5).astype(np.float32))
    assert np.array_equal(stack.gm, (phs > 0.5).astype(np.float32))
    assert np.array_equal(stack.lesion, ((mag > 0.5) & (phs > 0.5)).astype(np.float32))


def test_subprocess_predictor_failure_reported(tmp_path):
    script = tmp_path / "broken.py"
    script.write_text("import sys; sys.exit(3)")
    pred = SubprocessPredictor([sys.executable, str(script)])
    with pytest.raises(ValidationError):
        pred.predict(np.zeros((4, 4), np.float32))


@pytest.mark.parametrize("which", ["phase", "labels"])
def test_mock_fit_rejects_volumes_on_other_grids(which):
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 4), seed=5))
    _, big_phs, big_labels = generate(PhantomConfig.fitted((40, 40, 4), seed=5))
    if which == "phase":
        phs = big_phs
    else:
        labels = big_labels
    with pytest.raises(DimensionError):
        MockPredictor.fit(mag, phs, labels)


@pytest.mark.parametrize("which", ["phase", "labels"])
def test_library_rejects_a_volume_at_another_spacing(which):
    # the grid rule holds for library calls too, not only for the CLI
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 4), seed=5))
    coarse = Spacing.isotropic(0.5)
    if which == "phase":
        phs = ScalarVolume(phs.data, coarse)
    else:
        labels = LabelVolume(labels.data, coarse)
    with pytest.raises(ValidationError, match="spacing") as exc:
        MockPredictor.fit(mag, phs, labels)
    assert exc.type is ValidationError
    if which == "phase":
        for predict in (predict_volume, predict_labels):
            with pytest.raises(ValidationError, match="spacing") as exc:
                predict(_mock(), mag, phs)
            assert exc.type is ValidationError


def _assert_x_fastest_planes(vol, planes):
    for ch, name in zip(vol.channels(), ("wm", "gm", "lesion")):
        assert ch.dtype == np.float32 and ch.flags.f_contiguous
        for z, plane in enumerate(planes):
            assert np.array_equal(ch[:, :, z], getattr(plane, name))


def test_stack_slices_and_default_predict_batch_give_x_fastest_planes():
    rng = np.random.default_rng(90)
    planes = [_random_stack(rng, (5, 3)) for _ in range(4)]
    _assert_x_fastest_planes(stack_slices(dict(enumerate(planes)), 4), planes)

    class Replay(SlicePredictor):
        def __init__(self):
            self.queue = list(planes)

        def predict(self, magnitude, phase=None):
            return self.queue.pop(0)

    mag = rng.random((5, 3, 4), dtype=np.float32)
    _assert_x_fastest_planes(Replay().predict_batch(mag, mag), planes)


def test_a_wrong_shaped_plane_is_a_dimension_error_on_both_paths():
    rng = np.random.default_rng(91)
    with pytest.raises(DimensionError, match="slice 1 has shape"):
        stack_slices({0: _random_stack(rng, (4, 4)), 1: _random_stack(rng, (4, 5))}, 2)
    with pytest.raises(DimensionError, match="slice 0 has shape"):
        WrongShapePredictor().predict_batch(np.zeros((5, 4, 2), np.float32))
