import numpy as np
import pytest

from cordpipe import (
    ButterflyShape,
    LesionModel,
    PhantomConfig,
    generate,
    jitter_score,
    perturb_slices,
)
from cordpipe.errors import ValidationError
from cordpipe.volume import (
    BACKGROUND,
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
)


def test_default_phantom_has_all_classes():
    _, _, labels = generate(PhantomConfig())
    assert set(np.unique(labels.data)) == {0, 1, 2, 3, 4}


def test_zero_lesions():
    cfg = PhantomConfig(lesions=LesionModel(wm_count=0, gm_count=0))
    _, _, labels = generate(cfg)
    assert set(np.unique(labels.data)) <= {BACKGROUND, HEALTHY_WM, HEALTHY_GM}


def test_lesions_contained_in_host_tissue():
    # the lesion-free phantom shares the same deterministic cord geometry,
    # so it serves as the construction oracle for containment
    for seed in range(5):
        cfg = PhantomConfig(seed=seed)
        cfg0 = PhantomConfig(seed=seed, lesions=LesionModel(wm_count=0, gm_count=0))
        _, _, lab = generate(cfg)
        _, _, lab0 = generate(cfg0)
        assert (lab0.data[lab.data == LESION_WM] == HEALTHY_WM).all()
        assert (lab0.data[lab.data == LESION_GM] == HEALTHY_GM).all()
        same = ~np.isin(lab.data, (LESION_WM, LESION_GM))
        assert np.array_equal(lab.data[same], lab0.data[same])
        assert (lab.data == LESION_GM).any()
        assert (lab.data == LESION_WM).any()


def test_gm_inside_cord():
    _, _, labels = generate(PhantomConfig())
    gm = np.isin(labels.data, (HEALTHY_GM, LESION_GM))
    fg = labels.data != BACKGROUND
    # every gray matter voxel has a full in-plane neighborhood of tissue
    xs, ys, zs = np.where(gm)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert fg[xs + dx, ys + dy, zs].all()


def test_determinism_per_seed():
    a = generate(PhantomConfig(seed=9))
    b = generate(PhantomConfig(seed=9))
    for x, y in zip(a, b):
        assert x.data.tobytes() == y.data.tobytes()


def test_seeds_differ():
    a = generate(PhantomConfig(seed=1))[0]
    b = generate(PhantomConfig(seed=2))[0]
    assert not np.array_equal(a.data, b.data)


def test_intensity_channels_separate_classes():
    mag, phs, labels = generate(PhantomConfig(seed=4))
    wm_mag = mag.data[labels.data == HEALTHY_WM].mean()
    lesion_mag = mag.data[labels.data == LESION_WM].mean()
    assert lesion_mag > wm_mag  # lesions are hyperintense
    wm_phase = phs.data[labels.data == HEALTHY_WM].mean()
    gm_phase = phs.data[labels.data == HEALTHY_GM].mean()
    assert gm_phase > wm_phase  # paramagnetic gray matter is bright


def test_smooth_geometry_dscz():
    _, _, labels = generate(PhantomConfig(seed=7))
    scores = jitter_score(labels)
    for cid in (1, 2, 3, 4):
        assert scores[cid] >= 0.95


def test_perturb_zero_shift_is_identity():
    _, _, labels = generate(PhantomConfig(seed=8))
    out = perturb_slices(labels, max_shift=0, seed=1)
    assert np.array_equal(out.data, labels.data)


def test_perturb_lowers_dscz():
    _, _, labels = generate(PhantomConfig(seed=8))
    base = jitter_score(labels)
    out = jitter_score(perturb_slices(labels, max_shift=1, seed=2))
    for cid in (1, 2, 3, 4):
        assert out[cid] < base[cid]


def test_perturb_preserves_counts_away_from_border():
    # default cord sits well inside the plane: shifting by one clips nothing
    _, _, labels = generate(PhantomConfig(seed=3))
    out = perturb_slices(labels, max_shift=1, seed=5)
    for cid in (1, 2, 3, 4):
        assert (out.data == cid).sum() == (labels.data == cid).sum()


def test_perturb_clips_at_border():
    data = np.zeros((4, 4, 4), np.uint8)
    data[0, :, :] = 1  # hugging the x=0 border
    from cordpipe import LabelVolume, Spacing
    labels = LabelVolume(data, Spacing.isotropic())
    out = perturb_slices(labels, max_shift=1, seed=11)
    assert (out.data == 1).sum() <= (labels.data == 1).sum()


def test_perturb_determinism():
    _, _, labels = generate(PhantomConfig(seed=3))
    a = perturb_slices(labels, 1, seed=42)
    b = perturb_slices(labels, 1, seed=42)
    assert np.array_equal(a.data, b.data)


def test_perturb_needs_two_slices():
    from cordpipe import LabelVolume, Spacing
    labels = LabelVolume(np.zeros((4, 4, 1), np.uint8), Spacing.isotropic())
    with pytest.raises(ValidationError):
        perturb_slices(labels, 1, seed=0)


def test_oversized_butterfly_rejected():
    with pytest.raises(ValidationError):
        PhantomConfig(cord_radius=6.0,
                      butterfly=ButterflyShape(lobe_offset=4.0, lobe_semi_x=3.0))


def test_cord_must_fit_in_plane():
    with pytest.raises(ValidationError):
        PhantomConfig(dims=(16, 16, 8), cord_radius=12.0)


@pytest.mark.parametrize("depth", [1, 8, 64])
def test_fitted_at_64_is_the_default_geometry(depth):
    assert PhantomConfig.fitted((64, 64, depth)) == PhantomConfig(dims=(64, 64, depth))
    assert PhantomConfig.fitted((64, 64, depth), seed=3) == \
        PhantomConfig(dims=(64, 64, depth), seed=3)
