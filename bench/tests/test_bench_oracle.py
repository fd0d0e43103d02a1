"""The KD-tree HD95 and voxel-count Dice used to check evaluate-dense
agree with the repository's all-pairs brute-force oracles."""

import numpy as np
import pytest

from oracle import count_dice, expected_dense, kdtree_hd95, report_mismatches, surface_voxels
from oracles import brute_hd95, loop_surface, set_dice

SPACINGS = [(0.075, 0.075, 0.075), (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("spacing", SPACINGS)
def test_kdtree_hd95_matches_brute_force(ndim, spacing):
    rng = np.random.default_rng(7 + ndim)
    for _ in range(40):
        shape = tuple(int(s) for s in rng.integers(3, 12 if ndim == 2 else 8, size=ndim))
        g = rng.random(shape) < rng.uniform(0.0, 0.7)
        p = rng.random(shape) < rng.uniform(0.0, 0.7)
        want = brute_hd95(g, p, spacing)
        got = kdtree_hd95(g, p, spacing)
        if want is None or got is None:
            assert got == want
        else:
            assert abs(got - want) <= 1e-9
        assert count_dice(g, p) == set_dice(g, p)
        assert sorted(map(tuple, surface_voxels(g))) == sorted(loop_surface(g))


def test_undefined_conventions():
    empty = np.zeros((4, 4, 4), bool)
    full = np.ones((4, 4, 4), bool)
    assert kdtree_hd95(empty, empty, SPACINGS[0]) == 0.0
    assert kdtree_hd95(empty, full, SPACINGS[0]) is None
    assert count_dice(empty, empty) is None


def test_report_mismatches_flags_dice_and_hd95():
    rng = np.random.default_rng(3)
    gt = rng.integers(0, 5, (6, 6, 4)).astype(np.uint8)
    pred = rng.integers(0, 5, (6, 6, 4)).astype(np.uint8)
    expected = expected_dense(gt, pred, SPACINGS[0])
    report = {"classes": {name: dict(v) for name, v in expected.items()}}
    assert report_mismatches(report, expected) == []
    report["classes"]["healthy_wm"]["hd95_mm"] += 2e-9
    report["classes"]["lesion_gm"]["dice"] = 0.5
    assert len(report_mismatches(report, expected)) == 2
