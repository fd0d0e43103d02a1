"""Peak traced memory of the slab chain per added voxel.

``preprocess --otsu --stretch --clahe`` and ``stack --predictor mock
--tta`` run in-process under ``tracemalloc`` on two phantoms that differ
only in depth, and slice-directory ``stack`` on two folds of random
(H, W, 3) planes at two depths. The difference of their peaks over the
added voxels is what a deeper sample costs per voxel; per-chunk,
per-block and per-slice scratch is the same at both depths and drops
out. A 128x128 plane makes z-chunks of 32 slices, so both phantom depths
span whole chunks.
"""

import tracemalloc

import numpy as np
import pytest

from cordpipe import ScalarVolume, Spacing, write_nifti
from cordpipe.cli import main

PLANE = (128, 128)
DEPTHS = (64, 128)
SLICE_PLANE = (64, 64)
SLICE_DEPTHS = (32, 96)


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    out = {"preprocess": [], "stack": [], "stack-slices": []}
    for depth in DEPTHS:
        d = tmp_path_factory.mktemp(f"depth{depth}")
        ph, pre = d / "ph", str(d / "pre.nii.gz")
        assert main(["phantom", "--seed", "7", "--dims", *map(str, PLANE), str(depth),
                     "--out-dir", str(ph)]) == 0
        out["preprocess"].append(_traced_peak(
            ["preprocess", str(ph / "magnitude.nii.gz"), "--otsu", "--stretch", "--clahe",
             "--out", pre]))
        out["stack"].append(_traced_peak(
            ["stack", "--predictor", "mock", "--input", pre, "--phase", str(ph / "phase.nii.gz"),
             "--fit-labels", str(ph / "labels.nii.gz"), "--tta", "--out", str(d / "pseudo.nii.gz")]))
    rng = np.random.default_rng(7)
    for depth in SLICE_DEPTHS:
        d = tmp_path_factory.mktemp(f"slices{depth}")
        folds = [d / "fold0", d / "fold1"]
        for fold in folds:
            fold.mkdir()
            for z in range(depth):
                planes = ScalarVolume(rng.random(SLICE_PLANE + (3,), dtype=np.float32),
                                      Spacing.isotropic())
                (fold / f"slice_{z:03d}.nii").write_bytes(write_nifti(planes))
        out["stack-slices"].append(_traced_peak(
            ["stack", *map(str, folds), "--out", str(d / "ens.nii.gz")]))
    return out


# Bytes per added voxel. One more whole-volume temporary adds 4 (float32)
# or 8 (float64) and breaks a bound; slice-directory stack holds only the
# uint8 labels and their encoded file.
@pytest.mark.parametrize("command, bound", [("preprocess", 14), ("stack", 14),
                                            ("stack-slices", 6)])
def test_peak_bytes_per_added_voxel(peaks, command, bound):
    low, high = peaks[command]
    (h, w), (d0, d1) = (SLICE_PLANE, SLICE_DEPTHS) if command == "stack-slices" else (PLANE, DEPTHS)
    per_voxel = (high - low) / (h * w * (d1 - d0))
    assert per_voxel <= bound, f"{command}: {per_voxel:.1f} B per added voxel"
