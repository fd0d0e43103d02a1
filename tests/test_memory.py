"""Peak traced memory of the slab chain per added voxel.

``preprocess --otsu --stretch --clahe`` and ``stack --predictor mock
--tta`` run in-process under ``tracemalloc`` on two phantoms that differ
only in depth. The difference of their peaks over the added voxels is
what a deeper sample costs per voxel; per-chunk, per-block and per-slice
scratch is the same at both depths and drops out. A 128x128 plane makes
z-chunks of 32 slices, so both depths span whole chunks.
"""

import tracemalloc

import pytest

from cordpipe.cli import main

PLANE = (128, 128)
DEPTHS = (64, 128)


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
    out = {"preprocess": [], "stack": []}
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
    return out


# Bytes per added voxel. One more whole-volume temporary adds 4 (float32)
# or 8 (float64) and breaks a bound.
@pytest.mark.parametrize("command, bound", [("preprocess", 14), ("stack", 14)])
def test_peak_bytes_per_added_voxel(peaks, command, bound):
    low, high = peaks[command]
    per_voxel = (high - low) / (PLANE[0] * PLANE[1] * (DEPTHS[1] - DEPTHS[0]))
    assert per_voxel <= bound, f"{command}: {per_voxel:.1f} B per added voxel"
