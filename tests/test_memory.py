"""Peak traced memory of the slab chain per added voxel.

``preprocess --otsu --stretch --clahe`` and ``stack --predictor mock
--tta`` run in-process under ``tracemalloc`` on two phantoms that differ
only in depth, ``preprocess`` also on their magnitudes stored as int16
with intensity scaling, and slice-directory ``stack`` on two folds of random
(H, W, 3) planes at two depths. The difference of their peaks over the
added voxels is what a deeper sample costs per voxel; per-chunk,
per-block and per-slice scratch is the same at both depths and drops
out. A 128x128 plane makes z-chunks of 32 slices, so both phantom depths
span whole chunks.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from cordpipe import ScalarVolume, Spacing, gzip_nifti, read_nifti, write_nifti
from cordpipe.nifti import DT_INT16
from cordpipe.cli import main

PLANE = (128, 128)
DEPTHS = (64, 128)
SLICE_PLANE = (64, 64)
SLICE_DEPTHS = (32, 96)


def _int16_scaled(src, dst):
    """Write the magnitude file ``src`` to ``dst`` as int16 steps of 2**-13
    with an offset of 0.25, held in the header's scl_slope and scl_inter."""
    vol = read_nifti(src.read_bytes())
    steps = ScalarVolume(np.rint(vol.data * 2**13), vol.spacing)
    raw = bytearray(write_nifti(steps, DT_INT16))
    struct.pack_into("<ff", raw, 112, 2**-13, 0.25)
    dst.write_bytes(gzip_nifti(bytes(raw)))


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
    out = {"preprocess": [], "preprocess-int16": [], "stack": [], "stack-slices": []}
    for depth in DEPTHS:
        d = tmp_path_factory.mktemp(f"depth{depth}")
        ph, pre = d / "ph", str(d / "pre.nii.gz")
        assert main(["phantom", "--seed", "7", "--dims", *map(str, PLANE), str(depth),
                     "--out-dir", str(ph)]) == 0
        out["preprocess"].append(_traced_peak(
            ["preprocess", str(ph / "magnitude.nii.gz"), "--otsu", "--stretch", "--clahe",
             "--out", pre]))
        _int16_scaled(ph / "magnitude.nii.gz", d / "int16.nii.gz")
        out["preprocess-int16"].append(_traced_peak(
            ["preprocess", str(d / "int16.nii.gz"), "--otsu", "--stretch", "--clahe",
             "--out", str(d / "pre16.nii.gz")]))
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


# Bytes per added voxel. preprocess holds one float32 working volume, its
# uint8 mask and the gathered stretch scope (~4 measured); from int16 with
# scaling, the stored payload is briefly held beside the float32 volume
# (~5); stack holds its uint8 labels (~1.2); slice-directory stack its
# uint8 labels and their encoded file. One more whole-volume temporary
# adds 4 (float32) or 8 (float64) and breaks a bound.
@pytest.mark.parametrize("command, bound", [("preprocess", 7), ("preprocess-int16", 7),
                                            ("stack", 3), ("stack-slices", 6)])
def test_peak_bytes_per_added_voxel(peaks, command, bound):
    low, high = peaks[command]
    (h, w), (d0, d1) = (SLICE_PLANE, SLICE_DEPTHS) if command == "stack-slices" else (PLANE, DEPTHS)
    per_voxel = (high - low) / (h * w * (d1 - d0))
    assert per_voxel <= bound, f"{command}: {per_voxel:.1f} B per added voxel"
