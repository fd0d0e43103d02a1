"""Symmetries of the CLI chain.

z-reversing the inputs z-reverses the decoded outputs of ``preprocess
--otsu --stretch --clahe``, ``softlabel``, ``regions split`` and ``stack
--predictor mock --tta``: Otsu's histogram and the stretch's percentiles
do not depend on voxel order, CLAHE, the soft labels, the regions and the
predictor are slice-local, and the fit is the exact class mean. The
z-score is left out: its float64 pairwise mean depends on voxel order.
"""

import numpy as np
import pytest

from cordpipe import gzip_nifti, read_nifti, write_nifti
from cordpipe.cli import main

DIMS = (48, 40, 24)


def _reversed(src, dst, labels=False):
    vol = read_nifti(src.read_bytes(), labels=labels)
    vol.data = vol.data[:, :, ::-1]
    dst.write_bytes(gzip_nifti(write_nifti(vol)))


def _chain(ph, out):
    """Run every z-local command on the phantom files in ``ph``; the
    decoded volume of each file written, with whether it holds labels."""
    pre = out / "pre.nii.gz"
    for argv in (
        ["preprocess", ph / "magnitude.nii.gz", "--otsu", "--stretch", "--clahe", "--out", pre],
        ["softlabel", ph / "labels.nii.gz", "--out-dir", out / "soft"],
        ["regions", "split", ph / "labels.nii.gz", "--out-dir", out / "regions"],
        ["stack", "--predictor", "mock", "--input", pre, "--phase", ph / "phase.nii.gz",
         "--fit-labels", ph / "labels.nii.gz", "--tta", "--out", out / "pseudo.nii.gz"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    files = sorted(out.rglob("*.nii.gz"))
    assert len(files) == 9  # pre, 4 soft labels, 3 regions, pseudo
    return {f.relative_to(out): read_nifti(f.read_bytes(), labels=f.name == "pseudo.nii.gz")
            for f in files}


@pytest.mark.parametrize("seed", [0, 5])
def test_z_reversed_inputs_give_z_reversed_outputs(tmp_path, seed):
    ph, flipped = tmp_path / "ph", tmp_path / "flipped"
    assert main(["phantom", "--seed", str(seed), "--dims", *map(str, DIMS),
                 "--out-dir", str(ph)]) == 0
    # every phantom plane holds one geometry: lesions over the white and
    # grey matter of five planes make the labels z-asymmetric
    labels = read_nifti((ph / "labels.nii.gz").read_bytes(), labels=True)
    lesion = labels.data[:, :, 2:7]
    lesion[(lesion == 1) | (lesion == 2)] += 2
    (ph / "labels.nii.gz").write_bytes(gzip_nifti(write_nifti(labels)))
    flipped.mkdir()
    for name in ("magnitude", "phase", "labels"):
        _reversed(ph / f"{name}.nii.gz", flipped / f"{name}.nii.gz", labels=name == "labels")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    want, got = _chain(ph, tmp_path / "a"), _chain(flipped, tmp_path / "b")
    assert got.keys() == want.keys()
    # only the tissue regions, which take the lesions in, keep one geometry
    symmetric = {name.as_posix() for name, vol in want.items()
                 if np.array_equal(vol.data, vol.data[:, :, ::-1])}
    assert symmetric == {"regions/region_wm.nii.gz", "regions/region_gm.nii.gz"}
    for name, vol in want.items():
        assert got[name].data.dtype == vol.data.dtype, name
        assert np.array_equal(got[name].data, vol.data[:, :, ::-1]), name
        assert got[name].spacing == vol.spacing, name
