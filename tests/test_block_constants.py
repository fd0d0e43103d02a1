"""One gate over the constants that only size a block of work.

Each of these constants bounds a buffer, a slab, a chunk or a search, and
none of them may choose a byte: at its smallest valid value, at an odd
value and at a large one, the CLI chain writes the bytes it writes at the
default. A new module constant of this kind needs a row here.
"""

import importlib
import pkgutil
import re
from unittest import mock

import numpy as np
import pytest

import cordpipe
from cordpipe import LabelVolume, gzip_nifti, read_nifti, write_nifti
from cordpipe.cli import main

# (module, constant): its smallest valid value, an odd value and a large one.
# The shell search's offset table grows as the cube of its radius.
BLOCK_CONSTANTS = {
    ("volume", "_BLOCK_VOXELS"): (1, 97, 1 << 24),
    ("volume", "_ORDER_COLUMNS"): (1, 3, 1 << 20),
    ("pseudolabel", "_FIT_ROWS"): (1, 7, 1 << 20),
    ("pseudolabel", "_CHUNK_VOXELS"): (1, 3 * 32 * 32 + 5, 1 << 30),
    ("nifti", "_INFLATE_PIECE"): (1, 4099, 1 << 30),
    ("nifti", "_INFLATE_INPUT"): (1, 4099, 1 << 30),
    ("metrics", "_SHELL_RADIUS_VOXELS"): (0, 1, 9),
}

# Integer constants that choose bytes or reject inputs on purpose.
NOT_BLOCK_CONSTANTS = {
    ("nifti", "_GZIP_LEVEL"),
    ("nifti", "_PROBE_WINDOW"),
    ("nifti", "_PROBE_WINDOWS"),
    ("nifti", "_STORED_BLOCK"),
    ("nifti", "_MAX_INFLATE_RATIO"),
    ("volume", "_MAX_VOXELS"),
}


def test_every_private_integer_constant_is_classified():
    found = set()
    for info in pkgutil.iter_modules(cordpipe.__path__):
        module = importlib.import_module(f"cordpipe.{info.name}")
        found |= {(info.name, name) for name, value in vars(module).items()
                  if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name) and type(value) is int}
    assert found == set(BLOCK_CONSTANTS) | NOT_BLOCK_CONSTANTS


def _chain(inputs, out) -> dict[str, bytes]:
    """Preprocess, stack and both evaluates; every file they write."""
    ph, jittered = inputs / "ph", inputs / "jittered.nii.gz"
    out.mkdir()
    for argv in (
        ["preprocess", ph / "magnitude.nii.gz", "--otsu", "--stretch", "--clahe",
         "--out", out / "pre.nii.gz"],
        ["stack", "--predictor", "mock", "--input", out / "pre.nii.gz", "--phase",
         ph / "phase.nii.gz", "--fit-labels", ph / "labels.nii.gz", "--tta",
         "--out", out / "pseudo.nii.gz"],
        ["evaluate", jittered, ph / "labels.nii.gz", "--json", out / "dense.json",
         "--csv", out / "dense.csv"],
        ["evaluate", jittered, ph / "annotation.json", "--json", out / "sparse.json",
         "--csv", out / "sparse.csv"],
    ):
        assert main([str(a) for a in argv]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """A seeded phantom, a prediction that errs by up to 5 voxels, and the
    chain's outputs at the default constants."""
    inputs = tmp_path_factory.mktemp("blocks")
    assert main(["phantom", "--dims", "32", "32", "8", "--seed", "5",
                 "--annotate-every", "3", "--out-dir", str(inputs / "ph")]) == 0
    labels = read_nifti((inputs / "ph" / "labels.nii.gz").read_bytes(), labels=True)
    data = labels.data.copy()
    data[:, :, :4] = np.roll(data[:, :, :4], 2, axis=0)
    data[:, :, 6:] = np.roll(data[:, :, 6:], 5, axis=1)
    (inputs / "jittered.nii.gz").write_bytes(
        gzip_nifti(write_nifti(LabelVolume(data, labels.spacing))))
    want = _chain(inputs, inputs / "default")
    assert b'"hd95_mm": 0.0' not in want["dense.json"]  # the shell search has work
    return inputs, want


@pytest.mark.parametrize("module, name, value", [
    (module, name, value) for (module, name), values in BLOCK_CONSTANTS.items()
    for value in values])
def test_a_block_constant_chooses_no_byte(chain_inputs, tmp_path, module, name, value):
    inputs, want = chain_inputs
    with mock.patch.object(importlib.import_module(f"cordpipe.{module}"), name, value):
        got = _chain(inputs, tmp_path / "out")
    assert got.keys() == want.keys()
    for file in want:
        assert got[file] == want[file], file
