"""Evaluation reports of the 64^3 CLI chain, byte for byte.

The files under ``tests/data/chain64`` were written by

    cordpipe phantom --seed 7 --dims 64 64 64 --out-dir ph
    cordpipe preprocess ph/magnitude.nii.gz --otsu --stretch --clahe --out pre.nii.gz
    cordpipe stack --predictor mock --input pre.nii.gz --phase ph/phase.nii.gz \\
        --fit-labels ph/labels.nii.gz --tta --out pseudo.nii.gz
    cordpipe evaluate pseudo.nii.gz ph/labels.nii.gz --json dense.json --csv dense.csv
    cordpipe evaluate pseudo.nii.gz ph/annotation.json --json sparse.json --csv sparse.csv

before the erosion-free surfaces and projected class boxes of ``metrics``
landed. A change that moves any reported digit must say why and rewrite
them.
"""

from pathlib import Path

import pytest

from cordpipe.cli import main

GOLDEN = Path(__file__).parent / "data" / "chain64"
REPORTS = ["dense.json", "dense.csv", "sparse.json", "sparse.csv"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain64")
    ph, pre, pseudo = d / "ph", str(d / "pre.nii.gz"), str(d / "pseudo.nii.gz")
    for argv in (
        ["phantom", "--seed", "7", "--dims", "64", "64", "64", "--out-dir", str(ph)],
        ["preprocess", str(ph / "magnitude.nii.gz"), "--otsu", "--stretch", "--clahe",
         "--out", pre],
        ["stack", "--predictor", "mock", "--input", pre, "--phase", str(ph / "phase.nii.gz"),
         "--fit-labels", str(ph / "labels.nii.gz"), "--tta", "--out", pseudo],
        ["evaluate", pseudo, str(ph / "labels.nii.gz"),
         "--json", str(d / "dense.json"), "--csv", str(d / "dense.csv")],
        ["evaluate", pseudo, str(ph / "annotation.json"),
         "--json", str(d / "sparse.json"), "--csv", str(d / "sparse.csv")],
    ):
        assert main(argv) == 0, argv
    return d


@pytest.mark.parametrize("name", REPORTS)
def test_chain_report_is_byte_identical_to_the_golden_file(chain, name):
    assert (chain / name).read_bytes() == (GOLDEN / name).read_bytes()
