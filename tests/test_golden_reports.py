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

``payloads.sha256`` holds the sha256 of the decoded (gunzipped) NIfTI of
each file written by

    cordpipe softlabel ph/labels.nii.gz --out-dir soft
    cordpipe regions split ph/labels.nii.gz --out-dir regions

before ``.nii.gz`` files were deflated at level 1 and soft-label margins
were built from shifted ORs and ANDs. Its ``pre.nii.gz`` and
``pseudo.nii.gz`` lines hold the decoded outputs of the ``preprocess``
and ``stack`` calls above, written before the mock predictor walked its
input in cache-sized blocks. Its ``ph/`` lines hold the decoded
``phantom`` outputs, written before noisy payloads were deflated with
``Z_RLE`` and then stored.

``chain160/payloads.sha256`` holds the decoded outputs of the same
``preprocess`` and ``stack`` calls on ``phantom --seed 7 --dims 64 64
160``, whose 160 slices make two z-chunks of ``predict_volume``,
written before ``stack`` merged each chunk into its labels.
``chain300/payloads.sha256`` holds them for ``--dims 64 64 300``, three
z-chunks with a remainder of 44 slices, written before ``otsu_mask``,
``percentile_stretch`` and ``MockPredictor.predict`` left their blocks
to ``np.histogram`` and ``np.nditer``.

``targets/payloads.sha256`` holds the decoded sha256 of the nine training
targets of one patch, built as the benchmark's ``train-targets`` loop
builds them: per-slice ``sample_transform(AUG2)`` and ``warp_pair``,
then ``soften(SOFT2)`` and ``to_regions``. The patch is
``patch1(64, 64)`` at (20, 12, 0) of a seed-7 80x72x144 phantom read
back from plain ``.nii``, so it overhangs the phantom in x and y; the
augment seed is 2026. They were written before ``warp_pair`` read
padded planes and ``to_regions`` compared ids.
"""

import gzip
import hashlib
import zlib
from pathlib import Path

import numpy as np
import pytest

import cordpipe as cp
from cordpipe.cli import main

from oracles import deflate_stream

GOLDEN = Path(__file__).parent / "data" / "chain64"
REPORTS = ["dense.json", "dense.csv", "sparse.json", "sparse.csv"]
PAYLOADS = {name: digest for digest, name in (
    line.split("  ") for line in (GOLDEN / "payloads.sha256").read_text().splitlines())}


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
        ["softlabel", str(ph / "labels.nii.gz"), "--out-dir", str(d / "soft")],
        ["regions", "split", str(ph / "labels.nii.gz"), "--out-dir", str(d / "regions")],
        ["regions", "merge", "--wm", str(d / "regions" / "region_wm.nii.gz"),
         "--gm", str(d / "regions" / "region_gm.nii.gz"),
         "--lesion", str(d / "regions" / "region_lesion.nii.gz"),
         "--out", str(d / "merged.nii.gz")],
    ):
        assert main(argv) == 0, argv
    return d


@pytest.mark.parametrize("name", REPORTS)
def test_chain_report_is_byte_identical_to_the_golden_file(chain, name):
    assert (chain / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_merge_of_the_split_regions_is_the_labels_file(chain):
    merged = (chain / "merged.nii.gz").read_bytes()
    assert merged == (chain / "ph" / "labels.nii.gz").read_bytes()


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_chain_payload_decodes_to_the_golden_digest(chain, name):
    decoded = gzip.decompress((chain / name).read_bytes())
    assert hashlib.sha256(decoded).hexdigest() == PAYLOADS[name]


# The (level, strategy) gzip_nifti picks for each .nii.gz of the chain:
# stored blocks (level 0) for the noisy phantom intensities, the default
# strategy at level 1 for the rest.
STRATEGIES = {name: (1, zlib.Z_DEFAULT_STRATEGY) for name in PAYLOADS}
STRATEGIES.update({"ph/magnitude.nii.gz": (0, zlib.Z_DEFAULT_STRATEGY),
                   "ph/phase.nii.gz": (0, zlib.Z_DEFAULT_STRATEGY)})


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_chain_file_is_the_level_1_stream_of_its_strategy(chain, name):
    # each file is the one-shot stream of its (level, strategy) tier
    zipped = (chain / name).read_bytes()
    decoded = gzip.decompress(zipped)
    assert zipped[10:-8] == deflate_stream(decoded, *STRATEGIES[name])


CHAIN160 = {name: digest for digest, name in (
    line.split("  ") for line in
    (GOLDEN.parent / "chain160" / "payloads.sha256").read_text().splitlines())}


def test_two_chunk_stack_decodes_to_the_golden_digest_on_1_and_2_threads(tmp_path):
    ph, pre = tmp_path / "ph", str(tmp_path / "pre.nii.gz")
    assert main(["phantom", "--seed", "7", "--dims", "64", "64", "160",
                 "--out-dir", str(ph)]) == 0
    assert main(["preprocess", str(ph / "magnitude.nii.gz"), "--otsu", "--stretch", "--clahe",
                 "--out", pre]) == 0
    digest = hashlib.sha256(gzip.decompress(Path(pre).read_bytes())).hexdigest()
    assert digest == CHAIN160["pre.nii.gz"]
    for threads in ("1", "2"):
        pseudo = tmp_path / f"pseudo_t{threads}.nii.gz"
        assert main(["stack", "--predictor", "mock", "--input", pre,
                     "--phase", str(ph / "phase.nii.gz"), "--fit-labels", str(ph / "labels.nii.gz"),
                     "--tta", "--threads", threads, "--out", str(pseudo)]) == 0
        digest = hashlib.sha256(gzip.decompress(pseudo.read_bytes())).hexdigest()
        assert digest == CHAIN160["pseudo.nii.gz"], threads


CHAIN300 = {name: digest for digest, name in (
    line.split("  ") for line in
    (GOLDEN.parent / "chain300" / "payloads.sha256").read_text().splitlines())}


def test_three_chunk_chain_decodes_to_the_golden_digests(tmp_path):
    ph, pre, pseudo = tmp_path / "ph", str(tmp_path / "pre.nii.gz"), tmp_path / "pseudo.nii.gz"
    assert main(["phantom", "--seed", "7", "--dims", "64", "64", "300",
                 "--out-dir", str(ph)]) == 0
    assert main(["preprocess", str(ph / "magnitude.nii.gz"), "--otsu", "--stretch", "--clahe",
                 "--out", pre]) == 0
    digest = hashlib.sha256(gzip.decompress(Path(pre).read_bytes())).hexdigest()
    assert digest == CHAIN300["pre.nii.gz"]
    # the default thread count and two threads give one file
    for threads in ([], ["--threads", "2"]):
        assert main(["stack", "--predictor", "mock", "--input", pre,
                     "--phase", str(ph / "phase.nii.gz"), "--fit-labels", str(ph / "labels.nii.gz"),
                     "--tta", *threads, "--out", str(pseudo)]) == 0
        digest = hashlib.sha256(gzip.decompress(pseudo.read_bytes())).hexdigest()
        assert digest == CHAIN300["pseudo.nii.gz"], threads


TARGETS = {name: digest for digest, name in (
    line.split("  ") for line in
    (GOLDEN.parent / "targets" / "payloads.sha256").read_text().splitlines())}


def test_training_targets_decode_to_the_golden_digests():
    sources = cp.generate(cp.PhantomConfig.fitted((80, 72, 144), seed=7))
    mag, phs, lab = (cp.read_nifti(cp.write_nifti(v), labels=isinstance(v, cp.LabelVolume))
                     for v in sources)
    spec, seed = cp.patch1(64, 64), 2026
    mag, phs, lab = (cp.extract_patch(v, (20, 12, 0), spec) for v in (mag, phs, lab))
    h, w, depth = spec.as_tuple()
    wmag, wphs = np.empty((h, w, depth), np.float32), np.empty((h, w, depth), np.float32)
    wlab = np.empty((h, w, depth), np.uint8)
    for z in range(depth):
        t = cp.sample_transform(cp.AUG2, cp.slice_seed(seed, z), plane_shape=(h, w))
        (wmag[:, :, z], wphs[:, :, z]), wlab[:, :, z] = cp.warp_pair(
            [mag.data[:, :, z], phs.data[:, :, z]], lab.data[:, :, z], t)
    warped = cp.LabelVolume(wlab, lab.spacing)
    soft, regions = cp.soften(warped, cp.SOFT2), cp.to_regions(warped)
    arrays = {"warped_magnitude": wmag, "warped_phase": wphs,
              "region_wm": regions.wm, "region_gm": regions.gm, "region_lesion": regions.lesion}
    for cid in cp.FOREGROUND_CLASSES:
        arrays[f"soft_{cp.CLASS_NAMES[cid]}"] = soft.class_channel(cid)
    assert sorted(f"{name}.nii.gz" for name in arrays) == sorted(TARGETS)
    for name, arr in arrays.items():
        zipped = cp.gzip_nifti(cp.write_nifti(cp.ScalarVolume(arr, lab.spacing)))
        digest = hashlib.sha256(gzip.decompress(zipped)).hexdigest()
        assert digest == TARGETS[f"{name}.nii.gz"], name
