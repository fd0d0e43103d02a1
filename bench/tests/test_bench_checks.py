"""A corrupted artifact fails the operation that produced it, and so
counts in error_rate; harmless re-serialisation does not."""

import gzip
import json
import os

import numpy as np
import pytest

import cordpipe as cp
from artifacts import decode_nifti, nifti_stream
from measure import DenseWorkload, PencilWorkload, run_pass, verify
from oracle import expected_dense


def _error_rate(items):
    ops = [ok for it in items for ok in it.ops.values()]
    return sum(not ok for ok in ops) / len(ops)


@pytest.fixture
def dense(tmp_path):
    _, _, gt = cp.generate(cp.PhantomConfig.fitted((32, 32, 6), seed=1))
    pred = cp.perturb_slices(gt, max_shift=1, seed=2)
    vol = tmp_path / "inputs" / "vol0"
    vol.mkdir(parents=True)
    for name, v in (("gt.nii.gz", gt), ("pred.nii.gz", pred)):
        (vol / name).write_bytes(cp.gzip_nifti(cp.write_nifti(v)))
    spacing = tuple(float(np.float32(s)) for s in gt.spacing.as_tuple())
    expected = {"vol0": expected_dense(gt.data, pred.data, spacing)}
    wl = DenseWorkload(str(tmp_path / "inputs"), {"volumes": ["vol0"], "dims": [32, 32, 6]},
                       expected)
    items = run_pass(wl, str(tmp_path / "pass"), count=3)
    return wl, items


def _edit_report(item, edit):
    path = os.path.join(item.out, "report.json")
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_clean_dense_pass_has_no_errors(dense):
    wl, items = dense
    digests = {}
    verify(wl, items, digests)
    assert _error_rate(items) == 0.0
    assert list(digests) == ["vol0/report.json"]


def test_wrong_metric_counts_as_failure(dense):
    wl, items = dense
    _edit_report(items[2], lambda d: d["classes"]["healthy_gm"].update(dice=0.25))
    verify(wl, items, {})
    assert [it.ops["evaluate"] for it in items] == [True, True, False]
    assert _error_rate(items) == pytest.approx(1 / 3)


def test_repetitions_must_agree_but_json_layout_may_differ(dense):
    wl, items = dense
    _edit_report(items[1], lambda d: None)  # compact re-serialisation only
    _edit_report(items[2], lambda d: d.update(volume_id="renamed"))
    verify(wl, items, {})
    assert [it.ops["evaluate"] for it in items] == [True, True, False]
    assert "differs from an earlier repetition" in items[2].errors[0]


def test_corrupted_nifti_output_counts_as_failure(tmp_path):
    mag, phs, labels = cp.generate(cp.PhantomConfig.fitted((48, 48, 144), seed=3))
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, v in (("magnitude.nii", mag), ("phase.nii", phs), ("labels.nii", labels)):
        (inputs / name).write_bytes(cp.write_nifti(v))
    plan = {"dims": [48, 48, 144], "patch": [16, 16], "origins": [[16, 16, 0]],
            "augment_seeds": [5]}
    wl = PencilWorkload(str(inputs), plan)
    items = run_pass(wl, str(tmp_path / "pass"), count=2)
    verify(wl, items, {})
    assert _error_rate(items) == 0.0

    path = os.path.join(items[1].out, "soft_healthy_wm.nii.gz")
    stream = bytearray(nifti_stream(path))
    data = decode_nifti(bytes(stream))
    flat = np.flatnonzero(data.ravel(order="F") == 1.0)
    assert flat.size, "patch should hold white matter"
    offset = 352 + 4 * int(flat[0])
    stream[offset:offset + 4] = np.float32(0.5).tobytes()
    with open(path, "wb") as fh:
        fh.write(gzip.compress(bytes(stream)))
    for it in items:
        it.ops = {"patch": True}
        it.errors = []
    verify(wl, items, {})
    assert [it.ops["patch"] for it in items] == [True, False]
    assert any("in-memory array" in e for e in items[1].errors)
    assert any("outside" in e for e in items[1].errors)
