import csv
import io
import json
import os
import shlex
import stat
import struct
import sys

import numpy as np
import pytest

from cordpipe import (
    LabelVolume,
    PhantomConfig,
    ScalarVolume,
    Spacing,
    SparseAnnotation,
    generate,
    gzip_nifti,
    read_nifti,
    to_regions,
    write_nifti,
    write_sparse_annotation,
)
from cordpipe.cli import main
from cordpipe.config import get_typed, parse_config_text
from cordpipe.errors import ConfigError

ISO = Spacing.isotropic()


def _write(path, vol, gz=False):
    raw = write_nifti(vol)
    if gz:
        raw = gzip_nifti(raw)
    path.write_bytes(raw)
    return str(path)


def _file_field(path):
    """The ``file=`` field of an error record that names ``path``, with the
    space that ends it."""
    return f"file={json.dumps(str(path), ensure_ascii=False)} "


def _read_labels(path):
    return read_nifti(path.read_bytes(), labels=True)


@pytest.fixture()
def phantom_dir(tmp_path):
    out = tmp_path / "ph"
    rc = main(["phantom", "--seed", "1", "--dims", "24", "24", "12",
               "--out-dir", str(out)])
    assert rc == 0
    return out


def test_phantom_emits_triplet_and_sidecar(phantom_dir):
    for name in ("magnitude.nii.gz", "phase.nii.gz", "labels.nii.gz",
                 "annotation.json", "annotation_planes.nii.gz"):
        assert (phantom_dir / name).exists()
    doc = json.loads((phantom_dir / "annotation.json").read_text())
    assert doc["planes_nifti"] == "annotation_planes.nii.gz"


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_get_the_mode_the_umask_allows(tmp_path, mask):
    old = os.umask(mask)
    try:
        assert main(["phantom", "--seed", "1", "--dims", "24", "24", "4",
                     "--out-dir", str(tmp_path / "ph")]) == 0
    finally:
        os.umask(old)
    files = sorted((tmp_path / "ph").iterdir())
    assert [f.name for f in files] == ["annotation.json", "annotation_planes.nii.gz",
                                       "labels.nii.gz", "magnitude.nii.gz", "phase.nii.gz"]
    for f in files:
        assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~mask, f.name


def test_phantom_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["phantom", "--seed", "3", "--dims", "24", "24", "8",
                 "--out-dir", str(a)]) == 0
    assert main(["phantom", "--seed", "3", "--dims", "24", "24", "8",
                 "--out-dir", str(b)]) == 0
    for name in ("magnitude.nii.gz", "labels.nii.gz", "annotation.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("every", ["0", "-4"])
def test_phantom_annotate_every_below_1_exits_1(tmp_path, capsys, every):
    out = tmp_path / "ph"
    assert main(["phantom", "--dims", "8", "8", "6", "--annotate-every", every,
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ValidationError"), err
    assert "--annotate-every" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-7"])
@pytest.mark.parametrize("command", ["stack", "evaluate"])
def test_threads_below_1_exits_1_before_any_input_is_read(tmp_path, capsys, command, threads):
    # the inputs do not exist: reading one would exit 2
    missing, out = str(tmp_path / "missing.nii.gz"), tmp_path / "out.json"
    if command == "stack":
        argv = ["stack", "--predictor", "mock", "--input", missing, "--phase", missing,
                "--fit-labels", missing, "--out", str(out)]
    else:
        argv = ["evaluate", missing, missing, "--json", str(out)]
    assert main(argv + ["--threads", threads]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ValidationError"), err
    assert "--threads" in err[0]
    assert not out.exists()


def test_evaluate_perfect_prediction(phantom_dir, tmp_path, capsys):
    labels = str(phantom_dir / "labels.nii.gz")
    out_csv = tmp_path / "report.csv"
    rc = main(["evaluate", labels, labels, "--csv", str(out_csv)])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 4
    present = [r for r in rows if r["dice"] != ""]
    assert present and all(r["dice"] == "1" for r in present)
    assert "evaluate ok" in capsys.readouterr().out


def test_evaluate_sparse_sidecar_scope(tmp_path, capsys):
    # 54 annotated slices: the held-out test-set count
    rng = np.random.default_rng(0)
    data = rng.integers(0, 5, (8, 8, 100)).astype(np.uint8)
    labels = LabelVolume(data, ISO)
    pred_path = _write(tmp_path / "pred.nii", labels)

    z_idx = sorted(rng.choice(100, 54, replace=False).tolist())
    planes = np.stack([data[:, :, z] for z in z_idx], axis=2)
    ann = SparseAnnotation("v", z_idx, planes)
    sidecar, planes_nii = write_sparse_annotation(ann, "planes.nii", ISO)
    (tmp_path / "gt.json").write_bytes(sidecar)
    (tmp_path / "planes.nii").write_bytes(planes_nii)

    out_json = tmp_path / "rep.json"
    rc = main(["evaluate", pred_path, str(tmp_path / "gt.json"),
               "--json", str(out_json)])
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert doc["scope"]["evaluated_slices"] == 54
    assert doc["scope"]["sparse_gt"] is True
    assert "scope=54" in capsys.readouterr().out


def test_bad_magic_exits_2_with_record(tmp_path, capsys):
    bad = tmp_path / "bad.nii"
    raw = bytearray(write_nifti(ScalarVolume(np.zeros((2, 2, 2), np.float32), ISO)))
    raw[344:348] = b"XXX\x00"
    bad.write_bytes(bytes(raw))
    rc = main(["evaluate", str(bad), str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cordpipe-error" in err
    assert "BadMagicError" in err
    assert "bad.nii" in err
    assert "\n" not in err.strip()


def test_unknown_soft_profile_exits_1(phantom_dir, tmp_path, capsys):
    rc = main(["softlabel", str(phantom_dir / "labels.nii.gz"),
               "--profile", "soft9", "--out-dir", str(tmp_path / "soft")])
    assert rc == 1
    assert "cordpipe-error" in capsys.readouterr().err


def test_softlabel_writes_four_channels(phantom_dir, tmp_path):
    out = tmp_path / "soft"
    rc = main(["softlabel", str(phantom_dir / "labels.nii.gz"),
               "--profile", "soft2", "--out-dir", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["soft_healthy_gm.nii.gz", "soft_healthy_wm.nii.gz",
                     "soft_lesion_gm.nii.gz", "soft_lesion_wm.nii.gz"]
    ch = read_nifti((out / "soft_lesion_gm.nii.gz").read_bytes())
    vals = set(np.unique(ch.data))
    assert vals <= {np.float32(0.0), np.float32(0.4), np.float32(1.0)}


def test_regions_split_merge_roundtrip(phantom_dir, tmp_path):
    labels_path = str(phantom_dir / "labels.nii.gz")
    split_dir = tmp_path / "regions"
    assert main(["regions", "split", labels_path, "--out-dir", str(split_dir)]) == 0
    merged = tmp_path / "merged.nii.gz"
    rc = main(["regions", "merge",
               "--wm", str(split_dir / "region_wm.nii.gz"),
               "--gm", str(split_dir / "region_gm.nii.gz"),
               "--lesion", str(split_dir / "region_lesion.nii.gz"),
               "--out", str(merged)])
    assert rc == 0
    original = _read_labels(phantom_dir / "labels.nii.gz")
    back = _read_labels(merged)
    assert np.array_equal(back.data, original.data)


def test_preprocess_flag_overrides_config(tmp_path):
    rng = np.random.default_rng(1)
    vol = ScalarVolume(rng.random((8, 8, 4), dtype=np.float32) * 100, ISO)
    in_path = _write(tmp_path / "in.nii", vol)
    cfg_path = tmp_path / "pipe.cfg"
    cfg_path.write_text("preprocess.stretch.p_low = 5\n"
                        "preprocess.stretch.p_high = 95\n")

    out_cfg = tmp_path / "out_cfg.nii"
    assert main(["preprocess", in_path, "--out", str(out_cfg),
                 "--config", str(cfg_path)]) == 0
    out_flag = tmp_path / "out_flag.nii"
    assert main(["preprocess", in_path, "--out", str(out_flag),
                 "--config", str(cfg_path), "--stretch-low", "15",
                 "--stretch-high", "70"]) == 0

    from cordpipe import StretchConfig, percentile_stretch
    want_cfg = percentile_stretch(vol, StretchConfig(5, 95)).data
    want_flag = percentile_stretch(vol, StretchConfig(15, 70)).data
    assert np.array_equal(read_nifti(out_cfg.read_bytes()).data, want_cfg)
    assert np.array_equal(read_nifti(out_flag.read_bytes()).data, want_flag)
    assert not np.array_equal(want_cfg, want_flag)


def test_preprocess_otsu_masks_background(tmp_path):
    mag = np.full((8, 8, 4), 0.02, np.float32)
    mag[2:6, 2:6, :] = 1.0
    in_path = _write(tmp_path / "mag.nii", ScalarVolume(mag, ISO))
    out = tmp_path / "out.nii"
    assert main(["preprocess", in_path, "--out", str(out), "--otsu"]) == 0
    got = read_nifti(out.read_bytes())
    assert (got.data[0, 0, :] == 0.0).all()
    assert (got.data[3, 3, :] == 1.0).all()


def test_preprocess_dry_run_writes_nothing(tmp_path):
    rng = np.random.default_rng(2)
    vol = ScalarVolume(rng.random((6, 6, 2), dtype=np.float32), ISO)
    in_path = _write(tmp_path / "in.nii", vol)
    out = tmp_path / "out.nii"
    assert main(["preprocess", in_path, "--out", str(out), "--stretch",
                 "--dry-run"]) == 0
    assert not out.exists()


def test_stack_mock_predictor_end_to_end(tmp_path):
    mag, phs, labels = generate(PhantomConfig.fitted((24, 24, 6), seed=2))
    mag_p = _write(tmp_path / "mag.nii", mag)
    phs_p = _write(tmp_path / "phs.nii", phs)
    lab_p = _write(tmp_path / "lab.nii", labels)
    out = tmp_path / "pseudo.nii.gz"
    rc = main(["stack", "--predictor", "mock", "--input", mag_p,
               "--phase", phs_p, "--fit-labels", lab_p, "--tta",
               "--out", str(out)])
    assert rc == 0
    back = _read_labels(out)
    assert back.dims == labels.dims
    agree = (back.data == labels.data).mean()
    assert agree > 0.99


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"], ids=["nii", "nii-gz"])
@pytest.mark.parametrize("n_folds", [1, 2, 3], ids=["1-fold", "2-folds", "3-folds"])
def test_stack_slice_dirs_with_ensemble(tmp_path, n_folds, suffix):
    rng = np.random.default_rng(3)
    h, w, z = 6, 6, 4
    fold_probs = [rng.random((h, w, 3, z)).astype(np.float32) for _ in range(n_folds)]
    for i, probs in enumerate(fold_probs):
        d = tmp_path / f"fold{i}"
        d.mkdir()
        for zi in range(z):
            vol = ScalarVolume(probs[:, :, :, zi], ISO)
            _write(d / f"slice_{zi:04d}{suffix}", vol, gz=suffix == ".nii.gz")
    out = tmp_path / "merged.nii.gz"
    rc = main(["stack", *(str(tmp_path / f"fold{i}") for i in range(n_folds)),
               "--out", str(out)])
    assert rc == 0

    from cordpipe import RegionStack, ensemble, merge_regions, stack_slices
    folds = []
    for probs in fold_probs:
        planes = {zi: RegionStack(probs[:, :, 0, zi], probs[:, :, 1, zi],
                                  probs[:, :, 2, zi]) for zi in range(z)}
        folds.append(stack_slices(planes, z))
    want = merge_regions(ensemble(folds), ISO)
    got = _read_labels(out)
    assert np.array_equal(got.data, want.data)


def test_stack_subprocess_predictor(tmp_path):
    script = tmp_path / "pred.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from cordpipe import read_nifti, write_nifti, ScalarVolume\n"
        "mag = read_nifti(open(sys.argv[1], 'rb').read())\n"
        "m = mag.data[:, :, 0]\n"
        "wm = (m > 0.3).astype(np.float32)\n"
        "out = np.stack([wm, np.zeros_like(wm), np.zeros_like(wm)], axis=2)\n"
        "open(sys.argv[3], 'wb').write(write_nifti(ScalarVolume(out, mag.spacing)))\n"
    )
    mag, _, _ = generate(PhantomConfig.fitted((16, 16, 3), seed=4))
    mag_p = _write(tmp_path / "mag.nii", mag)
    out = tmp_path / "labels.nii.gz"
    rc = main(["stack", "--predictor", f"cmd:{sys.executable} {script}",
               "--input", mag_p, "--out", str(out)])
    assert rc == 0
    got = _read_labels(out)
    want_wm = mag.data > 0.3
    assert (got.data[want_wm] == 1).mean() > 0.99


def test_stack_subprocess_command_is_split_like_a_shell(tmp_path):
    seen = tmp_path / "argv.json"
    script = tmp_path / "echo args.py"
    script.write_text(
        "import json, sys\n"
        "import numpy as np\n"
        "from cordpipe import read_nifti, write_nifti, ScalarVolume\n"
        f"json.dump(sys.argv[1:-3], open({str(seen)!r}, 'w'))\n"
        "mag = read_nifti(open(sys.argv[-3], 'rb').read())\n"
        "out = np.zeros(mag.dims[:2] + (3,), np.float32)\n"
        "open(sys.argv[-1], 'wb').write(write_nifti(ScalarVolume(out, mag.spacing)))\n"
    )
    mag, _, _ = generate(PhantomConfig.fitted((16, 16, 1), seed=4))
    command = (f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} "
               "'two words' plain --flag=\"a b\"")
    rc = main(["stack", "--predictor", f"cmd:{command}", "--input",
               _write(tmp_path / "mag.nii", mag), "--out", str(tmp_path / "labels.nii")])
    assert rc == 0
    assert json.loads(seen.read_text()) == ["two words", "plain", "--flag=a b"]


# The last three echo a ", a \ and a newline in their record's message.
@pytest.mark.parametrize("spec", ["cmd:", "cmd:   ", 'cmd:""', "cmd:'unclosed",
                                  'cmd:say "a\\b', 'cmd:say "a\nb', "cmd:say 'a\\\"b"])
def test_stack_rejects_an_empty_or_unparsable_command_before_loading(
        tmp_path, capsys, monkeypatch, spec):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("stack read an input before checking the command")

    monkeypatch.setattr(cli, "_load_volume", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    out = tmp_path / "o.nii"
    rc = main(["stack", "--predictor", spec, "--input", str(tmp_path / "mag.nii"),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "kind=ConfigError" in err and "cordpipe-pred-" not in err
    assert not out.exists()
    # the record is one line, and its msg parses back to the exact message
    with pytest.raises(ConfigError) as raised:
        cli._predictor_command(spec[len("cmd:"):])
    [record] = err.splitlines()
    assert json.loads(record.split(" msg=", 1)[1]) == str(raised.value)


def _parse_record(line: str) -> dict:
    """The fields of one error record: ``kind`` as given, ``file`` and
    ``msg`` decoded from their JSON strings."""
    head = "cordpipe-error kind="
    assert line.startswith(head), line
    kind, _, rest = line[len(head):].partition(" ")
    fields, at, decoder = {"kind": kind}, 0, json.JSONDecoder()
    while at < len(rest):
        name, eq, _ = rest[at:].partition("=")
        assert eq and name in ("file", "msg") and name not in fields, rest[at:]
        fields[name], at = decoder.raw_decode(rest, at + len(name) + 1)
        at += rest[at:at + 1] == " "
    return fields


@pytest.mark.parametrize("name", ['a b\nc".nii', 'plain.nii', 'back\\slash "q".nii.gz'])
def test_error_record_file_field_parses_back_to_the_path(tmp_path, capsys, name):
    # a path holding a space, a quote, a backslash or a newline stays in
    # the record's one line and decodes to itself
    missing = tmp_path / name
    assert main(["preprocess", str(missing), "--out", str(tmp_path / "o.nii")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    record = _parse_record(line)
    assert record["kind"] == "FormatError" and record["file"] == str(missing)
    assert record["msg"].startswith(f"cannot read {missing}: ")


# Slice 1 of the magnitude is all zeros; "marked" fails on it alone.
@pytest.mark.parametrize("code, rc, kind, z", [
    ("pass", 2, "FormatError", 0),
    ("import sys, numpy as np; from cordpipe import ScalarVolume, Spacing, write_nifti; "
     "open(sys.argv[-1], 'wb').write(write_nifti(ScalarVolume("
     "np.zeros((5, 5, 3), np.float32), Spacing.isotropic())))", 1, "DimensionError", 0),
    ("import time; time.sleep(3)", 1, "ValidationError", 0),
    ("import sys, numpy as np; from cordpipe import ScalarVolume, Spacing, read_nifti, "
     "write_nifti; mag = read_nifti(open(sys.argv[-3], 'rb').read()).data; "
     "mag.any() or sys.exit('marked slice'); "
     "open(sys.argv[-1], 'wb').write(write_nifti(ScalarVolume("
     "np.zeros((16, 16, 3), np.float32), Spacing.isotropic())))", 1, "ValidationError", 1),
], ids=["no-output", "wrong-plane-size", "hangs", "marked"])
def test_stack_subprocess_predictor_bad_output(tmp_path, capsys, monkeypatch, code, rc, kind, z):
    import cordpipe.pseudolabel as pseudolabel

    if code.startswith("import time"):
        monkeypatch.setattr(pseudolabel, "_PREDICT_TIMEOUT_S", 0.5)
    mag, _, _ = generate(PhantomConfig.fitted((16, 16, 3), seed=4))
    mag.data[:, :, 1] = 0
    mag_path = _write(tmp_path / "mag.nii", mag)
    command = f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}"
    out = tmp_path / "labels.nii"
    assert main(["stack", "--predictor", f"cmd:{command}", "--input", mag_path,
                 "--out", str(out)]) == rc
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"cordpipe-error kind={kind} "), err
    # the record names the chunk, the slice in it and the command as given,
    # escaped as a JSON string like every record message
    named = f"slices 0..2: slice {z} of 3: predictor cmd:{command}: "
    assert "msg=" + json.dumps(named, ensure_ascii=False)[:-1] in err[0]
    assert mag_path not in err[0]  # the magnitude file is fine; the command is not
    assert "cordpipe-pred-" not in err[0]  # nor any temp file
    if z:
        assert err[0].endswith('marked slice"')
    assert not out.exists()


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["preprocess", str(tmp_path / "nope.nii"),
               "--out", str(tmp_path / "o.nii")])
    assert rc == 2
    assert "cordpipe-error" in capsys.readouterr().err


def test_config_parser_errors_exit_1(tmp_path, capsys):
    rng = np.random.default_rng(5)
    in_path = _write(tmp_path / "in.nii",
                     ScalarVolume(rng.random((4, 4, 2), dtype=np.float32), ISO))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    rc = main(["preprocess", in_path, "--out", str(tmp_path / "o.nii"),
               "--config", str(cfg)])
    assert rc == 1
    assert "ConfigError" in capsys.readouterr().err


def test_undecodable_config_exits_2_naming_it(tmp_path, capsys):
    rng = np.random.default_rng(5)
    in_path = _write(tmp_path / "in.nii",
                     ScalarVolume(rng.random((4, 4, 2), dtype=np.float32), ISO))
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"preprocess.otsu = \xff\xfe true\n")
    rc = main(["preprocess", in_path, "--out", str(tmp_path / "o.nii"),
               "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kind=FormatError" in err and _file_field(cfg) in err
    assert not (tmp_path / "o.nii").exists()


def test_evaluate_batch_directories(tmp_path, capsys):
    rng = np.random.default_rng(9)
    pred_dir = tmp_path / "preds"
    gt_dir = tmp_path / "gts"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for i in range(3):
        data = rng.integers(0, 5, (6, 6, 4)).astype(np.uint8)
        gt = LabelVolume(data, ISO)
        _write(gt_dir / f"case{i}.nii.gz", gt, gz=True)
        _write(pred_dir / f"case{i}.nii.gz", gt, gz=True)  # perfect predictions
    out_csv = tmp_path / "batch.csv"
    out_json = tmp_path / "batch.json"
    rc = main(["evaluate", str(pred_dir), str(gt_dir), "--threads", "2",
               "--csv", str(out_csv), "--json", str(out_json)])
    assert rc == 0
    assert "batch=3" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 12  # 3 volumes x 4 classes
    assert sorted({r["volume_id"] for r in rows}) == ["case0", "case1", "case2"]
    doc = json.loads(out_json.read_text())
    assert len(doc["volumes"]) == 3
    assert doc["aggregate"]["healthy_wm"]["dice"]["mean"] == 1.0
    assert doc["aggregate"]["healthy_wm"]["dice"]["std"] == 0.0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_evaluate_batch_error_names_the_volume_and_both_files(tmp_path, capsys, threads):
    pred_dir, gt_dir = tmp_path / "preds", tmp_path / "gts"
    pred_dir.mkdir()
    gt_dir.mkdir()
    ok = LabelVolume(np.ones((8, 8, 5), np.uint8), ISO)
    _write(gt_dir / "a.nii", ok)
    _write(pred_dir / "a.nii", ok)
    gt_path = _write(gt_dir / "b.nii", ok)
    pred_path = _write(pred_dir / "b.nii", LabelVolume(np.ones((8, 8, 4), np.uint8), ISO))
    rc = main(["evaluate", str(pred_dir), str(gt_dir), "--threads", threads])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "kind=DimensionError" in err
    assert "volume b " in err and pred_path in err and gt_path in err
    assert "(8, 8, 5)" in err and "(8, 8, 4)" in err


def test_evaluate_batch_no_matches_exits_1(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    rc = main(["evaluate", str(tmp_path / "a"), str(tmp_path / "b")])
    assert rc == 1
    assert "ValidationError" in capsys.readouterr().err


def test_evaluate_batch_same_stem_twice_exits_1(tmp_path, capsys):
    # a.nii and a.nii.gz in one directory: neither may silently win
    rng = np.random.default_rng(10)
    pred_dir, gt_dir = tmp_path / "preds", tmp_path / "gts"
    pred_dir.mkdir()
    gt_dir.mkdir()
    gt = LabelVolume(rng.integers(0, 5, (6, 6, 4)).astype(np.uint8), ISO)
    _write(gt_dir / "a.nii", gt)
    _write(pred_dir / "a.nii", gt)
    _write(pred_dir / "a.nii.gz", LabelVolume(np.zeros((6, 6, 4), np.uint8), ISO), gz=True)
    rc = main(["evaluate", str(pred_dir), str(gt_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err
    assert str(pred_dir / "a.nii") in err and str(pred_dir / "a.nii.gz") in err


def test_softlabel_profile_from_config_with_overrides(phantom_dir, tmp_path):
    cfg = tmp_path / "soft.cfg"
    cfg.write_text("softlabel.profile = soft2\n"
                   "softlabel.lesion_gm.weight = 0.3\n")
    out = tmp_path / "soft"
    rc = main(["softlabel", str(phantom_dir / "labels.nii.gz"),
               "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    ch = read_nifti((out / "soft_lesion_gm.nii.gz").read_bytes())
    vals = set(np.unique(ch.data))
    assert vals <= {np.float32(0.0), np.float32(0.3), np.float32(1.0)}


def test_stack_tta_flips_from_config(tmp_path):
    mag, phs, labels = generate(PhantomConfig.fitted((24, 24, 4), seed=6))
    mag_p = _write(tmp_path / "mag.nii", mag)
    phs_p = _write(tmp_path / "phs.nii", phs)
    lab_p = _write(tmp_path / "lab.nii", labels)
    cfg = tmp_path / "tta.cfg"
    cfg.write_text("tta.flips = identity,flip-x\n")
    out = tmp_path / "o.nii.gz"
    rc = main(["stack", "--predictor", "mock", "--input", mag_p,
               "--phase", phs_p, "--fit-labels", lab_p, "--tta",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0


def test_stack_tta_takes_a_single_flip_name(tmp_path):
    mag, phs, labels = generate(PhantomConfig.fitted((24, 24, 4), seed=6))
    inputs = ["--input", _write(tmp_path / "mag.nii", mag),
              "--phase", _write(tmp_path / "phs.nii", phs),
              "--fit-labels", _write(tmp_path / "lab.nii", labels)]
    cfg = tmp_path / "tta.cfg"
    cfg.write_text("tta.flips = identity\n")
    plain, tta = tmp_path / "plain.nii.gz", tmp_path / "tta.nii.gz"
    assert main(["stack", "--predictor", "mock", *inputs, "--out", str(plain)]) == 0
    assert main(["stack", "--predictor", "mock", *inputs, "--tta", "--config", str(cfg),
                 "--out", str(tta)]) == 0
    assert tta.read_bytes() == plain.read_bytes()


def _slice_dir(d, probs, name):
    d.mkdir()
    for zi in range(probs.shape[3]):
        _write(d / name.format(zi), ScalarVolume(probs[:, :, :, zi], ISO))
    return str(d)


def test_stack_slice_index_is_last_digit_run(tmp_path):
    # "fold2_slice_003.nii" is slice 3, not 2003
    probs = np.random.default_rng(4).random((6, 6, 3, 4)).astype(np.float32)
    plain = _slice_dir(tmp_path / "plain", probs, "slice_{:03d}.nii")
    named = _slice_dir(tmp_path / "named", probs, "fold2_slice_{:03d}.nii")
    assert main(["stack", plain, "--out", str(tmp_path / "a.nii")]) == 0
    assert main(["stack", named, "--out", str(tmp_path / "b.nii")]) == 0
    assert (tmp_path / "a.nii").read_bytes() == (tmp_path / "b.nii").read_bytes()


def test_stack_slice_dir_ignores_stray_files(tmp_path):
    probs = np.random.default_rng(5).random((6, 6, 3, 4)).astype(np.float32)
    d = _slice_dir(tmp_path / "slices", probs, "slice_{:04d}.nii")
    assert main(["stack", d, "--out", str(tmp_path / "a.nii")]) == 0
    (tmp_path / "slices" / "README.txt").write_text("predictions from fold 0\n")
    assert main(["stack", d, "--out", str(tmp_path / "b.nii")]) == 0
    assert (tmp_path / "a.nii").read_bytes() == (tmp_path / "b.nii").read_bytes()


def test_bad_pixdim_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nii"
    raw = bytearray(write_nifti(LabelVolume(np.zeros((2, 2, 2), np.uint8), ISO)))
    struct.pack_into("<f", raw, 80, 0.0)  # pixdim[1]
    bad.write_bytes(bytes(raw))
    assert main(["evaluate", str(bad), str(bad)]) == 2
    assert "kind=FormatError" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.0, float("inf")])
def test_bad_pixdim_z_exits_2(tmp_path, value, capsys):
    bad = tmp_path / "bad.nii"
    raw = bytearray(write_nifti(LabelVolume(np.zeros((2, 2, 2), np.uint8), ISO)))
    struct.pack_into("<f", raw, 88, value)
    bad.write_bytes(bytes(raw))
    assert main(["evaluate", str(bad), str(bad)]) == 2
    assert "kind=FormatError" in capsys.readouterr().err


def test_preprocess_truncated_gzip_exits_2(tmp_path, capsys):
    vol = ScalarVolume(np.random.default_rng(7).random((8, 8, 2), dtype=np.float32), ISO)
    gz = gzip_nifti(write_nifti(vol))
    bad = tmp_path / "half.nii.gz"
    bad.write_bytes(gz[:len(gz) // 2])
    rc = main(["preprocess", str(bad), "--stretch", "--out", str(tmp_path / "o.nii.gz")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kind=FormatError" in err and "half.nii.gz" in err


@pytest.mark.parametrize("field", ["crc", "isize"])
def test_gzip_trailer_mismatch_exits_2(tmp_path, capsys, field):
    labels = LabelVolume(np.random.default_rng(8).integers(0, 5, (8, 8, 2)).astype(np.uint8),
                         ISO)
    gz = bytearray(gzip_nifti(write_nifti(labels)))
    gz[-8 if field == "crc" else -4] ^= 0x01
    bad = tmp_path / "bad.nii.gz"
    bad.write_bytes(bytes(gz))
    assert main(["evaluate", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "kind=FormatError" in err and "bad.nii.gz" in err


@pytest.mark.parametrize("how", ["cut", "crc", "nlen", "reserved", "fhcrc"])
def test_preprocess_hostile_stored_member_exits_2(tmp_path, capsys, how):
    from test_nifti import _hostile_stored_member

    bad = tmp_path / "stored.nii.gz"
    bad.write_bytes(_hostile_stored_member(how))
    out = tmp_path / "o.nii.gz"
    assert main(["preprocess", str(bad), "--stretch", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("cordpipe-error kind=FormatError")
    assert _file_field(bad) in err[0]
    assert not out.exists()


@pytest.mark.parametrize("how", ["reserved", "fhcrc"])
def test_evaluate_gzip_header_fault_exits_2(tmp_path, capsys, how):
    from test_nifti import _header_fault

    labels = LabelVolume(np.random.default_rng(9).integers(0, 5, (8, 8, 2)).astype(np.uint8),
                         ISO)
    bad = tmp_path / "header.nii.gz"
    bad.write_bytes(_header_fault(gzip_nifti(write_nifti(labels)), how))
    assert main(["evaluate", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("cordpipe-error kind=FormatError")
    assert _file_field(bad) in err[0]


def test_evaluate_dense_spacing_mismatch_exits_1(tmp_path, capsys):
    data = np.zeros((4, 4, 3), np.uint8)
    data[1:3, 1:3, :] = 1
    pred = _write(tmp_path / "pred.nii", LabelVolume(data, Spacing(0.5, 0.5, 2.0)))
    gt = _write(tmp_path / "gt.nii", LabelVolume(data, Spacing(0.5, 0.5, 1.0)))
    assert main(["evaluate", pred, gt]) == 1
    err = capsys.readouterr().err
    assert "kind=ValidationError" in err
    assert "(0.5, 0.5, 1.0)" in err and "(0.5, 0.5, 2.0)" in err


@pytest.mark.parametrize("tiles", ["8,", "8,8,8"])
def test_preprocess_malformed_clahe_tiles_exits_1(tmp_path, tiles, capsys):
    rng = np.random.default_rng(6)
    in_path = _write(tmp_path / "in.nii",
                     ScalarVolume(rng.random((8, 8, 2), dtype=np.float32), ISO))
    cfg = tmp_path / "clahe.cfg"
    cfg.write_text(f"preprocess.clahe.tiles = {tiles}\n")
    rc = main(["preprocess", in_path, "--out", str(tmp_path / "o.nii"),
               "--clahe", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "kind=ConfigError" in err and "preprocess.clahe.tiles" in err


def test_a_list_key_given_one_value_reads_it_as_a_one_item_tuple(tmp_path, capsys):
    assert get_typed({"tta.flips": "identity"}, "tta.flips", tuple, None) == ("identity",)
    rng = np.random.default_rng(6)
    in_path = _write(tmp_path / "in.nii",
                     ScalarVolume(rng.random((8, 8, 2), dtype=np.float32), ISO))
    cfg = tmp_path / "clahe.cfg"
    cfg.write_text("preprocess.clahe.tiles = 8\n")
    rc = main(["preprocess", in_path, "--out", str(tmp_path / "o.nii"),
               "--clahe", "--config", str(cfg)])
    assert rc == 1
    assert 'msg="preprocess.clahe.tiles must be two integers, got (8,)"' in \
        capsys.readouterr().err


@pytest.mark.parametrize("text", ["{bad", "[1, 2]",
                                  '{"volume_id": "v", "z_indices": [0.5], "planes_nifti": "p.nii"}'])
def test_evaluate_malformed_sidecar_exits_2(tmp_path, text, capsys):
    pred = _write(tmp_path / "pred.nii", LabelVolume(np.zeros((4, 4, 3), np.uint8), ISO))
    ann = tmp_path / "ann.json"
    ann.write_text(text)
    assert main(["evaluate", pred, str(ann)]) == 2
    err = capsys.readouterr().err
    assert "kind=SidecarError" in err and str(ann) in err


def test_evaluate_sparse_spacing_mismatch_exits_1(tmp_path, capsys):
    data = np.zeros((4, 4, 3), np.uint8)
    data[1:3, 1:3, :] = 1
    pred = _write(tmp_path / "pred.nii", LabelVolume(data, Spacing(0.075, 0.075, 0.075)))
    ann = SparseAnnotation("v", [1], data[:, :, 1:2])
    sidecar, planes_nii = write_sparse_annotation(ann, "planes.nii", Spacing(0.5, 0.5, 0.075))
    (tmp_path / "ann.json").write_bytes(sidecar)
    (tmp_path / "planes.nii").write_bytes(planes_nii)
    assert main(["evaluate", pred, str(tmp_path / "ann.json")]) == 1
    err = capsys.readouterr().err
    assert "kind=ValidationError" in err
    assert "(0.5, 0.5)" in err and "0.075" in err


@pytest.mark.parametrize("z_indices, planes", [([2, 2], 2), ([-1, 1], 2), ([0, 1, 2], 2)],
                         ids=["duplicate", "negative", "plane-count"])
def test_evaluate_sidecar_inconsistent_in_itself_exits_2(tmp_path, capsys, z_indices, planes):
    pred = _write(tmp_path / "pred.nii", LabelVolume(np.zeros((4, 4, 3), np.uint8), ISO))
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps({"volume_id": "v", "z_indices": z_indices,
                               "planes_nifti": "planes.nii"}))
    _write(tmp_path / "planes.nii", LabelVolume(np.zeros((4, 4, planes), np.uint8), ISO))
    assert main(["evaluate", pred, str(ann)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=SidecarError " + _file_field(ann))


# Ground truth off the prediction's grid, as (file, dims or plane dims,
# annotated indices, spacing); the prediction is 4x4x4 at 75 um.
@pytest.mark.parametrize("gt, kind", [
    (("gt.json", (3, 3), [1], ISO), "DimensionError"),
    (("gt.json", (4, 4), [1, 4], ISO), "ValidationError"),
    (("gt.json", (4, 4), [1], Spacing(0.5, 0.5, 0.075)), "ValidationError"),
    (("gt.nii", (4, 4, 5), None, ISO), "DimensionError"),
    (("gt.nii", (4, 4, 4), None, Spacing(0.075, 0.075, 0.5)), "ValidationError"),
], ids=["sparse-plane-size", "sparse-index-past-end", "sparse-spacing", "dense-dims",
        "dense-spacing"])
def test_evaluate_ground_truth_off_the_grid_exits_1_naming_both_files(
        tmp_path, capsys, gt, kind):
    name, dims, z_indices, spacing = gt
    pred = _write(tmp_path / "pred.nii", LabelVolume(np.ones((4, 4, 4), np.uint8), ISO))
    gt_path = tmp_path / name
    if z_indices is None:
        _write(gt_path, LabelVolume(np.ones(dims, np.uint8), spacing))
    else:
        ann = SparseAnnotation("v", z_indices, np.ones(dims + (len(z_indices),), np.uint8))
        sidecar, planes_nii = write_sparse_annotation(ann, "planes.nii", spacing)
        gt_path.write_bytes(sidecar)
        (tmp_path / "planes.nii").write_bytes(planes_nii)
    assert main(["evaluate", pred, str(gt_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"cordpipe-error kind={kind} "), err
    assert f"volume pred.nii (pred {pred}, gt {gt_path}): " in err[0]
    if z_indices == [1, 4]:
        assert "index 4 " in err[0] and " 4 slices" in err[0]


def test_a_failed_write_names_its_destination_not_the_temp_file(tmp_path, capsys):
    labels = _write(tmp_path / "l.nii", LabelVolume(np.ones((4, 4, 2), np.uint8), ISO))
    taken = tmp_path / "report"
    taken.mkdir()  # --json names a directory, so the final rename fails
    assert main(["evaluate", labels, labels, "--json", str(taken)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=FormatError "), err
    assert _file_field(taken) in err[0] and ".cordpipe-tmp-" not in err[0]
    assert not list(tmp_path.glob(".cordpipe-tmp-*"))
    assert list(taken.iterdir()) == []


def test_error_names_the_failing_merge_input(phantom_dir, tmp_path, capsys):
    regions = tmp_path / "regions"
    assert main(["regions", "split", str(phantom_dir / "labels.nii.gz"),
                 "--out-dir", str(regions)]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "no_wm.nii.gz")
    rc = main(["regions", "merge", "x", "--wm", missing,
               "--gm", str(regions / "region_gm.nii.gz"),
               "--lesion", str(regions / "region_lesion.nii.gz"),
               "--out", str(tmp_path / "m.nii.gz")])
    assert rc == 2
    assert _file_field(missing) in capsys.readouterr().err


def test_error_names_a_missing_fit_labels_file(phantom_dir, tmp_path, capsys):
    missing = str(tmp_path / "no_labels.nii.gz")
    rc = main(["stack", "--predictor", "mock", "--input", str(phantom_dir / "magnitude.nii.gz"),
               "--phase", str(phantom_dir / "phase.nii.gz"), "--fit-labels", missing,
               "--out", str(tmp_path / "p.nii.gz")])
    assert rc == 2
    assert _file_field(missing) in capsys.readouterr().err


def test_error_names_a_missing_sidecar_planes_file(phantom_dir, capsys):
    planes = phantom_dir / "annotation_planes.nii.gz"
    planes.unlink()
    rc = main(["evaluate", str(phantom_dir / "labels.nii.gz"),
               str(phantom_dir / "annotation.json")])
    assert rc == 2
    assert _file_field(planes) in capsys.readouterr().err


def test_error_names_a_missing_slice_dir(tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir")
    assert main(["stack", missing, "--out", str(tmp_path / "x.nii")]) == 2
    assert _file_field(missing) in capsys.readouterr().err


def test_error_names_an_undecodable_main_input(tmp_path, capsys):
    bad = tmp_path / "bad.nii"
    bad.write_bytes(b"not a nifti")
    assert main(["preprocess", str(bad), "--out", str(tmp_path / "o.nii")]) == 2
    assert _file_field(bad) in capsys.readouterr().err


def _fold(d, probs, spacing=ISO, odd=None, first_z=0):
    """A slice dir of slices ``first_z``, ``first_z + 1``, ...; slice
    ``odd`` gets spacing (0.1, 0.1, 0.1) instead."""
    d.mkdir()
    for zi in range(probs.shape[3]):
        sp = Spacing(0.1, 0.1, 0.1) if zi == odd else spacing
        _write(d / f"slice_{zi + first_z:03d}.nii", ScalarVolume(probs[:, :, :, zi], sp))
    return str(d)


def test_stack_folds_must_agree(tmp_path, capsys):
    probs = np.random.default_rng(6).random((6, 6, 3, 5)).astype(np.float32)
    base = _fold(tmp_path / "base", probs)
    short = _fold(tmp_path / "short", probs[..., :4])
    coarse = _fold(tmp_path / "coarse", probs, Spacing(0.075, 0.075, 0.15))
    small = _fold(tmp_path / "small", probs[:5, :5])
    for other, kind in ((short, "ValidationError"), (coarse, "ValidationError"),
                        (small, "DimensionError")):
        capsys.readouterr()
        assert main(["stack", base, other, "--out", str(tmp_path / "o.nii")]) == 1
        err = capsys.readouterr().err
        assert f"kind={kind}" in err and base in err and other in err
    # a gap in the first fold, or the same count at shifted indices
    gap = _fold(tmp_path / "gap", probs[..., :4])
    os.rename(os.path.join(gap, "slice_003.nii"), os.path.join(gap, "slice_004.nii"))
    shifted = _fold(tmp_path / "shifted", probs, first_z=1)
    for argv in ([gap], [base, shifted]):
        capsys.readouterr()
        assert main(["stack", *argv, "--out", str(tmp_path / "o.nii")]) == 1
        err = capsys.readouterr().err
        assert "kind=ValidationError" in err and f"fold {argv[-1]}: missing" in err
    assert not (tmp_path / "o.nii").exists()


def test_stack_slices_of_one_fold_must_agree(tmp_path, capsys):
    probs = np.random.default_rng(7).random((6, 6, 3, 4)).astype(np.float32)
    mixed = _fold(tmp_path / "mixed", probs, odd=2)
    resized = _fold(tmp_path / "resized", probs)
    _write(tmp_path / "resized" / "slice_002.nii", ScalarVolume(probs[:5, :5, :, 2], ISO))
    two_planes = _fold(tmp_path / "two_planes", probs)
    _write(tmp_path / "two_planes" / "slice_002.nii", ScalarVolume(probs[:, :, :2, 2], ISO))
    # the first slice is the grid reference, so only the plane count sees it
    two_planes_first = _fold(tmp_path / "two_planes_first", probs)
    _write(tmp_path / "two_planes_first" / "slice_000.nii",
           ScalarVolume(probs[:, :, :2, 0], ISO))
    doubled = _fold(tmp_path / "doubled", probs)
    _write(tmp_path / "doubled" / "slice_1.nii.gz", ScalarVolume(probs[..., 1], ISO), gz=True)
    for fold, name, kind in ((mixed, "slice_002.nii", "ValidationError"),
                             (resized, "slice_002.nii", "DimensionError"),
                             (two_planes, "slice_002.nii", "DimensionError"),
                             (two_planes_first, "slice_000.nii", "DimensionError"),
                             (doubled, "duplicate slice index 1", "ValidationError")):
        capsys.readouterr()
        assert main(["stack", fold, "--out", str(tmp_path / "o.nii")]) == 1
        err = capsys.readouterr().err
        assert f"kind={kind}" in err and fold in err and name in err
    assert not (tmp_path / "o.nii").exists()


def test_stack_checks_slice_names_before_reading_a_slice(tmp_path, capsys, monkeypatch):
    import cordpipe.cli as cli

    probs = np.random.default_rng(8).random((6, 6, 3, 4)).astype(np.float32)
    base = _fold(tmp_path / "base", probs)
    short = _fold(tmp_path / "short", probs[..., :3])
    gap = _fold(tmp_path / "gap", probs)
    os.rename(os.path.join(gap, "slice_002.nii"), os.path.join(gap, "slice_007.nii"))
    pair = _fold(tmp_path / "pair", probs)
    _write(tmp_path / "pair" / "slice_001.nii.gz", ScalarVolume(probs[..., 1], ISO), gz=True)
    unnamed = _fold(tmp_path / "unnamed", probs)
    _write(tmp_path / "unnamed" / "slice.nii", ScalarVolume(probs[..., 1], ISO))

    def must_not_run(*args, **kwargs):
        raise AssertionError("stack read a slice before checking the slice names")

    monkeypatch.setattr(cli, "_read_file", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    for argv, message in (([base, short], f"fold {short} has 3 slices, fold {base} has 4"),
                          ([base, gap], f"fold {gap}: missing slice indices [2] of 0..3"),
                          ([pair], "both hold volume 'slice_001'"),
                          ([unnamed], "cannot parse slice index")):
        capsys.readouterr()
        assert main(["stack", *argv, "--out", str(tmp_path / "o.nii")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ValidationError"), err
        assert message in err[0]
    assert not (tmp_path / "o.nii").exists()


def test_stack_threads_give_the_bytes_of_one_thread(tmp_path, monkeypatch):
    # seven z-chunks of 3 slices, taken from the files as threads free up
    import cordpipe.pseudolabel as pseudolabel

    monkeypatch.setattr(pseudolabel, "_CHUNK_VOXELS", 3 * 24 * 24)
    ph = tmp_path / "ph"
    assert main(["phantom", "--seed", "2", "--dims", "24", "24", "20",
                 "--out-dir", str(ph)]) == 0
    written = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"pseudo_t{threads}.nii.gz"
        assert main(["stack", "--predictor", "mock", "--input", str(ph / "magnitude.nii.gz"),
                     "--phase", str(ph / "phase.nii.gz"), "--fit-labels",
                     str(ph / "labels.nii.gz"), "--tta", "--threads", threads,
                     "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]


def test_stack_reads_each_slice_file_once(tmp_path, monkeypatch):
    import collections
    import cordpipe.cli as cli

    rng = np.random.default_rng(9)
    folds = [_fold(tmp_path / f"fold{i}", rng.random((6, 5, 3, 7)).astype(np.float32))
             for i in range(3)]
    reads = collections.Counter()
    read_file = cli._read_file

    def counted(path):
        reads[path] += 1
        return read_file(path)

    def must_not_run(*args, **kwargs):
        raise AssertionError("slice-directory stack merged a whole-volume stack")

    monkeypatch.setattr(cli, "_read_file", counted)
    monkeypatch.setattr(cli, "merge_regions", must_not_run)
    assert main(["stack", *folds, "--out", str(tmp_path / "o.nii")]) == 0
    assert len(reads) == 21 and set(reads.values()) == {1}


def test_unknown_spatial_unit_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nii"
    raw = bytearray(write_nifti(LabelVolume(np.zeros((2, 2, 2), np.uint8), ISO)))
    struct.pack_into("<B", raw, 123, 5)
    bad.write_bytes(bytes(raw))
    assert main(["evaluate", str(bad), str(bad)]) == 2
    assert "kind=FormatError" in capsys.readouterr().err


def test_dry_run_creates_no_output_directory(phantom_dir, tmp_path):
    labels = str(phantom_dir / "labels.nii.gz")
    runs = {
        "softlabel": ["softlabel", labels],
        "split": ["regions", "split", labels],
        "phantom": ["phantom", "--dims", "16", "16", "4"],
    }
    for name, argv in runs.items():
        out_dir = tmp_path / "fresh" / name
        assert main(argv + ["--out-dir", str(out_dir), "--dry-run"]) == 0
        assert not (tmp_path / "fresh").exists(), name


def test_preprocess_has_no_channel_flag(tmp_path):
    vol = ScalarVolume(np.ones((4, 4, 2), np.float32), ISO)
    in_path = _write(tmp_path / "in.nii", vol)
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", in_path, "--out", str(tmp_path / "o.nii"), "--channel", "phase"])
    assert exc.value.code == 2


@pytest.fixture()
def grids(tmp_path):
    """A 32x32x4 phantom at 75 um, with single files moved to another grid."""
    mag, phs, labels = generate(PhantomConfig.fitted((32, 32, 4), seed=4))
    coarse = Spacing.isotropic(0.5)
    _, big_phs, big_labels = generate(PhantomConfig.fitted((40, 40, 4), seed=4))
    regions = to_regions(labels)
    files = {
        "mag": mag, "phase": phs, "labels": labels,
        "wm": ScalarVolume(regions.wm, ISO), "gm": ScalarVolume(regions.gm, ISO),
        "lesion": ScalarVolume(regions.lesion, ISO),
        "coarse_mag": ScalarVolume(mag.data, coarse),
        "coarse_phase": ScalarVolume(phs.data, coarse),
        "coarse_labels": LabelVolume(labels.data, coarse),
        "coarse_gm": ScalarVolume(regions.gm, coarse),
        "big_phase": big_phs, "big_labels": big_labels,
    }
    return {k: _write(tmp_path / f"{k}.nii", v) for k, v in files.items()}


@pytest.mark.parametrize("argv, ref, odd", [
    (["stack", "--predictor", "mock", "--input", "mag", "--phase", "phase",
      "--fit-labels", "big_labels"], "mag", "big_labels"),
    (["stack", "--predictor", "mock", "--input", "mag", "--phase", "big_phase",
      "--fit-labels", "labels"], "mag", "big_phase"),
    (["stack", "--predictor", "mock", "--input", "mag", "--phase", "coarse_phase",
      "--fit-labels", "labels"], "mag", "coarse_phase"),
    (["stack", "--predictor", "mock", "--input", "mag", "--phase", "phase",
      "--fit-labels", "coarse_labels"], "mag", "coarse_labels"),
    (["regions", "merge", "--wm", "wm", "--gm", "coarse_gm", "--lesion", "lesion"],
     "wm", "coarse_gm"),
    (["preprocess", "mag", "--otsu", "--mask-from", "coarse_mag"], "mag", "coarse_mag"),
])
def test_voxelwise_inputs_must_share_one_grid(grids, tmp_path, capsys, argv, ref, odd):
    out = tmp_path / "o.nii"
    rc = main([grids.get(a, a) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    kind = "DimensionError" if odd.startswith("big_") else "ValidationError"
    assert f"kind={kind}" in err and grids[ref] in err and grids[odd] in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.25"])
def test_merge_threshold_outside_unit_range_exits_1(grids, tmp_path, capsys, value):
    regions = ["--wm", grids["wm"], "--gm", grids["gm"], "--lesion", grids["lesion"]]
    cfg = tmp_path / "merge.cfg"
    cfg.write_text(f"merge.tissue_thresh = {value}\n")
    runs = [
        ["regions", "merge", *regions, "--tissue-thresh", value],
        ["regions", "merge", *regions, "--lesion-thresh", value],
        ["regions", "merge", *regions, "--config", str(cfg)],
        ["stack", "--predictor", "mock", "--input", grids["mag"], "--phase", grids["phase"],
         "--fit-labels", grids["labels"], "--config", str(cfg)],
    ]
    out = tmp_path / "o.nii"
    for argv in runs:
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1, argv
        assert "kind=ConfigError" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key", ["tissue_thresh", "lesion_thresh"])
def test_stack_rejects_a_bad_threshold_before_loading_or_predicting(
        grids, tmp_path, capsys, monkeypatch, key):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("stack did work before validating its thresholds")

    monkeypatch.setattr(cli, "_load_volume", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    monkeypatch.setattr(cli.MockPredictor, "fit", must_not_run)
    monkeypatch.setattr(cli, "_chunk_labels", must_not_run)
    cfg = tmp_path / "merge.cfg"
    cfg.write_text(f"merge.{key} = 1.5\n")
    out = tmp_path / "o.nii"
    rc = main(["stack", "--predictor", "mock", "--input", grids["mag"], "--phase",
               grids["phase"], "--fit-labels", grids["labels"], "--config", str(cfg),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "kind=ConfigError" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--predictor", "foo", "--input", "missing.nii"], "unknown predictor 'foo'"),
    (["--predictor", "foo", "--input", "mag"], "unknown predictor 'foo'"),
    (["--predictor", "mock", "--input", "mag", "--phase", "phase"], "--fit-labels"),
    (["--predictor", "mock", "--input", "mag", "--fit-labels", "labels"], "--phase"),
    (["--predictor", "mock", "--input", "mag"], "--fit-labels"),
], ids=["unknown-missing-input", "unknown", "mock-no-fit-labels", "mock-no-phase",
        "mock-no-flags"])
def test_stack_checks_its_predictor_flags_before_reading(grids, tmp_path, capsys,
                                                         monkeypatch, argv, message):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("stack read a file before checking its predictor flags")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_read_file", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    assert main(["stack", *[grids.get(a, a) for a in argv], "--out", "o.nii"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ValidationError"), err
    assert message in err[0]
    assert not (tmp_path / "o.nii").exists()


@pytest.mark.parametrize("argv, flag", [
    (["split", "--out-dir", "regions"], "INPUT"),
    (["split", "labels"], "--out-dir"),
    (["merge", "--gm", "gm", "--lesion", "lesion", "--out", "o.nii"], "--wm"),
    (["merge", "--wm", "wm", "--lesion", "lesion", "--out", "o.nii"], "--gm"),
    (["merge", "--wm", "wm", "--gm", "gm", "--out", "o.nii"], "--lesion"),
    (["merge", "--wm", "wm", "--gm", "gm", "--lesion", "lesion"], "--out"),
])
def test_regions_names_a_missing_flag_before_reading(grids, tmp_path, capsys,
                                                     monkeypatch, argv, flag):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("regions read a file before checking its flags")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_read_file", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    assert main(["regions", *[grids.get(a, a) for a in argv]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ValidationError")
    assert flag in err[0]
    assert not (tmp_path / "o.nii").exists() and not (tmp_path / "regions").exists()


# ---------------------------------------------------------------------------
# CLI paths pinned to the library calls they run


def _preprocess_input(tmp_path):
    """A 16x16x3 volume in [2, 150): a bright square on a dim background."""
    rng = np.random.default_rng(11)
    data = np.full((16, 16, 3), 2.0, np.float32)
    data[4:12, 4:12, :] = 50 + 100 * rng.random((8, 8, 3), dtype=np.float32)
    vol = ScalarVolume(data, ISO)
    return vol, _write(tmp_path / "in.nii", vol)


def test_preprocess_clahe_rescales_intensities_outside_the_unit_range(tmp_path, capsys):
    from cordpipe import ClaheConfig, clahe_slicewise, minmax_rescale
    vol, in_path = _preprocess_input(tmp_path)
    assert vol.data.max() > 1
    out = tmp_path / "o.nii"
    assert main(["preprocess", in_path, "--clahe", "--out", str(out)]) == 0
    want = clahe_slicewise(minmax_rescale(vol), ClaheConfig())
    assert out.read_bytes() == write_nifti(want)
    assert capsys.readouterr().out == (f"preprocess ok in={in_path} out={out} "
                                       "otsu=0 stretch=0 clahe=1 zscore=0\n")


@pytest.mark.parametrize("otsu", [False, True], ids=["whole", "otsu"])
def test_preprocess_zscore_matches_the_library(tmp_path, capsys, otsu):
    from cordpipe import apply_mask, otsu_mask, zscore_normalize
    vol, in_path = _preprocess_input(tmp_path)
    out = tmp_path / "o.nii"
    assert main(["preprocess", in_path, "--zscore", "--out", str(out)]
                + ["--otsu"] * otsu) == 0
    if otsu:
        mask = otsu_mask(vol).mask
        want = zscore_normalize(apply_mask(vol, mask), mask=mask)
    else:
        want = zscore_normalize(vol)
    assert out.read_bytes() == write_nifti(want)
    assert capsys.readouterr().out == (f"preprocess ok in={in_path} out={out} "
                                       f"otsu={int(otsu)} stretch=0 clahe=0 zscore=1\n")


def test_softlabel_kernel_override_from_config(phantom_dir, tmp_path, capsys):
    from cordpipe import SoftProfile, soften
    from cordpipe.softlabel import SOFT2
    cfg = tmp_path / "soft.cfg"
    cfg.write_text("softlabel.healthy_wm.kernel = 5\n")
    labels_path = phantom_dir / "labels.nii.gz"
    out = tmp_path / "soft"
    assert main(["softlabel", str(labels_path), "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    labels = _read_labels(labels_path)
    soft = soften(labels, SoftProfile(dict(SOFT2.weights), {**SOFT2.kernels, 1: 5}))
    changed = False
    for cid, name in ((1, "healthy_wm"), (2, "healthy_gm"), (3, "lesion_wm"), (4, "lesion_gm")):
        want = gzip_nifti(write_nifti(ScalarVolume(soft.class_channel(cid), labels.spacing)))
        assert (out / f"soft_{name}.nii.gz").read_bytes() == want, name
        changed |= not np.array_equal(soft.class_channel(cid),
                                      soften(labels, SOFT2).class_channel(cid))
    assert changed
    assert capsys.readouterr().out == (f"softlabel ok in={labels_path} profile=soft2 "
                                       f"out_dir={out}\n")


def test_evaluate_without_json_or_csv_prints_the_report(phantom_dir, tmp_path, capsys):
    from cordpipe import evaluate
    labels_path = phantom_dir / "labels.nii.gz"
    labels = _read_labels(labels_path)
    pred_data = labels.data.copy()
    pred_data[:, :, 3] = 0
    pred_path = _write(tmp_path / "pred.nii", LabelVolume(pred_data, labels.spacing))
    assert main(["evaluate", pred_path, str(labels_path)]) == 0
    report = evaluate(LabelVolume(pred_data, labels.spacing), labels, volume_id="pred.nii")
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == payload + (
        f"evaluate ok pred={pred_path} scope={report.evaluated_slices} sparse=0 "
        f"mean_dice={report.mean_dice:.6f}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ph", "pred.nii"]


@pytest.mark.parametrize("argv, message", [
    ([], "stack needs slice directories or --predictor"),
    (["--predictor", "mock", "--phase", "phase", "--fit-labels", "labels"],
     "--predictor mode needs --input <magnitude.nii>"),
], ids=["no-slice-dirs", "mock-no-input"])
def test_stack_without_its_inputs_exits_1(grids, tmp_path, capsys, argv, message):
    out = tmp_path / "o.nii"
    assert main(["stack", *[grids.get(a, a) for a in argv], "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f'cordpipe-error kind=ValidationError msg="{message}"']
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["slices", "--input", "mag"], "--input"),
    (["slices", "--phase", "phase"], "--phase"),
    (["slices", "--fit-labels", "labels"], "--fit-labels"),
    (["slices", "--tta"], "--tta"),
    (["slices", "--threads", "2"], "--threads"),
    (["slices", "--predictor", "mock", "--input", "mag", "--phase", "phase",
      "--fit-labels", "labels"], "--predictor"),
    (["--predictor", "cmd:true", "--input", "mag", "--fit-labels", "labels"], "--fit-labels"),
], ids=["slices-input", "slices-phase", "slices-fit-labels", "slices-tta",
        "slices-threads", "predictor-with-slices", "cmd-fit-labels"])
def test_stack_rejects_a_flag_its_mode_does_not_read(grids, tmp_path, capsys, monkeypatch,
                                                     argv, flag):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("stack read a file before rejecting an unread flag")

    slices = _slice_dir(tmp_path / "slices", np.zeros((6, 6, 3, 2), np.float32),
                        "slice_{:03d}.nii")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_read_file", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    args = [{"slices": slices}.get(a, grids.get(a, a)) for a in argv]
    assert main(["stack", *args, "--out", "o.nii"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ValidationError"), err
    assert flag in err[0]
    assert not (tmp_path / "o.nii").exists()


# ---------------------------------------------------------------------------
# Every setting is checked before any input is read


@pytest.mark.parametrize("argv, cfg_text, kind, message", [
    (["preprocess", "mag", "--stretch-low", "80", "--stretch-high", "20"], None,
     "ConfigError", "p_low < p_high"),
    (["preprocess", "mag", "--clahe", "--clahe-tiles", "0", "8"], None,
     "ConfigError", "preprocess.clahe.tiles must be >= 1"),
    (["preprocess", "mag", "--clahe"], "preprocess.clahe.clip = 2\n",
     "ConfigError", "preprocess.clahe.clip_limit must be in (0, 1]"),
    (["softlabel", "labels", "--out-dir", "soft"], "softlabel.lesion_wm.kernel = 4\n",
     "ConfigError", "kernel size must be odd"),
    (["regions", "merge", "--wm", "wm", "--gm", "gm", "--lesion", "lesion",
      "--tissue-thresh", "1.5"], None, "ConfigError", "tissue_thresh must lie in [0, 1]"),
], ids=["stretch-window", "clahe-tiles", "clahe-clip-config", "even-kernel", "merge-thresh"])
def test_a_bad_setting_exits_1_before_any_volume_is_read(
        grids, tmp_path, capsys, monkeypatch, argv, cfg_text, kind, message):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a volume was read before the settings were checked")

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(cli, "_load_volume", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    argv = [grids.get(a, a) for a in argv]
    if cfg_text is not None:
        (work / "bad.cfg").write_text(cfg_text)
        argv += ["--config", "bad.cfg"]
    if "--out-dir" not in argv:
        argv += ["--out", "o.nii"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"cordpipe-error kind={kind} "), err
    assert message in err[0]
    assert sorted(p.name for p in work.iterdir()) == (["bad.cfg"] if cfg_text else [])


@pytest.mark.parametrize("command", [
    ["preprocess", "mag", "--out", "o.nii"],
    ["softlabel", "labels", "--out-dir", "soft"],
    ["regions", "merge", "--wm", "wm", "--gm", "gm", "--lesion", "lesion", "--out", "o.nii"],
    ["stack", "--predictor", "mock", "--input", "mag", "--phase", "phase",
     "--fit-labels", "labels", "--out", "o.nii"],
], ids=["preprocess", "softlabel", "regions", "stack"])
def test_a_missing_config_is_a_format_error_naming_it(grids, tmp_path, capsys, command):
    missing = str(tmp_path / "missing.cfg")
    assert main([grids.get(a, a) for a in command] + ["--config", missing]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=FormatError "), err
    assert _file_field(missing) in err[0]


# ---------------------------------------------------------------------------
# Config keys no subcommand reads


@pytest.mark.parametrize("command", [
    ["preprocess", "mag", "--stretch", "--out", "o.nii"],
    ["softlabel", "labels", "--out-dir", "soft"],
    ["regions", "merge", "--wm", "wm", "--gm", "gm", "--lesion", "lesion", "--out", "o.nii"],
    ["stack", "--predictor", "mock", "--input", "mag", "--phase", "phase",
     "--fit-labels", "labels", "--out", "o.nii"],
], ids=["preprocess", "softlabel", "regions", "stack"])
def test_a_misspelt_config_key_exits_1_naming_it_before_any_read(
        grids, tmp_path, capsys, monkeypatch, command):
    import cordpipe.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a volume was read before the config keys were checked")

    monkeypatch.setattr(cli, "_load_volume", must_not_run)
    monkeypatch.setattr(cli, "_read_chunks", must_not_run)
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("preprocess.stretch.p_high = 70\npreprocess.strech.p_low = 5\n")
    out = tmp_path / "o.nii"
    argv = [grids.get(a, a) for a in command] + ["--config", str(cfg)]
    assert main([str(out) if a == "o.nii" else a for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ConfigError "), err
    assert "preprocess.strech.p_low" in err[0] and str(cfg) in err[0]
    assert "p_high" not in err[0]
    assert not out.exists()


def test_one_config_file_serves_every_subcommand(grids, tmp_path):
    # keys another subcommand reads, and keys of a stage that is off, are
    # not errors: the stretch-only preprocess equals the one without a config
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("preprocess.clahe.tiles = 4,4\n"
                   "preprocess.clahe.clip = 2\n"
                   "softlabel.profile = soft3\n"
                   "softlabel.lesion_gm.weight = 0.3\n"
                   "merge.tissue_thresh = 0.4\n"
                   "tta.flips = identity,flip-x\n")
    plain, with_cfg = tmp_path / "plain.nii", tmp_path / "cfg.nii"
    assert main(["preprocess", grids["mag"], "--stretch", "--out", str(plain)]) == 0
    assert main(["preprocess", grids["mag"], "--stretch", "--config", str(cfg),
                 "--out", str(with_cfg)]) == 0
    assert with_cfg.read_bytes() == plain.read_bytes()
    assert main(["stack", "--predictor", "mock", "--input", grids["mag"], "--phase",
                 grids["phase"], "--fit-labels", grids["labels"], "--config", str(cfg),
                 "--out", str(tmp_path / "pseudo.nii")]) == 0


@pytest.mark.parametrize("source", ["config", "flag"])
def test_a_bad_clahe_clip_names_its_setting(grids, tmp_path, capsys, source):
    argv = ["preprocess", grids["mag"], "--clahe", "--out", str(tmp_path / "o.nii")]
    if source == "config":
        cfg = tmp_path / "clip.cfg"
        cfg.write_text("preprocess.clahe.clip = 2\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--clahe-clip", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "kind=ConfigError" in err
    assert "preprocess.clahe.clip or --clahe-clip" in err


# ---------------------------------------------------------------------------
# Config grammar and value types


def test_config_grammar_comments_blanks_quotes_and_booleans():
    text = ("# a comment-only line\n"
            "\n"
            "   \n"
            "preprocess.otsu = TRUE  # an inline comment\n"
            "preprocess.zscore = fAlSe\n"
            "preprocess.clahe.enabled = True\n"
            "softlabel.profile = 'soft3'\n"
            'merge.tissue_thresh = "0.4"\n'
            "preprocess.clahe.tiles = 4, 4\n")
    assert parse_config_text(text) == {
        "preprocess.otsu": True, "preprocess.zscore": False,
        "preprocess.clahe.enabled": True, "softlabel.profile": "soft3",
        "merge.tissue_thresh": "0.4", "preprocess.clahe.tiles": (4, 4)}


@pytest.mark.parametrize("line", ["= 5", "preprocess.otsu =", "  =  # nothing"])
def test_config_empty_key_or_value_exits_1_naming_the_line(grids, tmp_path, capsys, line):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"preprocess.otsu = true\n{line}\n")
    out = tmp_path / "o.nii"
    assert main(["preprocess", grids["mag"], "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ConfigError "), err
    assert "line 2: empty key or value" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    (["preprocess", "mag"], "preprocess.otsu = 1"),
    (["preprocess", "mag", "--clahe"], "preprocess.clahe.bins = 64.0"),
    (["preprocess", "mag"], "preprocess.stretch.p_low = low"),
    (["preprocess", "mag"], "preprocess.zscore = 'true'"),
    (["softlabel", "labels"], "softlabel.profile = 3"),
    (["softlabel", "labels"], "softlabel.lesion_wm.kernel = 3.0"),
], ids=["bool-as-int", "int-as-float", "float-as-text", "bool-as-quoted-text",
        "text-as-int", "kernel-as-float"])
def test_a_config_value_of_the_wrong_type_exits_1_naming_the_key(
        grids, tmp_path, capsys, command, line):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [grids.get(a, a) for a in command] + ["--config", str(cfg)]
    argv += ["--out-dir" if command[0] == "softlabel" else "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cordpipe-error kind=ConfigError "), err
    assert f'msg="{line.split(" = ")[0]} must be ' in err[0]
    assert not out.exists()
