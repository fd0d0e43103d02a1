"""Command-line pipeline orchestration.

Subcommands mirror the library stages: ``preprocess``, ``softlabel``,
``regions``, ``stack``, ``evaluate`` and ``phantom``. Every command is a
pure function of (inputs, config, seed); artifacts carry no timestamps,
so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 validation error, 2 I/O or format error.
Errors print to stderr as single-line machine-parseable records.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import sys
import tempfile

import numpy as np

from .config import get_typed, load_config
from .errors import ConfigError, FormatError, ValidationError
from .metrics import evaluate, fold_aggregate, report_to_csv
from .nifti import (
    SparseAnnotation,
    gzip_nifti,
    parse_sidecar,
    read_nifti,
    read_sparse_annotation,
    write_nifti,
    write_sparse_annotation,
)
from .phantom import PhantomConfig, generate
from .preprocess import (
    ClaheConfig,
    StretchConfig,
    apply_mask,
    clahe_slicewise,
    minmax_rescale,
    otsu_mask,
    percentile_stretch,
    zscore_normalize,
)
from .pseudolabel import (
    MockPredictor,
    SubprocessPredictor,
    TtaConfig,
    _mean,
    _region_planes,
    predict_labels,
    thread_map,
)
from .regions import RegionStack, check_thresholds, merge_region_arrays, merge_regions, to_regions
from .softlabel import PROFILES as SOFT_PROFILES
from .softlabel import SoftProfile, soften
from .volume import CLASS_NAMES, FOREGROUND_CLASSES, LabelVolume, ScalarVolume, _on_grid


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}", path) from exc


def _umask() -> int:
    mask = os.umask(0o077)  # the only way to read it; restored at once
    os.umask(mask)
    return mask


def _write_atomic(path: str, data: bytes, dry_run: bool = False) -> None:
    if dry_run:
        return
    dirname = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(dirname, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".cordpipe-tmp-")
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # named by its destination, never the temp file
            raise FormatError(f"cannot write {path}: {exc.strerror or exc}", path) from exc
        raise


def _write_volume(path: str, vol, dry_run: bool = False) -> None:
    raw = write_nifti(vol)
    if path.endswith(".gz"):
        raw = gzip_nifti(raw)
    _write_atomic(path, raw, dry_run)


def _load_volume(path: str, labels: bool = False):
    raw = _read_file(path)
    try:
        return read_nifti(raw, labels=labels)
    except FormatError as exc:
        raise type(exc)(f"{path}: {exc}", path) from exc


def _load_on_grid(path: str, ref_path: str, ref, labels: bool = False):
    """Load a voxel-wise input on the grid of ``ref`` (``volume._on_grid``)."""
    vol = _load_volume(path, labels)
    try:
        _on_grid(vol, ref)
    except ValidationError as exc:
        raise type(exc)(f"{path} vs {ref_path}: {exc}") from exc
    return vol


def _err_record(exc: Exception, path: str | None = None) -> str:
    where = f" file={path}" if path else ""
    msg = json.dumps(str(exc), ensure_ascii=False)  # one line, and parses back
    return f"cordpipe-error kind={type(exc).__name__}{where} msg={msg}"


# Every config key a subcommand reads, with its value type. A key that is
# not here is a ConfigError; one read only by another subcommand, or by a
# stage that is off, is not.
_CONFIG_KEYS = {
    "preprocess.otsu": bool,
    "preprocess.stretch.p_low": float,
    "preprocess.stretch.p_high": float,
    "preprocess.clahe.enabled": bool,
    "preprocess.clahe.tiles": tuple,
    "preprocess.clahe.clip": float,
    "preprocess.clahe.bins": int,
    "preprocess.zscore": bool,
    "softlabel.profile": str,
    **{f"softlabel.{CLASS_NAMES[c]}.{part}": kind for c in FOREGROUND_CLASSES
       for part, kind in (("weight", float), ("kernel", int))},
    "merge.tissue_thresh": float,
    "merge.lesion_thresh": float,
    "tta.flips": tuple,
}


def _config(cfg: dict, key: str, default=None):
    """Config ``key`` as the type ``_CONFIG_KEYS`` gives it, else ``default``."""
    return get_typed(cfg, key, _CONFIG_KEYS[key], default)


def _setting(args, cfg: dict, flag: str, key: str, default=None):
    """The value of flag ``flag`` if given, else config ``key``, else ``default``."""
    value = getattr(args, flag, None)
    return value if value is not None else _config(cfg, key, default)


def _given(**kwargs) -> dict:
    """The keyword arguments a flag or config key set; the rest keep their
    dataclass defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


# ---------------------------------------------------------------------------
# preprocess


def _cmd_preprocess(args, cfg: dict) -> int:
    use_otsu = _setting(args, cfg, "otsu", "preprocess.otsu", False)
    p_low = _setting(args, cfg, "stretch_low", "preprocess.stretch.p_low")
    p_high = _setting(args, cfg, "stretch_high", "preprocess.stretch.p_high")
    stretch = None
    if args.stretch or p_low is not None or p_high is not None:
        stretch = StretchConfig(**_given(p_low=p_low, p_high=p_high))
    clahe = None
    if _setting(args, cfg, "clahe", "preprocess.clahe.enabled", False):
        given = _given(tiles=_setting(args, cfg, "clahe_tiles", "preprocess.clahe.tiles"),
                       clip_limit=_setting(args, cfg, "clahe_clip", "preprocess.clahe.clip"),
                       bins=_setting(args, cfg, "clahe_bins", "preprocess.clahe.bins"))
        try:
            clahe = ClaheConfig(**given)
        except ConfigError as exc:
            # ClaheConfig names the field first, e.g. "tiles must be ...";
            # the clip limit's setting is called clip
            where = "; set by preprocess.clahe.clip or --clahe-clip" \
                if str(exc).startswith("clip_limit") else ""
            raise ConfigError(f"preprocess.clahe.{exc}{where}") from exc
    use_zscore = _setting(args, cfg, "zscore", "preprocess.zscore", False)

    vol = _load_volume(args.input)

    mask = None
    if use_otsu:
        mask = otsu_mask(vol if args.mask_from is None else
                         _load_on_grid(args.mask_from, args.input, vol)).mask
        vol = apply_mask(vol, mask)  # the unmasked input is freed here

    if stretch is not None:
        vol = percentile_stretch(vol, stretch, mask=mask)

    if clahe is not None:
        if vol.data.min() < 0 or vol.data.max() > 1:
            vol = minmax_rescale(vol)
        vol = clahe_slicewise(vol, clahe)

    if use_zscore:
        vol = zscore_normalize(vol, mask=mask)

    _write_volume(args.out, vol, args.dry_run)
    print(f"preprocess ok in={args.input} out={args.out} "
          f"otsu={int(use_otsu)} stretch={int(stretch is not None)} "
          f"clahe={int(clahe is not None)} zscore={int(use_zscore)}")
    return 0


# ---------------------------------------------------------------------------
# softlabel


def _cmd_softlabel(args, cfg: dict) -> int:
    name = _setting(args, cfg, "profile", "softlabel.profile", "soft2")
    base = SOFT_PROFILES.get(name)
    if base is None:
        raise ValidationError(f"unknown soft profile {name!r}; "
                              f"choose from {sorted(SOFT_PROFILES)}")
    # per-class config overrides such as softlabel.lesion_gm.weight
    profile = SoftProfile(
        {c: _config(cfg, f"softlabel.{CLASS_NAMES[c]}.weight", w)
         for c, w in base.weights.items()},
        {c: _config(cfg, f"softlabel.{CLASS_NAMES[c]}.kernel", k)
         for c, k in base.kernels.items()})
    labels = _load_volume(args.input, labels=True)
    soft = soften(labels, profile)
    for cid in FOREGROUND_CLASSES:
        out = ScalarVolume(soft.class_channel(cid), labels.spacing)
        path = os.path.join(args.out_dir, f"soft_{CLASS_NAMES[cid]}.nii.gz")
        _write_volume(path, out, args.dry_run)
    print(f"softlabel ok in={args.input} profile={name} out_dir={args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# regions


def _merge_thresholds(args, cfg: dict) -> tuple[float, float]:
    """The merge thresholds from flags or config, checked before any read."""
    pair = tuple(_setting(args, cfg, name, f"merge.{name}", 0.5)
                 for name in ("tissue_thresh", "lesion_thresh"))
    check_thresholds(*pair)
    return pair


def _cmd_regions(args, cfg: dict) -> int:
    needed = ({"input": "INPUT", "out_dir": "--out-dir"} if args.mode == "split" else
              {"wm": "--wm", "gm": "--gm", "lesion": "--lesion", "out": "--out"})
    missing = [flag for dest, flag in needed.items() if getattr(args, dest) is None]
    if missing:
        raise ValidationError(f"regions {args.mode} needs {' and '.join(missing)}")
    if args.mode == "split":
        labels = _load_volume(args.input, labels=True)
        stack = to_regions(labels)
        for name, grid in (("wm", stack.wm), ("gm", stack.gm), ("lesion", stack.lesion)):
            _write_volume(os.path.join(args.out_dir, f"region_{name}.nii.gz"),
                          ScalarVolume(grid, labels.spacing), args.dry_run)
        print(f"regions split ok in={args.input} out_dir={args.out_dir}")
        return 0

    tissue_thresh, lesion_thresh = _merge_thresholds(args, cfg)
    wm = _load_volume(args.wm)
    gm = _load_on_grid(args.gm, args.wm, wm)
    lesion = _load_on_grid(args.lesion, args.wm, wm)
    stack = RegionStack(wm.data, gm.data, lesion.data)
    merged = merge_regions(stack, wm.spacing, tissue_thresh, lesion_thresh)
    _write_volume(args.out, merged, args.dry_run)
    print(f"regions merge ok out={args.out} tissue_thresh={tissue_thresh} "
          f"lesion_thresh={lesion_thresh}")
    return 0


# ---------------------------------------------------------------------------
# stack


def _slice_files(path: str) -> list[str]:
    """The slice files of a fold directory in z order, from their names
    alone: the last run of digits in a name is its slice index, and the
    indices must run 0..Z-1 once each."""
    by_z = {}
    for stem, file in _nifti_stems(path).items():
        runs = re.findall(r"\d+", stem)
        if not runs:
            raise ValidationError(f"cannot parse slice index from file name {file!r}")
        z = int(runs[-1])
        if z in by_z:
            raise ValidationError(f"duplicate slice index {z} in {path}")
        by_z[z] = file
    if not by_z:
        raise ValidationError(f"no NIfTI slices found in {path}")
    missing = [z for z in range(len(by_z)) if z not in by_z]
    if missing:
        raise ValidationError(f"fold {path}: missing slice indices {missing[:8]} "
                              f"of 0..{len(by_z) - 1}")
    return [by_z[z] for z in range(len(by_z))]


def _stack_folds(folds: list[list[str]], tissue_thresh: float,
                 lesion_thresh: float) -> LabelVolume:
    """Merged labels of the fold mean of slice files listed per fold in z
    order, read one z at a time: each file is read once, checked against
    the first, and its planes averaged by ``_mean`` with the other folds'."""
    first = folds[0][0]
    ref = _load_volume(first)
    labels = np.empty(ref.dims[:2] + (len(folds[0]),), np.uint8, order="F")
    for z in range(len(folds[0])):
        planes = []
        for files in folds:
            vol = ref if files[z] == first else _load_on_grid(files[z], first, ref)
            try:
                planes.append(_region_planes(vol).channels())
            except ValidationError as exc:
                raise type(exc)(f"{files[z]}: {exc}") from exc
        labels[:, :, z] = merge_region_arrays(*_mean(planes, len(planes)),
                                              tissue_thresh, lesion_thresh)
    return LabelVolume(labels, ref.spacing)


def _predictor_command(text: str) -> list[str]:
    """Split a ``cmd:`` predictor command the way a POSIX shell would."""
    try:
        command = shlex.split(text)
    except ValueError as exc:
        raise ConfigError(f"--predictor cmd:{text}: {exc}") from exc
    if not command or not command[0]:
        raise ConfigError("--predictor cmd: needs a command to run")
    return command


def _cmd_stack(args, cfg: dict) -> int:
    tissue_thresh, lesion_thresh = _merge_thresholds(args, cfg)

    if args.predictor:
        # every predictor flag is checked before any input is read
        if args.slice_dirs:
            raise ValidationError(f"--predictor takes no slice directories, got "
                                  f"{' '.join(args.slice_dirs)}")
        if args.predictor.startswith("cmd:"):
            command = _predictor_command(args.predictor[4:])
            if args.fit_labels:
                raise ValidationError("--predictor cmd: does not read --fit-labels")
        elif args.predictor != "mock":
            raise ValidationError(f"unknown predictor {args.predictor!r}")
        elif not args.fit_labels:
            raise ValidationError("mock predictor needs --fit-labels <labels.nii>")
        elif not args.phase:
            raise ValidationError("mock predictor needs --phase")
        if not args.input:
            raise ValidationError("--predictor mode needs --input <magnitude.nii>")
        tta = None
        if args.tta:
            tta = TtaConfig(**_given(transforms=_config(cfg, "tta.flips")))
        mag = _load_volume(args.input)
        phase = _load_on_grid(args.phase, args.input, mag) if args.phase else None
        if args.predictor == "mock":
            predictor = MockPredictor.fit(
                mag, phase, _load_on_grid(args.fit_labels, args.input, mag, labels=True))
        else:
            predictor = SubprocessPredictor(command, spacing=mag.spacing)
        labels = predict_labels(predictor, mag, phase, tta=tta, threads=args.threads,
                                tissue_thresh=tissue_thresh, lesion_thresh=lesion_thresh)
    else:
        if not args.slice_dirs:
            raise ValidationError("stack needs slice directories or --predictor")
        unread = [f"--{f}" for f in ("input", "phase", "fit-labels", "tta", "threads")
                  if getattr(args, f.replace("-", "_"))]
        if unread:
            raise ValidationError(f"slice directories do not read {' or '.join(unread)}")
        folds = [_slice_files(d) for d in args.slice_dirs]
        for d, files in zip(args.slice_dirs, folds):
            if len(files) != len(folds[0]):
                raise ValidationError(f"fold {d} has {len(files)} slices, "
                                      f"fold {args.slice_dirs[0]} has {len(folds[0])}")
        labels = _stack_folds(folds, tissue_thresh, lesion_thresh)

    _write_volume(args.out, labels, args.dry_run)
    print(f"stack ok out={args.out} dims={labels.dims}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _load_sidecar(path: str) -> SparseAnnotation:
    """Read a sidecar and the planes file it names (relative to its folder)."""
    sidecar = _read_file(path)
    try:
        doc = parse_sidecar(sidecar)
        planes_path = os.path.join(os.path.dirname(os.path.abspath(path)), doc["planes_nifti"])
        return read_sparse_annotation(sidecar, _read_file(planes_path))
    except FormatError as exc:
        raise type(exc)(f"{path}: {exc}", exc.path or path) from exc


def _evaluate_one(pred_path: str, gt_path: str, volume_id: str):
    """Score one prediction file against one ground-truth file; a
    validation error names the volume and both files."""
    try:
        pred = _load_volume(pred_path, labels=True)
        gt = _load_sidecar(gt_path) if gt_path.endswith(".json") else \
            _load_volume(gt_path, labels=True)
        return evaluate(pred, gt, volume_id=volume_id)
    except ValidationError as exc:
        raise type(exc)(f"volume {volume_id} (pred {pred_path}, gt {gt_path}): {exc}") from exc


def _nifti_stems(path: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith((".nii", ".nii.gz")):
            continue
        stem = re.sub(r"\.nii(\.gz)?\Z", "", name)
        if stem in out:
            raise ValidationError(
                f"{out[stem]} and {os.path.join(path, name)} both hold volume {stem!r}"
            )
        out[stem] = os.path.join(path, name)
    return out


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_reports(args, reports: list, doc: dict) -> None:
    """Write the JSON document and the CSV table that --json and --csv name."""
    if args.json:
        _write_atomic(args.json, _json_text(doc).encode(), args.dry_run)
    if args.csv:
        _write_atomic(args.csv, report_to_csv(reports).encode(), args.dry_run)


def _cmd_evaluate_batch(args) -> int:
    preds = _nifti_stems(args.pred)
    gts = _nifti_stems(args.gt)
    stems = sorted(set(preds) & set(gts))
    if not stems:
        raise ValidationError(f"no matching volume names between {args.pred} and {args.gt}")
    reports = thread_map(lambda stem: _evaluate_one(preds[stem], gts[stem], stem),
                         stems, args.threads)
    _write_reports(args, reports, {"volumes": [r.to_json_dict() for r in reports],
                                   "aggregate": fold_aggregate(reports).to_json_dict()})
    print(f"evaluate ok batch={len(reports)} pred_dir={args.pred}")
    return 0


def _cmd_evaluate(args, cfg: dict) -> int:
    if os.path.isdir(args.pred) and os.path.isdir(args.gt):
        return _cmd_evaluate_batch(args)
    report = _evaluate_one(args.pred, args.gt, args.volume_id or os.path.basename(args.pred))
    doc = report.to_json_dict()
    _write_reports(args, [report], doc)
    if not args.json and not args.csv:
        sys.stdout.write(_json_text(doc))
    print(f"evaluate ok pred={args.pred} scope={report.evaluated_slices} "
          f"sparse={int(report.sparse_gt)} "
          f"mean_dice={'' if report.mean_dice is None else format(report.mean_dice, '.6f')}")
    return 0


# ---------------------------------------------------------------------------
# phantom


def _cmd_phantom(args, cfg: dict) -> int:
    mag, phs, labels = generate(PhantomConfig.fitted(args.dims, seed=args.seed))
    out = args.out_dir
    for name, vol in (("magnitude", mag), ("phase", phs), ("labels", labels)):
        _write_volume(os.path.join(out, f"{name}.nii.gz"), vol, args.dry_run)

    z_idx = list(range(0, labels.dims[2], args.annotate_every))
    ann = SparseAnnotation(f"phantom-{args.seed}", z_idx, labels.data[:, :, z_idx])
    sidecar, planes_nii = write_sparse_annotation(ann, "annotation_planes.nii.gz",
                                                  labels.spacing)
    _write_atomic(os.path.join(out, "annotation.json"), sidecar, args.dry_run)
    _write_atomic(os.path.join(out, "annotation_planes.nii.gz"),
                  gzip_nifti(planes_nii), args.dry_run)
    print(f"phantom ok seed={args.seed} dims={labels.dims} out_dir={out} "
          f"annotated={len(z_idx)}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cordpipe",
        description="Sparse-to-dense spinal cord segmentation pipeline tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dry_run = argparse.ArgumentParser(add_help=False)
    dry_run.add_argument("--dry-run", action="store_true")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config")

    p = sub.add_parser("preprocess", parents=[config, dry_run],
                       help="mask, stretch, CLAHE and normalize a volume")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--otsu", action="store_true", default=None)
    p.add_argument("--mask-from", help="compute the Otsu mask from this magnitude volume")
    p.add_argument("--stretch", action="store_true")
    p.add_argument("--stretch-low", type=float)
    p.add_argument("--stretch-high", type=float)
    p.add_argument("--clahe", action="store_true", default=None)
    p.add_argument("--clahe-tiles", type=int, nargs=2, metavar=("TX", "TY"))
    p.add_argument("--clahe-clip", type=float)
    p.add_argument("--clahe-bins", type=int)
    p.add_argument("--zscore", action="store_true", default=None)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("softlabel", parents=[config, dry_run],
                       help="generate boundary-uncertainty soft targets")
    p.add_argument("input")
    p.add_argument("--profile", help="soft1|soft2|soft3 (default from config or soft2)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_softlabel)

    p = sub.add_parser("regions", parents=[config, dry_run],
                       help="split labels into regions or merge regions back")
    p.add_argument("mode", choices=["split", "merge"])
    p.add_argument("input", nargs="?")
    p.add_argument("--out-dir")
    p.add_argument("--wm")
    p.add_argument("--gm")
    p.add_argument("--lesion")
    p.add_argument("--out")
    p.add_argument("--tissue-thresh", type=float)
    p.add_argument("--lesion-thresh", type=float)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("stack", parents=[config, dry_run],
                       help="assemble per-slice predictions into dense labels")
    p.add_argument("slice_dirs", nargs="*",
                   help="directories of per-slice 3-channel NIfTIs; several = ensemble")
    p.add_argument("--predictor", help="'mock' or 'cmd:<command...>'")
    p.add_argument("--input", help="magnitude volume for --predictor mode")
    p.add_argument("--phase")
    p.add_argument("--fit-labels", help="labels used to calibrate the mock predictor")
    p.add_argument("--tta", action="store_true")
    p.add_argument("--threads", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("evaluate", parents=[dry_run],
                       help="score predictions against ground truth")
    p.add_argument("pred", help="labels NIfTI, or a directory for batch mode")
    p.add_argument("gt", help="dense labels NIfTI, sparse sidecar JSON, or a "
                               "directory matching pred by file name")
    p.add_argument("--volume-id")
    p.add_argument("--csv")
    p.add_argument("--json")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("phantom", parents=[dry_run],
                       help="generate a synthetic cord phantom triplet")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs=3, default=[64, 64, 64])
    p.add_argument("--annotate-every", type=int, default=8)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_phantom)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("threads", "annotate_every"):  # counts, checked before any file
            if (count := getattr(args, name, None)) is not None and count < 1:
                raise ValidationError(f"--{name.replace('_', '-')} must be at least 1, got {count}")
        config = getattr(args, "config", None)
        cfg = load_config(_read_file(config), config) if config else {}
        unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys in {config}: {', '.join(unknown)}")
        return args.func(args, cfg)
    except (FormatError, OSError) as exc:
        path = getattr(exc, "path", None) or getattr(exc, "filename", None)
        print(_err_record(exc, path), file=sys.stderr)
        return 2
    except (ValidationError, ConfigError) as exc:
        print(_err_record(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
