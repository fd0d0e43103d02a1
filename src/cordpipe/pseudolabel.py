"""Stage-2 machinery: slice predictors, test-time augmentation,
cross-fold ensembling and stacking 2D predictions into dense volumes.

The trained network lives behind the :class:`SlicePredictor` seam; the
shipped :class:`MockPredictor` is a deterministic rule-based stand-in so
the full pipeline runs without model weights, and
:class:`SubprocessPredictor` wraps any external model as a command that
exchanges NIfTI files.
"""

from __future__ import annotations

import concurrent.futures
import os
import subprocess
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, ValidationError
from .nifti import read_nifti, write_nifti
from .regions import RegionStack
from .volume import (
    FOREGROUND_CLASSES,
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
    MAGNITUDE,
    PHASE,
    LabelVolume,
    ScalarVolume,
    Spacing,
)
from .metrics import inter_slice_dice

FLIP_NAMES = ("identity", "flip-x", "flip-y", "flip-xy")


class SlicePredictor(ABC):
    """Maps one axial slice (magnitude plus optional phase) to region
    probability planes. Implementations must be deterministic for fixed
    inputs and declare whether concurrent calls are safe."""

    thread_safe: bool = True

    @abstractmethod
    def predict(self, magnitude: np.ndarray,
                phase: np.ndarray | None = None) -> RegionStack:
        ...


class MockPredictor(SlicePredictor):
    """Pixel-wise nearest-centroid classifier over (magnitude, phase).

    Being a pure per-pixel rule it is exactly equivariant under axis
    flips, which makes TTA a no-op on its outputs. Centers can come
    from a phantom intensity model or be fitted from a labeled pair.
    """

    thread_safe = True

    def __init__(self, centers: dict):
        # centers: class id -> (magnitude mean, phase mean); must cover
        # background plus the four foreground classes.
        missing = {0, *FOREGROUND_CLASSES} - set(centers)
        if missing:
            raise ValidationError(f"mock predictor centers missing classes {sorted(missing)}")
        self.centers = {int(c): (float(m), float(p)) for c, (m, p) in centers.items()}

    @classmethod
    def fit(cls, magnitude: ScalarVolume, phase: ScalarVolume,
            labels: LabelVolume) -> "MockPredictor":
        """Estimate per-class channel means from a labeled volume pair."""
        centers = {}
        for cid in (0, *FOREGROUND_CLASSES):
            sel = labels.data == cid
            if not sel.any():
                raise ValidationError(f"cannot fit centers: class {cid} absent")
            centers[cid] = (float(magnitude.data[sel].mean()),
                            float(phase.data[sel].mean()))
        return cls(centers)

    def predict(self, magnitude: np.ndarray,
                phase: np.ndarray | None = None) -> RegionStack:
        mag = np.asarray(magnitude, dtype=np.float64)
        phs = np.zeros_like(mag) if phase is None else np.asarray(phase, dtype=np.float64)
        if phs.shape != mag.shape:
            raise DimensionError("magnitude and phase planes disagree on shape")
        ids = sorted(self.centers)
        d2 = np.stack([(mag - self.centers[c][0]) ** 2 + (phs - self.centers[c][1]) ** 2
                       for c in ids])
        cls_map = np.asarray(ids)[np.argmin(d2, axis=0)]
        wm = np.isin(cls_map, (HEALTHY_WM, LESION_WM)).astype(np.float32)
        gm = np.isin(cls_map, (HEALTHY_GM, LESION_GM)).astype(np.float32)
        lesion = np.isin(cls_map, (LESION_WM, LESION_GM)).astype(np.float32)
        return RegionStack(wm, gm, lesion)


@dataclass(frozen=True)
class TtaConfig:
    """Axis-flip test-time augmentation; the identity is always included
    and predictions are averaged in probability space."""

    transforms: tuple[str, ...] = FLIP_NAMES

    def __post_init__(self):
        unknown = set(self.transforms) - set(FLIP_NAMES)
        if unknown:
            raise ValidationError(f"unknown TTA transforms {sorted(unknown)}")
        if "identity" not in self.transforms:
            raise ValidationError("TTA transform set must include the identity")
        if len(set(self.transforms)) != len(self.transforms):
            raise ValidationError("duplicate TTA transform")


def _flip(plane: np.ndarray, name: str) -> np.ndarray:
    if name == "identity":
        return plane
    if name == "flip-x":
        return plane[::-1, :]
    if name == "flip-y":
        return plane[:, ::-1]
    return plane[::-1, ::-1]


def predict_with_tta(predictor: SlicePredictor, magnitude: np.ndarray,
                     phase: np.ndarray | None = None,
                     cfg: TtaConfig = TtaConfig()) -> RegionStack:
    """Average predictions over flipped inputs, un-flipping each output.

    Axis flips are involutions, so the inverse transform is the flip
    itself.
    """
    shape = np.asarray(magnitude).shape
    acc = None
    for name in cfg.transforms:
        m = _flip(np.asarray(magnitude), name)
        p = None if phase is None else _flip(np.asarray(phase), name)
        stack = predictor.predict(m, p)
        if stack.shape != shape:
            raise DimensionError(
                f"predictor returned shape {stack.shape}, expected {shape}"
            )
        planes = [_flip(ch, name) for ch in stack.channels()]
        if acc is None:
            acc = [ch.astype(np.float64).copy() for ch in planes]
        else:
            for a, ch in zip(acc, planes):
                a += ch
    n = len(cfg.transforms)
    return RegionStack(*(a / n for a in acc))


def ensemble(stacks: list[RegionStack]) -> RegionStack:
    """Voxel-wise arithmetic mean of region stacks (fold ensembling)."""
    if not stacks:
        raise ValidationError("cannot ensemble an empty list")
    shape = stacks[0].shape
    for s in stacks[1:]:
        if s.shape != shape:
            raise DimensionError(f"stack shapes disagree: {s.shape} vs {shape}")
    n = len(stacks)
    return RegionStack(
        sum(s.wm.astype(np.float64) for s in stacks) / n,
        sum(s.gm.astype(np.float64) for s in stacks) / n,
        sum(s.lesion.astype(np.float64) for s in stacks) / n,
    )


def stack_slices(plane_stacks: dict[int, RegionStack] | list[tuple[int, RegionStack]],
                 z_extent: int) -> RegionStack:
    """Assemble per-slice region planes into one (H, W, Z) stack.

    Every z in [0, z_extent) must appear exactly once.
    """
    if not isinstance(plane_stacks, dict):
        items = list(plane_stacks)
        seen = [z for z, _ in items]
        if len(set(seen)) != len(seen):
            dup = sorted({z for z in seen if seen.count(z) > 1})
            raise ValidationError(f"duplicate slice index {dup}")
        plane_stacks = dict(items)
    missing = [z for z in range(z_extent) if z not in plane_stacks]
    if missing:
        raise ValidationError(f"missing slice indices {missing[:8]}")
    extra = [z for z in plane_stacks if not 0 <= z < z_extent]
    if extra:
        raise ValidationError(f"slice indices outside [0, {z_extent}): {sorted(extra)[:8]}")

    first = plane_stacks[0]
    if first.wm.ndim != 2:
        raise DimensionError("stack_slices expects 2D per-slice region stacks")
    h, w = first.shape
    wm = np.empty((h, w, z_extent), dtype=np.float32)
    gm = np.empty_like(wm)
    lesion = np.empty_like(wm)
    for z in range(z_extent):
        s = plane_stacks[z]
        if s.shape != (h, w):
            raise DimensionError(f"slice {z} has shape {s.shape}, expected {(h, w)}")
        wm[:, :, z] = s.wm
        gm[:, :, z] = s.gm
        lesion[:, :, z] = s.lesion
    return RegionStack(wm, gm, lesion)


def thread_map(fn, items, threads: int | None) -> list:
    """``[fn(x) for x in items]``, in input order, on up to ``threads``
    threads; the ``CORDPIPE_THREADS`` environment variable caps the count.
    """
    cap = os.environ.get("CORDPIPE_THREADS")
    n = threads if threads and threads > 0 else 1
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ValidationError(f"CORDPIPE_THREADS is not an integer: {cap!r}")
    if n == 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def predict_volume(predictor: SlicePredictor, magnitude: ScalarVolume,
                   phase: ScalarVolume | None = None,
                   tta: TtaConfig | None = None,
                   threads: int | None = None) -> RegionStack:
    """Run a slice predictor over every axial slice of a volume.

    Slices are independent work units; with a thread-safe predictor they
    may run concurrently, and assembly by z index keeps the result
    identical to the serial order either way. Without ``tta`` each slice
    is predicted once, through the identity-only TTA path.
    """
    if phase is not None and phase.dims != magnitude.dims:
        raise DimensionError("magnitude and phase volumes disagree on dims")
    z_extent = magnitude.dims[2]
    cfg = TtaConfig(("identity",)) if tta is None else tta

    def run(z: int) -> RegionStack:
        p = None if phase is None else phase.data[:, :, z]
        return predict_with_tta(predictor, magnitude.data[:, :, z], p, cfg)

    results = thread_map(run, range(z_extent), threads if predictor.thread_safe else 1)
    return stack_slices(dict(enumerate(results)), z_extent)


def jitter_score(labels: LabelVolume) -> dict[int, float | None]:
    """Per-foreground-class inter-slice Dice of one volume.

    Low values flag the high-frequency jitter typical of naively stacked
    2D predictions; smooth volumes sit near 1.
    """
    return {cid: inter_slice_dice(labels, cid) for cid in FOREGROUND_CLASSES}


@dataclass
class SubprocessPredictor(SlicePredictor):
    """Bridge to an external model via the file-exchange protocol.

    For each slice the pipeline writes ``mag.nii`` and ``phase.nii``
    (float32, single-slice volumes) into a fresh temp directory, runs
    ``command + [mag_path, phase_path, out_path]``, and reads back
    ``out.nii``: a (H, W, 3) float32 NIfTI whose three planes are the
    wm, gm and lesion probabilities.
    """

    command: list[str]
    spacing: Spacing = field(default_factory=Spacing.isotropic)
    timeout: float = 120.0
    thread_safe: bool = False

    def predict(self, magnitude: np.ndarray,
                phase: np.ndarray | None = None) -> RegionStack:
        mag = np.asarray(magnitude, dtype=np.float32)
        phs = np.zeros_like(mag) if phase is None else np.asarray(phase, dtype=np.float32)
        with tempfile.TemporaryDirectory(prefix="cordpipe-pred-") as tmp:
            mag_path = os.path.join(tmp, "mag.nii")
            phase_path = os.path.join(tmp, "phase.nii")
            out_path = os.path.join(tmp, "out.nii")
            for path, plane in ((mag_path, mag), (phase_path, phs)):
                vol = ScalarVolume(plane[:, :, None], self.spacing,
                                   MAGNITUDE if path == mag_path else PHASE)
                with open(path, "wb") as fh:
                    fh.write(write_nifti(vol))
            proc = subprocess.run(self.command + [mag_path, phase_path, out_path],
                                  capture_output=True, timeout=self.timeout)
            if proc.returncode != 0:
                raise ValidationError(
                    f"predictor command failed ({proc.returncode}): "
                    f"{proc.stderr.decode(errors='replace').strip()[:500]}"
                )
            try:
                with open(out_path, "rb") as fh:
                    out = read_nifti(fh.read())
            except FileNotFoundError:
                raise FormatError("predictor command produced no output file")
        if out.dims[:2] != mag.shape or out.dims[2] != 3:
            raise DimensionError(
                f"predictor output dims {out.dims}, expected {mag.shape + (3,)}"
            )
        probs = np.clip(out.data, 0.0, 1.0)
        return RegionStack(probs[:, :, 0], probs[:, :, 1], probs[:, :, 2])
