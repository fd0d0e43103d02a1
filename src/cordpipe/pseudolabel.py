"""Stage-2 machinery: slice predictors, test-time augmentation,
cross-fold ensembling and stacking 2D predictions into dense volumes.

The trained network lives behind the :class:`SlicePredictor` seam; the
shipped :class:`MockPredictor` is a deterministic rule-based stand-in so
the full pipeline runs without model weights, and
:class:`SubprocessPredictor` wraps any external model as a command that
exchanges NIfTI files.

:func:`predict_volume` walks a volume in z-chunks of about
``_CHUNK_VOXELS`` voxels. Each chunk is an (H, W, n) block that goes
through one TTA loop: flip, ``predict_batch``, un-flip, and the mean of
:func:`_mean` (as for folds), written into the chunk's slices of three
float32 volumes. :func:`predict_labels` shares that chunk walk but
merges each chunk's channels straight into a uint8 label volume, so the
whole-volume probabilities are never held. The walk takes its chunks
from an iterator, so ``stack --predictor`` feeds it chunks read from
its files and holds only the uint8 labels and up to ``--threads``
chunks. :meth:`MockPredictor.fit` makes each center the exact mean of
its class's values (:func:`_fit_centers`), which the same files give
in two passes over their z-chunks.
:func:`predict_with_tta` runs a single plane through the same loop as a
one-slice block. A predictor that declares ``flip_equivariant`` gets
only the identity pass, which is exact: its flipped passes would give
equal values, whose mean is that value. A single pass (identity-only
TTA, or a flip-equivariant predictor) skips the float64 sum and hands
on the predictor's float32 channels without a copy.
:class:`MockPredictor` walks each block with one buffered ``np.nditer``
in float64 buffers of ``volume._BLOCK_VOXELS``, so its float64 distance
grids are cache-sized scratch rather than per-chunk temporaries.
:func:`stack_slices` assembles per-slice predictions into x-fastest
volumes with the plane loop of :meth:`SlicePredictor.predict_batch`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import shlex
import subprocess
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import CordpipeError, DimensionError, FormatError, ValidationError
from .nifti import read_nifti, write_nifti
from .regions import REGION_CLASSES, RegionStack, check_thresholds, merge_region_arrays
from . import volume
from .volume import FOREGROUND_CLASSES, LabelVolume, ScalarVolume, Spacing, _blocks
from .metrics import inter_slice_dice

# Each TTA flip as the steps of its (x, y) slices; every flip is its own inverse.
_FLIP_STEPS = {"identity": (1, 1), "flip-x": (-1, 1), "flip-y": (1, -1), "flip-xy": (-1, -1)}
FLIP_NAMES = tuple(_FLIP_STEPS)

# Voxels per z-chunk of ``predict_volume`` and ``predict_labels``: 13
# slices of a 192x208 plane. Per-chunk temporaries (float32 predictions,
# float64 TTA sums, the merge's masks) are 2 and 4 MB each at this size,
# whatever the volume's z extent.
_CHUNK_VOXELS = 1 << 19

# The classes ``MockPredictor.fit`` estimates a center for, and the
# exponents ``np.frexp`` gives finite float32 values: -148 for the least
# subnormal (0.5 * 2**-148) up to 128.
_FIT_CLASSES = (0, *FOREGROUND_CLASSES)
_EXPONENTS = range(-148, 129)

# Seconds a ``SubprocessPredictor`` command may take for one slice.
_PREDICT_TIMEOUT_S = 120.0


class SlicePredictor(ABC):
    """Maps one axial slice (magnitude plus optional phase) to region
    probability planes. Implementations must be deterministic for fixed
    inputs and declare whether concurrent calls are safe.

    ``flip_equivariant`` may be True only if ``predict(flip(x))`` equals
    ``flip(predict(x))`` bit for bit for every axis flip; TTA then runs
    the identity pass alone.
    """

    thread_safe: bool = True
    flip_equivariant: bool = False

    @abstractmethod
    def predict(self, magnitude: np.ndarray,
                phase: np.ndarray | None = None) -> RegionStack:
        ...

    def predict_batch(self, magnitude: np.ndarray,
                      phase: np.ndarray | None = None) -> RegionStack:
        """Predict an (H, W, n) block of axial slices at once.

        The default calls :meth:`predict` on each slice and checks the
        shape of every plane it returns; an error names its slice.
        """
        h, w, n = magnitude.shape
        return _stack_planes(lambda z: self.predict(magnitude[:, :, z],
                                                    None if phase is None else phase[:, :, z]),
                             (h, w), n)


def _named(exc: CordpipeError, where: str) -> CordpipeError:
    """``exc`` as its type with ``where`` before its message, and its path if any."""
    return type(exc)(f"{where}: {exc}", *([exc.path] if isinstance(exc, FormatError) else []))


class MockPredictor(SlicePredictor):
    """Pixel-wise nearest-centroid classifier over (magnitude, phase).

    Being a pure per-pixel rule it is exactly equivariant under axis
    flips, so TTA runs only its identity pass, and it takes a plane or
    an (H, W, n) block alike. Centers can come from a phantom intensity
    model or be fitted from a labeled pair.
    """

    flip_equivariant = True

    def __init__(self, centers: dict):
        # centers: class id -> (magnitude mean, phase mean); must cover
        # background plus the four foreground classes.
        missing = {0, *FOREGROUND_CLASSES} - set(centers)
        if missing:
            raise ValidationError(f"mock predictor centers missing classes {sorted(missing)}")
        self.centers = {int(c): (float(m), float(p)) for c, (m, p) in centers.items()}
        if not np.isfinite(list(self.centers.values())).all():
            raise ValidationError("mock predictor centers must be finite")
        # Row i maps the i-th smallest class id to its (wm, gm, lesion) values.
        self._regions = np.array([[c in pair for pair in REGION_CLASSES]
                                  for c in sorted(self.centers)], np.float32)

    @classmethod
    def fit(cls, magnitude: ScalarVolume, phase: ScalarVolume,
            labels: LabelVolume) -> "MockPredictor":
        """Estimate per-class channel means from a labeled volume pair.

        Each center is the exact mean of its class's float32 values,
        rounded once to float64 (``_fit_centers``), so it depends neither
        on voxel order nor on the volumes' layouts: z-reversed volumes, or
        the same volumes read in z-chunks, give the same centers.
        """
        volume._on_grid(phase, magnitude)
        volume._on_grid(labels, magnitude)
        return cls(_fit_centers([labels.data], [(labels.data, magnitude.data, phase.data)]))

    def predict(self, magnitude: np.ndarray,
                phase: np.ndarray | None = None) -> RegionStack:
        """Classify every pixel of a plane or an (H, W, n) block.

        One buffered ``np.nditer`` walks both channels and the three
        float32 outputs in memory order, in float64 blocks of
        ``volume._BLOCK_VOXELS``, so the distance grids stay cache-sized.
        Each element takes the same float64 ops as a whole-array pass:
        ``(m-m0)**2 + (p-p0)**2`` per class, in class-id order, with a
        missing phase read as zeros.
        """
        mag = np.asarray(magnitude)
        if phase is None:
            phs = np.broadcast_to(np.float32(0), mag.shape)
        else:
            phs = np.asarray(phase)
            if phs.shape != mag.shape:
                raise DimensionError("magnitude and phase planes disagree on shape")
        size = min(mag.size, volume._BLOCK_VOXELS)
        d2, term, best = np.empty(size), np.empty(size), np.empty(size)
        less = np.empty(size, bool)
        nearest = np.empty(size, np.min_scalar_type(len(self.centers) - 1))  # uint8
        centers = [self.centers[c] for c in sorted(self.centers)]
        with _blocks([mag, phs, None, None, None],
                     op_flags=[["readonly"]] * 2 + [["writeonly", "allocate"]] * 3,
                     op_dtypes=[np.float64] * 2 + [np.float32] * 3) as blocks:
            for m, p, *outs in blocks:
                d, t, b, lt, near = (a[:m.size] for a in (d2, term, best, less, nearest))
                # Running argmin over classes in id order: a strict ``<`` keeps
                # the first of tied classes, as ``np.argmin`` does.
                near.fill(0)
                for i, (m0, p0) in enumerate(centers):
                    dist = b if i == 0 else d
                    np.square(np.subtract(m, m0, out=dist), out=dist)
                    np.add(dist, np.square(np.subtract(p, p0, out=t), out=t), out=dist)
                    if i:
                        np.copyto(near, i, where=np.less(d, b, out=lt))
                        np.minimum(b, d, out=b)
                for col, o in zip(self._regions.T, outs):
                    # every index is in range, so "clip" only skips the bounds check
                    np.take(col, near, out=o, mode="clip")
            return RegionStack(*blocks.operands[2:])

    def predict_batch(self, magnitude: np.ndarray,
                      phase: np.ndarray | None = None) -> RegionStack:
        return self.predict(magnitude, phase)


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
    sx, sy = _FLIP_STEPS[name]
    return plane[::sx, ::sy]


def _tta(predictor: SlicePredictor, magnitude: np.ndarray,
         phase: np.ndarray | None, cfg: TtaConfig) -> tuple[np.ndarray, ...]:
    """The TTA mean of an (H, W, n) block as three float32 arrays (wm,
    gm, lesion).

    Axis flips are involutions, so the inverse transform is the flip
    itself. The passes are averaged by :func:`_mean` in ``cfg.transforms``
    order, each added before the next is predicted; a single pass returns
    the predictor's channels as they are, without a copy.
    """
    shape = magnitude.shape
    if phase is not None and phase.shape != shape:
        raise DimensionError(f"magnitude {shape} and phase {phase.shape} disagree on shape")
    names = ("identity",) if predictor.flip_equivariant else cfg.transforms

    def passes():
        for name in names:
            stack = predictor.predict_batch(_flip(magnitude, name),
                                            None if phase is None else _flip(phase, name))
            if stack.shape != shape:
                raise DimensionError(f"predictor returned shape {stack.shape}, expected {shape}")
            yield [_flip(ch, name) for ch in stack.channels()]

    return _mean(passes(), len(names))


def _mean(passes, n: int) -> tuple[np.ndarray, ...]:
    """The mean of ``n`` passes of float32 arrays: a float64 running sum in
    the order ``passes`` yields them, cast to float32. One pass is
    returned as it is, without a copy."""
    passes = iter(passes)
    first = next(passes)
    if n == 1:
        return tuple(first)
    acc = [a.astype(np.float64) for a in first]
    for arrays in passes:
        for a, x in zip(acc, arrays):
            a += x
    return tuple(np.divide(a, n, out=a).astype(np.float32) for a in acc)


def predict_with_tta(predictor: SlicePredictor, magnitude: np.ndarray,
                     phase: np.ndarray | None = None,
                     cfg: TtaConfig = TtaConfig()) -> RegionStack:
    """Average predictions of one plane over flipped inputs, un-flipping
    each output; the plane runs as a one-slice block."""
    mag = np.asarray(magnitude)
    if mag.ndim != 2:
        raise DimensionError(f"predict_with_tta takes one plane, got shape {mag.shape}")
    channels = _tta(predictor, mag[:, :, None],
                    None if phase is None else np.asarray(phase)[:, :, None], cfg)
    return RegionStack(*(ch[:, :, 0] for ch in channels))


def ensemble(stacks: list[RegionStack]) -> RegionStack:
    """Voxel-wise mean of region stacks (fold ensembling), by ``_mean``."""
    if not stacks:
        raise ValidationError("cannot ensemble an empty list")
    shape = stacks[0].shape
    for s in stacks[1:]:
        if s.shape != shape:
            raise DimensionError(f"stack shapes disagree: {s.shape} vs {shape}")
    return RegionStack(*_mean((s.channels() for s in stacks), len(stacks)))


def stack_slices(plane_stacks: dict[int, RegionStack], z_extent: int) -> RegionStack:
    """Assemble per-slice region planes, keyed by z, into one (H, W, Z)
    stack. The keys must be exactly the z in [0, z_extent).
    """
    missing = [z for z in range(z_extent) if z not in plane_stacks]
    if missing:
        raise ValidationError(f"missing slice indices {missing[:8]}")
    extra = [z for z in plane_stacks if not 0 <= z < z_extent]
    if extra:
        raise ValidationError(f"slice indices outside [0, {z_extent}): {sorted(extra)[:8]}")

    first = plane_stacks[0]
    if first.wm.ndim != 2:
        raise DimensionError("stack_slices expects 2D per-slice region stacks")
    return _stack_planes(plane_stacks.__getitem__, first.shape, z_extent)


def _stack_planes(planes, plane_shape: tuple[int, int], n: int) -> RegionStack:
    """``planes(z)`` for z < n as three x-fastest float32 (H, W, n) volumes; an
    error names its slice, and a plane of another shape is a DimensionError."""
    out = [np.empty(plane_shape + (n,), np.float32, order="F") for _ in range(3)]
    for z in range(n):
        try:
            plane = planes(z)
        except CordpipeError as exc:
            raise _named(exc, f"slice {z} of {n}") from exc
        if plane.shape != plane_shape:
            raise DimensionError(f"slice {z} has shape {plane.shape}, expected {plane_shape}")
        for o, ch in zip(out, plane.channels()):
            o[:, :, z] = ch
    return RegionStack(*out)


def _region_planes(vol: ScalarVolume) -> RegionStack:
    """The wm, gm and lesion planes of an (H, W, 3) probability file,
    clipped to [0, 1]."""
    if vol.dims[2] != 3:
        raise DimensionError(f"expected 3 probability planes, got {vol.dims[2]}")
    probs = np.clip(vol.data, 0.0, 1.0)
    return RegionStack(probs[:, :, 0], probs[:, :, 1], probs[:, :, 2])


def thread_map(fn, items, threads: int | None) -> list:
    """``[fn(x) for x in items]``, in input order, on up to ``threads``
    threads; ``None`` means one. ``items`` is taken in the calling thread
    and never runs ahead: an item is taken only once fewer than
    ``threads`` are in flight. A count below 1 is a ``ValidationError``."""
    n = 1 if threads is None else threads
    if n < 1:
        raise ValidationError(f"thread count must be at least 1, got {threads}")
    if n == 1:
        return [fn(x) for x in items]
    results, pending = [], collections.deque()
    with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
        try:
            for x in items:
                pending.append(pool.submit(fn, x))
                if len(pending) == n:
                    results.append(pending.popleft().result())
            while pending:
                results.append(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
    return results


def _volume_chunks(magnitude: ScalarVolume, phase: ScalarVolume | None):
    """The ``(zs, magnitude, phase)`` z-chunks of two volumes on one grid:
    runs of whole slices of at most ``_CHUNK_VOXELS`` voxels, at least one."""
    if phase is not None:
        volume._on_grid(phase, magnitude)
    return ((zs, magnitude.data[:, :, zs], None if phase is None else phase.data[:, :, zs])
            for zs in volume._z_runs(magnitude.dims, _CHUNK_VOXELS))


def _predict_chunks(predictor: SlicePredictor, chunks, tta: TtaConfig | None,
                    threads: int | None, emit) -> None:
    """Send every ``(zs, magnitude, phase)`` z-chunk of ``chunks`` through
    the TTA loop and call ``emit(zs, channels)`` with the chunk's z slice
    and its three float32 channels.

    Chunks are independent work units; with a thread-safe predictor up to
    ``threads`` of them run at once, taken from ``chunks`` only as earlier
    ones finish, and as ``emit`` writes only its own z range, the result
    is that of the serial order either way. Without ``tta`` each slice is
    predicted once, through the identity-only TTA path. An error of a
    chunk names its z range.
    """
    cfg = TtaConfig(("identity",)) if tta is None else tta

    def run(chunk) -> None:
        zs, magnitude, phase = chunk
        try:
            channels = _tta(predictor, magnitude, phase, cfg)
        except CordpipeError as exc:
            raise _named(exc, f"slices {zs.start}..{zs.stop - 1}") from exc
        emit(zs, channels)

    if not predictor.thread_safe and threads is not None:
        threads = min(threads, 1)  # serial, but a count below 1 is still rejected
    thread_map(run, chunks, threads)


def predict_volume(predictor: SlicePredictor, magnitude: ScalarVolume,
                   phase: ScalarVolume | None = None,
                   tta: TtaConfig | None = None,
                   threads: int | None = None) -> RegionStack:
    """Run a slice predictor over every axial slice of a volume and
    return the three probability volumes.

    The volume goes through the TTA loop in z-chunks of at most
    ``_CHUNK_VOXELS`` voxels (at least one slice), which run concurrently
    on up to ``threads`` threads when the predictor is thread-safe; the
    result is the same either way. Without ``tta`` each slice is
    predicted once.
    """
    chunks = _volume_chunks(magnitude, phase)
    out = [np.empty(magnitude.dims, np.float32, order="F") for _ in range(3)]

    def emit(zs: slice, channels) -> None:
        for o, ch in zip(out, channels):
            o[:, :, zs] = ch

    _predict_chunks(predictor, chunks, tta, threads, emit)
    return RegionStack(*out)


def predict_labels(predictor: SlicePredictor, magnitude: ScalarVolume,
                   phase: ScalarVolume | None = None,
                   tta: TtaConfig | None = None,
                   threads: int | None = None,
                   tissue_thresh: float = 0.5,
                   lesion_thresh: float = 0.5) -> LabelVolume:
    """``merge_regions(predict_volume(...))`` without the probability
    volumes: each z-chunk's float32 channels are merged into its slices
    of one uint8 label volume, so only the chunk's channels are held.
    """
    check_thresholds(tissue_thresh, lesion_thresh)
    return _chunk_labels(predictor, _volume_chunks(magnitude, phase), magnitude.dims,
                         magnitude.spacing, tta, threads, tissue_thresh, lesion_thresh)


def _chunk_labels(predictor: SlicePredictor, chunks, dims, spacing: Spacing,
                  tta: TtaConfig | None, threads: int | None, tissue_thresh: float,
                  lesion_thresh: float) -> LabelVolume:
    """The ``predict_labels`` walk over ``(zs, magnitude, phase)`` z-chunks
    that cover a volume of ``dims``, from its arrays or from its files."""
    labels = np.empty(dims, np.uint8, order="F")

    def emit(zs: slice, channels) -> None:
        labels[:, :, zs] = merge_region_arrays(*channels, tissue_thresh, lesion_thresh)

    _predict_chunks(predictor, chunks, tta, threads, emit)
    return LabelVolume(labels, spacing)


def _fit_centers(label_chunks, chunks) -> dict:
    """``MockPredictor`` centers: class id -> (magnitude, phase) means.

    A labels-only pass over the uint8 arrays ``label_chunks`` counts each
    class and names the lowest absent one before any intensity is read.
    A second pass walks the ``(ids, magnitude, phase)`` chunks of the same
    voxels, each in buffered blocks of ``volume._BLOCK_VOXELS``. Per block,
    ``np.frexp`` splits each float32 value into a significand of 24 bits
    and an exponent, and one ``np.bincount`` sums the significands per
    (class, exponent); that float64 sum is exact below 2**29 voxels per
    block. The sums are accumulated in int64 and combined with Python
    ints, so a center is the exact mean of its class's values, rounded
    once to float64, whatever the order, layout or chunking of the voxels.
    """
    counts = np.zeros(len(_FIT_CLASSES), np.int64)
    for ids in label_chunks:
        for block in _blocks(ids):
            counts += np.bincount(block, minlength=len(_FIT_CLASSES))
    for cid, n in zip(_FIT_CLASSES, counts):
        if not n:
            raise ValidationError(f"cannot fit centers: class {cid} absent")
    width = len(_EXPONENTS)
    sums = np.zeros((2, len(_FIT_CLASSES) * width), np.int64)
    for chunk in chunks:
        with _blocks(list(chunk), op_dtypes=[np.intp, np.float32, np.float32]) as blocks:
            for ids, *channels in blocks:
                base = ids * width - _EXPONENTS[0]
                for acc, values in zip(sums, channels):
                    significand, exponent = np.frexp(values)
                    acc += (np.bincount(base + exponent, weights=significand,
                                        minlength=acc.size) * 2.0 ** 24).astype(np.int64)
    # a class's sum is sum(s * 2**j) * 2**(_EXPONENTS[0] - 24) over its row
    scale = 24 - _EXPONENTS[0]
    return {cid: tuple(sum(int(s) << j for j, s in enumerate(acc[i * width:(i + 1) * width]))
                       / (int(n) << scale) for acc in sums)
            for i, (cid, n) in enumerate(zip(_FIT_CLASSES, counts))}


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
    wm, gm and lesion probabilities. An error names the command, quoted
    as a shell would quote it, and none of its temp-file arguments.
    """

    thread_safe = False

    command: list[str]
    spacing: Spacing = field(default_factory=Spacing.isotropic)

    def predict(self, magnitude: np.ndarray,
                phase: np.ndarray | None = None) -> RegionStack:
        mag = np.asarray(magnitude, dtype=np.float32)
        phs = np.zeros_like(mag) if phase is None else np.asarray(phase, dtype=np.float32)
        try:
            with tempfile.TemporaryDirectory(prefix="cordpipe-pred-") as tmp:
                paths = [os.path.join(tmp, name) for name in ("mag.nii", "phase.nii", "out.nii")]
                for path, plane in zip(paths, (mag, phs)):
                    with open(path, "wb") as fh:
                        fh.write(write_nifti(ScalarVolume(plane[:, :, None], self.spacing)))
                try:
                    proc = subprocess.run(self.command + paths, capture_output=True,
                                          timeout=_PREDICT_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    raise ValidationError(f"timed out after {_PREDICT_TIMEOUT_S:g} s") from None
                if proc.returncode != 0:
                    stderr = proc.stderr.decode(errors="replace").strip()[:500]
                    raise ValidationError(f"failed ({proc.returncode}): {stderr}")
                try:
                    with open(paths[2], "rb") as fh:
                        out = read_nifti(fh.read())
                except FileNotFoundError:
                    raise FormatError("produced no output file") from None
            if out.dims[:2] != mag.shape:
                raise DimensionError(f"output planes {out.dims[:2]}, expected {mag.shape}")
            return _region_planes(out)
        except CordpipeError as exc:
            raise _named(exc, f"predictor cmd:{shlex.join(self.command)}") from exc
