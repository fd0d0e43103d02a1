"""Evaluation metrics: Dice overlap, 95th-percentile symmetric surface
distance (HD95) in millimeters, inter-slice Dice (DSC_z) for longitudinal
smoothness, per-volume reports and fold aggregation.

Conventions frozen here because they change the numbers: surfaces are
foreground voxels with at least one background 6-neighbor under a
zero-padded exterior (so volume-border voxels count as surface);
distances run between voxel centers; percentiles interpolate linearly
between order statistics. Undefined values are carried as ``None`` and
excluded from means rather than imputed.

Exact shortcuts, none of which changes a number. A voxel is interior
when the mask holds it and its 2*ndim face neighbors, found by ANDing
shifted views of a zero-padded copy: the same 6-neighbor (4 in 2D) rule
as a binary erosion with a zero border, in boolean operations only.
Boxes come from axis projections: the extent along the axis slowest in
memory, then the box of the OR over that extent. HD95 is computed by an
in-box core on the bounding box of the two masks. Dense ``evaluate``
looks for each class's box only inside the box of all nonzero voxels,
where every class lies, and scores each class inside the union of its
boxes in the ground truth and the prediction (DSC_z inside the
prediction's box in-plane, over every slice). That union already is the
bounding box of the two masks, so ``hd95`` passes it to the core whole.
Every voxel outside such a box is background in both masks, so counts,
zero-padded surfaces and the distances between in-box voxel centers are
the same as on the full grid. Surface distances come from a shell
search: each source surface voxel tries the integer offsets within
``_SHELL_RADIUS_VOXELS`` voxels of the finest axis, nearest first, and
takes the length of the first offset that lands on the other surface,
computed as ``distance_transform_edt`` computes it. The walk stops once
it has resolved the two order statistics the 95th percentile reads, so
scipy loads, for that transform over the box, only when the percentile
itself lies beyond the shell.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionError, ValidationError
from .volume import (CLASS_NAMES, FOREGROUND_CLASSES, LabelVolume, SparseAnnotation, Spacing,
                     _on_grid)


def _mask_pair(g: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both masks as bool arrays of one shape."""
    g = np.asarray(g, dtype=bool)
    p = np.asarray(p, dtype=bool)
    if g.shape != p.shape:
        raise DimensionError(f"shape mismatch {g.shape} vs {p.shape}")
    return g, p


def dice(g: np.ndarray, p: np.ndarray) -> float | None:
    """Dice overlap 2|G∩P| / (|G| + |P|); None when both sets are empty."""
    g, p = _mask_pair(g, p)
    denom = np.count_nonzero(g) + np.count_nonzero(p)
    if denom == 0:
        return None
    return 2.0 * np.count_nonzero(np.logical_and(g, p)) / denom


def surface_mask(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels: foreground with a background 6-neighbor.

    The exterior is zero-padded, so foreground touching the volume border
    is surface. Works for 2D planes too (4-neighborhood).
    """
    mask = np.asarray(mask, dtype=bool)
    # A voxel is interior when the mask holds it and its 2*ndim neighbors:
    # AND the shifted views of a zero-padded copy laid out like the mask.
    padded = np.zeros([n + 2 for n in mask.shape], dtype=bool,
                      order="F" if np.isfortran(mask) else "C")
    inner = (slice(1, -1),) * mask.ndim
    padded[inner] = mask
    interior = mask.copy(order="K")
    for axis, n in enumerate(mask.shape):
        for lo in (0, 2):
            interior &= padded[inner[:axis] + (slice(lo, lo + n),) + inner[axis + 1:]]
    return mask ^ interior


def _nonzero_box(a: np.ndarray) -> tuple[slice, ...] | None:
    """Bounding box of the nonzero entries of ``a``, or None when it has
    none: the extent along the axis slowest in memory, then the box of the
    OR-projection of that extent onto the other axes."""
    if np.isfortran(a):
        box = _nonzero_box(a.T)
        return None if box is None else box[::-1]
    lead = np.flatnonzero(np.bitwise_or.reduce(a.reshape(len(a), -1), axis=1))
    if not lead.size:
        return None
    lo, hi = int(lead[0]), int(lead[-1]) + 1
    if a.ndim == 1:
        return (slice(lo, hi),)
    return (slice(lo, hi),) + _nonzero_box(np.bitwise_or.reduce(a[lo:hi], axis=0))


def _class_boxes(data: np.ndarray, n_classes: int) -> list[tuple[slice, ...] | None]:
    """The box of each label 1..n_classes, None for an absent one: what
    ``ndimage.find_objects(data, max_label=n_classes)`` returns, searched
    only inside the box of all nonzero voxels."""
    outer = _nonzero_box(data)
    if outer is None:
        return [None] * n_classes
    inside = data[outer]
    boxes = []
    for cid in range(1, n_classes + 1):
        box = _nonzero_box(inside == cid)
        boxes.append(None if box is None else tuple(
            slice(o.start + b.start, o.start + b.stop) for o, b in zip(outer, box)))
    return boxes


# Radius of the shell search, in voxels of the finest axis. Nearly every
# surface voxel of a usable prediction has the other surface this close.
_SHELL_RADIUS_VOXELS = 3


@functools.lru_cache(maxsize=16)
def _offset_table(sampling: tuple[float, ...],
                  radius_voxels: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets within ``radius_voxels`` voxels of the finest axis
    (a cache key, so a patched radius takes effect), nearest first.

    Returns (offsets, lengths in mm). A length is sqrt of the sum, in axis
    order, of (offset_k * sampling_k)**2: the float ``distance_transform_edt``
    returns for a nearest feature at that offset.
    """
    s = np.asarray(sampling, dtype=np.float64)
    radius = radius_voxels * s.min()
    reach = [np.arange(-r, r + 1) for r in (np.floor(radius / s).astype(int) + 1)]
    offsets = np.stack([a.ravel() for a in np.meshgrid(*reach, indexing="ij")], axis=1)
    lengths = np.sqrt(sum((offsets[:, k] * s[k]) ** 2 for k in range(len(s))))
    keep = lengths <= radius
    order = np.argsort(lengths[keep], kind="stable")
    offsets, lengths = offsets[keep][order], lengths[keep][order]
    offsets.setflags(write=False)
    lengths.setflags(write=False)
    return offsets, lengths


def _directed_p95(src_surface: np.ndarray, dst_surface: np.ndarray, sampling) -> float:
    """``np.percentile(d, 95)`` of the distances d in mm from each src
    surface voxel to the nearest dst one, bit for bit, without building d:
    the walk resolves voxels nearest first, so it counts them and stops at
    the order statistics k = floor((n-1) * 0.95) and min(k+1, n-1) that
    the linear rule reads. Voxels left past the shell supply the rest."""
    offsets, lengths = _offset_table(tuple(sampling), _SHELL_RADIUS_VOXELS)
    order = "F" if np.isfortran(dst_surface) else "C"
    pad = np.abs(offsets).max(axis=0)
    inner = tuple(slice(p, p + n) for p, n in zip(pad, dst_surface.shape))
    padded = np.zeros(np.add(dst_surface.shape, 2 * pad), dtype=bool, order=order)
    flat = padded.ravel(order=order)  # a view, in memory order
    padded[inner] = src_surface
    idx = np.flatnonzero(flat)  # flat indices of src voxels in the padded grid
    padded[inner] = dst_surface
    steps = offsets @ (np.asarray(padded.strides) // padded.itemsize)

    virtual = (idx.size - 1) * (95 / 100)  # numpy's virtual index, as a float
    k = int(virtual)
    ranks = (k, min(k + 1, idx.size - 1))
    stats = []  # the statistics at ranks, as they are crossed
    resolved = 0
    for step, length in zip(steps, lengths):
        hit = flat[idx + step]
        n_hit = np.count_nonzero(hit)
        if n_hit:
            resolved += n_hit
            while len(stats) < 2 and ranks[len(stats)] < resolved:
                stats.append(length)
            if len(stats) == 2:
                break
            idx = idx[~hit]
    else:
        # No dst surface within the shell: the exact transform over the box,
        # whose values all lie beyond the shell. scipy is imported only here.
        from scipy import ndimage

        dist = ndimage.distance_transform_edt(~dst_surface, sampling=sampling)
        coords = np.unravel_index(idx, padded.shape, order=order)
        far = np.sort(dist[tuple(c - p for c, p in zip(coords, pad))])
        stats += [far[r - resolved] for r in ranks[len(stats):]]
    a, b = stats
    t = virtual - k  # numpy's "linear" _lerp, its t >= 0.5 branch included
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def hd95(g: np.ndarray, p: np.ndarray, spacing: Spacing) -> float | None:
    """Symmetric 95th-percentile surface distance in millimeters.

    Returns 0.0 when the masks are identical (including both empty) and
    None when exactly one is empty, which has no meaningful distance.
    """
    g, p = _mask_pair(g, p)
    g_empty, p_empty = not g.any(), not p.any()
    if g_empty and p_empty:
        return 0.0
    if g_empty or p_empty:
        return None
    box = _nonzero_box(g | p)
    return _hd95_in_box(g[box], p[box], spacing)


def _hd95_in_box(g: np.ndarray, p: np.ndarray, spacing: Spacing) -> float:
    """HD95 of two non-empty masks, measured on the grid they come on:
    exact on the full grid when that grid holds the bounding box of g | p."""
    sampling = spacing.as_tuple()[:g.ndim]
    gs, ps = surface_mask(g), surface_mask(p)
    return max(_directed_p95(gs, ps, sampling), _directed_p95(ps, gs, sampling))


def inter_slice_dice(labels: LabelVolume, class_id: int) -> float | None:
    """Mean Dice between consecutive axial slices of one class.

    Transitions where the class is absent from both slices are excluded;
    with no valid transition the metric is undefined (None).
    """
    if labels.dims[2] < 2:
        raise DimensionError("inter-slice Dice needs at least 2 slices")
    mask = labels.data == class_id
    counts = mask.sum(axis=(0, 1)).astype(np.int64)
    inter = np.logical_and(mask[:, :, :-1], mask[:, :, 1:]).sum(axis=(0, 1)).astype(np.int64)
    denom = counts[:-1] + counts[1:]
    valid = denom > 0
    if not valid.any():
        return None
    return float(np.mean(2.0 * inter[valid] / denom[valid]))


@dataclass
class ClassMetrics:
    """Per-class scores; None marks a metric undefined on this volume."""

    class_id: int
    dice: float | None
    hd95_mm: float | None
    dscz: float | None
    present_in_gt: bool
    present_in_pred: bool


# The scores of ClassMetrics, each None where undefined: dice, hd95_mm, dscz.
_SCORES = tuple(f.name for f in fields(ClassMetrics) if f.type == "float | None")


@dataclass
class MetricsReport:
    """Per-class metrics plus foreground means for one evaluated volume."""

    per_class: dict[int, ClassMetrics]
    mean_dice: float | None
    mean_hd95: float | None
    evaluated_slices: int
    sparse_gt: bool
    volume_id: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "volume_id": self.volume_id,
            "scope": {"evaluated_slices": self.evaluated_slices,
                      "sparse_gt": self.sparse_gt},
            "mean_foreground_dice": self.mean_dice,
            "mean_foreground_hd95_mm": self.mean_hd95,
            "classes": {},
        }
        for cid, cm in sorted(self.per_class.items()):
            out["classes"][CLASS_NAMES[cid]] = {
                f.name: getattr(cm, f.name) for f in fields(cm) if f.name != "class_id"}
        return out


CSV_COLUMNS = ["volume_id", "class", "dice", "hd95_mm", "dscz", "defined_flags"]


def _fmt(v: float | None) -> str:
    return "" if v is None else format(v, ".9g")


def report_to_csv(reports: list[MetricsReport]) -> str:
    """One row per volume and class; undefined cells are left empty and
    recorded in defined_flags."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        for cid, cm in sorted(rep.per_class.items()):
            flags = ";".join(
                f"{name}={int(val is not None)}"
                for name, val in (("dice", cm.dice), ("hd95", cm.hd95_mm), ("dscz", cm.dscz))
            )
            writer.writerow([rep.volume_id, CLASS_NAMES[cid],
                             _fmt(cm.dice), _fmt(cm.hd95_mm), _fmt(cm.dscz), flags])
    return buf.getvalue()


def evaluate(pred: LabelVolume, gt: LabelVolume | SparseAnnotation,
             volume_id: str = "") -> MetricsReport:
    """Score a prediction against dense or sparse ground truth.

    With sparse ground truth, Dice pools voxels over the annotated planes
    and HD95 is the mean of per-plane in-plane surface distances over
    planes where it is defined. DSC_z always runs on the full dense
    prediction, since it measures the prediction's own smoothness.

    Ground truth must lie on the prediction's grid (``volume._on_grid``).
    """
    sparse = isinstance(gt, SparseAnnotation)
    if sparse and len(gt) == 0:
        raise ValidationError("no annotated slices to evaluate")
    try:
        _on_grid(gt, pred)
    except ValidationError as exc:
        raise type(exc)(f"ground truth vs prediction: {exc}") from exc
    n_classes = len(FOREGROUND_CLASSES)
    pred_boxes = _class_boxes(pred.data, n_classes)
    if sparse:
        gt_planes = gt.planes
        pred_planes = pred.data[:, :, gt.z_indices]
        scope = len(gt)
        boxes = [(slice(None),) * 3] * n_classes
    else:
        gt_planes = gt.data
        pred_planes = pred.data
        scope = pred.dims[2]
        gt_boxes = _class_boxes(gt.data, n_classes)
        boxes = [_union_box(a, b) for a, b in zip(gt_boxes, pred_boxes)]

    per_class: dict[int, ClassMetrics] = {}
    for cid, box, pred_box in zip(FOREGROUND_CLASSES, boxes, pred_boxes):
        g = gt_planes[box] == cid
        p = pred_planes[box] == cid
        d = dice(g, p)
        if sparse:
            h = _mean_plane_hd95(g, p, pred.spacing)
        else:
            h = hd95(g, p, pred.spacing)
        dscz = None
        if pred_box is not None and pred.dims[2] >= 2:
            in_plane = LabelVolume(pred.data[pred_box[0], pred_box[1], :], pred.spacing)
            dscz = inter_slice_dice(in_plane, cid)
        per_class[cid] = ClassMetrics(
            class_id=cid, dice=d, hd95_mm=h, dscz=dscz,
            present_in_gt=bool(g.any()), present_in_pred=bool(p.any()),
        )

    dices = [cm.dice for cm in per_class.values() if cm.dice is not None]
    hds = [cm.hd95_mm for cm in per_class.values() if cm.hd95_mm is not None]
    return MetricsReport(
        per_class=per_class,
        mean_dice=float(np.mean(dices)) if dices else None,
        mean_hd95=float(np.mean(hds)) if hds else None,
        evaluated_slices=scope,
        sparse_gt=sparse,
        volume_id=volume_id,
    )


def _union_box(a: tuple[slice, ...] | None,
               b: tuple[slice, ...] | None) -> tuple[slice, ...]:
    """Smallest box holding two class boxes; an empty box when both are
    None (the class is absent from both volumes)."""
    if a is None or b is None:
        return a or b or (slice(0, 0),) * 3
    return tuple(slice(min(x.start, y.start), max(x.stop, y.stop)) for x, y in zip(a, b))


def _mean_plane_hd95(g_planes: np.ndarray, p_planes: np.ndarray,
                     spacing: Spacing) -> float | None:
    """Average in-plane HD95 over planes where it is defined.

    Planes where both masks are empty contribute nothing; planes where
    exactly one is empty are undefined and skipped.
    """
    vals = []
    for k in range(g_planes.shape[2]):
        g, p = g_planes[:, :, k], p_planes[:, :, k]
        if not g.any() and not p.any():
            continue
        v = hd95(g, p, spacing)
        if v is not None:
            vals.append(v)
    return float(np.mean(vals)) if vals else None


@dataclass
class AggregateRow:
    """Mean, population std and coefficient of variation for one cell."""

    class_id: int
    metric: str
    mean: float
    std: float
    cov: float | None  # std/mean, None when mean is not positive
    n: int

    @property
    def cov_percent(self) -> float | None:
        return None if self.cov is None else 100.0 * self.cov


@dataclass
class FoldAggregate:
    rows: list[AggregateRow] = field(default_factory=list)

    def row(self, class_id: int, metric: str) -> AggregateRow | None:
        for r in self.rows:
            if r.class_id == class_id and r.metric == metric:
                return r
        return None

    def to_json_dict(self) -> dict:
        out: dict = {}
        for r in self.rows:
            cell = out.setdefault(CLASS_NAMES[r.class_id], {})
            cell[r.metric] = {
                "mean": r.mean,
                "std": r.std,
                "cov": r.cov,
                "cov_percent": r.cov_percent,
                "n": r.n,
            }
        return out


def fold_aggregate(reports: list[MetricsReport]) -> FoldAggregate:
    """Aggregate per-class metrics across folds or volumes.

    Uses population std; CoV = std/mean is reported only for positive
    means. Undefined per-volume values are excluded from their cell.
    """
    if not reports:
        raise ValidationError("cannot aggregate an empty report list")
    agg = FoldAggregate()
    for cid in FOREGROUND_CLASSES:
        for metric in _SCORES:
            vals = [getattr(r.per_class[cid], metric) for r in reports
                    if cid in r.per_class and getattr(r.per_class[cid], metric) is not None]
            if not vals:
                continue
            arr = np.asarray(vals, dtype=np.float64)
            mean = float(arr.mean())
            std = float(arr.std())
            cov = std / mean if mean > 0 else None
            agg.rows.append(AggregateRow(cid, metric, mean, std, cov, len(vals)))
    return agg
