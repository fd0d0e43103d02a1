"""Intensity operators: Otsu background masking, CLAHE, contrast
stretching and z-score normalization.

All public operators are pure functions of their inputs. CLAHE runs per
axial slice even on 3D volumes; the other operators act on the whole
grid. Each of the mask, stretch, rescale, CLAHE and z-score stages has
one private core that writes into a given float32 output, which may be
its input: a public operator calls it with a fresh output, and
``cordpipe preprocess`` with its one working volume, so the command
holds that volume, its uint8 mask and the stretch's gathered scope.
The stretch reads ``np.percentile``'s values bit for bit off a float32
copy of its scope partitioned in place (``_percentiles``).

CLAHE builds the tile grid, each pixel's four corner tiles and its
bilinear weights once per volume. Each slice then takes all tile
histograms with one ``bincount``, clips and waterfills them as one batch
and reads the four corner LUTs with flat gathers. The arithmetic, and so
every output byte, is that of the per-tile loop it replaced; a test pins
it bit for bit to the loop oracle ``loop_clahe_plane`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateHistogramError,
    DegenerateRangeError,
    DimensionError,
    ValidationError,
    ZeroVarianceError,
)
from .volume import ScalarVolume, _blocks
from . import volume

OTSU_BINS = 256


@dataclass(eq=False)
class OtsuResult:
    """Threshold maximizing between-class variance, plus the derived mask."""

    threshold: float
    mask: np.ndarray       # uint8 {0, 1}, same dims as the input
    histogram: np.ndarray  # 256 bin counts over [min, max]


@dataclass(frozen=True)
class ClaheConfig:
    """Tile grid, relative clip limit and histogram resolution."""

    tiles: tuple[int, int] = (8, 8)
    clip_limit: float = 0.01
    bins: int = 256

    def __post_init__(self):
        # Messages start with the field name; the CLI prefixes its config section.
        tiles = self.tiles
        if (not isinstance(tiles, (tuple, list)) or len(tiles) != 2
                or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                           for v in tiles)):
            raise ConfigError(f"tiles must be two integers, got {tiles!r}")
        if min(tiles) < 1:
            raise ConfigError(f"tiles must be >= 1, got {tiles}")
        object.__setattr__(self, "tiles", (int(tiles[0]), int(tiles[1])))
        if not 0 < self.clip_limit <= 1:
            raise ConfigError(f"clip_limit must be in (0, 1], got {self.clip_limit}")
        if self.bins < 2:
            raise ConfigError(f"bins must be >= 2, got {self.bins}")


@dataclass(frozen=True)
class StretchConfig:
    """Percentile window mapped onto [0, 1]; defaults clip the bottom 15%
    and top 30% of intensities."""

    p_low: float = 15.0
    p_high: float = 70.0

    def __post_init__(self):
        if not (0 <= self.p_low < self.p_high <= 100):
            raise ConfigError(
                f"need 0 <= p_low < p_high <= 100, got ({self.p_low}, {self.p_high})"
            )


def otsu_mask(mag: ScalarVolume) -> OtsuResult:
    """Split the intensity histogram at maximal between-class variance.

    The histogram uses 256 uniform bins over [min, max]; candidate
    thresholds are the bin boundaries and the winner is the first
    maximizer. The mask is 1 strictly above the threshold.

    The range ends are float64, so ``np.histogram`` bins the voxels, in
    memory order and its own cache-sized blocks, as float64 copies:
    every voxel falls in the bin of a whole-volume float64 call, whatever
    the storage dtype.
    """
    data = mag.data
    lo, hi = np.float64(data.min()), np.float64(data.max())
    if lo == hi:
        raise DegenerateHistogramError("constant volume admits no histogram split")

    hist, edges = np.histogram(data.ravel(order="K"), bins=OTSU_BINS, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2.0

    total = hist.sum()
    weight = np.cumsum(hist)                    # voxels in bins 0..t
    mass = np.cumsum(hist * centers)            # intensity mass in bins 0..t
    w0 = weight[:-1].astype(np.float64)
    w1 = total - w0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        raise DegenerateHistogramError("all intensity mass in a single bin")

    mu0 = np.divide(mass[:-1], w0, out=np.zeros(OTSU_BINS - 1), where=w0 > 0)
    mu1 = np.divide(mass[-1] - mass[:-1], w1, out=np.zeros(OTSU_BINS - 1), where=w1 > 0)
    sigma_b = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, -np.inf)

    t = int(np.argmax(sigma_b))
    threshold = float(edges[t + 1])
    mask = np.greater(data, threshold).view(np.uint8)
    return OtsuResult(threshold=threshold, mask=mask, histogram=hist)


def _checked_mask(mask, vol: ScalarVolume) -> np.ndarray:
    """``mask`` as an array, which must have the dims of ``vol``."""
    mask = np.asarray(mask)
    if mask.shape != vol.dims:
        raise DimensionError(f"mask shape {mask.shape} != volume dims {vol.dims}")
    return mask


def apply_mask(vol: ScalarVolume, mask: np.ndarray) -> ScalarVolume:
    """Set masked-out voxels to 0.0, leaving the rest untouched.

    The same (magnitude-derived) mask is meant to be applied to both
    channels so that background is uniform in each.
    """
    out = np.empty_like(vol.data)
    _mask(vol.data, _checked_mask(mask, vol), out)
    return ScalarVolume(out, vol.spacing)


def _mask(data: np.ndarray, mask: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = np.where(mask > 0, data, 0)``; ``out`` may be ``data``."""
    keep = np.greater(mask, 0)
    if out is not data:
        np.copyto(out, data)
    np.copyto(out, np.float32(0.0), where=np.logical_not(keep, out=keep))


def _clip_and_redistribute(hist: np.ndarray, clip) -> np.ndarray:
    """Clip histogram bins at ``clip`` and spread the excess uniformly.

    ``hist`` is one histogram or a stack of shape ``(..., nbins)``, and
    ``clip`` a scalar or one ceiling per histogram. Redistribution
    waterfills the excess as evenly as possible over bins with room under
    the ceiling, so the total count is preserved and no bin ends above
    the clip. The clip cannot sit below the uniform level (total/bins),
    otherwise no redistribution could ever fit. Each histogram runs the
    same integer rounds as it would alone: a stack is only a batch.
    """
    hist = np.asarray(hist)
    nbins = hist.shape[-1]
    out = hist.reshape(-1, nbins).astype(np.int64)
    total = out.sum(axis=1)
    clip = np.broadcast_to(np.asarray(clip).astype(np.int64), hist.shape[:-1]).reshape(-1)
    clip = np.maximum(clip, -(-total // nbins))
    np.minimum(out, clip[:, None], out=out)
    excess = total - out.sum(axis=1)
    while (rows := np.flatnonzero(excess > 0)).size:
        sub, ceil, left = out[rows], clip[rows, None], excess[rows]
        open_bins = sub < ceil
        # the clip is at least the uniform level, so a row with excess has an open bin
        share = left // open_bins.sum(axis=1)
        add = np.minimum(ceil - sub, share[:, None])  # 0 on full bins
        last = share == 0
        if last.any():
            # fewer units than open bins: +1 to the first ``excess`` of them
            rank = np.cumsum(open_bins[last], axis=1)
            add[last] = open_bins[last] & (rank <= left[last, None])
        out[rows] = sub + add
        excess[rows] = left - add.sum(axis=1)
    return out.reshape(hist.shape)


def _tile_edges(extent: int, count: int) -> np.ndarray:
    return np.linspace(0, extent, count + 1).round().astype(int)


def _blend(edges: np.ndarray, extent: int):
    """Bilinear blend of tile mappings along one axis of ``extent``
    pixels, tiled at ``edges``: each pixel's lower tile, its upper tile
    and the weight of the upper one. Positions beyond the outermost tile
    centers clamp to the edge tile."""
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    last = centers.size - 1
    pos = np.arange(extent, dtype=np.float64)
    lower = np.clip(np.searchsorted(centers, pos, side="right") - 1, 0, last)
    upper = np.minimum(lower + 1, last)
    span = centers[upper] - centers[lower]
    weight = np.where(span > 0, (pos - centers[lower]) / np.where(span > 0, span, 1), 0.0)
    return lower, upper, np.clip(weight, 0.0, 1.0)


def _clahe(data: np.ndarray, cfg: ClaheConfig, out: np.ndarray) -> None:
    """CLAHE of every plane ``data[:, :, z]`` into the float32 array ``out``
    of the same shape, which may be ``data``: a plane is read before its
    output is written.

    The tile grid, the bilinear weights and the corner tiles of every
    pixel depend only on the plane shape, so they are built once. Each
    slice then takes one ``bincount`` over ``tile * nbins + bin``, one
    batched waterfill over all tiles and four flat LUT gathers. Slices
    run one at a time, so the working set is a few plane-sized arrays.
    """
    h, w, _ = data.shape
    tx, ty = cfg.tiles
    if tx > h or ty > w:
        raise ConfigError(f"tile grid {cfg.tiles} exceeds plane shape {(h, w)}")
    lo, hi = data.min(), data.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("CLAHE input must be finite")
    if lo < 0 or hi > 1:
        raise ValidationError("CLAHE input must be pre-normalized to [0, 1]")

    nbins = cfg.bins
    xe = _tile_edges(h, tx)
    ye = _tile_edges(w, ty)
    sx, sy = np.diff(xe), np.diff(ye)
    npix = (sx[:, None] * sy[None, :]).ravel()
    if (npix == 0).any():
        raise ConfigError(f"tile grid {cfg.tiles} produces an empty tile")
    clip = np.maximum(1, np.ceil(cfg.clip_limit * npix).astype(np.int64))
    # Per-pixel arrays take the memory order of a plane (x-fastest for a
    # volume read from NIfTI), so every per-slice operation is contiguous.
    order = "F" if data.strides[0] < data.strides[1] else "C"
    tile_bin = np.asarray((np.repeat(np.arange(tx), sx)[:, None] * ty
                           + np.repeat(np.arange(ty), sy)[None, :]) * nbins, order=order)

    ix, ix1, fx = _blend(xe, h)
    iy, iy1, fy = _blend(ye, w)
    fx, fy = fx[:, None], fy[None, :]
    # Weight factors are multiplied in the order of the per-pixel formula
    # (1-fx)(1-fy)v00 + (1-fx)fy v01 + fx(1-fy)v10 + fx fy v11, so the
    # float64 products, and with them the output bytes, are unchanged.
    weights = [np.asarray(wgt, order=order) for wgt in
               ((1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy)]
    corners = [np.asarray((a[:, None] * ty + b[None, :]) * nbins, order=order)
               for a, b in ((ix, iy), (ix, iy1), (ix1, iy), (ix1, iy1))]

    term = np.empty_like(weights[0])
    for z in range(data.shape[2]):
        scaled = np.multiply(data[:, :, z], nbins, dtype=np.float64)
        binned = np.minimum(scaled.astype(np.int64), nbins - 1)
        hist = np.bincount((tile_bin + binned).ravel(order), minlength=tx * ty * nbins)
        hist = _clip_and_redistribute(hist.reshape(tx * ty, nbins), clip)
        luts = (np.cumsum(hist, axis=1) / npix[:, None]).ravel()
        acc = weights[0] * luts[corners[0] + binned]
        for wgt, corner in zip(weights[1:], corners[1:]):
            acc += np.multiply(wgt, luts[corner + binned], out=term)
        out[:, :, z] = np.clip(acc, 0.0, 1.0, out=acc)


def clahe_slicewise(vol: ScalarVolume, cfg: ClaheConfig) -> ScalarVolume:
    """Contrast-limited adaptive histogram equalization of every axial
    slice, each on its own.

    Per-tile histograms over [0, 1] are clipped at
    ``clip_limit * tile_pixels``, the excess is redistributed uniformly,
    and each pixel maps through the clipped CDFs of its four surrounding
    tiles with bilinear weights. Input must already lie in [0, 1].
    """
    out = np.empty_like(vol.data, dtype=np.float32)
    _clahe(vol.data, cfg, out)
    return ScalarVolume(out, vol.spacing)


def percentile_stretch(vol: ScalarVolume, cfg: StretchConfig = StretchConfig(),
                       mask: np.ndarray | None = None) -> ScalarVolume:
    """Clip at the configured percentiles and rescale onto [0, 1].

    Percentiles use linear interpolation between order statistics; with a
    mask, they are computed over masked-in voxels only, while the mapping
    applies to the whole volume.

    The scope is copied once as float32 in memory order: the whole volume,
    or the masked voxels gathered z-slab by z-slab in a memory order
    shared by the data and the mask. ``_percentiles`` partitions that copy
    in place and gives ``np.percentile``'s values bit for bit. The mapping
    is one buffered ``np.nditer`` in memory order: float64 blocks of
    ``volume._BLOCK_VOXELS`` are shifted, divided and clipped, and cast
    into the float32 output, the same ops per element as on a
    whole-volume float64 copy, without that copy.
    """
    out = np.empty_like(vol.data)
    _stretch(vol.data, cfg, None if mask is None else _checked_mask(mask, vol), out)
    return ScalarVolume(out, vol.spacing)


def _stretch(data: np.ndarray, cfg: StretchConfig, mask: np.ndarray | None,
             out: np.ndarray) -> None:
    """The ``percentile_stretch`` of ``data`` into ``out``, which may be
    ``data``; ``mask`` has the shape of ``data``."""
    if mask is None:
        scope = data.flatten(order="K")
    else:
        # each slab as the iterator's views of both, axes in one memory order
        slabs = [[view.ravel() for view in np.nditer([data[:, :, zs], mask[:, :, zs]],
                                                     order="K").itviews]
                 for zs in volume._z_runs(data.shape, volume._BLOCK_VOXELS)]
        scope = np.empty(sum(np.count_nonzero(m > 0) for _, m in slabs), np.float32)
        at = 0
        for d, m in slabs:
            part = d[m > 0]
            scope[at:at + part.size] = part
            at += part.size
    if scope.size == 0:
        raise ValidationError("percentile scope is empty")
    q_low, q_high = _percentiles(scope, (cfg.p_low, cfg.p_high))
    if q_low == q_high:
        raise DegenerateRangeError(
            f"percentiles {cfg.p_low} and {cfg.p_high} both map to {q_low}"
        )
    del scope  # freed before the mapping
    span = q_high - q_low
    with _blocks([data, out], op_flags=[["readonly"], ["writeonly"]],
                 op_dtypes=[np.float64, np.float32]) as blocks:
        for src, dst in blocks:
            shifted = src - q_low
            shifted /= span
            np.clip(shifted, 0.0, 1.0, out=dst)


def _percentiles(scope: np.ndarray, ps) -> list[float]:
    """``np.percentile(scope.astype(np.float64), ps)`` of a 1-D float32
    array, bit for bit, partitioning ``scope`` in place.

    numpy's "linear" rule: the virtual index (n-1)*p/100, its floor and the
    next order statistic (both the last one at or past n-1), partitioned
    with the kth list numpy uses, then ``_lerp`` in float64 with its t >=
    0.5 branch and t the virtual index less the lower statistic's index.
    """
    last = scope.size - 1
    picks = []
    for p in ps:
        virtual = last * (p / 100)
        low = -1 if virtual >= last else math.floor(virtual)
        picks.append((virtual, low, -1 if low == -1 else low + 1))
    scope.partition(np.unique([0, -1, *(i for _, low, high in picks for i in (low, high))]))
    out = []
    for virtual, low, high in picks:
        a, b = float(scope[low]), float(scope[high])
        t = virtual - low
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def zscore_normalize(vol: ScalarVolume, mask: np.ndarray | None = None) -> ScalarVolume:
    """Shift and scale so the (masked) scope has mean 0 and stddev 1."""
    out = np.empty_like(vol.data)
    _zscore(vol.data, None if mask is None else _checked_mask(mask, vol), out)
    return ScalarVolume(out, vol.spacing)


def _zscore(data: np.ndarray, mask: np.ndarray | None, out: np.ndarray) -> None:
    """The ``zscore_normalize`` of ``data`` into ``out``, which may be
    ``data``: the float64 mean and std of the scope, then one buffered
    ``np.nditer`` that maps float64 blocks into the float32 output."""
    scope = data if mask is None else data[mask > 0]
    if scope.size < 2:
        raise ValidationError("normalization scope needs at least 2 voxels")
    mean = float(scope.astype(np.float64).mean())
    std = float(scope.astype(np.float64).std())
    if std == 0.0:
        raise ZeroVarianceError("normalization scope has zero variance")
    del scope
    with _blocks([data, out], op_flags=[["readonly"], ["writeonly"]],
                 op_dtypes=[np.float64, np.float32]) as blocks:
        for src, dst in blocks:
            shifted = src - mean
            np.divide(shifted, std, out=dst)


def minmax_rescale(vol: ScalarVolume) -> ScalarVolume:
    """Plain [min, max] -> [0, 1] rescale (helper for CLAHE pipelines)."""
    out = np.empty_like(vol.data)
    _rescale(vol.data, out)
    return ScalarVolume(out, vol.spacing)


def _rescale(data: np.ndarray, out: np.ndarray) -> None:
    """The ``minmax_rescale`` of ``data`` into ``out``, which may be ``data``."""
    lo, hi = float(data.min()), float(data.max())
    if lo == hi:
        raise DegenerateRangeError("constant volume cannot be rescaled")
    np.divide(np.subtract(data, lo, out=out), hi - lo, out=out)
