"""Intensity operators: Otsu background masking, CLAHE, contrast
stretching and z-score normalization.

All operators are pure functions of their inputs. CLAHE runs per axial
slice even on 3D volumes; the other operators act on the whole grid.
"""

from __future__ import annotations

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
from .volume import ScalarVolume

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
    """
    data = mag.data
    lo, hi = float(data.min()), float(data.max())
    if lo == hi:
        raise DegenerateHistogramError("constant volume admits no histogram split")

    # float64 keeps the bin edges exact regardless of the storage dtype
    hist, edges = np.histogram(data.astype(np.float64), bins=OTSU_BINS, range=(lo, hi))
    hist = hist.astype(np.int64)
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
    mask = (data > threshold).astype(np.uint8)
    return OtsuResult(threshold=threshold, mask=mask, histogram=hist)


def apply_mask(vol: ScalarVolume, mask: np.ndarray, fill: float = 0.0) -> ScalarVolume:
    """Set masked-out voxels to ``fill``, leaving the rest untouched.

    The same (magnitude-derived) mask is meant to be applied to both
    channels so that background is uniform in each.
    """
    mask = np.asarray(mask)
    if mask.shape != vol.dims:
        raise DimensionError(f"mask shape {mask.shape} != volume dims {vol.dims}")
    if not np.isfinite(fill):
        raise ValidationError(f"fill must be finite, got {fill!r}")
    out = np.where(mask > 0, vol.data, np.float32(fill))
    return ScalarVolume(out, vol.spacing, vol.channel)


def _clip_and_redistribute(hist: np.ndarray, clip: int) -> np.ndarray:
    """Clip histogram bins at ``clip`` and spread the excess uniformly.

    Redistribution waterfills the excess as evenly as possible over bins
    with room under the ceiling, so the total count is preserved and no
    bin ends above the clip. The clip cannot sit below the uniform level
    (total/bins), otherwise no redistribution could ever fit.
    """
    nbins = hist.size
    total = int(hist.sum())
    clip = max(int(clip), -(-total // nbins))
    out = np.minimum(hist, clip).astype(np.int64)
    excess = total - int(out.sum())
    while excess > 0:
        open_bins = np.flatnonzero(out < clip)
        share = excess // open_bins.size
        if share == 0:
            out[open_bins[:excess]] += 1
            break
        add = np.minimum(clip - out[open_bins], share)
        out[open_bins] += add
        excess -= int(add.sum())
    return out


def _tile_edges(extent: int, count: int) -> np.ndarray:
    return np.linspace(0, extent, count + 1).round().astype(int)


def clahe_plane(plane: np.ndarray, cfg: ClaheConfig) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization of one slice.

    Per-tile histograms over [0, 1] are clipped at
    ``clip_limit * tile_pixels``, the excess is redistributed uniformly,
    and each pixel maps through the clipped CDFs of its four surrounding
    tiles with bilinear weights. Input must already lie in [0, 1].
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise DimensionError(f"expected a 2D plane, got shape {plane.shape}")
    h, w = plane.shape
    tx, ty = cfg.tiles
    if tx > h or ty > w:
        raise ConfigError(f"tile grid {cfg.tiles} exceeds plane shape {(h, w)}")
    if plane.min() < 0 or plane.max() > 1:
        raise ValidationError("CLAHE input must be pre-normalized to [0, 1]")

    nbins = cfg.bins
    binned = np.minimum((plane * nbins).astype(np.int64), nbins - 1)

    xe = _tile_edges(h, tx)
    ye = _tile_edges(w, ty)
    luts = np.empty((tx, ty, nbins), dtype=np.float64)
    centers_x = np.empty(tx)
    centers_y = np.empty(ty)
    for i in range(tx):
        centers_x[i] = (xe[i] + xe[i + 1] - 1) / 2.0
        for j in range(ty):
            centers_y[j] = (ye[j] + ye[j + 1] - 1) / 2.0
            tile = binned[xe[i]:xe[i + 1], ye[j]:ye[j + 1]]
            npix = tile.size
            if npix == 0:
                raise ConfigError(f"tile grid {cfg.tiles} produces an empty tile")
            hist = np.bincount(tile.ravel(), minlength=nbins)
            clip = max(1, int(np.ceil(cfg.clip_limit * npix)))
            hist = _clip_and_redistribute(hist, clip)
            luts[i, j] = np.cumsum(hist) / npix

    # Bilinear blend of tile mappings; positions beyond the outermost tile
    # centers clamp to the edge tile.
    gx = np.arange(h, dtype=np.float64)
    gy = np.arange(w, dtype=np.float64)
    ix = np.clip(np.searchsorted(centers_x, gx, side="right") - 1, 0, tx - 1)
    iy = np.clip(np.searchsorted(centers_y, gy, side="right") - 1, 0, ty - 1)
    ix1 = np.minimum(ix + 1, tx - 1)
    iy1 = np.minimum(iy + 1, ty - 1)

    span_x = centers_x[ix1] - centers_x[ix]
    fx = np.where(span_x > 0, (gx - centers_x[ix]) / np.where(span_x > 0, span_x, 1), 0.0)
    fx = np.clip(fx, 0.0, 1.0)
    span_y = centers_y[iy1] - centers_y[iy]
    fy = np.where(span_y > 0, (gy - centers_y[iy]) / np.where(span_y > 0, span_y, 1), 0.0)
    fy = np.clip(fy, 0.0, 1.0)

    fxg = fx[:, None]
    fyg = fy[None, :]
    v00 = luts[ix[:, None], iy[None, :], binned]
    v01 = luts[ix[:, None], iy1[None, :], binned]
    v10 = luts[ix1[:, None], iy[None, :], binned]
    v11 = luts[ix1[:, None], iy1[None, :], binned]
    out = ((1 - fxg) * (1 - fyg) * v00 + (1 - fxg) * fyg * v01
           + fxg * (1 - fyg) * v10 + fxg * fyg * v11)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def clahe_slicewise(vol: ScalarVolume, cfg: ClaheConfig) -> ScalarVolume:
    """Apply :func:`clahe_plane` independently to every axial slice."""
    out = np.empty_like(vol.data)
    for z in range(vol.dims[2]):
        out[:, :, z] = clahe_plane(vol.data[:, :, z], cfg)
    return ScalarVolume(out, vol.spacing, vol.channel)


def percentile_stretch(vol: ScalarVolume, cfg: StretchConfig = StretchConfig(),
                       mask: np.ndarray | None = None) -> ScalarVolume:
    """Clip at the configured percentiles and rescale onto [0, 1].

    Percentiles use linear interpolation between order statistics; with a
    mask, they are computed over masked-in voxels only, while the mapping
    applies to the whole volume.
    """
    scope = vol.data if mask is None else vol.data[np.asarray(mask) > 0]
    if scope.size == 0:
        raise ValidationError("percentile scope is empty")
    q_low, q_high = np.percentile(scope.astype(np.float64), [cfg.p_low, cfg.p_high])
    if q_low == q_high:
        raise DegenerateRangeError(
            f"percentiles {cfg.p_low} and {cfg.p_high} both map to {q_low}"
        )
    out = (vol.data.astype(np.float64) - q_low) / (q_high - q_low)
    out = np.clip(out, 0.0, 1.0).astype(np.float32)
    return ScalarVolume(out, vol.spacing, vol.channel)


def zscore_normalize(vol: ScalarVolume, mask: np.ndarray | None = None) -> ScalarVolume:
    """Shift and scale so the (masked) scope has mean 0 and stddev 1."""
    scope = vol.data if mask is None else vol.data[np.asarray(mask) > 0]
    if scope.size < 2:
        raise ValidationError("normalization scope needs at least 2 voxels")
    mean = float(scope.astype(np.float64).mean())
    std = float(scope.astype(np.float64).std())
    if std == 0.0:
        raise ZeroVarianceError("normalization scope has zero variance")
    out = ((vol.data.astype(np.float64) - mean) / std).astype(np.float32)
    return ScalarVolume(out, vol.spacing, vol.channel)


def minmax_rescale(vol: ScalarVolume) -> ScalarVolume:
    """Plain [min, max] -> [0, 1] rescale (helper for CLAHE pipelines)."""
    lo, hi = float(vol.data.min()), float(vol.data.max())
    if lo == hi:
        raise DegenerateRangeError("constant volume cannot be rescaled")
    out = ((vol.data - lo) / (hi - lo)).astype(np.float32)
    return ScalarVolume(out, vol.spacing, vol.channel)
