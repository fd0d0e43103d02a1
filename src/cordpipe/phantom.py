"""Synthetic spinal-cord phantom: dense ground truth plus matched
magnitude/phase channels for desk-scale pipeline tests.

Geometry is a z-invariant cross-section: a circular white-matter cord
with an interior gray-matter "butterfly" (two mirrored ellipse lobes
joined by a bridge), and cylindrical lesions running the full length of
the cord, carved into whichever tissue hosts them. The constant
cross-section makes every class's inter-slice Dice exactly 1.0, which
gives jitter experiments a clean baseline.

Intensities are per-class Gaussians plus global noise; the phase
channel is brighter for gray matter than white matter (paramagnetic
tissue bright, myelin dark).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .volume import (
    BACKGROUND,
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
    LabelVolume,
    ScalarVolume,
    Spacing,
)


@dataclass(frozen=True)
class ButterflyShape:
    """Two mirrored ellipse lobes plus a connecting bridge, in voxels."""

    lobe_offset: float = 4.0      # lobe centers at (+-offset, 0) from cord center
    lobe_semi_x: float = 3.6
    lobe_semi_y: float = 6.6
    bridge_half_x: float = 4.0
    bridge_half_y: float = 1.4

    @property
    def max_extent(self) -> float:
        return max(self.lobe_offset + self.lobe_semi_x,
                   self.lobe_semi_y, self.bridge_half_x, self.bridge_half_y)


@dataclass(frozen=True)
class LesionModel:
    """How many cylindrical lesions to seed per tissue and their radii."""

    wm_count: int = 1
    wm_radius: tuple[float, float] = (2.2, 2.8)
    gm_count: int = 1
    gm_radius: tuple[float, float] = (1.3, 1.9)


# (magnitude mean, phase mean) per class. Lesions are hyperintense on
# magnitude; on phase, paramagnetic gray matter is bright and myelinated
# white matter dark, with demyelinated lesions in between. The means are
# additionally spread so every class pair stays separable in at least
# one channel after masked percentile stretching (whose clipping
# saturates anything outside the tissue 15th..70th percentile window).
DEFAULT_INTENSITIES = {
    BACKGROUND: (0.03, 0.50),
    HEALTHY_WM: (0.60, 0.20),
    HEALTHY_GM: (0.38, 0.80),
    LESION_WM: (0.82, 0.45),
    LESION_GM: (0.92, 0.95),
}
# Standard deviation of each class's intensities, and of the global
# noise added on top of them, in both channels.
CLASS_STD = 0.01
NOISE_STD = 0.01


@dataclass(frozen=True)
class PhantomConfig:
    """Geometry and seed of one phantom.

    Intensities are the module constants ``DEFAULT_INTENSITIES``,
    ``CLASS_STD`` and ``NOISE_STD``.
    """

    dims: tuple[int, int, int] = (64, 64, 64)
    cord_radius: float = 12.0
    butterfly: ButterflyShape = field(default_factory=ButterflyShape)
    lesions: LesionModel = field(default_factory=LesionModel)
    seed: int = 0

    def __post_init__(self):
        h, w, _ = self.dims
        if self.cord_radius <= 0:
            raise ValidationError("cord radius must be positive")
        if self.cord_radius * 2 + 2 > min(h, w):
            raise ValidationError(
                f"cord of radius {self.cord_radius} does not fit in-plane dims {(h, w)}"
            )
        if self.butterfly.max_extent >= self.cord_radius - 1:
            raise ValidationError(
                "gray-matter butterfly must sit strictly inside the cord"
            )
        for lo, hi in (self.lesions.wm_radius, self.lesions.gm_radius):
            if lo <= 0 or hi < lo:
                raise ValidationError(f"bad lesion radius range ({lo}, {hi})")

    @classmethod
    def fitted(cls, dims, seed: int = 0) -> "PhantomConfig":
        """The default geometry, every length times min(H, W) / 64.

        Very small planes (below roughly 32 voxels) shrink the lesions to
        sub-voxel radii and may drop the lesion classes entirely.
        """
        s = min(dims[0], dims[1]) / 64.0
        base = cls()
        les = base.lesions
        return cls(dims=tuple(int(d) for d in dims), cord_radius=base.cord_radius * s,
                   butterfly=ButterflyShape(*(v * s for v in astuple(base.butterfly))),
                   lesions=replace(les, wm_radius=tuple(r * s for r in les.wm_radius),
                                   gm_radius=tuple(r * s for r in les.gm_radius)), seed=seed)


def _disk(xs, ys, cx, cy, r):
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


def _butterfly_mask(xs, ys, cx, cy, shape: ButterflyShape):
    left = ((xs - (cx - shape.lobe_offset)) / shape.lobe_semi_x) ** 2 \
        + ((ys - cy) / shape.lobe_semi_y) ** 2 <= 1.0
    right = ((xs - (cx + shape.lobe_offset)) / shape.lobe_semi_x) ** 2 \
        + ((ys - cy) / shape.lobe_semi_y) ** 2 <= 1.0
    bridge = (np.abs(xs - cx) <= shape.bridge_half_x) \
        & (np.abs(ys - cy) <= shape.bridge_half_y)
    return left | right | bridge


def _cross_section(cfg: PhantomConfig, rng: np.random.Generator) -> np.ndarray:
    """Build the (H, W) label plane shared by every slice."""
    h, w, _ = cfg.dims
    cx, cy = (h - 1) / 2.0, (w - 1) / 2.0
    xs, ys = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")

    cord = _disk(xs, ys, cx, cy, cfg.cord_radius)
    gm = _butterfly_mask(xs, ys, cx, cy, cfg.butterfly) & cord
    if not gm.any():
        raise ValidationError("butterfly parameters produce an empty gray matter mask")

    plane = np.zeros((h, w), dtype=np.uint8)
    plane[cord] = HEALTHY_WM
    plane[gm] = HEALTHY_GM

    # Lesions are disks carved into (intersected with) their host tissue,
    # so containment holds by construction.
    for _ in range(cfg.lesions.wm_count):
        r = rng.uniform(*cfg.lesions.wm_radius)
        theta = rng.uniform(0, 2 * np.pi)
        rho_lo = cfg.butterfly.max_extent + r + 0.5
        rho_hi = cfg.cord_radius - r - 0.5
        rho = rng.uniform(rho_lo, rho_hi) if rho_hi > rho_lo else max(rho_lo, rho_hi)
        lx, ly = cx + rho * np.cos(theta), cy + rho * np.sin(theta)
        disk = _disk(xs, ys, lx, ly, r)
        target = disk & (plane == HEALTHY_WM)
        if not target.any():
            # Deterministic fallback: sit on the +x mid-ring of the annulus.
            rho = (rho_lo + min(rho_hi, cfg.cord_radius - 0.5)) / 2.0
            disk = _disk(xs, ys, cx + rho, cy, r)
            target = disk & (plane == HEALTHY_WM)
        plane[target] = LESION_WM

    for _ in range(cfg.lesions.gm_count):
        r = rng.uniform(*cfg.lesions.gm_radius)
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        jx = rng.uniform(-0.5, 0.5)
        jy = rng.uniform(-0.5, 0.5)
        lx = cx + side * cfg.butterfly.lobe_offset + jx
        ly = cy + jy
        disk = _disk(xs, ys, lx, ly, r)
        target = disk & (plane == HEALTHY_GM)
        if not target.any():
            disk = _disk(xs, ys, cx + cfg.butterfly.lobe_offset, cy, r)
            target = disk & (plane == HEALTHY_GM)
        plane[target] = LESION_GM

    return plane


def generate(cfg: PhantomConfig) -> tuple[ScalarVolume, ScalarVolume, LabelVolume]:
    """Produce (magnitude, phase, labels) at the native 75 um isotropic
    spacing, deterministic per cfg.seed."""
    spacing = Spacing.isotropic()
    rng = np.random.default_rng(cfg.seed)
    h, w, z = cfg.dims

    plane = _cross_section(cfg, rng)
    labels = np.repeat(plane[:, :, None], z, axis=2)

    mag = np.empty((h, w, z), dtype=np.float64)
    phs = np.empty((h, w, z), dtype=np.float64)
    for cid, (m_mean, p_mean) in DEFAULT_INTENSITIES.items():
        sel = labels == cid
        n = int(sel.sum())
        if n == 0:
            continue
        mag[sel] = rng.normal(m_mean, CLASS_STD, n)
        phs[sel] = rng.normal(p_mean, CLASS_STD, n)
    mag += rng.normal(0.0, NOISE_STD, mag.shape)
    phs += rng.normal(0.0, NOISE_STD, phs.shape)

    return (
        ScalarVolume(mag.astype(np.float32), spacing),
        ScalarVolume(phs.astype(np.float32), spacing),
        LabelVolume(labels, spacing),
    )


def perturb_slices(labels: LabelVolume, max_shift: int = 1,
                   seed: int | None = None) -> LabelVolume:
    """Translate every slice independently by a random integer offset.

    Mimics the high-frequency jitter of stacking independent 2D
    predictions. Voxels shifted past the border are clipped; exposed
    space fills with background.
    """
    if labels.dims[2] < 2:
        raise ValidationError("perturbation needs at least 2 slices")
    if max_shift < 0:
        raise ValidationError("max_shift must be >= 0")
    if max_shift == 0:
        return LabelVolume(labels.data.copy(), labels.spacing)

    rng = np.random.default_rng(seed)
    h, w, z = labels.dims
    out = np.zeros_like(labels.data)
    for zi in range(z):
        dx, dy = rng.integers(-max_shift, max_shift + 1, size=2)
        src = labels.data[:, :, zi]
        dst = out[:, :, zi]
        sx0, sx1 = max(0, -dx), min(h, h - dx)
        sy0, sy1 = max(0, -dy), min(w, w - dy)
        if sx0 < sx1 and sy0 < sy1:
            dst[sx0 + dx:sx1 + dx, sy0 + dy:sy1 + dy] = src[sx0:sx1, sy0:sy1]
    return LabelVolume(out, labels.spacing)
