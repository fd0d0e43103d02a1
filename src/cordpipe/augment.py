"""Seedable in-plane spatial transforms for image/label pairs.

Each sampled transform is a 3x3 projective matrix acting on axial-plane
coordinates (x, y). Parameters are drawn uniformly within the active
profile's ranges and composed in a fixed order, translate . rotate .
scale . shear . perspective, about the plane center, so outputs are
fully reproducible from (profile, seed).

Warping uses inverse mapping: bilinear interpolation for images,
nearest neighbor for labels (which therefore never invents class ids).
One draw is mapped once (one inverse map, one set of bilinear corners)
and every plane of a pair samples from that map; the bytes are those of
a per-pixel loop, pinned to the oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, TransformError
from .volume import BACKGROUND


@dataclass(frozen=True)
class AugProfile:
    """Sampling ranges for one augmentation intensity level.

    translation_frac is the maximum |shift| as a fraction of the plane
    extent per axis; rotation_deg the maximum magnitude; scale and
    shear_deg are (lo, hi) ranges; perspective scales the projective
    distortion coefficients.
    """

    translation_frac: float
    rotation_deg: float
    scale: tuple[float, float]
    shear_deg: tuple[float, float]
    perspective: float
    name: str = ""

    def __post_init__(self):
        if not 0 <= self.translation_frac <= 1:
            raise ConfigError(f"translation_frac outside [0, 1]: {self.translation_frac}")
        if self.rotation_deg < 0:
            raise ConfigError(f"negative rotation bound: {self.rotation_deg}")
        if not 0 < self.scale[0] <= self.scale[1]:
            raise ConfigError(f"bad scale range: {self.scale}")
        if self.shear_deg[0] > self.shear_deg[1]:
            raise ConfigError(f"bad shear range: {self.shear_deg}")
        if not 0 <= self.perspective <= 1:
            raise ConfigError(f"perspective outside [0, 1]: {self.perspective}")


AUG1 = AugProfile(0.45, 90.0, (0.7, 1.7), (-35.0, 35.0), 0.35, name="aug1")
AUG2 = AugProfile(0.45, 180.0, (0.3, 2.0), (-55.0, 55.0), 0.55, name="aug2")
AUG3 = AugProfile(0.80, 180.0, (0.1, 3.0), (-85.0, 85.0), 0.85, name="aug3")

@dataclass(frozen=True, eq=False)
class SampledTransform:
    """A concrete draw: the projective matrix plus its parameter record."""

    matrix: np.ndarray  # 3x3, acts on centered-plane homogeneous coords
    translation: tuple[float, float]  # fractions of plane extent
    rotation_deg: float
    scale: float
    shear_deg: float
    perspective: tuple[float, float]
    seed: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise TransformError(f"matrix must be 3x3, got {m.shape}")
        if abs(np.linalg.det(m)) <= 1e-9:
            raise TransformError("transform matrix is not invertible")
        object.__setattr__(self, "matrix", m)

    @property
    def is_identity(self) -> bool:
        return np.array_equal(self.matrix, np.eye(3))


def _cos_deg(deg: float) -> float:
    if deg % 90 == 0:
        return (1.0, 0.0, -1.0, 0.0)[int(deg / 90) % 4]
    return math.cos(math.radians(deg))


def _sin_deg(deg: float) -> float:
    if deg % 90 == 0:
        return (0.0, 1.0, 0.0, -1.0)[int(deg / 90) % 4]
    return math.sin(math.radians(deg))


def build_matrix(translation=(0.0, 0.0), rotation_deg=0.0, scale=1.0,
                 shear_deg=0.0, perspective=(0.0, 0.0)) -> np.ndarray:
    """Compose the centered-coordinate matrix for explicit parameters.

    translation is in voxels here (callers convert fractions first).
    Trig at exact multiples of 90 degrees is computed exactly, so
    quarter-turn rotations permute the grid without interpolation loss.
    """
    t = np.eye(3)
    t[0, 2], t[1, 2] = translation

    c, s = _cos_deg(rotation_deg), _sin_deg(rotation_deg)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    sc = np.diag([scale, scale, 1.0])

    sh = np.eye(3)
    sh[0, 1] = math.tan(math.radians(shear_deg))

    p = np.eye(3)
    p[2, 0], p[2, 1] = perspective

    return t @ r @ sc @ sh @ p


def sample_transform(profile: AugProfile, seed: int | None = None,
                     plane_shape: tuple[int, int] | None = None) -> SampledTransform:
    """Draw one transform uniformly within the profile ranges.

    A profile whose ranges are all zero (scale exactly 1) skips sampling
    and returns an exact identity, whatever its name. ``plane_shape``
    converts the translation fraction into voxels and normalizes the
    perspective coefficients; it is required for any profile that uses
    those parameters.
    """
    if (profile.translation_frac == 0 and profile.rotation_deg == 0
            and profile.scale == (1.0, 1.0) and profile.shear_deg == (0.0, 0.0)
            and profile.perspective == 0):
        return SampledTransform(np.eye(3), (0.0, 0.0), 0.0, 1.0, 0.0, (0.0, 0.0), seed)

    rng = np.random.default_rng(seed)
    t = profile.translation_frac
    tx = rng.uniform(-t, t)
    ty = rng.uniform(-t, t)
    rot = rng.uniform(-profile.rotation_deg, profile.rotation_deg)
    sc = rng.uniform(profile.scale[0], profile.scale[1])
    sh = rng.uniform(profile.shear_deg[0], profile.shear_deg[1])
    gx = rng.uniform(-profile.perspective, profile.perspective)
    gy = rng.uniform(-profile.perspective, profile.perspective)

    if plane_shape is None:
        if profile.translation_frac > 0 or profile.perspective > 0:
            raise ConfigError(
                f"profile {profile.name!r} needs plane_shape to scale "
                "translation and perspective"
            )
        plane_shape = (2, 2)  # unused: both extent-dependent params are zero
    h, w = plane_shape
    matrix = build_matrix(
        translation=(tx * h, ty * w),
        rotation_deg=rot,
        scale=sc,
        shear_deg=sh,
        perspective=(gx * 2.0 / h, gy * 2.0 / w),
    )
    return SampledTransform(matrix, (tx, ty), rot, sc, sh, (gx, gy), seed)


def slice_seed(seed: int, z: int) -> int:
    """Per-slice seed derivation for reproducible parallel augmentation."""
    return int(np.random.SeedSequence((seed, z)).generate_state(1)[0])


def _inverse_coords(t: SampledTransform, shape: tuple[int, int]):
    h, w = shape
    cx, cy = (h - 1) / 2.0, (w - 1) / 2.0
    inv = np.linalg.inv(t.matrix)
    xs, ys = np.meshgrid(np.arange(h, dtype=np.float64) - cx,
                         np.arange(w, dtype=np.float64) - cy, indexing="ij")
    u = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
    v = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
    d = inv[2, 0] * xs + inv[2, 1] * ys + inv[2, 2]
    bad = np.abs(d) < 1e-12
    d = np.where(bad, 1.0, d)
    src_x = u / d + cx
    src_y = v / d + cy
    src_x[bad] = -1e9  # divergent rays land outside and take the fill
    return src_x, src_y


def _flat_index(xi, yi, shape):
    """C-order flat index of each (xi, yi); h*w, the fill slot, outside."""
    h, w = shape
    inside = (xi >= 0) & (xi < h) & (yi >= 0) & (yi < w)
    return np.where(inside, xi * w + yi, h * w).astype(np.intp)


def warp_pair(image_planes, label_plane: np.ndarray, t: SampledTransform):
    """Warp magnitude/phase planes and their label plane with one draw.

    ``t`` is mapped once. Each image plane is sampled bilinearly into
    float32, and a corner outside the plane reads 0.0. The label plane
    is sampled by nearest neighbor in its own dtype, so it never invents
    a class id, and a sample outside the plane reads ``BACKGROUND``.
    Returns ``(planes, labels)``; the identity returns exact copies.
    """
    planes = [np.asarray(p, dtype=np.float32) for p in image_planes]
    labels = np.asarray(label_plane)
    shapes = {p.shape for p in planes + [labels]}
    if len(shapes) != 1:
        raise DimensionError(f"planes disagree on shape: {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2:
        raise DimensionError(f"expected 2D plane, got shape {shape}")
    if t.is_identity:
        return [p.copy() for p in planes], labels.copy()
    src_x, src_y = _inverse_coords(t, shape)
    x0, y0 = np.floor(src_x), np.floor(src_y)
    fx, fy = src_x - x0, src_y - y0
    corners = [(wgt, _flat_index(x0 + dx, y0 + dy, shape)) for dx, dy, wgt in (
        (0, 0, (1 - fx) * (1 - fy)), (0, 1, (1 - fx) * fy),
        (1, 0, fx * (1 - fy)), (1, 1, fx * fy))]
    warped = []
    for p in planes:
        flat, out = np.append(p.ravel(), np.float64(0.0)), np.zeros(shape)
        for wgt, index in corners:
            out += wgt * flat[index]
        warped.append(out.astype(np.float32))
    flat = np.append(labels.ravel(), np.full(1, BACKGROUND, labels.dtype))
    return warped, flat[_flat_index(np.rint(src_x), np.rint(src_y), shape)]
