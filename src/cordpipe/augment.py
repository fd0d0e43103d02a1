"""Seedable in-plane spatial transforms for image/label pairs.

Each sampled transform is a 3x3 projective matrix acting on axial-plane
coordinates (x, y). Parameters are drawn uniformly within the active
profile's ranges and composed in a fixed order, translate . rotate .
scale . shear . perspective, about the plane center, so outputs are
fully reproducible from (profile, seed).

Warping uses inverse mapping: bilinear interpolation for images,
nearest neighbor for labels (which therefore never invents class ids).
One draw is mapped once (one inverse map, one set of bilinear corners)
and every plane of a pair samples from that map. Each plane is read from
a padded copy whose border holds the fill, with corners clipped into the
border, so no sample needs a bounds test; the bytes are those of a
per-pixel loop, pinned to the oracle in ``tests/oracles.py``.
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
        # numpy's uniform draw rejects a range whose width is -0.0, so a
        # -0.0 bound becomes 0.0 (adding 0.0 keeps every other value)
        for name in ("translation_frac", "rotation_deg", "perspective"):
            object.__setattr__(self, name, getattr(self, name) + 0.0)
        object.__setattr__(self, "shear_deg", tuple(v + 0.0 for v in self.shear_deg))
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
        if not np.isfinite(m).all():
            raise TransformError("transform matrix has a non-finite entry")
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

    A profile whose ranges are all zero (scale exactly 1) draws zero
    parameters and scale 1, whose matrix is exactly ``np.eye(3)``,
    whatever its name. ``plane_shape`` converts the translation fraction
    into voxels and normalizes the perspective coefficients; it is
    required for any profile that uses those parameters.
    """
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


def _inverse_coords(t: SampledTransform, shape: tuple[int, int]) -> np.ndarray:
    """Source (x, y) of every pixel of an (h, w) plane, as a (2, h, w) array."""
    h, w = shape
    cx, cy = (h - 1) / 2.0, (w - 1) / 2.0
    inv = np.linalg.inv(t.matrix)[:, :, None, None]
    # an (h, 1) column and a (w,) row broadcast to the centered grid, with
    # the same float64 ops per pixel as on a meshgrid
    xs = (np.arange(h, dtype=np.float64) - cx)[:, None]
    ys = np.arange(w, dtype=np.float64) - cy
    uvd = inv[:, 0] * xs + inv[:, 1] * ys
    uvd += inv[:, 2]
    src, d = uvd[:2], uvd[2]
    bad = np.abs(d) < 1e-12
    d[bad] = 1.0
    src /= d
    src += np.array([cx, cy])[:, None, None]
    src[0, bad] = -1e9  # divergent rays land outside and take the fill
    return src


def _padded_index(corner: np.ndarray) -> np.ndarray:
    """Flat index of each (x0, y0) of a (2, h, w) ``corner`` into the
    plane padded by two on every side, where the fill is.

    Corners are clipped to [-2, h] and [-2, w], where x0 and x0 + 1 both
    still read the fill; NaN clips to -2, so a non-finite source reads
    the fill and no index leaves the plane.
    """
    _, h, w = corner.shape
    row = w + 4
    clipped = np.fmax(corner, -2)
    np.fmin(clipped, np.array([h, w])[:, None, None], out=clipped)
    xi, yi = clipped.astype(np.intp)
    xi *= row
    xi += yi
    xi += 2 * (row + 1)
    return xi


def warp_pair(image_planes, label_plane: np.ndarray, t: SampledTransform):
    """Warp magnitude/phase planes and their label plane with one draw.

    ``t`` is mapped once. Each image plane is sampled bilinearly into
    float32, and a corner outside the plane reads 0.0. The label plane
    is sampled by nearest neighbor in its own dtype, so it never invents
    a class id, and a sample outside the plane reads ``BACKGROUND``.
    Returns ``(planes, labels)``; the identity returns exact copies.

    Each plane is read from a copy padded by two on every side: image
    planes from one float64 plane with a zero border, labels from one
    with a ``BACKGROUND`` border. Corners are clipped into that border,
    so one base index per draw serves the four corners (``base``,
    ``+1``, ``+row``, ``+row+1``) and the nearest sample, and no bounds
    test is made per plane.
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
    h, w = shape
    src = _inverse_coords(t, shape)
    corner = np.floor(src)
    fx, fy = frac = src - corner
    gx, gy = 1 - frac
    # the weights of corners (0,0), (0,1), (1,0), (1,1), with gx = 1 - fx
    weights = np.empty((4, h, w))
    for k, (a, b) in enumerate(((gx, gy), (gx, fy), (fx, gy), (fx, fy))):
        np.multiply(a, b, out=weights[k])
    row = w + 4
    base = _padded_index(corner)
    index = base + np.array([0, 1, row, row + 1])[:, None, None]
    padded = np.zeros((h + 4, row))
    warped = []
    for p in planes:
        padded[2:-2, 2:-2] = p
        terms = padded.take(index)
        np.multiply(weights, terms, out=terms)
        out = np.zeros(shape)  # summed from +0.0 in corner order, as the loop does
        for term in terms:
            out += term
        warped.append(out.astype(np.float32))
    # the nearest sample is the corner that rint rounds to; a NaN or
    # infinite source compares false and keeps its corner in the border
    up = np.rint(src) > corner
    padded = np.full((h + 4, row), BACKGROUND, labels.dtype)
    padded[2:-2, 2:-2] = labels
    return warped, padded.take(base + up[0] * row + up[1])
