"""Volumetric data model: intensity volumes, label volumes, patch geometry.

Conventions used everywhere in this package:

* A volume has dims ``(H, W, Z)``; an axial slice is the 2D plane
  ``(H, W)`` at a fixed ``z``. Coordinates are ``(x, y, z)`` with
  ``x`` indexing the first axis.
* Linearization is x-fastest, then y, then z (axial slices are
  contiguous blocks), which keeps on-disk serialization deterministic.
* Intensities are float32, labels are uint8 class ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LabelRangeError, SidecarError, ValidationError

# Exclusive class ids.
BACKGROUND = 0
HEALTHY_WM = 1
HEALTHY_GM = 2
LESION_WM = 3
LESION_GM = 4

FOREGROUND_CLASSES = (HEALTHY_WM, HEALTHY_GM, LESION_WM, LESION_GM)

CLASS_NAMES = {
    BACKGROUND: "background",
    HEALTHY_WM: "healthy_wm",
    HEALTHY_GM: "healthy_gm",
    LESION_WM: "lesion_wm",
    LESION_GM: "lesion_gm",
}

# Native acquisition: 75 um isotropic.
DEFAULT_SPACING_MM = 0.075

# Guard against absurd allocations from corrupt headers.
_MAX_VOXELS = 2**40
# Elements per buffer of every buffered np.nditer walk (_blocks): the
# finite check, the stretch mapping and MockPredictor.predict. The
# predictor's float64 scratch is then ~1.3 MB, which stays in a 4 MB L2
# cache, and 2**15 is its measured optimum (73 ms against 85 ms at 2**16).
_BLOCK_VOXELS = 1 << 15
# Columns (axis 1) per slab of _in_order: a 192x8x64 float32 slab is 384 KiB
# on each side of the copy, so a C <-> Fortran transpose stays in L2.
_ORDER_COLUMNS = 8


def _blocks(operands, op_flags=None, op_dtypes=None) -> np.nditer:
    """A buffered ``np.nditer`` over ``operands`` that yields flat blocks of
    at most ``_BLOCK_VOXELS`` elements, walked in memory order."""
    return np.nditer(operands, flags=["external_loop", "buffered", "zerosize_ok"],
                     op_flags=op_flags, op_dtypes=op_dtypes, order="K",
                     buffersize=_BLOCK_VOXELS)


def _all_finite(data: np.ndarray) -> bool:
    """``np.all(np.isfinite(data))``, in blocks of ``_blocks``."""
    return all(np.isfinite(block).all() for block in _blocks(data))


def _in_order(a: np.ndarray, order: str, dtype=None) -> np.ndarray:
    """``np.asarray(a, dtype, order=order)`` for an array of two or more
    dims: ``a`` itself when it already has that layout ("C" or "F") and
    dtype, else a copy made in ``_ORDER_COLUMNS``-wide slabs along axis 1.

    A whole-array copy between C and Fortran order walks one side with a
    large stride; a slab of a few columns keeps both sides cache-sized.
    """
    dtype = a.dtype if dtype is None else np.dtype(dtype)
    if a.dtype == dtype and a.flags[f"{order}_CONTIGUOUS"]:
        return a
    out = np.empty(a.shape, dtype, order=order)
    for j in range(0, a.shape[1], _ORDER_COLUMNS):
        out[:, j:j + _ORDER_COLUMNS] = a[:, j:j + _ORDER_COLUMNS]
    return out


def _label_ids(arr: np.ndarray, what: str, range_error: type = ValidationError) -> np.ndarray:
    """Integer ``arr`` as uint8 class ids, range-checked before the cast
    so no id wraps into a class; ``what`` names the data in the
    ``range_error`` message."""
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"label data must be integer, got dtype {arr.dtype}")
    low = int(arr.min()) if arr.size and arr.dtype != np.uint8 else 0
    high = int(arr.max()) if arr.size else 0
    if low < 0 or high > LESION_GM:
        raise range_error(f"{what} contains id {low if low < 0 else high} outside 0..{LESION_GM}")
    return arr.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class Spacing:
    """Physical voxel size in millimeters along each axis."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        for name, v in (("dx", self.dx), ("dy", self.dy), ("dz", self.dz)):
            if not np.isfinite(v) or v <= 0:
                raise ValidationError(f"spacing {name} must be positive and finite, got {v!r}")

    @classmethod
    def isotropic(cls, s: float = DEFAULT_SPACING_MM) -> "Spacing":
        return cls(s, s, s)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)


def _check_dims(dims) -> tuple[int, int, int]:
    h, w, z = (int(d) for d in dims)
    if h <= 0 or w <= 0 or z <= 0:
        raise DimensionError(f"dims must be positive, got {dims!r}")
    if h * w * z > _MAX_VOXELS:
        raise DimensionError(f"dims {dims!r} overflow the supported volume size")
    return h, w, z


@dataclass(eq=False)
class ScalarVolume:
    """3D grid of float32 intensities: one magnitude or one phase volume."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise DimensionError(f"scalar volume must be 3D, got shape {self.data.shape}")
        _check_dims(self.data.shape)
        if not _all_finite(self.data):
            raise ValidationError("scalar volume contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(eq=False)
class LabelVolume:
    """3D grid of mutually exclusive class ids in 0..4."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise DimensionError(f"label volume must be 3D, got shape {arr.shape}")
        _check_dims(arr.shape)
        self.data = _label_ids(arr, "label volume")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(eq=False)
class SparseAnnotation:
    """Sparsely annotated axial slices: indices plus their label planes, and
    the planes file's voxel size when read from disk, whose in-plane part
    ``_on_grid`` checks."""

    volume_id: str
    z_indices: list[int]
    planes: np.ndarray  # (H, W, K) uint8, plane k annotates z_indices[k]
    spacing: Spacing | None = None

    def __post_init__(self):
        planes = np.asarray(self.planes)
        if planes.ndim != 3:
            raise SidecarError(f"planes must be (H, W, K), got shape {planes.shape}")
        if len(self.z_indices) != planes.shape[2]:
            raise SidecarError(f"{len(self.z_indices)} indices but {planes.shape[2]} planes")
        if any(b <= a for a, b in zip([-1, *self.z_indices], self.z_indices)):
            raise SidecarError("z indices must be strictly increasing, unique and not negative")
        self.planes = _label_ids(planes, "annotation plane", LabelRangeError)

    def __len__(self) -> int:
        return len(self.z_indices)

    @property
    def plane_dims(self) -> tuple[int, int]:
        return self.planes.shape[:2]


def _on_grid(vol, ref) -> None:
    """The one grid rule: a volume ``vol`` needs the dims and spacing of the
    volume ``ref``; a ``SparseAnnotation`` its plane size, indices below its
    slice count and, if it has a spacing (read from disk), its (dx, dy). A size
    disagreement is a ``DimensionError``, any other a ``ValidationError``."""
    sparse = isinstance(vol, SparseAnnotation)
    size, ref_size = (vol.plane_dims, ref.dims[:2]) if sparse else (vol.dims, ref.dims)
    if size != ref_size:
        raise DimensionError(f"{'planes' if sparse else 'dims'} {size} differ from {ref_size}")
    if sparse and vol.z_indices and vol.z_indices[-1] >= ref.dims[2]:
        raise ValidationError(f"index {vol.z_indices[-1]} is past the last of {ref.dims[2]} slices")
    step, ref_step = (s.as_tuple()[:len(size)] for s in (vol.spacing or ref.spacing, ref.spacing))
    if step != ref_step:
        raise ValidationError(f"spacing {step} differs from {ref_step}")


@dataclass(eq=False)
class SoftLabelVolume:
    """Per-class probability grids; channel c-1 holds class id c.

    Values are constrained to [0, 1]; voxels outside any boundary margin
    carry exact 0 or 1.
    """

    channels: np.ndarray  # (4, H, W, Z) float32
    spacing: Spacing

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float32)
        if self.channels.ndim != 4 or self.channels.shape[0] != len(FOREGROUND_CLASSES):
            raise DimensionError(
                f"soft label volume needs shape (4, H, W, Z), got {self.channels.shape}"
            )
        _check_dims(self.channels.shape[1:])
        if self.channels.size and not (self.channels.min() >= 0 and self.channels.max() <= 1):
            raise ValidationError("soft label values must lie in [0, 1]")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.channels.shape[1:]

    def class_channel(self, class_id: int) -> np.ndarray:
        if class_id not in FOREGROUND_CLASSES:
            raise ValidationError(f"no soft channel for class id {class_id}")
        return self.channels[class_id - 1]


@dataclass(frozen=True)
class PatchSpec:
    """Patch extent in voxels along (x, y, z)."""

    px: int
    py: int
    pz: int
    name: str = ""

    def __post_init__(self):
        if min(self.px, self.py, self.pz) < 1:
            raise DimensionError(f"patch extents must be >= 1, got {self!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.px, self.py, self.pz)


# Slab-like profile: full axial field of view, moderate depth.
PATCH5 = PatchSpec(192, 208, 64, name="patch5")


def patch1(px: int, py: int) -> PatchSpec:
    """Pencil-like profile: deepest z extent, in-plane extents user-chosen."""
    return PatchSpec(px, py, 144, name="patch1")


def extract_patch(vol, origin, spec: PatchSpec):
    """Copy a patch of exactly ``spec`` voxels starting at ``origin``.

    Out-of-bounds regions are padded with 0.0 for images and
    ``BACKGROUND`` for labels. The origin may be negative or beyond the
    volume; padding covers any overhang.
    """
    ox, oy, oz = (int(v) for v in origin)
    h, w, z = vol.dims
    px, py, pz = spec.as_tuple()

    # zeros are BACKGROUND for labels; laid out like the source, so the
    # overlap copies run in memory order
    out = np.zeros((px, py, pz), vol.data.dtype, order="F" if np.isfortran(vol.data) else "C")

    # Overlap between the requested box and the volume, in both frames.
    sx0, sx1 = max(ox, 0), min(ox + px, h)
    sy0, sy1 = max(oy, 0), min(oy + py, w)
    sz0, sz1 = max(oz, 0), min(oz + pz, z)
    if sx0 < sx1 and sy0 < sy1 and sz0 < sz1:
        out[sx0 - ox:sx1 - ox, sy0 - oy:sy1 - oy, sz0 - oz:sz1 - oz] = \
            vol.data[sx0:sx1, sy0:sy1, sz0:sz1]
    return type(vol)(out, vol.spacing)

