"""Boundary-uncertainty soft targets from hard labels.

Boundary margins come from morphological gradients (dilation minus
erosion) with per-class square kernels within each axial slice.
Inside a class's margin the target drops from 1 to the class weight
alpha; outside any margin the targets stay exactly 0 or 1.

The margin is symmetric around the boundary. On the outer side, alpha
is written only onto background voxels: uncertainty may spread into
unclaimed space but never onto voxels committed to another class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .volume import (
    BACKGROUND,
    FOREGROUND_CLASSES,
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
    LabelVolume,
    SoftLabelVolume,
)


@dataclass(frozen=True)
class SoftProfile:
    """Per-class weight alpha in (0, 1] and odd kernel size >= 3."""

    weights: dict
    kernels: dict
    name: str = ""

    def __post_init__(self):
        for cid in FOREGROUND_CLASSES:
            if cid not in self.weights or cid not in self.kernels:
                raise ConfigError(f"profile missing class id {cid}")
            a = self.weights[cid]
            k = self.kernels[cid]
            if not 0 < a <= 1:
                raise ConfigError(f"weight for class {cid} must be in (0, 1], got {a}")
            _check_kernel(k)


def _check_kernel(k: int) -> None:
    if k % 2 == 0 or k < 3:
        raise ConfigError(f"kernel size must be odd and >= 3, got {k}")


SOFT1 = SoftProfile(
    weights={HEALTHY_WM: 0.9, HEALTHY_GM: 0.9, LESION_WM: 0.6, LESION_GM: 0.4},
    kernels={HEALTHY_WM: 7, HEALTHY_GM: 3, LESION_WM: 5, LESION_GM: 7},
    name="soft1",
)
SOFT2 = SoftProfile(
    weights={HEALTHY_WM: 0.9, HEALTHY_GM: 0.9, LESION_WM: 0.6, LESION_GM: 0.4},
    kernels={HEALTHY_WM: 7, HEALTHY_GM: 3, LESION_WM: 3, LESION_GM: 3},
    name="soft2",
)
SOFT3 = SoftProfile(
    weights={HEALTHY_WM: 0.7, HEALTHY_GM: 0.6, LESION_WM: 0.2, LESION_GM: 0.2},
    kernels={HEALTHY_WM: 5, HEALTHY_GM: 3, LESION_WM: 3, LESION_GM: 3},
    name="soft3",
)

PROFILES = {p.name: p for p in (SOFT1, SOFT2, SOFT3)}

# Rarest class wins hardening ties.
_HARDEN_PRIORITY = (LESION_GM, LESION_WM, HEALTHY_GM, HEALTHY_WM)


def boundary_margin(mask: np.ndarray, k: int) -> np.ndarray:
    """Morphological gradient of a binary plane or (H, W, Z) volume:
    dilation minus erosion.

    Uses a k x k square structuring element within each axial plane and
    a zero-padded exterior, so erosion shrinks at the plane border.
    """
    _check_kernel(k)
    mask = np.asarray(mask).astype(bool)
    if mask.ndim not in (2, 3):
        raise ValidationError(f"margin expects a 2D plane or 3D volume, got shape {mask.shape}")
    return _margin(mask, k).astype(np.uint8)


def _margin(mask: np.ndarray, k: int) -> np.ndarray:
    """Boolean dilation & ~erosion of ``mask`` by a k x k square in axes 0
    and 1, with ``False`` outside.

    The square is a k-long segment along axis 0, then one along axis 1.
    Each pass ORs (dilation) and ANDs (erosion) the k shifted views of a
    ``False``-padded copy, laid out in the mask's own memory order. The
    axis-0 pass keeps the padded columns, which stay ``False``, so the
    axis-1 pass sees the same zero exterior.
    """
    r = k // 2
    h, w = mask.shape[:2]
    order = "F" if np.isfortran(mask) else "C"
    padded = np.zeros((h + 2 * r, w + 2 * r) + mask.shape[2:], dtype=bool, order=order)
    padded[r:r + h, r:r + w] = mask
    dil = padded[:h].copy(order="K")
    ero = dil.copy(order="K")
    for lo in range(1, k):
        dil |= padded[lo:lo + h]
        ero &= padded[lo:lo + h]
    dil2 = dil[:, :w].copy(order="K")
    ero2 = ero[:, :w].copy(order="K")
    for lo in range(1, k):
        dil2 |= dil[:, lo:lo + w]
        ero2 &= ero[:, lo:lo + w]
    return dil2 & ~ero2


def soften(labels: LabelVolume, profile: SoftProfile) -> SoftLabelVolume:
    """Soft targets for a volume; margins stay within each axial slice."""
    data = labels.data
    bg = data == BACKGROUND
    out = np.zeros((len(FOREGROUND_CLASSES),) + data.shape, dtype=np.float32)
    for cid in FOREGROUND_CLASSES:
        mask = data == cid
        if not mask.any():
            continue
        alpha = np.float32(profile.weights[cid])
        margin = _margin(mask, profile.kernels[cid])
        ch = out[cid - 1]
        ch[mask & ~margin] = 1.0
        ch[margin & mask] = alpha
        ch[margin & ~mask & bg] = alpha
    return SoftLabelVolume(out, labels.spacing)


def harden(soft: SoftLabelVolume, threshold: float = 0.5) -> LabelVolume:
    """Collapse soft targets to exclusive labels.

    Per voxel: argmax over class channels restricted to values >=
    threshold, background if none qualifies. Ties go to the rarest
    class (Lesion GM > Lesion WM > Healthy GM > Healthy WM).

    Lossy by design when a class weight sits below the threshold: its
    margin voxels fall back to background.
    """
    ordered = np.stack([soft.channels[cid - 1] for cid in _HARDEN_PRIORITY])
    best = np.argmax(ordered, axis=0)  # first (highest-priority) maximum wins
    best_val = np.take_along_axis(ordered, best[None], axis=0)[0]
    ids = np.asarray(_HARDEN_PRIORITY, dtype=np.uint8)[best]
    ids[best_val < threshold] = BACKGROUND
    return LabelVolume(ids, soft.spacing)
