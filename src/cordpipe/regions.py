"""Conversion between exclusive class labels and overlapping training
regions (white matter, gray matter, all lesions), and the merge that
resolves regional predictions back into exclusive labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ValidationError
from .volume import (
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
    LabelVolume,
    Spacing,
)


# The two class ids each region channel covers, in channel order: wm, gm
# and lesion.
REGION_CLASSES = ((HEALTHY_WM, LESION_WM), (HEALTHY_GM, LESION_GM), (LESION_WM, LESION_GM))


@dataclass(eq=False)
class RegionStack:
    """Three probability grids of equal shape: wm, gm and all-lesions.

    Shape may be 2D (one axial plane) or 3D (a volume); values in [0, 1],
    binary when derived from hard labels.
    """

    wm: np.ndarray
    gm: np.ndarray
    lesion: np.ndarray

    def __post_init__(self):
        self.wm = np.asarray(self.wm, dtype=np.float32)
        self.gm = np.asarray(self.gm, dtype=np.float32)
        self.lesion = np.asarray(self.lesion, dtype=np.float32)
        if not (self.wm.shape == self.gm.shape == self.lesion.shape):
            raise DimensionError("region channels must share one shape")
        if self.wm.ndim not in (2, 3):
            raise DimensionError(f"region stack must be 2D or 3D, got {self.wm.ndim}D")
        for name, ch in (("wm", self.wm), ("gm", self.gm), ("lesion", self.lesion)):
            if ch.size and not (ch.min() >= 0 and ch.max() <= 1):  # NaN fails too
                raise ValidationError(f"region channel {name} outside [0, 1]")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.wm.shape

    def channels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.wm, self.gm, self.lesion)


def to_regions(labels: LabelVolume | np.ndarray) -> RegionStack:
    """Expand exclusive labels into the overlapping region channels.

    wm covers healthy and lesioned white matter, gm likewise for gray
    matter, and lesion covers lesions of either tissue, so Lesion WM is
    recoverable as the intersection of wm and lesion. Each channel is
    two id comparisons, so a plane in any integer dtype works alike.
    """
    data = labels.data if isinstance(labels, LabelVolume) else np.asarray(labels)
    wm, gm, lesion = (((data == a) | (data == b)).astype(np.float32)
                      for a, b in REGION_CLASSES)
    return RegionStack(wm, gm, lesion)


def check_thresholds(tissue_thresh: float, lesion_thresh: float) -> None:
    """Raise ConfigError unless both merge thresholds lie in [0, 1]."""
    for name, t in (("tissue_thresh", tissue_thresh), ("lesion_thresh", lesion_thresh)):
        if not 0 <= t <= 1:  # NaN fails too
            raise ConfigError(f"merge {name} must lie in [0, 1], got {t!r}")


def merge_region_arrays(wm: np.ndarray, gm: np.ndarray, lesion: np.ndarray,
                        tissue_thresh: float = 0.5,
                        lesion_thresh: float = 0.5) -> np.ndarray:
    """Resolve region probabilities into exclusive class ids.

    A voxel is background when neither tissue channel reaches
    ``tissue_thresh``; otherwise the stronger tissue wins (ties go to
    gray matter). The lesion flag upgrades tissue voxels only; lesion
    signal over background is dropped. Both thresholds lie in [0, 1].

    The ids are built in uint8 from boolean passes: healthy tissue is
    ``HEALTHY_WM + (gm >= wm)``, a lesion adds 2, and background zeroes
    the voxel. NaN compares false, so it takes the same branch of each
    test as in a per-voxel ``if``.
    """
    check_thresholds(tissue_thresh, lesion_thresh)
    wm, gm, lesion = np.broadcast_arrays(wm, gm, lesion)
    ids = np.greater_equal(gm, wm).view(np.uint8)
    ids += HEALTHY_WM
    ids += np.greater_equal(lesion, lesion_thresh).view(np.uint8) * np.uint8(LESION_WM - HEALTHY_WM)
    ids *= ~np.less(np.maximum(wm, gm), tissue_thresh)
    return ids


def merge_regions(stack: RegionStack, spacing: Spacing,
                  tissue_thresh: float = 0.5,
                  lesion_thresh: float = 0.5) -> LabelVolume:
    """3D variant of :func:`merge_region_arrays` returning a LabelVolume."""
    if stack.wm.ndim != 3:
        raise DimensionError("merge_regions needs a 3D stack; use merge_region_arrays for planes")
    data = merge_region_arrays(stack.wm, stack.gm, stack.lesion,
                               tissue_thresh, lesion_thresh)
    return LabelVolume(data, spacing)
