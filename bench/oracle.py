"""Independent expected values for the dense evaluation report.

Dice counts voxels; HD95 queries a KD-tree over surface voxel centres.
Neither shares code with ``cordpipe.metrics`` (erosion plus Euclidean
distance transform), so a faster HD95 cannot pass the check by being
wrong the same way. Conventions match the package's frozen ones:
6-neighbourhood surfaces under a zero-padded exterior, distances between
voxel centres in mm, linear percentile interpolation, ``None`` for
undefined values.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

CLASS_NAMES = {1: "healthy_wm", 2: "healthy_gm", 3: "lesion_wm", 4: "lesion_gm"}
HD95_TOL_MM = 1e-9


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Coordinates of foreground voxels with a background face neighbour."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = mask.copy()
    core = tuple(slice(1, -1) for _ in range(mask.ndim))
    for axis in range(mask.ndim):
        for step in (-1, 1):
            interior &= np.roll(padded, step, axis=axis)[core]
    return np.argwhere(mask & ~interior)


def kdtree_hd95(g: np.ndarray, p: np.ndarray, spacing) -> float | None:
    g = np.asarray(g, dtype=bool)
    p = np.asarray(p, dtype=bool)
    if not g.any() and not p.any():
        return 0.0
    if not g.any() or not p.any():
        return None
    scale = np.asarray(spacing[:g.ndim], dtype=np.float64)
    gs = surface_voxels(g) * scale
    ps = surface_voxels(p) * scale
    d_gp = cKDTree(ps).query(gs)[0]
    d_pg = cKDTree(gs).query(ps)[0]
    return max(float(np.percentile(d_gp, 95)), float(np.percentile(d_pg, 95)))


def count_dice(g: np.ndarray, p: np.ndarray) -> float | None:
    denom = int(np.count_nonzero(g)) + int(np.count_nonzero(p))
    if denom == 0:
        return None
    return 2.0 * int(np.count_nonzero(g & p)) / denom


def expected_dense(gt: np.ndarray, pred: np.ndarray, spacing) -> dict:
    """Per-class {"dice", "hd95_mm"} for a dense label pair."""
    return {name: {"dice": count_dice(gt == cid, pred == cid),
                   "hd95_mm": kdtree_hd95(gt == cid, pred == cid, spacing)}
            for cid, name in CLASS_NAMES.items()}


def report_mismatches(report: dict, expected: dict) -> list[str]:
    """Differences between a JSON report and expected values: Dice must be
    equal, HD95 within ``HD95_TOL_MM``, and both undefined together."""
    out = []
    for name, want in expected.items():
        got = report["classes"][name]
        if got["dice"] != want["dice"]:
            out.append(f"{name} dice {got['dice']} != {want['dice']}")
        gh, wh = got["hd95_mm"], want["hd95_mm"]
        if (gh is None) != (wh is None) or (gh is not None and abs(gh - wh) > HD95_TOL_MM):
            out.append(f"{name} hd95 {gh} != {wh}")
    return out
