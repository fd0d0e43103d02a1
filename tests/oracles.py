"""Independent brute-force oracles used by the tests.

Everything here is deliberately written the slow, obvious way (explicit
loops, set arithmetic, all-pairs distances) and shares no code with the
package implementations it checks.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np


# ---------------------------------------------------------------------------
# set-based overlap metrics


def set_dice(g: np.ndarray, p: np.ndarray):
    """Dice via Python sets of coordinate tuples."""
    gs = {tuple(c) for c in np.argwhere(np.asarray(g, dtype=bool))}
    ps = {tuple(c) for c in np.argwhere(np.asarray(p, dtype=bool))}
    if not gs and not ps:
        return None
    return 2 * len(gs & ps) / (len(gs) + len(ps))


def set_inter_slice_dice(label_data: np.ndarray, class_id: int):
    """Inter-slice Dice via per-slice coordinate sets.

    Sums transition scores in ascending z so the arithmetic matches a
    sequential mean.
    """
    z_extent = label_data.shape[2]
    slices = []
    for z in range(z_extent):
        slices.append({tuple(c) for c in np.argwhere(label_data[:, :, z] == class_id)})
    scores = []
    for z in range(z_extent - 1):
        a, b = slices[z], slices[z + 1]
        if len(a) + len(b) == 0:
            continue
        scores.append(2 * len(a & b) / (len(a) + len(b)))
    if not scores:
        return None
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# surface distances


def loop_surface(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Boundary voxels by explicit 6-neighbor (4 in 2D) inspection."""
    mask = np.asarray(mask, dtype=bool)
    coords = []
    offsets = []
    for axis in range(mask.ndim):
        for step in (-1, 1):
            off = [0] * mask.ndim
            off[axis] = step
            offsets.append(tuple(off))
    for idx in np.argwhere(mask):
        idx = tuple(idx)
        boundary = False
        for off in offsets:
            nb = tuple(i + o for i, o in zip(idx, off))
            if any(n < 0 or n >= s for n, s in zip(nb, mask.shape)):
                boundary = True  # zero-padded exterior
                break
            if not mask[nb]:
                boundary = True
                break
        if boundary:
            coords.append(idx)
    return coords


def linear_percentile(values, q: float) -> float:
    """Percentile with linear interpolation between order statistics."""
    vals = sorted(float(v) for v in values)
    if len(vals) == 1:
        return vals[0]
    pos = q / 100.0 * (len(vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return vals[lo] * (1 - frac) + vals[hi] * frac


def brute_hd95(g: np.ndarray, p: np.ndarray, spacing) -> float | None:
    """All-pairs symmetric 95th-percentile surface distance in mm."""
    g = np.asarray(g, dtype=bool)
    p = np.asarray(p, dtype=bool)
    if not g.any() and not p.any():
        return 0.0
    if not g.any() or not p.any():
        return None
    scale = np.asarray(spacing[:g.ndim], dtype=np.float64)
    gs = np.asarray(loop_surface(g), dtype=np.float64) * scale
    ps = np.asarray(loop_surface(p), dtype=np.float64) * scale

    def directed(a, b):
        dists = []
        for pt in a:
            dists.append(np.sqrt(((b - pt) ** 2).sum(axis=1)).min())
        return linear_percentile(dists, 95.0)

    return max(directed(gs, ps), directed(ps, gs))


# ---------------------------------------------------------------------------
# morphology


def loop_dilate(mask: np.ndarray, k: int) -> np.ndarray:
    """Binary dilation with a k x k square element, zero padding."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    r = k // 2
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            hit = False
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and mask[ni, nj]:
                        hit = True
                        break
                if hit:
                    break
            out[i, j] = hit
    return out


def loop_erode(mask: np.ndarray, k: int) -> np.ndarray:
    """Binary erosion with a k x k square element, zero padding."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    r = k // 2
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            ok = True
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < h and 0 <= nj < w) or not mask[ni, nj]:
                        ok = False
                        break
                if not ok:
                    break
            out[i, j] = ok
    return out


def loop_margin(mask: np.ndarray, k: int) -> np.ndarray:
    return loop_dilate(mask, k) & ~loop_erode(mask, k)


# ---------------------------------------------------------------------------
# histograms


def exhaustive_otsu_bin(data: np.ndarray, nbins: int = 256) -> int:
    """Search every candidate split of the histogram, fresh sums each
    time, and return the argmax bin of the between-class variance."""
    flat = np.asarray(data, dtype=np.float64).ravel()
    lo, hi = flat.min(), flat.max()
    hist, edges = np.histogram(flat, bins=nbins, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2.0
    best_t, best_sigma = None, -1.0
    for t in range(nbins - 1):
        w0 = int(hist[: t + 1].sum())
        w1 = int(hist[t + 1:].sum())
        if w0 == 0 or w1 == 0:
            continue
        mu0 = float((hist[: t + 1] * centers[: t + 1]).sum()) / w0
        mu1 = float((hist[t + 1:] * centers[t + 1:]).sum()) / w1
        sigma = w0 * w1 * (mu0 - mu1) ** 2
        if sigma > best_sigma:
            best_sigma, best_t = sigma, t
    return best_t


def global_hist_equalize(plane: np.ndarray, nbins: int) -> np.ndarray:
    """Plain global histogram equalization through the CDF."""
    plane = np.asarray(plane, dtype=np.float64)
    counts = [0] * nbins
    for v in plane.ravel():
        b = min(int(v * nbins), nbins - 1)
        counts[b] += 1
    cdf = []
    run = 0
    for c in counts:
        run += c
        cdf.append(run / plane.size)
    out = np.empty_like(plane)
    for idx, v in np.ndenumerate(plane):
        out[idx] = cdf[min(int(v * nbins), nbins - 1)]
    return out


def loop_clahe_plane(plane: np.ndarray, tiles: tuple[int, int], clip_limit: float,
                     nbins: int) -> np.ndarray:
    """Zuiderveld CLAHE of one plane, one tile and one pixel at a time.

    Tile edges are the rounded uniform split of each axis; tile
    histograms are clipped at ``max(1, ceil(clip_limit * tile_pixels))``
    (raised to the uniform level if below it), and the excess is
    waterfilled one round at a time: an equal share to every bin under
    the clip, capped at the clip, and once the excess is smaller than the
    number of open bins, +1 to the first of them. Pixels blend the CDFs
    of the four nearest tile centers bilinearly, clamped at the edges.
    """
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    tx, ty = tiles
    xe = [int(v) for v in np.linspace(0, h, tx + 1).round()]
    ye = [int(v) for v in np.linspace(0, w, ty + 1).round()]

    def to_bin(v):
        return min(int(v * nbins), nbins - 1)

    luts = {}
    for i in range(tx):
        for j in range(ty):
            counts = [0] * nbins
            npix = 0
            for x in range(xe[i], xe[i + 1]):
                for y in range(ye[j], ye[j + 1]):
                    counts[to_bin(plane[x, y])] += 1
                    npix += 1
            clip = max(1, math.ceil(clip_limit * npix), -(-npix // nbins))
            excess = sum(max(c - clip, 0) for c in counts)
            counts = [min(c, clip) for c in counts]
            while excess > 0:
                open_bins = [b for b in range(nbins) if counts[b] < clip]
                share = excess // len(open_bins)
                if share == 0:
                    for b in open_bins[:excess]:
                        counts[b] += 1
                    break
                for b in open_bins:
                    add = min(clip - counts[b], share)
                    counts[b] += add
                    excess -= add
            cdf, run = [], 0
            for c in counts:
                run += c
                cdf.append(run / npix)
            luts[i, j] = cdf

    cx = [(xe[i] + xe[i + 1] - 1) / 2.0 for i in range(tx)]
    cy = [(ye[j] + ye[j + 1] - 1) / 2.0 for j in range(ty)]

    def lower(centers, g):
        """Last tile whose center is <= g (the first tile before any)."""
        k = 0
        for n, c in enumerate(centers):
            if c <= g:
                k = n
        return k

    def frac(centers, k0, k1, g):
        span = centers[k1] - centers[k0]
        if span <= 0:
            return 0.0
        return min(max((g - centers[k0]) / span, 0.0), 1.0)

    out = np.empty((h, w), dtype=np.float32)
    for x in range(h):
        i0 = lower(cx, x)
        i1 = min(i0 + 1, tx - 1)
        fx = frac(cx, i0, i1, float(x))
        for y in range(w):
            j0 = lower(cy, y)
            j1 = min(j0 + 1, ty - 1)
            fy = frac(cy, j0, j1, float(y))
            b = to_bin(plane[x, y])
            v = ((1 - fx) * (1 - fy) * luts[i0, j0][b] + (1 - fx) * fy * luts[i0, j1][b]
                 + fx * (1 - fy) * luts[i1, j0][b] + fx * fy * luts[i1, j1][b])
            out[x, y] = min(max(v, 0.0), 1.0)
    return out


# ---------------------------------------------------------------------------
# in-plane warps


def _loop_source_coords(matrix, h: int, w: int):
    """Yield (x, y, src_x, src_y) for every output pixel of an (h, w) plane.

    Inverse mapping about the plane center, one pixel at a time in
    float64; a ray whose homogeneous divisor is within 1e-12 of zero
    diverges and is sent to x = -1e9, outside any plane.
    """
    inv = [[float(v) for v in row] for row in np.linalg.inv(np.asarray(matrix, dtype=np.float64))]
    cx, cy = (h - 1) / 2.0, (w - 1) / 2.0
    for x in range(h):
        for y in range(w):
            xs, ys = x - cx, y - cy
            u = inv[0][0] * xs + inv[0][1] * ys + inv[0][2]
            v = inv[1][0] * xs + inv[1][1] * ys + inv[1][2]
            d = inv[2][0] * xs + inv[2][1] * ys + inv[2][2]
            if abs(d) < 1e-12:
                yield x, y, -1e9, v + cy
            else:
                yield x, y, u / d + cx, v / d + cy


def loop_warp_image(plane: np.ndarray, matrix, fill: float = 0.0) -> np.ndarray:
    """Bilinear inverse warp, one pixel and one corner at a time.

    Each corner outside the plane contributes ``fill``; the four weighted
    terms are summed in float64 from 0.0 in the order (0,0), (0,1),
    (1,0), (1,1) and rounded to float32. The identity matrix returns an
    exact copy (the general path would turn -0.0 into +0.0).
    """
    plane = np.asarray(plane, dtype=np.float32)
    if np.array_equal(matrix, np.eye(3)):
        return plane.copy()
    h, w = plane.shape
    out = np.empty((h, w), dtype=np.float32)
    for x, y, sx, sy in _loop_source_coords(matrix, h, w):
        x0, y0 = math.floor(sx), math.floor(sy)
        fx, fy = sx - x0, sy - y0
        acc = 0.0
        for dx, dy, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, (1 - fx) * fy),
                            (1, 0, fx * (1 - fy)), (1, 1, fx * fy)):
            xi, yi = x0 + dx, y0 + dy
            inside = 0 <= xi < h and 0 <= yi < w
            acc += wgt * (float(plane[xi, yi]) if inside else float(fill))
        out[x, y] = acc
    return out


def loop_warp_labels(plane: np.ndarray, matrix, fill: int = 0) -> np.ndarray:
    """Nearest-neighbor inverse warp, rounding half to even, one pixel at
    a time; samples outside the plane take ``fill`` in the plane's dtype."""
    plane = np.asarray(plane)
    h, w = plane.shape
    out = np.empty((h, w), dtype=plane.dtype)
    for x, y, sx, sy in _loop_source_coords(matrix, h, w):
        xi, yi = round(sx), round(sy)
        out[x, y] = plane[xi, yi] if 0 <= xi < h and 0 <= yi < w else fill
    return out


def where_warp(plane: np.ndarray, labels: np.ndarray, matrix):
    """Bilinear and nearest-neighbor inverse warps with whole-grid numpy
    comparisons: the formula of the earlier vectorized ``warp_pair``.

    Unlike the loops above it accepts non-finite source coordinates: a
    NaN or infinite coordinate fails every bounds comparison, so each
    corner and sample reads the fill, and the NaN weights it gets carry
    into the image as in the per-corner float64 sum.
    """
    plane = np.asarray(plane, dtype=np.float32)
    labels = np.asarray(labels)
    h, w = plane.shape
    cx, cy = (h - 1) / 2.0, (w - 1) / 2.0
    inv = np.linalg.inv(np.asarray(matrix, dtype=np.float64))
    xs, ys = np.meshgrid(np.arange(h, dtype=np.float64) - cx,
                         np.arange(w, dtype=np.float64) - cy, indexing="ij")
    u = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
    v = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
    d = inv[2, 0] * xs + inv[2, 1] * ys + inv[2, 2]
    bad = np.abs(d) < 1e-12
    d = np.where(bad, 1.0, d)
    src_x, src_y = u / d + cx, v / d + cy
    src_x[bad] = -1e9

    def flat_index(xi, yi):  # h * w, the fill slot, outside the plane
        inside = (xi >= 0) & (xi < h) & (yi >= 0) & (yi < w)
        return np.where(inside, xi * w + yi, h * w).astype(np.intp)

    x0, y0 = np.floor(src_x), np.floor(src_y)
    fx, fy = src_x - x0, src_y - y0
    flat, image = np.append(plane.ravel(), np.float64(0.0)), np.zeros((h, w))
    for dx, dy, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, (1 - fx) * fy),
                        (1, 0, fx * (1 - fy)), (1, 1, fx * fy)):
        image += wgt * flat[flat_index(x0 + dx, y0 + dy)]
    flat = np.append(labels.ravel(), np.zeros(1, labels.dtype))
    return image.astype(np.float32), flat[flat_index(np.rint(src_x), np.rint(src_y))]


# ---------------------------------------------------------------------------
# memory layouts


LAYOUTS = ["C", "F", "reversed", "strided"]


def laid_out(data, layout):
    """``data`` with equal values in another memory layout."""
    if layout == "C":
        return np.ascontiguousarray(data)
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "reversed":
        flip = (slice(None, None, -1),) * data.ndim
        return np.ascontiguousarray(data[flip])[flip]
    # every other element of a larger buffer
    wide = np.zeros(data.shape[:-1] + (2 * data.shape[-1],), data.dtype)
    wide[..., ::2] = data
    return wide[..., ::2]


# ---------------------------------------------------------------------------
# nearest-centroid prediction and region merge


def argmin_nearest_class(magnitude, phase, centers: dict) -> np.ndarray:
    """Class id of the nearest (magnitude, phase) center at every pixel.

    One float64 distance grid per class is stacked and ``np.argmin``
    picks the first of tied classes in id order; a missing phase reads
    as zeros.
    """
    mag = np.asarray(magnitude, dtype=np.float64)
    phs = np.zeros_like(mag) if phase is None else np.asarray(phase, dtype=np.float64)
    ids = sorted(centers)
    d2 = np.stack([(mag - centers[c][0]) ** 2 + (phs - centers[c][1]) ** 2 for c in ids])
    return np.asarray(ids)[np.argmin(d2, axis=0)]


def where_merge(wm, gm, lesion, tissue_thresh: float, lesion_thresh: float) -> np.ndarray:
    """Region merge through whole-array int64 ``np.where`` passes."""
    tissue_max = np.maximum(wm, gm)
    tissue = np.where(tissue_max < tissue_thresh, 0, np.where(gm >= wm, 2, 1))
    lesioned = (lesion >= lesion_thresh) & (tissue > 0)
    return (tissue + 2 * lesioned).astype(np.uint8)


# ---------------------------------------------------------------------------
# NIfTI header reference builder


def reference_nifti_header(dims, spacing, datatype_code, bitpix) -> bytes:
    """Build the expected 348-byte header with explicit field offsets."""
    buf = bytearray(348)
    struct.pack_into("<i", buf, 0, 348)                       # sizeof_hdr
    struct.pack_into("<c", buf, 38, b"r")                     # regular
    struct.pack_into("<8h", buf, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", buf, 70, datatype_code)            # datatype
    struct.pack_into("<h", buf, 72, bitpix)                   # bitpix
    struct.pack_into("<8f", buf, 76, 1.0, spacing[0], spacing[1], spacing[2],
                     0.0, 0.0, 0.0, 0.0)                      # pixdim
    struct.pack_into("<f", buf, 108, 352.0)                   # vox_offset
    struct.pack_into("<f", buf, 112, 1.0)                     # scl_slope
    struct.pack_into("<f", buf, 116, 0.0)                     # scl_inter
    struct.pack_into("<B", buf, 123, 2)                       # xyzt_units (mm)
    struct.pack_into("<4s", buf, 344, b"n+1\x00")             # magic
    return bytes(buf)


# ---------------------------------------------------------------------------
# deflate streams of the three gzip_nifti tiers


def stored_deflate(raw: bytes) -> bytes:
    """Raw deflate (RFC 1951) of ``raw`` as stored blocks of 65 535 bytes,
    the last one (an empty one for no data) final, built block by block."""
    starts = list(range(0, len(raw), 65535)) or [0]
    out = bytearray()
    for k, start in enumerate(starts):
        block = raw[start:start + 65535]
        out.append(1 if k == len(starts) - 1 else 0)          # BFINAL, BTYPE 00
        out += struct.pack("<H", len(block))                  # LEN
        out += struct.pack("<H", 0xFFFF - len(block))         # NLEN
        out += block
    return bytes(out)


def deflate_stream(raw: bytes, level: int, strategy: int) -> bytes:
    """The raw deflate body ``gzip_nifti`` writes for ``raw`` in the tier
    ``(level, strategy)``: stored blocks at level 0, else zlib's one-shot
    stream."""
    if level == 0:
        return stored_deflate(raw)
    deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS, 8, strategy)
    return deflate.compress(raw) + deflate.flush()
