"""Boundary-uncertainty soft labels from morphological margins.

Softens a small lesion plane with each published profile and renders
the per-class target map as text: the core keeps 1.0, the margin ring
drops to the class weight alpha, everything else stays 0.
"""

import numpy as np

from cordpipe import (
    SOFT1,
    SOFT2,
    SOFT3,
    LabelVolume,
    Spacing,
    boundary_margin,
    harden,
    soften,
)
from cordpipe.volume import LESION_GM


def render(channel):
    symbols = {0.0: ".", 1.0: "#"}
    lines = []
    for row in channel:
        lines.append(" ".join(symbols.get(float(v), "o") for v in row))
    return "\n".join(lines)


plane = np.zeros((15, 15), np.uint8)
plane[5:10, 5:10] = LESION_GM
labels = LabelVolume(plane[:, :, None], Spacing.isotropic())  # one axial slice

print("hard 5x5 lesion-gm square; margins from dilation minus erosion\n")
for profile in (SOFT1, SOFT2, SOFT3):
    alpha = profile.weights[LESION_GM]
    k = profile.kernels[LESION_GM]
    ch = soften(labels, profile).class_channel(LESION_GM)[:, :, 0]
    print(f"{profile.name}: alpha={alpha}, kernel={k} "
          f"(o = {alpha}, # = 1.0, . = 0.0)")
    print(render(ch))
    print()

margin3 = boundary_margin(plane == LESION_GM, 3)
margin7 = boundary_margin(plane == LESION_GM, 7)
print(f"margin voxels: k=3 -> {int(margin3.sum())}, k=7 -> {int(margin7.sum())} "
      f"(wider kernels strictly contain narrower ones: "
      f"{bool((margin3 <= margin7).all())})")

# hardening inverts softening where alpha > 0.5; low-confidence lesion
# weights fall below the threshold and their margins return to background
soft = soften(labels, SOFT2)
back = harden(soft)
core = np.zeros_like(plane)
core[6:9, 6:9] = LESION_GM
print(f"\nharden(soften(plane)) with soft2 lesion alpha 0.4 < 0.5 keeps only "
      f"the core: {np.array_equal(back.data[:, :, 0], core)}")
