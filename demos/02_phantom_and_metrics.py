"""Phantom generation and the evaluation metric suite.

Generates the synthetic cord phantom, degrades a copy of the ground
truth, and walks through Dice, HD95 and inter-slice Dice plus the
fold-level aggregation (mean, std, coefficient of variation).
"""

import numpy as np

from cordpipe import (
    PhantomConfig,
    evaluate,
    fold_aggregate,
    generate,
    perturb_slices,
    report_to_csv,
)
from cordpipe.volume import CLASS_NAMES, FOREGROUND_CLASSES

mag, phase, labels = generate(PhantomConfig(seed=0))
counts = {CLASS_NAMES[c]: int((labels.data == c).sum()) for c in FOREGROUND_CLASSES}
print(f"phantom {labels.dims} at {labels.spacing.dx} mm; voxels per class: {counts}")

# a sloppy "prediction": ground truth with its slices independently shifted
pred = perturb_slices(labels, max_shift=1, seed=1)

report = evaluate(pred, labels, volume_id="phantom-0")
print(f"\nevaluated {report.evaluated_slices} slices "
      f"(sparse={report.sparse_gt})")
for cid, cm in sorted(report.per_class.items()):
    print(f"  {CLASS_NAMES[cid]:<11} dice={cm.dice:.3f}  "
          f"hd95={cm.hd95_mm:.4f} mm  dscz={cm.dscz:.3f}")
print(f"mean foreground dice {report.mean_dice:.3f}, "
      f"mean hd95 {report.mean_hd95:.4f} mm")

# jitter shows up in the inter-slice Dice, not only in plain overlap
gt_report = evaluate(labels, labels, volume_id="gt")
print("\nlongitudinal smoothness (DSC_z), ground truth vs shifted copy:")
for cid in FOREGROUND_CLASSES:
    print(f"  {CLASS_NAMES[cid]:<11} {gt_report.per_class[cid].dscz:.3f} -> "
          f"{report.per_class[cid].dscz:.3f}")

# aggregate several folds
reports = []
for seed in range(4):
    _, _, gt = generate(PhantomConfig(seed=seed))
    reports.append(evaluate(perturb_slices(gt, 1, seed=seed + 100), gt,
                            volume_id=f"fold{seed}"))
agg = fold_aggregate(reports)
row = agg.row(4, "dice")
print(f"\n4-fold lesion-gm dice: {row.mean:.3f} +/- {row.std:.3f} "
      f"(CoV {row.cov_percent:.1f}%)")

print("\nCSV rows (frozen columns):")
print("\n".join(report_to_csv(reports).splitlines()[:3]))

doc = agg.to_json_dict()
print(f"\nJSON aggregate keys: {sorted(doc)}")
