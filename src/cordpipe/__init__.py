"""cordpipe: sparse-to-dense spinal cord segmentation toolkit.

Volumetric data model, NIfTI-1 I/O, intensity preprocessing, spatial
augmentation, soft boundary labels, region splitting/merging,
pseudo-label assembly (TTA, ensembling, slice stacking), evaluation
metrics (Dice, HD95, inter-slice Dice) and a synthetic cord phantom.
"""

from .volume import (
    BACKGROUND,
    CLASS_NAMES,
    FOREGROUND_CLASSES,
    HEALTHY_GM,
    HEALTHY_WM,
    LESION_GM,
    LESION_WM,
    PATCH5,
    LabelVolume,
    PatchSpec,
    ScalarVolume,
    SoftLabelVolume,
    Spacing,
    extract_patch,
    patch1,
)
from .nifti import (
    SparseAnnotation,
    gzip_nifti,
    read_nifti,
    read_sparse_annotation,
    write_nifti,
    write_sparse_annotation,
)
from .preprocess import (
    ClaheConfig,
    OtsuResult,
    StretchConfig,
    apply_mask,
    clahe_slicewise,
    minmax_rescale,
    otsu_mask,
    percentile_stretch,
    zscore_normalize,
)
from .augment import (
    AUG1,
    AUG2,
    AUG3,
    AugProfile,
    SampledTransform,
    build_matrix,
    sample_transform,
    slice_seed,
    warp_pair,
)
from .softlabel import (
    SOFT1,
    SOFT2,
    SOFT3,
    SoftProfile,
    boundary_margin,
    harden,
    soften,
)
from .regions import RegionStack, merge_region_arrays, merge_regions, to_regions
from .metrics import (
    ClassMetrics,
    MetricsReport,
    dice,
    evaluate,
    fold_aggregate,
    hd95,
    inter_slice_dice,
    report_to_csv,
    surface_mask,
)
from .pseudolabel import (
    MockPredictor,
    SlicePredictor,
    SubprocessPredictor,
    TtaConfig,
    ensemble,
    jitter_score,
    predict_labels,
    predict_volume,
    predict_with_tta,
    stack_slices,
)
from .phantom import (
    ButterflyShape,
    LesionModel,
    PhantomConfig,
    generate,
    perturb_slices,
)

__version__ = "0.1.0"
