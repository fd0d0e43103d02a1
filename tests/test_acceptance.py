"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Tolerances are pinned here, not calibrated elsewhere.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from cordpipe import (
    AUG1,
    AUG2,
    AUG3,
    SOFT1,
    SOFT2,
    SOFT3,
    AugProfile,
    LabelVolume,
    MockPredictor,
    PhantomConfig,
    RegionStack,
    ScalarVolume,
    Spacing,
    StretchConfig,
    TtaConfig,
    apply_mask,
    dice,
    ensemble,
    evaluate,
    generate,
    gzip_nifti,
    hd95,
    inter_slice_dice,
    jitter_score,
    merge_regions,
    otsu_mask,
    percentile_stretch,
    perturb_slices,
    predict_volume,
    predict_with_tta,
    read_nifti,
    sample_transform,
    soften,
    to_regions,
    warp_pair,
    write_nifti,
)
from cordpipe.errors import DegenerateHistogramError
from cordpipe.nifti import DT_INT16, HEADER_SIZE
from cordpipe.softlabel import PROFILES as SOFT_PROFILES
from cordpipe.volume import FOREGROUND_CLASSES, LESION_GM

from oracles import (
    brute_hd95,
    exhaustive_otsu_bin,
    loop_margin,
    reference_nifti_header,
    set_dice,
    set_inter_slice_dice,
)

ISO = Spacing.isotropic()


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:02d} {status}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    checked = 0
    for _ in range(200):
        dims = (int(rng.integers(4, 17)), int(rng.integers(4, 17)),
                int(rng.integers(2, 9)))
        a = LabelVolume(rng.integers(0, 5, dims).astype(np.uint8), ISO)
        b = LabelVolume(rng.integers(0, 5, dims).astype(np.uint8), ISO)
        for cid in FOREGROUND_CLASSES:
            g = a.data == cid
            p = b.data == cid
            assert dice(g, p) == set_dice(g, p)
            assert inter_slice_dice(a, cid) == set_inter_slice_dice(a.data, cid)
            got = hd95(g, p, ISO)
            want = brute_hd95(g, p, ISO.as_tuple())
            if got is None or want is None:
                assert got == want
            else:
                assert abs(got - want) <= 1e-9
        checked += 1
    elapsed = time.monotonic() - start
    _report(1, checked == 200 and elapsed < 60.0,
            f"{checked} random pairs, dice/DSC_z exact, hd95 within 1e-9, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_02_transition_semantics():
    # identical consecutive slices
    const = np.zeros((4, 4, 5), np.uint8)
    const[1:3, 1:3, :] = 1
    ok = inter_slice_dice(LabelVolume(const, ISO), 1) == 1.0

    # transitions {1.0, 0.5} average to 0.75
    fx = np.zeros((4, 4, 3), np.uint8)
    fx[0, 0:2, 0] = 1
    fx[0, 0:2, 1] = 1
    fx[0, 1:3, 2] = 1
    ok &= inter_slice_dice(LabelVolume(fx, ISO), 1) == 0.75

    # class absent everywhere: no valid transition, undefined
    ok &= inter_slice_dice(LabelVolume(np.zeros((4, 4, 4), np.uint8), ISO), 2) is None
    _report(2, ok, "constant=1.0, {1.0,0.5} fixture=0.75, absent=undefined")


def test_criterion_03_hd95_spacing_law():
    rng = np.random.default_rng(103)
    pairs = 0
    for _ in range(100):
        g = rng.random((10, 10, 6)) < 0.3
        p = rng.random((10, 10, 6)) < 0.3
        if not g.any() or not p.any():
            continue
        h_fine = hd95(g, p, Spacing.isotropic(0.075))
        h_coarse = hd95(g, p, Spacing.isotropic(0.150))
        assert h_coarse == 2.0 * h_fine
        pairs += 1
    _report(3, pairs > 90, f"hd95(0.150mm) == 2 x hd95(0.075mm) exactly on {pairs} pairs")


def test_criterion_04_region_roundtrip():
    rng = np.random.default_rng(104)
    for _ in range(500):
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                int(rng.integers(1, 6)))
        labels = LabelVolume(rng.integers(0, 5, dims).astype(np.uint8), ISO)
        back = merge_regions(to_regions(labels), ISO)
        assert np.array_equal(back.data, labels.data)
    _report(4, True, "merge_regions(to_regions(L)) == L for 500 random volumes")


def test_criterion_05_soft_label_exactness():
    plane = np.zeros((11, 11), np.uint8)
    plane[3:8, 3:8] = LESION_GM
    ch = soften(LabelVolume(plane[:, :, None], ISO), SOFT2).class_channel(LESION_GM)[:, :, 0]

    expected = np.zeros((11, 11), np.float32)
    expected[2:9, 2:9] = np.float32(0.4)
    expected[4:7, 4:7] = 1.0
    ok = np.array_equal(ch, expected)

    margin = loop_margin(plane == LESION_GM, 3)
    oracle = np.zeros_like(expected)
    oracle[(plane == LESION_GM) & ~margin] = 1.0
    oracle[margin] = np.float32(0.4)
    ok &= np.array_equal(ch, oracle)

    # all three published profiles carry their exact values
    ok &= SOFT1.weights == {1: 0.9, 2: 0.9, 3: 0.6, 4: 0.4}
    ok &= SOFT1.kernels == {1: 7, 2: 3, 3: 5, 4: 7}
    ok &= SOFT2.weights == {1: 0.9, 2: 0.9, 3: 0.6, 4: 0.4}
    ok &= SOFT2.kernels == {1: 7, 2: 3, 3: 3, 4: 3}
    ok &= SOFT3.weights == {1: 0.7, 2: 0.6, 3: 0.2, 4: 0.2}
    ok &= SOFT3.kernels == {1: 5, 2: 3, 3: 3, 4: 3}
    ok &= set(SOFT_PROFILES) == {"soft1", "soft2", "soft3"}
    _report(5, ok, "5x5 square voxel-exact vs morphology oracle; profiles exact")


def test_criterion_06_otsu_equivalence():
    rng = np.random.default_rng(106)
    for _ in range(100):
        n0 = int(rng.integers(40, 300))
        n1 = int(rng.integers(40, 300))
        lo_mu = float(rng.uniform(5, 40))
        hi_mu = lo_mu + float(rng.uniform(25, 80))
        data = np.concatenate([rng.normal(lo_mu, 3.0, n0),
                               rng.normal(hi_mu, 4.0, n1)]).astype(np.float32)
        data = data[: (data.size // 2) * 2].reshape(2, -1, 1)
        res = otsu_mask(ScalarVolume(data, ISO))
        t = exhaustive_otsu_bin(data)
        edges = np.linspace(float(data.min()), float(data.max()), 257)
        assert res.threshold == float(edges[t + 1])
    with pytest.raises(DegenerateHistogramError):
        otsu_mask(ScalarVolume(np.full((3, 3, 3), 1.0, np.float32), ISO))
    _report(6, True, "100 bimodal volumes match the exhaustive 256-bin search; "
                     "constant volume raises")


def test_criterion_07_stretch_constants():
    cfg = StretchConfig()
    ok = (cfg.p_low, cfg.p_high) == (15.0, 70.0)
    vals = np.concatenate([np.arange(101, dtype=np.float32), [42.5]]).reshape(102, 1, 1)
    mask = np.ones_like(vals)
    mask[101] = 0
    out = percentile_stretch(ScalarVolume(vals, ISO), cfg, mask=mask).data
    ok &= abs(out[15, 0, 0] - 0.0) <= 1e-12
    ok &= abs(out[70, 0, 0] - 1.0) <= 1e-12
    ok &= abs(out[101, 0, 0] - 0.5) <= 1e-12
    _report(7, ok, "defaults (15, 70); fixture maps 15->0, 70->1, 42.5->0.5 within 1e-12")


def test_criterion_08_augmentation_profiles():
    plane_shape = (24, 24)
    for profile in (AUG1, AUG2, AUG3):
        for seed in range(10_000):
            t = sample_transform(profile, seed=seed, plane_shape=plane_shape)
            assert abs(t.translation[0]) <= profile.translation_frac
            assert abs(t.translation[1]) <= profile.translation_frac
            assert abs(t.rotation_deg) <= profile.rotation_deg
            assert profile.scale[0] <= t.scale <= profile.scale[1]
            assert profile.shear_deg[0] <= t.shear_deg <= profile.shear_deg[1]
            assert abs(t.perspective[0]) <= profile.perspective
            assert abs(t.perspective[1]) <= profile.perspective

    rng = np.random.default_rng(108)
    zero = AugProfile(0.0, 0.0, (1.0, 1.0), (0.0, 0.0), 0.0, name="zero")
    ident = sample_transform(zero, seed=0)
    plane = rng.random(plane_shape).astype(np.float32)
    labels_plane = rng.integers(0, 5, plane_shape).astype(np.uint8)
    (out,), out_labels = warp_pair([plane], labels_plane, ident)
    assert out.tobytes() == plane.tobytes()
    assert out_labels.tobytes() == labels_plane.tobytes()

    for seed in range(10_000):
        ids = tuple(sorted(rng.choice(5, size=2, replace=False)))
        lp = np.zeros(plane_shape, np.uint8)
        lp[rng.random(plane_shape) > 0.5] = ids[1]
        lp[rng.random(plane_shape) > 0.8] = ids[0]
        t = sample_transform(AUG2, seed=seed, plane_shape=plane_shape)
        _, out = warp_pair([], lp, t)
        assert set(np.unique(out)) <= set(np.unique(lp)) | {0}
    _report(8, True, "10k draws per profile within table bounds; identity "
                     "bit-identical; 10k nearest warps closed over input ids")


def test_criterion_09_jitter_reproduction():
    worst = 1.0
    for seed in range(20):
        _, _, labels = generate(PhantomConfig(seed=seed))
        base = jitter_score(labels)
        shaken = jitter_score(perturb_slices(labels, max_shift=1, seed=9000 + seed))
        for cid in FOREGROUND_CLASSES:
            assert base[cid] is not None and shaken[cid] is not None
            drop = base[cid] - shaken[cid]
            worst = min(worst, drop)
            assert shaken[cid] <= base[cid] - 0.05
    _report(9, True, f"per-slice jitter lowers DSC_z by >= 0.05 for every class "
                     f"across 20 seeds (min drop {worst:.3f}); direction matches "
                     f"the stacked-2D < 3D ordering")


def test_criterion_10_tta_and_ensemble_algebra():
    rng = np.random.default_rng(110)
    mag = rng.random((16, 16)).astype(np.float32)
    phs = rng.random((16, 16)).astype(np.float32)
    pred = MockPredictor({0: (0.1, 0.5), 1: (0.4, 0.2), 2: (0.6, 0.8),
                          3: (0.8, 0.5), 4: (0.95, 0.9)})
    plain = pred.predict(mag, phs)
    tta = predict_with_tta(pred, mag, phs, TtaConfig())
    ok = all(np.array_equal(a, b) for a, b in zip(plain.channels(), tta.channels()))

    stack = RegionStack(rng.random((6, 6, 3)), rng.random((6, 6, 3)),
                        rng.random((6, 6, 3)))
    same = ensemble([stack] * 5)
    ok &= all(np.allclose(a, b, atol=1e-15)
              for a, b in zip(same.channels(), stack.channels()))

    stacks = [RegionStack(rng.random((5, 5)), rng.random((5, 5)), rng.random((5, 5)))
              for _ in range(6)]
    base = ensemble(stacks)
    perm = list(rng.permutation(6))
    shuffled = ensemble([stacks[i] for i in perm])
    ok &= all(np.abs(a - b).max() <= 1e-12
              for a, b in zip(base.channels(), shuffled.channels()))
    _report(10, ok, "TTA exact no-op for equivariant predictor; ensemble "
                    "idempotent and permutation-invariant")


def test_criterion_11_nifti_roundtrip():
    rng = np.random.default_rng(111)
    for _ in range(100):
        dims = (int(rng.integers(2, 10)), int(rng.integers(2, 10)),
                int(rng.integers(1, 8)))
        fvol = ScalarVolume(rng.random(dims, dtype=np.float32), ISO)
        assert read_nifti(write_nifti(fvol)).data.tobytes() == fvol.data.tobytes()

        ivol = ScalarVolume(rng.integers(-999, 999, dims).astype(np.float32), ISO)
        raw = write_nifti(ivol, datatype=DT_INT16)
        assert read_nifti(raw).data.tobytes() == ivol.data.tobytes()

        lvol = LabelVolume(rng.integers(0, 5, dims).astype(np.uint8), ISO)
        assert np.array_equal(read_nifti(write_nifti(lvol), labels=True).data,
                              lvol.data)

    native = ScalarVolume(np.zeros((4, 4, 2), np.float32),
                          Spacing(0.075, 0.075, 0.075))
    back = read_nifti(write_nifti(native))
    ok = back.spacing == Spacing(np.float32(0.075), np.float32(0.075),
                                 np.float32(0.075))

    raw = write_nifti(native)
    ok &= raw[:HEADER_SIZE] == reference_nifti_header(
        (4, 4, 2), (np.float32(0.075),) * 3, 16, 32)
    ok &= np.array_equal(read_nifti(gzip_nifti(raw)).data,
                         read_nifti(raw).data)
    _report(11, ok, "300 round-trips bit-exact; golden header byte-for-byte; "
                    "gzip == plain")


def test_criterion_12_end_to_end_pipeline():
    start = time.monotonic()
    mag, phs, labels = generate(PhantomConfig(seed=12))

    res = otsu_mask(mag)
    mag_m = apply_mask(mag, res.mask)
    phs_m = apply_mask(phs, res.mask)
    mag_p = percentile_stretch(mag_m, StretchConfig(), mask=res.mask)
    phs_p = percentile_stretch(phs_m, StretchConfig(), mask=res.mask)

    predictor = MockPredictor.fit(mag_p, phs_p, labels)
    stack = predict_volume(predictor, mag_p, phs_p, tta=TtaConfig())
    merged = merge_regions(stack, labels.spacing)
    report = evaluate(merged, labels, volume_id="phantom-12")

    elapsed = time.monotonic() - start
    ok = report.mean_dice is not None and report.mean_dice > 0.9 and elapsed < 120.0
    _report(12, ok, f"phantom -> preprocess -> TTA inference -> stack -> merge "
                    f"-> evaluate at 64^3: mean foreground dice "
                    f"{report.mean_dice:.3f} > 0.9 in {elapsed:.1f}s < 120s")
