"""Measured pass: drive cordpipe in-process over one workload's inputs.

A closed loop with one client: the next item starts only after the
previous one finished, and items start until ``--seconds`` have passed
(at least one). An item is one volume (``pseudolabel-slab``,
``evaluate-dense``) or one patch (``train-targets``). Output checks,
artifact digests and repetition agreement run after the timed loop.

With ``--trace 1`` an untraced pass is followed by a traced pass over the
same items; per-layer figures come from the traced one.

    python3 bench/measure.py --workload evaluate-dense --inputs DIR \
        --work DIR --seconds 10 --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cordpipe as cp  # noqa: E402
import cordpipe.cli  # noqa: E402

from artifacts import decode_nifti, digest, float32_payload, nifti_stream, sha256  # noqa: E402
from oracle import CLASS_NAMES, count_dice, report_mismatches  # noqa: E402
from spans import Tracer, top_level_coverage, totals_by_name, traced  # noqa: E402
from stats import tail  # noqa: E402


def run_cli(argv: list[str]) -> bool:
    """One CLI operation in-process; it fails on a non-zero exit or an
    exception."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cordpipe.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception:
        traceback.print_exc()
        return False
    if code != 0:
        print(f"bench: cordpipe {argv[0]} exited {code}", file=sys.stderr)
    return code == 0


class SlabWorkload:
    """preprocess -> stack (mock predictor, TTA) -> sparse evaluate."""

    ops = ("preprocess", "stack", "evaluate")

    def __init__(self, inputs: str, plan: dict):
        self.names = plan["volumes"]
        self.vols = [os.path.join(inputs, v) for v in self.names]
        self.annotated = plan["annotated"]
        self.voxels = int(np.prod(plan["dims"]))
        self._dense = {}

    def run(self, k: int, out: str):
        vol = self.vols[k]
        pre, pseudo = os.path.join(out, "pre.nii.gz"), os.path.join(out, "pseudo.nii.gz")
        chain = {
            "preprocess": ["preprocess", os.path.join(vol, "magnitude.nii.gz"),
                           "--otsu", "--stretch", "--clahe", "--out", pre],
            "stack": ["stack", "--predictor", "mock", "--input", pre,
                      "--phase", os.path.join(vol, "phase.nii.gz"),
                      "--fit-labels", os.path.join(vol, "labels.nii.gz"),
                      "--tta", "--threads", "1", "--out", pseudo],
            "evaluate": ["evaluate", pseudo, os.path.join(vol, "annotation.json"),
                         "--threads", "1", "--json", os.path.join(out, "report.json")],
        }
        ops = {}
        for op, argv in chain.items():
            ops[op] = run_cli(argv)
            if not ops[op]:
                break
        return ops, None

    def keep(self, result):
        return None

    def artifacts(self, out: str) -> dict:
        return {"pre.nii.gz": "preprocess", "pseudo.nii.gz": "stack",
                "report.json": "evaluate"}

    def check(self, k: int, out: str, record) -> dict:
        errors = {op: [] for op in self.ops}
        with open(os.path.join(out, "report.json")) as fh:
            scope = json.load(fh)["scope"]
        if scope != {"evaluated_slices": self.annotated, "sparse_gt": True}:
            errors["evaluate"].append(f"scope {scope}, expected {self.annotated} sparse planes")
        if k not in self._dense:
            labels = os.path.join(self.vols[k], "labels.nii.gz")
            self._dense[k] = decode_nifti(nifti_stream(labels)).copy()
        gt = self._dense[k]
        pred = decode_nifti(nifti_stream(os.path.join(out, "pseudo.nii.gz")))
        dices = [d for d in (count_dice(gt == c, pred == c) for c in CLASS_NAMES)
                 if d is not None]
        mean = sum(dices) / len(dices) if dices else 0.0
        if not mean > 0.9:
            errors["stack"].append(f"mean foreground Dice {mean:.4f} <= 0.9")
        return errors


class DenseWorkload:
    """``cordpipe evaluate pred gt --json`` against dense ground truth."""

    ops = ("evaluate",)

    def __init__(self, inputs: str, plan: dict, expected: dict):
        self.names = plan["volumes"]
        self.vols = [os.path.join(inputs, v) for v in self.names]
        self.depth = plan["dims"][2]
        self.voxels = int(np.prod(plan["dims"]))
        self.expected = expected

    def run(self, k: int, out: str):
        vol = self.vols[k]
        ok = run_cli(["evaluate", os.path.join(vol, "pred.nii.gz"),
                      os.path.join(vol, "gt.nii.gz"), "--threads", "1",
                      "--json", os.path.join(out, "report.json")])
        return {"evaluate": ok}, None

    def keep(self, result):
        return None

    def artifacts(self, out: str) -> dict:
        return {"report.json": "evaluate"}

    def check(self, k: int, out: str, record) -> dict:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        errors = report_mismatches(report, self.expected[self.names[k]])
        if report["scope"] != {"evaluated_slices": self.depth, "sparse_gt": False}:
            errors.append(f"scope {report['scope']}, expected {self.depth} dense planes")
        return {"evaluate": errors}


class PencilWorkload:
    """Training targets for one pencil patch: per-slice AUG2 warps, SOFT2
    soft labels and region channels, written as gzipped float32 NIfTI."""

    ops = ("patch",)

    def __init__(self, inputs: str, plan: dict):
        def load(name, labels=False):
            with open(os.path.join(inputs, name), "rb") as fh:
                return cp.read_nifti(fh.read(), labels=labels)

        self.mag = load("magnitude.nii")
        self.phase = load("phase.nii")
        self.labels = load("labels.nii", labels=True)
        self.spec = cp.patch1(*plan["patch"])
        self.origins = plan["origins"]
        self.seeds = plan["augment_seeds"]
        self.names = [f"patch{k}" for k in range(len(self.origins))]
        self.voxels = int(np.prod(self.spec.as_tuple()))
        self.alphas = {f"soft_{CLASS_NAMES[c]}": np.float32(a)
                       for c, a in cp.SOFT2.weights.items()}

    def run(self, k: int, out: str):
        try:
            arrays, source, warped = self._targets(k)
            for name, arr in arrays.items():
                raw = cp.gzip_nifti(cp.write_nifti(cp.ScalarVolume(arr, self.labels.spacing)))
                with open(os.path.join(out, f"{name}.nii.gz"), "wb") as fh:
                    fh.write(raw)
        except Exception:
            traceback.print_exc()
            return {"patch": False}, None
        return {"patch": True}, (arrays, source, warped)

    def _targets(self, k: int):
        origin, seed = self.origins[k], self.seeds[k]
        mag = cp.extract_patch(self.mag, origin, self.spec)
        phs = cp.extract_patch(self.phase, origin, self.spec)
        lab = cp.extract_patch(self.labels, origin, self.spec)
        h, w, depth = self.spec.as_tuple()
        wmag = np.empty((h, w, depth), np.float32)
        wphs = np.empty_like(wmag)
        wlab = np.empty((h, w, depth), np.uint8)
        for z in range(depth):
            t = cp.sample_transform(cp.AUG2, cp.slice_seed(seed, z), plane_shape=(h, w))
            (wmag[:, :, z], wphs[:, :, z]), wlab[:, :, z] = cp.warp_pair(
                [mag.data[:, :, z], phs.data[:, :, z]], lab.data[:, :, z], t)
        warped = cp.LabelVolume(wlab, lab.spacing)
        soft = cp.soften(warped, cp.SOFT2)
        regions = cp.to_regions(warped)
        arrays = {"warped_magnitude": wmag, "warped_phase": wphs}
        for cid, name in CLASS_NAMES.items():
            arrays[f"soft_{name}"] = soft.class_channel(cid)
        arrays.update(region_wm=regions.wm, region_gm=regions.gm, region_lesion=regions.lesion)
        return arrays, lab.data, wlab

    def keep(self, result):
        if result is None:
            return None
        arrays, source, warped = result
        return {"payload": {name: sha256(float32_payload(a)) for name, a in arrays.items()},
                "source_ids": set(np.unique(source).tolist()),
                "warped_ids": set(np.unique(warped).tolist())}

    def artifacts(self, out: str) -> dict:
        return {name: "patch" for name in sorted(os.listdir(out))}

    def check(self, k: int, out: str, record) -> dict:
        errors = []
        if not record["warped_ids"] <= record["source_ids"]:
            errors.append(f"warped ids {record['warped_ids']} not within "
                          f"source ids {record['source_ids']}")
        for name, want in record["payload"].items():
            data = decode_nifti(nifti_stream(os.path.join(out, f"{name}.nii.gz")))
            if sha256(float32_payload(data)) != want:
                errors.append(f"{name}.nii.gz does not decode to the in-memory array")
            if name in self.alphas:
                allowed = {0.0, float(self.alphas[name]), 1.0}
                extra = set(np.unique(data).tolist()) - allowed
                if extra:
                    errors.append(f"{name} holds values {sorted(extra)[:4]} outside {allowed}")
        return {"patch": errors}


@dataclass
class Item:
    index: int
    k: int           # which input (volume or patch origin) the item used
    seconds: float
    ops: dict        # op -> succeeded
    record: object
    out: str
    errors: list = field(default_factory=list)


def run_pass(wl, root: str, seconds: float | None = None, count: int | None = None,
             tracer: Tracer | None = None) -> list[Item]:
    """Closed loop over the workload's inputs, for ``seconds`` or ``count`` items."""
    items = []
    start = perf_counter()
    while (len(items) < count if count is not None
           else not items or perf_counter() - start < seconds):
        i = len(items)
        k = i % len(wl.names)
        out = os.path.join(root, f"item{i:04d}")
        os.makedirs(out)
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        ops, result = wl.run(k, out)
        elapsed = perf_counter() - t0
        items.append(Item(i, k, elapsed, ops, wl.keep(result), out))
    return items


def verify(wl, items: list[Item], digests: dict) -> None:
    """Output checks plus agreement of repeated artifacts; a failure marks
    the operation that produced the artifact. Fills ``digests`` with the
    first digest seen for each (input, artifact)."""
    for item in items:
        if not all(item.ops.get(op, False) for op in wl.ops):
            item.errors.append(f"operations {item.ops} did not all succeed")
            continue
        try:
            for op, errs in wl.check(item.k, item.out, item.record).items():
                for err in errs:
                    item.ops[op] = False
                    item.errors.append(f"{op}: {err}")
            for name, op in wl.artifacts(item.out).items():
                got = digest(os.path.join(item.out, name))
                want = digests.setdefault(f"{wl.names[item.k]}/{name}", got)
                if got != want:
                    item.ops[op] = False
                    item.errors.append(f"{op}: {name} differs from an earlier repetition")
        except Exception as exc:
            traceback.print_exc()
            item.ops = {op: False for op in item.ops}
            item.errors.append(f"check raised {exc!r}")


def end_to_end(items: list[Item], voxels: int, peak_rss_kb: int) -> dict:
    secs = [it.seconds for it in items]
    tail_s, pct, beyond = tail(secs)
    return {
        "throughput_mvox_s": len(items) * voxels / 1e6 / sum(secs),
        "item_s_p50": statistics.median(secs),
        "item_s_tail": tail_s,
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "items": len(items),
    }


def per_layer(tracer: Tracer, items: list[Item], untraced: list[Item]) -> dict:
    n = len(items)
    totals = totals_by_name(tracer.spans)
    counters = tracer.counters
    timed = sum(it.seconds for it in items)

    def ms(name):
        return 1000.0 * totals[name].seconds / n if name in totals else 0.0

    def calls(name):
        return totals[name].calls / n if name in totals else 0.0

    out = {f"{name}_ms": ms(name) for name in (
        "metrics.evaluate", "metrics.hd95", "metrics.dice", "metrics.dscz",
        "pseudolabel.fit", "pseudolabel.predict_volume", "pseudolabel.tta",
        "pseudolabel.slice_predict", "pseudolabel.stack",
        "preprocess.otsu", "preprocess.stretch", "preprocess.clahe",
        "nifti.read", "nifti.write", "nifti.gzip", "softlabel.soften",
        "augment.sample", "augment.warp", "regions.split", "regions.merge",
        "volume.extract_patch")}
    out.update({
        "metrics.hd95_calls": calls("metrics.hd95"),
        "pseudolabel.slice_predict_calls": calls("pseudolabel.slice_predict"),
        "nifti.read_calls": calls("nifti.read"),
        "augment.warp_calls": calls("augment.warp"),
        "nifti.read_mb": counters["nifti.read_bytes"] / 1e6 / n,
        "nifti.write_mb": counters["nifti.write_bytes"] / 1e6 / n,
        "nifti.gzip_ratio": (counters["nifti.gzip_out"] / counters["nifti.gzip_in"]
                             if counters["nifti.gzip_in"] else 0.0),
        "softlabel.planes": counters["softlabel.planes"] / n,
        "cli.self_ms": (1000.0 * totals["cli.main"].self_seconds / n
                        if "cli.main" in totals else 0.0),
        "trace.overhead_pct": 100.0 * (timed / sum(it.seconds for it in untraced) - 1.0),
        "trace.coverage": top_level_coverage(tracer.spans, timed),
    })
    shares = {}
    for name, t in totals.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + t.self_seconds / timed
    out["layer_self_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    return out


def make_workload(name: str, inputs: str, setup: dict):
    plan = setup["plan"]
    if name == "pseudolabel-slab":
        return SlabWorkload(inputs, plan)
    if name == "evaluate-dense":
        return DenseWorkload(inputs, plan, setup["expected"])
    return PencilWorkload(inputs, plan)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.inputs, "setup.json")) as fh:
        setup = json.load(fh)
    wl = make_workload(args.workload, args.inputs, setup)

    if args.trace:
        untraced = run_pass(wl, os.path.join(args.work, "untraced"), seconds=args.seconds / 2)
        tracer = Tracer()
        with traced(tracer):
            items = run_pass(wl, os.path.join(args.work, "traced"),
                             count=len(untraced), tracer=tracer)
        passes = [untraced, items]
    else:
        items = run_pass(wl, os.path.join(args.work, "pass"), seconds=args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes = [items]

    digests: dict = {}
    for p in passes:
        verify(wl, p, digests)
    shutil.rmtree(args.work, ignore_errors=True)

    all_items = [it for p in passes for it in p]
    doc = {
        "attempted": sum(len(it.ops) for it in all_items),
        "failed": sum(not ok for it in all_items for ok in it.ops.values()),
        "errors": [f"item {it.index}: {e}" for it in all_items for e in it.errors],
        "item_seconds": [it.seconds for it in items],
        "digests": digests,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "input_dims": setup["plan"]["dims"], "item_voxels": wl.voxels},
    }
    if args.trace:
        doc["per_layer"] = per_layer(tracer, items, untraced)
    else:
        doc["end_to_end"] = end_to_end(items, wl.voxels, peak_rss_kb)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
