"""Set-up step: generate one workload's input files from the seed.

Runs in a fresh interpreter so that the first thing it times is
``import cordpipe.cli``; it then times generating and writing the
inputs. Writes ``setup.json`` next to the inputs with both times, the
sha256 of every input file and the plan the measured pass follows.
With ``--oracle`` it also stores the independent expected values for
``evaluate-dense`` (untimed).

    python3 bench/inputs.py --workload evaluate-dense --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

SLAB_DIMS = (192, 208, 64)    # the package's slab profile, PATCH5
SLAB_VOLUMES = 2
ANNOTATE_EVERY = 8
PENCIL_SOURCE_DIMS = (192, 208, 144)
PENCIL_PATCH = (64, 64)       # patch1(64, 64): 64 x 64 x 144
PENCIL_PATCHES = 8
WORKLOADS = ("pseudolabel-slab", "evaluate-dense", "train-targets")


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _seeds(rng, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def make_slab(rng, out: str) -> dict:
    """Phantoms plus sparse annotations, written by ``cordpipe phantom``."""
    import cordpipe.cli

    volumes = []
    for v, seed in enumerate(_seeds(rng, SLAB_VOLUMES)):
        name = f"vol{v}"
        argv = ["phantom", "--seed", str(seed), "--dims", *map(str, SLAB_DIMS),
                "--annotate-every", str(ANNOTATE_EVERY),
                "--out-dir", os.path.join(out, name)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cordpipe.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cordpipe phantom exited {code}")
        volumes.append(name)
    return {"volumes": volumes, "dims": list(SLAB_DIMS),
            "annotated": len(range(0, SLAB_DIMS[2], ANNOTATE_EVERY))}


def make_dense(rng, out: str, arrays: dict) -> dict:
    """Dense phantom labels and a per-slice jittered copy as prediction."""
    import cordpipe as cp
    import numpy as np

    volumes = []
    for v, seed in enumerate(_seeds(rng, SLAB_VOLUMES)):
        name = f"vol{v}"
        os.makedirs(os.path.join(out, name))
        _, _, gt = cp.generate(cp.PhantomConfig.fitted(SLAB_DIMS, seed=seed))
        pred = cp.perturb_slices(gt, max_shift=1, seed=seed + 1)
        for fname, vol in (("gt.nii.gz", gt), ("pred.nii.gz", pred)):
            _write(os.path.join(out, name, fname), cp.gzip_nifti(cp.write_nifti(vol)))
        # The header stores pixdim as float32, and the evaluator measures
        # with the spacing it reads back.
        spacing = tuple(float(np.float32(s)) for s in gt.spacing.as_tuple())
        arrays[name] = (gt.data, pred.data, spacing)
        volumes.append(name)
    return {"volumes": volumes, "dims": list(SLAB_DIMS)}


def make_pencil(rng, out: str) -> dict:
    """One deep phantom (uncompressed) plus seeded patch origins."""
    import cordpipe as cp

    seed, = _seeds(rng, 1)
    mag, phs, labels = cp.generate(cp.PhantomConfig.fitted(PENCIL_SOURCE_DIMS, seed=seed))
    for fname, vol in (("magnitude.nii", mag), ("phase.nii", phs), ("labels.nii", labels)):
        _write(os.path.join(out, fname), cp.write_nifti(vol))
    # Origins stay within 8 voxels of centring the patch on the cord, so
    # every patch holds a similar share of tissue and costs about the same.
    h, w, _ = PENCIL_SOURCE_DIMS
    px, py = PENCIL_PATCH
    jitter = rng.integers(-8, 9, size=(PENCIL_PATCHES, 2))
    origins = [[(h - px) // 2 + int(dx), (w - py) // 2 + int(dy), 0] for dx, dy in jitter]
    return {"dims": list(PENCIL_SOURCE_DIMS), "patch": list(PENCIL_PATCH),
            "origins": origins, "augment_seeds": _seeds(rng, PENCIL_PATCHES)}


def _file_digests(root: str) -> dict:
    from artifacts import digest

    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = digest(path)
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import cordpipe.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = perf_counter() - t0

    import numpy as np
    from spans import Tracer, totals_by_name, traced

    os.makedirs(args.out)
    rng = np.random.default_rng([WORKLOADS.index(args.workload), args.seed])
    arrays: dict = {}
    tracer = Tracer()
    with traced(tracer) if args.trace else contextlib.nullcontext():
        t1 = perf_counter()
        if args.workload == "pseudolabel-slab":
            plan = make_slab(rng, args.out)
        elif args.workload == "evaluate-dense":
            plan = make_dense(rng, args.out, arrays)
        else:
            plan = make_pencil(rng, args.out)
        generate_s = perf_counter() - t1

    doc = {"import_s": import_s, "generate_s": generate_s, "plan": plan,
           "digests": _file_digests(args.out)}
    if args.trace:
        gen = totals_by_name(tracer.spans).get("phantom.generate")
        doc["phantom_generate_ms"] = 1000.0 * gen.seconds if gen else 0.0
    if args.oracle and arrays:
        from oracle import expected_dense

        doc["expected"] = {name: expected_dense(gt, pred, spacing)
                           for name, (gt, pred, spacing) in arrays.items()}
    with open(os.path.join(args.out, "setup.json"), "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
