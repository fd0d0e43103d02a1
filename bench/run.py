"""cordpipe benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload evaluate-dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Set-up runs ``SETUP_REPS`` times, each
in a fresh interpreter (import of ``cordpipe.cli`` plus generating and
writing the inputs), and the repetitions must produce identical files.
The measured pass then runs in its own process, so its peak RSS holds
none of the set-up. Every process is single-threaded: ``--threads 1``
on the CLI, ``CORDPIPE_THREADS`` unset and the BLAS/OpenMP pools pinned
to one thread.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``). The line before it, prefixed
``bench-detail``, records the environment, the tail percentile used,
every artifact digest and any errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("pseudolabel-slab", "evaluate-dense", "train-targets")
SETUP_REPS = 3
DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s

END_TO_END = {
    "throughput_mvox_s": "Mvox/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "metrics.evaluate_ms": "ms", "metrics.hd95_ms": "ms", "metrics.hd95_calls": "count",
    "metrics.dice_ms": "ms", "metrics.dscz_ms": "ms",
    "pseudolabel.fit_ms": "ms", "pseudolabel.predict_volume_ms": "ms",
    "pseudolabel.tta_ms": "ms", "pseudolabel.slice_predict_ms": "ms",
    "pseudolabel.slice_predict_calls": "count", "pseudolabel.stack_ms": "ms",
    "preprocess.otsu_ms": "ms", "preprocess.stretch_ms": "ms", "preprocess.clahe_ms": "ms",
    "nifti.read_ms": "ms", "nifti.read_calls": "count", "nifti.read_mb": "MB",
    "nifti.write_ms": "ms", "nifti.gzip_ms": "ms", "nifti.write_mb": "MB",
    "nifti.gzip_ratio": "ratio",
    "softlabel.soften_ms": "ms", "softlabel.planes": "count",
    "augment.sample_ms": "ms", "augment.warp_ms": "ms", "augment.warp_calls": "count",
    "regions.split_ms": "ms", "regions.merge_ms": "ms", "volume.extract_patch_ms": "ms",
    "cli.self_ms": "ms", "phantom.generate_ms": "ms",
    "trace.overhead_pct": "%", "trace.coverage": "ratio",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("CORDPIPE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_step(argv: list[str], deadline: float) -> None:
    """Run one benchmark process to completion; raises if it fails or
    would overrun the deadline (the child is killed and reaped)."""
    subprocess.run([sys.executable, *argv], env=pinned_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cordpipe", "cli.py")):
        print(f"bench: no cordpipe sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for rep in range(SETUP_REPS):
            out = os.path.join(work, f"setup{rep}")
            run_step([os.path.join(BENCH, "inputs.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--out", out, "--trace", str(args.trace),
                      *(["--oracle"] if rep == 0 else [])], deadline)
            with open(os.path.join(out, "setup.json")) as fh:
                setups.append(json.load(fh))
            if rep:
                shutil.rmtree(out)
        result_path = os.path.join(work, "result.json")
        run_step([os.path.join(BENCH, "measure.py"), "--workload", args.workload,
                  "--inputs", os.path.join(work, "setup0"), "--work", os.path.join(work, "pass"),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--result", result_path], deadline)
        with open(result_path) as fh:
            result = json.load(fh)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            os.rmdir(os.path.dirname(work))

    errors = result["errors"] + [
        f"setup repetition {rep} wrote different inputs"
        for rep, s in enumerate(setups) if s["digests"] != setups[0]["digests"]]
    attempted = result["attempted"] + SETUP_REPS
    failed = result["failed"] + (len(errors) - len(result["errors"]))

    setup_s = [s["import_s"] + s["generate_s"] for s in setups]
    if args.trace:
        values = dict(result["per_layer"])
        values["phantom.generate_ms"] = statistics.median(
            s["phantom_generate_ms"] for s in setups)
        table = PER_LAYER
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup_s))
        table = END_TO_END

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": result["env"],
        "error_rate": failed / attempted, "errors": errors,
        "setup_s_reps": setup_s, "item_seconds": result["item_seconds"],
        "extra": {k: v for k, v in values.items() if k not in table},
        "input_digests": setups[0]["digests"], "output_digests": result["digests"],
    }
    print("bench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
