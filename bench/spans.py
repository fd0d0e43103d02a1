"""In-memory spans around cordpipe's layer boundaries, recorded from the
benchmark's side so that no package source file changes.

Tracing patches the public names that call sites look up at call time:
every binding of a traced function in any loaded ``cordpipe`` module
(including names a module imported from another, such as
``cordpipe.cli.read_nifti``) is replaced by one shared wrapper, and the
class attributes named ``Class.method`` are replaced on the class.
Uninstalling restores the originals, so an untraced pass runs the
package exactly as shipped.

The recorder assumes one thread: nesting comes from a single stack,
which matches the benchmark's ``--threads 1`` calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    item: int | None    # benchmark item the span belongs to


def _bytes_in(args, kwargs, result):
    return len(args[0])


def _bytes_out(args, kwargs, result):
    return len(result)


# (module, attribute, span name, {counter: size function}). A size
# function sees the call's arguments and result and returns an amount
# added to the named counter, so sizes are measured at the boundary.
TARGETS = [
    ("cordpipe.cli", "main", "cli.main", {}),
    ("cordpipe.metrics", "evaluate", "metrics.evaluate", {}),
    ("cordpipe.metrics", "hd95", "metrics.hd95", {}),
    ("cordpipe.metrics", "dice", "metrics.dice", {}),
    ("cordpipe.metrics", "inter_slice_dice", "metrics.dscz", {}),
    ("cordpipe.metrics", "fold_aggregate", "metrics.aggregate", {}),
    ("cordpipe.metrics", "report_to_csv", "metrics.csv", {}),
    ("cordpipe.pseudolabel", "MockPredictor.fit", "pseudolabel.fit", {}),
    ("cordpipe.pseudolabel", "MockPredictor.predict", "pseudolabel.slice_predict", {}),
    ("cordpipe.pseudolabel", "predict_volume", "pseudolabel.predict_volume", {}),
    ("cordpipe.pseudolabel", "predict_with_tta", "pseudolabel.tta", {}),
    ("cordpipe.pseudolabel", "stack_slices", "pseudolabel.stack", {}),
    ("cordpipe.pseudolabel", "ensemble", "pseudolabel.ensemble", {}),
    ("cordpipe.preprocess", "otsu_mask", "preprocess.otsu", {}),
    ("cordpipe.preprocess", "apply_mask", "preprocess.apply_mask", {}),
    ("cordpipe.preprocess", "percentile_stretch", "preprocess.stretch", {}),
    ("cordpipe.preprocess", "minmax_rescale", "preprocess.minmax", {}),
    ("cordpipe.preprocess", "clahe_slicewise", "preprocess.clahe", {}),
    ("cordpipe.preprocess", "zscore_normalize", "preprocess.zscore", {}),
    ("cordpipe.nifti", "read_nifti", "nifti.read", {"nifti.read_bytes": _bytes_in}),
    ("cordpipe.nifti", "write_nifti", "nifti.write", {"nifti.write_bytes": _bytes_out}),
    ("cordpipe.nifti", "gzip_nifti", "nifti.gzip",
     {"nifti.gzip_in": _bytes_in, "nifti.gzip_out": _bytes_out}),
    ("cordpipe.nifti", "read_sparse_annotation", "nifti.read_sparse", {}),
    ("cordpipe.nifti", "write_sparse_annotation", "nifti.write_sparse", {}),
    ("cordpipe.regions", "merge_regions", "regions.merge", {}),
    ("cordpipe.regions", "to_regions", "regions.split", {}),
    ("cordpipe.softlabel", "soften", "softlabel.soften",
     {"softlabel.planes": lambda args, kwargs, result: args[0].dims[2]}),
    ("cordpipe.augment", "sample_transform", "augment.sample", {}),
    ("cordpipe.augment", "warp_pair", "augment.warp", {}),
    ("cordpipe.volume", "extract_patch", "volume.extract_patch", {}),
    ("cordpipe.phantom", "generate", "phantom.generate", {}),
    ("cordpipe.phantom", "perturb_slices", "phantom.perturb", {}),
]


class Tracer:
    """Collects spans and boundary counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.item: int | None = None
        self._open: list[int] = []

    def wrap(self, fn, name: str, sizes: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, perf_counter(), 0.0,
                        self._open[-1] if self._open else None, self.item)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            for counter, size in sizes.items():
                self.counters[counter] += size(args, kwargs, result)
            return result

        return traced


def _cordpipe_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "cordpipe" or name.startswith("cordpipe.")]


@contextmanager
def traced(tracer: Tracer):
    """Route every traced cordpipe name through ``tracer`` while active."""
    undo = []
    wrappers = {}  # id(original) -> (original, wrapper)
    try:
        for modname, attr, name, sizes in TARGETS:
            mod = importlib.import_module(modname)
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[leaf]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(raw.__func__, name, sizes))
                else:
                    new = tracer.wrap(raw, name, sizes)
                undo.append((cls, leaf, raw))
                setattr(cls, leaf, new)
            else:
                fn = getattr(mod, leaf)
                wrappers[id(fn)] = (fn, tracer.wrap(fn, name, sizes))
        for mod in _cordpipe_modules():
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((mod, key, value))
                    setattr(mod, key, hit[1])
        yield tracer
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[index] if c.end > span.start and c.start < span.end)
        out.append((span.end - span.start) - covered)
    return out


def top_level_coverage(spans: list[Span], wall: float) -> float:
    """Share of ``wall`` seconds covered by spans without a parent."""
    if wall <= 0:
        return 0.0
    return _union_length((s.start, s.end) for s in spans if s.parent is None) / wall


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0       # inclusive
    self_seconds: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, SpanTotals]:
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for span, own in zip(spans, self_times(spans)):
        t = out[span.name]
        t.calls += 1
        t.seconds += span.end - span.start
        t.self_seconds += own
    return dict(out)
