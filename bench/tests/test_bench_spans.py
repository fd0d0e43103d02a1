import numpy as np

import cordpipe
import cordpipe.cli
import cordpipe.metrics
import cordpipe.nifti
from spans import Span, Tracer, self_times, top_level_coverage, totals_by_name, traced


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),    # overlaps a: union of a and b is 4
        Span("c", 9.0, 12.0, 0, 0),   # only 1 s lies inside the parent
        Span("grandchild", 1.5, 2.5, 1, 0),
        Span("other", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == [5.0, 1.0, 3.0, 3.0, 1.0, 1.0]
    assert top_level_coverage(spans, 22.0) == 11.0 / 22.0


def test_totals_by_name():
    spans = [Span("x", 0.0, 4.0, None, 0), Span("y", 1.0, 2.0, 0, 0),
             Span("x", 5.0, 6.0, None, 1)]
    totals = totals_by_name(spans)
    assert (totals["x"].calls, totals["x"].seconds, totals["x"].self_seconds) == (2, 5.0, 4.0)
    assert (totals["y"].calls, totals["y"].self_seconds) == (1, 1.0)


def test_traced_routes_every_binding_and_restores_it():
    original = cordpipe.nifti.read_nifti
    assert cordpipe.cli.read_nifti is original
    labels = cordpipe.LabelVolume(np.arange(64, dtype=np.uint8).reshape(4, 4, 4) % 5,
                                  cordpipe.Spacing.isotropic())
    tracer = Tracer()
    with traced(tracer):
        assert cordpipe.cli.read_nifti is cordpipe.nifti.read_nifti is cordpipe.read_nifti
        assert cordpipe.cli.read_nifti is not original
        tracer.item = 7
        raw = cordpipe.write_nifti(labels)
        cordpipe.read_nifti(raw, labels=True)
        cordpipe.evaluate(labels, labels)
    assert cordpipe.cli.read_nifti is original
    assert cordpipe.metrics.hd95.__module__ == "cordpipe.metrics"
    assert cordpipe.metrics.hd95 is cordpipe.hd95

    totals = totals_by_name(tracer.spans)
    assert totals["metrics.hd95"].calls == 4
    assert totals["metrics.dice"].calls == 4
    assert tracer.counters["nifti.write_bytes"] == len(raw)
    assert tracer.counters["nifti.read_bytes"] == len(raw)
    evaluate = next(i for i, s in enumerate(tracer.spans) if s.name == "metrics.evaluate")
    children = [s for s in tracer.spans if s.parent == evaluate]
    assert {s.name for s in children} == {"metrics.hd95", "metrics.dice", "metrics.dscz"}
    assert all(s.item == 7 for s in tracer.spans)
