"""Tests of the benchmark's own arithmetic: span self time, the tail-percentile rule, calibration.

Run with ``python -m pytest perfbench/test_spans.py`` from the repository root.
"""

import math
import threading
import types

import pytest

from hostspeed import REFERENCE_SECONDS, calibration_factor
from spans import Tracer, covered_length, self_times, tail_percentile


def test_p99_needs_a_thousand_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(999), 99)
    assert tail_percentile(range(1000), 99) == 989  # ten samples (990..999) lie beyond it


def test_tail_percentile_is_nearest_rank_on_unsorted_input():
    samples = [float(x) for x in reversed(range(1, 21))]
    assert tail_percentile(samples, 50) == 10.0
    with pytest.raises(ValueError):
        tail_percentile(samples[:19], 50)
    with pytest.raises(ValueError):
        tail_percentile(samples, 100)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 6.0), (7.0, 8.0)], 0.0, 10.0) == 6.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([(1.0, 2.0), (1.0, 2.0)], 0.0, 10.0) == 1.0


def test_self_time_subtracts_the_union_of_direct_children():
    # root [0, 10]; children a [1, 3] and b [2, 6] overlap (two threads); a has child c [1.5, 2.5]
    starts = [0.0, 1.0, 2.0, 1.5]
    ends = [10.0, 3.0, 6.0, 2.5]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == [5.0, 1.0, 4.0, 1.0]


def _traced_namespace(tracer):
    ns = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return ns.leaf(x) + ns.leaf(x)

    ns.leaf, ns.outer = leaf, outer
    tracer.patch(ns, "leaf", "leaf", after=lambda args, result: tracer.count("leaf_arg", args[0]))
    tracer.patch(ns, "outer", "outer")
    return ns, leaf, outer


def test_tracer_records_nesting_counts_and_restores():
    tracer = Tracer()
    ns, leaf, outer = _traced_namespace(tracer)
    assert ns.outer(3) == 8
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["leaf"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.counts["leaf_arg"] == 6
    outer_total = summary["outer"]["total"]
    assert math.isclose(summary["outer"]["self"], outer_total - summary["leaf"]["total"], rel_tol=1e-9, abs_tol=1e-12)
    tracer.restore()
    assert ns.leaf is leaf and ns.outer is outer


def test_worker_thread_span_takes_the_owner_threads_open_span_as_parent():
    tracer = Tracer()
    outer = tracer.open("outer")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("job")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    assert list(tracer.parent) == [-1, outer]


def test_closing_out_of_order_is_an_error():
    tracer = Tracer()
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_calibration_factor_scales_to_the_reference_host():
    assert calibration_factor(REFERENCE_SECONDS, REFERENCE_SECONDS) == 1.0
    assert calibration_factor(REFERENCE_SECONDS, 3 * REFERENCE_SECONDS) == 0.5  # host twice as slow
    with pytest.raises(ValueError):
        calibration_factor(0.0, 0.0)
