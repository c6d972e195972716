"""Self-tests of the benchmark's span accounting and percentile rule."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from run import tail_percentile  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [[0, None, "a", 0.0, 10.0],
             [1, 0, "b", 2.0, 5.0],
             [2, 1, "a", 3.0, 4.0],
             [3, 0, "c", 6.0, 7.5]]
    times = tracing.self_times(spans)
    assert times == pytest.approx({"a": 10.0 - 3.0 - 1.5 + 1.0, "b": 3.0 - 1.0,
                                   "c": 1.5})
    assert sum(times.values()) == pytest.approx(10.0)


def test_nested_builder_calls_are_not_counted_twice():
    from vbroadcast.sdp import ProblemBuilder, full_term

    before = dict(vars(ProblemBuilder))
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        builder = ProblemBuilder()
        builder.add_psd_block("Z", 2)
        builder.add_operator_ineq([full_term("Z")], np.eye(2), label="dominates")
        problem = builder.build()
    finally:
        tracing.uninstall(saved)
    assert dict(vars(ProblemBuilder)) == before

    by_id = {s[0]: s for s in tracer.spans}
    inner = [s for s in tracer.spans
             if s[1] is not None and by_id[s[1]][2] == "sdp.problem"]
    assert inner, "add_operator_ineq should call add_operator_eq"
    roots = [s for s in tracer.spans if s[1] is None]
    assert tracing.self_times(tracer.spans)["sdp.problem"] == pytest.approx(
        sum(end - start for *_, start, end in roots))
    assert tracer.counts["sdp.problem.rows"] == problem.n_rows
    assert tracer.counts["sdp.problem.blocks"] == len(problem.blocks)


@pytest.mark.parametrize("n, q", [(300, 90), (100, 90), (99, 89.8990), (40, 75),
                                  (20, 50), (5, 50), (1, 50)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    values = [float(v) for v in range(1, n + 1)]
    got_q, value = tail_percentile(values)
    assert got_q == pytest.approx(q, abs=1e-4)
    assert value == pytest.approx(float(np.percentile(values, got_q)))
    if n >= 20:
        assert sum(v > value for v in values) >= 10
    else:
        assert value == pytest.approx(float(np.median(values)))
