"""Spans around the calls into each vbroadcast layer, recorded from outside.

``install`` replaces functions in the namespaces that call them with timing
wrappers: the ``solve`` and ``check_certificate`` names that ``broadcasting``
and ``diamond`` bound at import, the public ``ProblemBuilder`` methods on the
class, the public ``broadcasting`` functions (which is also how ``cli`` looks
up ``min_error``), ``cli.main`` and ``cli.write_records``, and the
``simulator`` and ``channels`` entry points. Spans are kept in memory with
their parent ids and written out when the benchmark ends. The program itself
is unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# per-layer time metrics: self time of the spans of each layer
LAYER_METRICS = {
    "sdp.problem": "sdp.problem.build_s",
    "sdp.solver": "sdp.solver.solve_s",
    "sdp.certificate": "sdp.certificate.check_s",
    "broadcasting": "broadcasting.self_s",
    "diamond.sdp": "diamond.sdp_s",
    "diamond.lower_bound": "diamond.lower_bound_s",
    "channels": "channels.apply_s",
    "simulator": "simulator.sample_s",
    "cli": "cli.self_s",
    "records": "records.write_s",
}
COUNTS = ("sdp.problem.rows", "sdp.problem.blocks", "sdp.solver.solves",
          "sdp.solver.iterations", "sdp.solver.rows_dropped",
          "sdp.solver.not_optimal", "sdp.certificate.failed", "simulator.shots")


class Tracer:
    """Nested spans ``[id, parent, layer, start, end]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, layer: str, count=None):
        """``fn`` recording one span per call; ``count(counts, result)``
        updates the counters from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None,
                    layer, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "start": start, "end": end}) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's.

    Calls run on one thread, so the children of a span never overlap and
    their durations add up to the part of the span they cover.
    """
    children = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    out = defaultdict(float)
    for sid, _, layer, start, end in spans:
        out[layer] += end - start - children[sid]
    return dict(out)


def _count_build(counts, problem):
    counts["sdp.problem.rows"] += problem.n_rows
    counts["sdp.problem.blocks"] += len(problem.blocks)


def _count_solve(counts, sol):
    counts["sdp.solver.solves"] += 1
    counts["sdp.solver.iterations"] += sol.iterations
    counts["sdp.solver.rows_dropped"] += (sol.diagnostics["n_rows_original"]
                                          - sol.diagnostics["n_rows_solved"])
    counts["sdp.solver.not_optimal"] += sol.status != "optimal"


def _count_certificate(counts, report):
    counts["sdp.certificate.failed"] += report.passed is False


def _count_shots(counts, estimate):
    counts["simulator.shots"] += estimate.shots


def _public_functions(module):
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def install(tracer: Tracer) -> list[tuple]:
    """Install the wrappers; returns what ``uninstall`` needs to undo them."""
    from vbroadcast import broadcasting, cli, diamond, simulator
    from vbroadcast.sdp import ProblemBuilder

    targets = [
        (broadcasting, "solve", "sdp.solver", _count_solve),
        (diamond, "solve", "sdp.solver", _count_solve),
        (broadcasting, "check_certificate", "sdp.certificate", _count_certificate),
        (diamond, "check_certificate", "sdp.certificate", _count_certificate),
        (diamond, "half_diamond_distance", "diamond.sdp", None),
        (diamond, "lower_bound_by_states", "diamond.lower_bound", None),
        (diamond, "apply_choi_with_ancilla", "channels", None),
        (simulator, "apply_choi", "channels", None),
        (simulator, "run_protocol", "simulator", _count_shots),
        (simulator, "naive_baseline", "simulator", _count_shots),
        (cli, "main", "cli", None),
        (cli, "write_records", "records", None),
    ]
    targets += [(broadcasting, name, "broadcasting", None)
                for name in _public_functions(broadcasting)]
    targets += [(ProblemBuilder, name, "sdp.problem",
                 _count_build if name == "build" else None)
                for name, fn in vars(ProblemBuilder).items()
                if inspect.isfunction(fn) and not name.startswith("_")]

    saved = []
    for owner, name, layer, count in targets:
        original = vars(owner)[name]
        saved.append((owner, name, original))
        setattr(owner, name, tracer.wrap(original, layer, count))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass self time of each layer and per-pass counts."""
    times = self_times(tracer.spans)
    out = {metric: times.get(layer, 0.0) / passes
           for layer, metric in LAYER_METRICS.items()}
    out.update({name: tracer.counts[name] / passes for name in COUNTS})
    iterations = tracer.counts["sdp.solver.iterations"]
    out["sdp.solver.s_per_iter"] = (times.get("sdp.solver", 0.0) / iterations
                                    if iterations else 0.0)
    return out
