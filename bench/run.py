"""vbroadcast benchmark: certified SDP solves and protocol simulation, timed
end to end and, in a traced run, per layer.

    python3 bench/run.py --workload dense-d4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are closed loops: one caller issues each operation (one public
call) after the previous one returns, in whole passes over the workload's
operation list, as many as end nearest to ``--seconds``. The program is
imported from ``src/`` next to this directory, in this one process, with
the BLAS thread count set to ``nproc``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload for half the time untraced, then for as many passes traced, and
prints the per-layer metrics: per-pass self time and counts of each layer,
and the tracing overhead. Spans go to ``.bench_out/``. Lines before the last
describe the run; the last line is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("dense-d4", "small-solves", "protocol")
SETUP_SAMPLES = 5
MIN_BEYOND = 10
COVERAGE_TOLERANCE = 0.05

# one set-up in a fresh interpreter: import plus one warm-up solve
SETUP_CODE = ("import sys, time\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "t = time.perf_counter()\n"
              "import vbroadcast\n"
              "vbroadcast.exact_overhead(2)\n"
              "print(time.perf_counter() - t)\n")


def tail_percentile(values: list[float], min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """The highest percentile, up to the p90, with at least ``min_beyond``
    samples beyond it; the median when even the median has fewer."""
    import numpy  # not at the top: the BLAS thread count must be set first

    q = min(90.0, max(50.0, 100.0 * (1.0 - min_beyond / len(values))))
    return q, float(numpy.percentile(values, q))


@dataclass
class Result:
    passes: int = 0
    body_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    certified: int = 0
    shots: int = 0
    shot_s: float = 0.0
    latencies: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)


def certified(value) -> int:
    """1 when an output carries an optimal status and a passed certificate."""
    cert = getattr(value, "certificate", None)
    return int(getattr(value, "status", None) == "optimal"
               and cert is not None and cert.passed is True)


def run_passes(ops, seconds: float | None = None, passes: int | None = None,
               tracer=None) -> Result:
    """Run whole passes over ``ops``: exactly ``passes`` of them, or the
    number whose expected end is nearest to ``seconds`` (at least one)."""
    calls = [(op, tracer.wrap(op.call, "op") if tracer else op.call) for op in ops]
    res = Result()
    start = time.perf_counter()
    while True:
        outputs = {}
        for op, call in calls:
            t0 = time.perf_counter()
            try:
                outputs[op.key] = call(outputs)
            except Exception as exc:  # a failed operation: counted, reported
                res.problems.setdefault(op.key, f"raised {exc!r}")
                res.failed += 1
            elapsed = time.perf_counter() - t0
            res.latencies.append((op.key, elapsed))
            shots = getattr(outputs.get(op.key), "shots", None)
            if isinstance(shots, int):
                res.shots += shots
                res.shot_s += elapsed
        for op, _ in calls:
            if op.key not in outputs:
                continue
            try:
                problems = op.check(outputs[op.key], outputs)
            except Exception as exc:  # an output the check cannot read is wrong
                problems = [f"check raised {exc!r}"]
            if problems:
                res.problems.setdefault(op.key, "; ".join(problems))
                res.failed += 1
                res.wrong += 1
            res.certified += certified(outputs[op.key])
        res.attempted += len(calls)
        res.passes += 1
        res.body_s = time.perf_counter() - start
        if passes is not None:
            if res.passes >= passes:
                return res
        elif res.body_s * (1.0 + 0.5 / res.passes) >= seconds:
            return res


def setup_in_process() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import vbroadcast

    vbroadcast.exact_overhead(2)
    elapsed = time.perf_counter() - t0
    if Path(vbroadcast.__file__).resolve().parent != SRC / "vbroadcast":
        raise SystemExit(f"imported vbroadcast from {vbroadcast.__file__}, not {SRC}")
    return elapsed


def setup_in_child() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def end_to_end(res: Result, setups: list[float]) -> dict:
    latencies = [s for _, s in res.latencies]
    by_op = defaultdict(list)
    for key, s in res.latencies:
        by_op[key].append(s)
    q, tail = tail_percentile(latencies)
    ok = res.attempted - res.failed
    print(f"# {res.passes} passes, {res.attempted} operations in {res.body_s:.3f} s; "
          f"op_p90_s is the p{q:.1f} of {len(latencies)} samples; "
          f"setup_s is the median of {len(setups)}")
    print(f"# shots_per_s "
          + (f"{res.shots / res.shot_s:.6g} 1/s" if res.shots else "none (no shots)")
          + f" | failed_frac {res.failed / res.attempted:.6g} ratio"
          + f" | certified_solves {res.certified} count")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ok / res.body_s, "1/s"),
        # each operation's median over the passes, so that a slow spell of
        # the host in a few passes does not move it
        "op_p50_s": (statistics.median(statistics.median(v) for v in by_op.values()),
                     "s"),
        "op_p90_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_frac": (ok / res.attempted, "ratio"),
    }


def per_layer(ops, seconds: float, name: str, seed: int):
    import tracing

    plain = run_passes(ops, seconds=seconds / 2)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = run_passes(ops, passes=plain.passes, tracer=tracer)
    finally:
        tracing.uninstall(saved)

    layers = tracing.layer_metrics(tracer, traced.passes)
    units = {k: "s" if k.endswith("_s") else "count" for k in layers}
    units["sdp.solver.s_per_iter"] = "s/iter"
    covered = sum(layers[m] for m in tracing.LAYER_METRICS.values()) * traced.passes
    coverage = covered / traced.body_s
    print(f"# traced {traced.passes} passes in {traced.body_s:.3f} s after "
          f"{plain.passes} untraced in {plain.body_s:.3f} s; layer self times "
          f"cover {coverage:.4f} of the traced wall time")
    shares = {m: layers[m] * traced.passes / traced.body_s
              for m in tracing.LAYER_METRICS.values() if layers[m]}
    print("# share of traced wall time: " + ", ".join(
        f"{m} {v:.4f}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        print(f"warning: layer self times cover {coverage:.4f} of the traced wall "
              f"time, outside 1 +- {COVERAGE_TOLERANCE}", file=sys.stderr)
    tracer.write(str(OUT_DIR / f"spans-{name}-{seed}.jsonl"),
                 {"workload": name, "seed": seed, "passes": traced.passes})

    metrics = {k: (v, units[k]) for k, v in layers.items()}
    metrics.update({
        "trace.overhead_frac": (traced.body_s / plain.body_s - 1.0, "ratio"),
        "trace.coverage_frac": (coverage, "ratio"),
        "shots_per_s": (plain.shots / plain.shot_s if plain.shots else 0.0, "1/s"),
        "certified_solves": (plain.certified / plain.passes, "count"),
        "failed_frac": (plain.failed / plain.attempted, "ratio"),
    })
    combined = Result(latencies=plain.latencies + traced.latencies,
                      attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed,
                      wrong=plain.wrong + traced.wrong,
                      problems={**traced.problems, **plain.problems})
    return combined, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "vbroadcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no vbroadcast sources under {SRC}")
    # explicit, and the library's default: one BLAS thread per usable core
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    OUT_DIR.mkdir(exist_ok=True)

    setups = [setup_in_process()]
    import workloads

    print("# env " + json.dumps(environment()))
    ops = workloads.WORKLOADS[name](random.Random(seed), str(OUT_DIR))
    if trace:
        res, metrics = per_layer(ops, seconds, name, seed)
    else:
        setups += [setup_in_child() for _ in range(SETUP_SAMPLES - 1)]
        res = run_passes(ops, seconds=seconds)
        metrics = end_to_end(res, setups)
    for key, problem in sorted(res.problems.items()):
        print(f"# failed {key}: {problem}")
    with open(OUT_DIR / f"ops-{name}-{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(res.latencies, fh)
    return {"correct": res.wrong == 0, "attempted": res.attempted,
            "failed": res.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, as the single-workload runs are."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        print(f"# == {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
