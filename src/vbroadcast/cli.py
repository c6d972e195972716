"""Command-line frontend: optimization sweeps, trade-off tables, protocol
simulation, and the verification suite.

Subcommands, with the flags each reads:

* ``exact`` (``--dim``) -- optimal overhead for exact broadcasting
* ``sweep-ab`` (``--dim --grid --delta``) -- overhead surface over error
  thresholds, or only its diagonal (delta, delta) points
* ``min-error`` (``--dim --gamma``) -- one point of the error-vs-budget
  trade-off
* ``tradeoff`` (``--gammas --dims``) -- minimum errors over both lists
* ``simulate`` (``--dim --gamma --shots --seed``) -- Monte Carlo run of the
  explicit protocol vs the baseline
* ``verify`` -- run the acceptance suite, one PASS/FAIL line per criterion

The four solve commands also read ``--tol-gap``, ``--tol-feas``,
``--max-iter``, ``--out`` and ``--format``.  A subcommand rejects any other
flag, and an empty list argument, with exit code 2.  Every covariant problem
is solved in symmetry-reduced form, whose size does not grow with ``--dim``.

Output files go through :mod:`vbroadcast.records` (fixed CSV header, 9
significant digits, rows sorted by inputs); relative ``--out`` paths resolve
against ``$VBROADCAST_OUT_DIR`` when set.  Exit codes: 0 success, 1 verify
failure, 2 bad arguments, 3 solver failure or an uncertified optimum, 4 output
I/O failure.  A point whose solve fails is still written, with its status and
empty outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import broadcasting as bc
from . import simulator as sim
from .records import SweepRecord, render_csv, render_json, write_records
from .sdp import (
    STATUS_DUAL_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_PRIMAL_INFEASIBLE,
    SolverConfig,
    SolverFailure,
)

OUT_DIR_ENV = "VBROADCAST_OUT_DIR"


def _number_list(kind):
    """argparse type for a comma-separated list of ``kind`` values; an empty
    list is an error, not a sweep over nothing."""
    def parse(text: str) -> list:
        try:
            values = [kind(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {kind.__name__} values, got {text!r}")
        return values
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbroadcast",
        description="virtual broadcasting trade-off computations")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def solve_flags(p):
        p.add_argument("--tol-gap", type=float, default=1e-9)
        p.add_argument("--tol-feas", type=float, default=1e-9)
        p.add_argument("--max-iter", type=int, default=200)
        p.add_argument("--out", type=str, default=None,
                       help="output file (relative paths resolve against "
                            f"${OUT_DIR_ENV})")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.set_defaults(run=_run_solves)

    p = sub.add_parser("exact", help="exact-broadcasting overhead")
    p.add_argument("--dim", type=int, default=2)
    solve_flags(p)

    p = sub.add_parser("sweep-ab", help="overhead surface over error thresholds")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--delta", type=_number_list(float), default=None,
                   help="comma-separated balanced thresholds; sweeps only the "
                        "diagonal (delta, delta) points instead of the full grid")
    solve_flags(p)

    p = sub.add_parser("min-error", help="minimum error at one budget")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--gamma", type=float, default=1.8)
    solve_flags(p)

    p = sub.add_parser("tradeoff", help="minimum-error table over budgets x dims")
    p.add_argument("--gammas", type=_number_list(float), default=[1.0, 1.8])
    p.add_argument("--dims", type=_number_list(int), default=[2, 3, 4])
    solve_flags(p)

    p = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--shots", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(run=_run_simulate)

    sub.add_parser("verify", help="run the acceptance suite").set_defaults(run=_run_verify)
    return parser


def _resolve_out(out: str | None) -> str | None:
    if out is None:
        return None
    if os.path.isabs(out):
        return out
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), out)


def _emit(records: list[SweepRecord], args: argparse.Namespace) -> None:
    path = _resolve_out(args.out)
    if path is None:
        text = render_csv(records) if args.fmt == "csv" else render_json(records)
        sys.stdout.write(text)
    else:
        write_records(records, args.fmt, path)
        print(f"wrote {len(records)} records to {path}")


# statuses that answer the question asked; an infeasibility certificate is an
# answer (no decomposition exists), not a failure
_ANSWERS = (STATUS_OPTIMAL, STATUS_PRIMAL_INFEASIBLE, STATUS_DUAL_INFEASIBLE)


def _exit_code(statuses: list[str]) -> int:
    """3 when any solve failed or its optimum failed the certificate check,
    else 0."""
    bad = [s for s in statuses if s not in _ANSWERS]
    if bad:
        print(f"solver failure: {len(bad)} of {len(statuses)} solves reached neither "
              "a certified optimum nor an infeasibility certificate "
              f"({', '.join(sorted(set(bad)))})", file=sys.stderr)
        return 3
    return 0


# -- solves -------------------------------------------------------------------

def _solve_point(point: SweepRecord, config: SolverConfig) -> SweepRecord:
    """``point`` with its outputs filled in: ``min_error`` when it has a
    ``gamma``, ``approx_overhead`` when it has thresholds ``a`` and ``b``,
    else ``exact_overhead``, each at dimension ``d``.  A solve that fails
    gives the point its status and no outputs."""
    t0 = time.perf_counter()
    try:
        if point.gamma is not None:
            res = bc.min_error(point.gamma, point.d, config=config)
            outputs = dict(mu=res.mu, t=res.t, nu=res.nu,
                           s=None if res.nu is None else res.nu ** 2)
        else:
            res = (bc.exact_overhead(point.d, config=config) if point.a is None
                   else bc.approx_overhead((point.a, point.b), point.d, config=config))
            outputs = dict(nu=res.nu, s=res.s)
    except SolverFailure as exc:
        return replace(point, status=exc.status, seconds=time.perf_counter() - t0)
    return replace(point, **outputs, status=res.status,
                   gap=res.solution.gap if res.solution else None,
                   seconds=time.perf_counter() - t0)


def _check_dims(dims: list[int]) -> None:
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")


def _points(args: argparse.Namespace) -> list[SweepRecord]:
    """The inputs of every solve the subcommand runs, as records."""
    if args.subcommand == "tradeoff":
        _check_dims(args.dims)
        return [SweepRecord(gamma=g, d=d) for g in args.gammas for d in args.dims]
    _check_dims([args.dim])
    if args.subcommand == "exact":
        return [SweepRecord(d=args.dim)]
    if args.subcommand == "min-error":
        return [SweepRecord(gamma=args.gamma, d=args.dim)]
    if args.grid < 2:
        raise ValueError("grid resolution must be at least 2")
    if args.delta is not None:
        return [SweepRecord(a=v, b=v, d=args.dim) for v in args.delta]
    axis = [float(v) for v in np.linspace(0.0, 1.0, args.grid)]
    return [SweepRecord(a=a, b=b, d=args.dim) for a in axis for b in axis]


def _summary(rec: SweepRecord) -> str:
    """The line ``exact`` and ``min-error`` print for their one solve."""
    if rec.gamma is None:
        if rec.nu is None:
            return f"d={rec.d} status={rec.status}"
        return f"nu={rec.nu:.6f} s={rec.s:.6f}"
    if rec.nu is None:
        return f"gamma={rec.gamma:.6f} d={rec.d} status={rec.status}"
    return (f"gamma={rec.gamma:.6f} d={rec.d} mu={rec.mu:.6f} t={rec.t:.6f} "
            f"nu={rec.nu:.6f} status={rec.status}")


def _run_solves(args: argparse.Namespace) -> int:
    points = _points(args)
    if min(args.tol_gap, args.tol_feas) <= 0:
        raise ValueError("tolerances must be positive")
    if args.max_iter < 1:
        raise ValueError("max-iter must be positive")
    config = SolverConfig(tol_gap=args.tol_gap, tol_feas=args.tol_feas,
                          max_iter=args.max_iter)
    records = [_solve_point(p, config) for p in points]
    single = args.subcommand in ("exact", "min-error")
    if single:
        print(_summary(records[0]))
    if args.out or not single:
        _emit(records, args)
    return _exit_code([r.status for r in records])


def _run_simulate(args: argparse.Namespace) -> int:
    d, gamma, shots, seed = args.dim, args.gamma, args.shots, args.seed
    _check_dims([d])
    if shots < 1:
        raise ValueError("shots must be positive")
    dec, delta, _ = bc.discard_prepare_point(gamma, d)
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    # evenly spaced spectrum from +1 to -1; the qubit case is the usual Z
    obs = sim.Observable.from_matrix(np.diag(np.linspace(1.0, -1.0, d)))
    est = sim.run_protocol(dec, rho, obs, marginal=1, shots=shots, seed=seed)
    base = sim.naive_baseline(rho, obs, shots, seed=seed + 1)
    analytic = sim.protocol_expectation(dec, rho, obs, marginal=1)
    se = est.sample_std / math.sqrt(est.shots)
    print(f"budget gamma={gamma:.4f} d={d} x={dec.x:.6f} y={dec.y:.6f} "
          f"delta={delta:.6f}")
    print(f"protocol: mean={est.mean:.6f} std={est.sample_std:.6f} "
          f"shots={est.shots} n+={est.n_plus} n-={est.n_minus} seed={est.seed}")
    print(f"analytic expectation={analytic:.6f} (|dev| = "
          f"{abs(est.mean - analytic) / se:.2f} standard errors)")
    print(f"naive baseline: mean={base.mean:.6f} std={base.sample_std:.6f}")
    print(f"bias bound vs ideal: |{est.mean:.6f} - "
          f"{float(np.real(np.trace(obs.op @ rho))):.6f}| <= "
          f"{sim.bias_bound(obs, delta):.6f} + noise")
    return 0


def _run_verify(_args: argparse.Namespace) -> int:
    from .acceptance import run_all

    results = run_all()
    failures = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        print(f"{tag} [{r.cid:2d}] {r.name}: {r.details}")
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
