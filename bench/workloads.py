"""The benchmark's workloads: operations on the public vbroadcast API and the
anchors that check their outputs.

A workload is a list of operations making up one pass. An operation is one
public call; the loop in ``run.py`` times the call alone and checks the
outputs after the pass, so checks that compare two operations (the grid
symmetry, the protocol's second moment against its baseline) can see both.
Calls look functions up on their module at call time, so the tracer's
wrappers are used when it has installed them.

Each check returns a list of problems; an empty list means the output is
correct. A call that raises is a failed operation with no output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vbroadcast import broadcasting as bc
from vbroadcast import cli, diamond, records
from vbroadcast import simulator as sim
from vbroadcast.channels import (
    ChoiOperator,
    depolarizing_choi,
    gamma_operator,
    replacement_choi,
)
from vbroadcast.sdp import SolverConfig

# the CLI's default tolerance, used by every small solve
CLI_CONFIG = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
SHOTS = 10 ** 7
GAMMA = 2.0
TRADEOFF_GAMMAS = "1.0,1.4,1.8,2.2,2.6,3.0"


@dataclass
class Op:
    key: str
    call: Callable[[dict], object]           # (outputs of earlier ops in the pass)
    check: Callable[[object, dict], list]    # (output, outputs of the pass)


def _certified_checks(value) -> list:
    if value.status != "optimal":
        return [f"status {value.status}"]
    if value.certificate is None or value.certificate.passed is not True:
        # reported optimal but the independent certificate rejects it
        return [f"certificate not passed: {value.certificate}"]
    return []


def _near(name: str, got: float, want: float, tol: float) -> list:
    return [] if abs(got - want) <= tol else [f"{name}={got!r}, want {want!r} +- {tol}"]


# -- dense-d4 ---------------------------------------------------------------

def dense_d4(rng: random.Random, out_dir: str) -> list[Op]:
    # fixed inputs: the seed has nothing to vary here
    def check_exact(r, _):
        return _certified_checks(r) or _near("nu(4)", r.nu, 11 / 5, 1e-5)

    def check_approx(r, _):
        # a relaxation of the exact problem, so at most nu(4) and at least 1
        problems = _certified_checks(r)
        if not problems and not 1.0 - 1e-6 <= r.nu <= 11 / 5 + 1e-5:
            problems.append(f"nu={r.nu!r} outside [1, 11/5]")
        return problems

    return [Op("exact-4", lambda _: bc.exact_overhead(4), check_exact),
            Op("approx-0.1-0.1-4", lambda _: bc.approx_overhead((0.1, 0.1), 4),
               check_approx)]


# -- small-solves -----------------------------------------------------------

def _grid_op(a: float, b: float) -> Op:
    def check(r, outputs):
        problems = _certified_checks(r)
        if problems:
            return problems
        if not 1.0 - 1e-6 <= r.nu <= 5 / 3 + 1e-5:
            problems.append(f"nu={r.nu!r} outside [1, 5/3]")
        if a == b == 0.0:
            problems += _near("s~(0,0)", r.nu, 5 / 3, 1e-5)
        mirror = outputs.get(f"grid-{b}-{a}")
        if mirror is None:
            problems.append(f"mirror point ({b}, {a}) has no output")
        else:
            problems += _near("s~(b,a)", mirror.nu, r.nu, 1e-5)
        return problems

    return Op(f"grid-{a}-{b}",
              lambda _: bc.approx_overhead((a, b), 2, config=CLI_CONFIG), check)


def _depolarizing_op(t: float) -> Op:
    def check(r, _):
        problems = _certified_checks(r)
        if not problems and t == 1.0:
            problems += _near("Z(1)", r.nu, 1.0, 1e-8)
        return problems

    return Op(f"depolarizing-{t}",
              lambda _: bc.depolarizing_overhead(t, 2, config=CLI_CONFIG), check)


def _diamond_op(key: str, phi: ChoiOperator, want: float, seed: int) -> Op:
    def check(r, _):
        return _certified_checks(r) or _near("half diamond", r.value, want, 1e-6)

    return Op(key, lambda _: diamond.half_diamond_distance(
        phi, lower_bound_samples=8, seed=seed), check)


def replacement_difference(d: int) -> ChoiOperator:
    """Identity minus replacement channel; half diamond distance 1 - 1/d^2."""
    return ChoiOperator(gamma_operator(d) - replacement_choi(d).op, d, (d,))


def _cli_op(out_dir: str) -> Op:
    path = os.path.join(out_dir, f"tradeoff-{os.getpid()}.csv")
    argv = ["tradeoff", "--gammas", TRADEOFF_GAMMAS, "--dims", "2", "--out", path]

    def call(_):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        try:
            with open(path) as fh:
                text = fh.read()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return code, text

    def check(value, _):
        code, text = value
        if code != 0:
            return [f"exit code {code}"]
        rows = records.parse_csv(text)
        gammas = [float(g) for g in TRADEOFF_GAMMAS.split(",")]
        problems = [] if sorted(r.gamma for r in rows) == gammas else [
            f"rows for gammas {[r.gamma for r in rows]}"]
        for r in rows:
            if r.status != "optimal":
                problems.append(f"gamma={r.gamma}: status {r.status}")
                continue
            if r.gamma == 1.0:
                problems += _near("mu(1,2)", r.mu, 0.25, 5e-3)
            bound = bc.min_error_upper_bound(r.gamma, 2)
            if r.mu > bound + 1e-6:
                problems.append(f"mu({r.gamma},2)={r.mu!r} above bound {bound!r}")
        return problems

    return Op("cli-tradeoff", call, check)


def small_solves(rng: random.Random, out_dir: str) -> list[Op]:
    # the 9 x 9 grid of acceptance criterion 8, one operation per point;
    # (0, 0.75) and (0.75, 0) fail at this tolerance and stay in on purpose
    axis = [float(v) for v in np.linspace(0.0, 1.0, 9)]
    ops = [_grid_op(a, b) for a in axis for b in axis]
    ops += [_depolarizing_op(round(0.1 * k, 10)) for k in range(-10, 11)]
    seed = rng.randrange(2 ** 32)
    for d in (2, 3, 4):                       # criterion 2
        ops.append(_diamond_op(f"diamond-replacement-{d}", replacement_difference(d),
                               1.0 - 1.0 / d ** 2, seed))
    for t in (-0.5, 0.3, 1.0):                # criterion 3
        phi = ChoiOperator(depolarizing_choi(t, 2).op - gamma_operator(2), 2, (2,))
        ops.append(_diamond_op(f"diamond-depolarizing-{t}", phi, abs(t) * 3 / 4, seed))
    ops.append(_cli_op(out_dir))
    return ops


# -- protocol ---------------------------------------------------------------

def _observable(d: int):
    """+-1 observable, so every protocol sample is +-(x + y) and the second
    moment ratio against the baseline is nu^2 up to sampling noise."""
    return sim.Observable.from_matrix(np.diag([(-1.0) ** k for k in range(d)]))


def _ground_state(d: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _protocol_ops(d: int, seed: int) -> list[Op]:
    rho, obs = _ground_state(d), _observable(d)
    prep, run, base = f"prepare-{d}", f"protocol-{d}", f"baseline-{d}"

    def check_prepare(value, _):
        _, _, report = value
        return [f"{k}={v!r}" for k, v in report.items()
                if k.startswith(("weight", "budget", "marginal")) and abs(v) > 1e-10
                or k.startswith("min_eig") and v < -1e-10]

    def check_run(est, outputs):
        dec = outputs[prep][0]
        want = sim.protocol_expectation(dec, rho, obs, marginal=1)
        se = est.sample_std / math.sqrt(est.shots)
        problems = [] if abs(est.mean - want) <= 5 * se else [
            f"mean {est.mean!r} is {abs(est.mean - want) / se:.1f} se from {want!r}"]
        baseline = outputs.get(base)
        if baseline is None:
            return problems + ["baseline has no output"]
        ratio = ((est.sample_std ** 2 + est.mean ** 2)
                 / (baseline.sample_std ** 2 + baseline.mean ** 2))
        if abs(ratio - dec.nu ** 2) > 0.1 * dec.nu ** 2:
            problems.append(f"second-moment ratio {ratio!r} vs nu^2 {dec.nu ** 2!r}")
        return problems

    def check_base(est, _):
        want = float(np.real(np.trace(obs.op @ rho)))
        se = est.sample_std / math.sqrt(est.shots)
        return [] if abs(est.mean - want) <= 5 * se else [f"baseline mean {est.mean!r}"]

    return [
        Op(prep, lambda _: bc.discard_prepare_point(GAMMA, d), check_prepare),
        Op(run, lambda out: sim.run_protocol(out[prep][0], rho, obs, marginal=1,
                                             shots=SHOTS, seed=seed), check_run),
        Op(base, lambda _: sim.naive_baseline(rho, obs, SHOTS, seed=seed + 1),
           check_base),
    ]


def _lower_bound_op(d: int, seed: int) -> Op:
    phi = replacement_difference(d)
    want = 1.0 - 1.0 / d ** 2

    def check(value, _):
        # the maximally entangled candidate reaches the closed form
        return _near(f"lower bound d={d}", value, want, 1e-6)

    return Op(f"lower-bound-{d}",
              lambda _: diamond.lower_bound_by_states(phi, samples=256, seed=seed),
              check)


def protocol(rng: random.Random, out_dir: str) -> list[Op]:
    ops = []
    for d in (2, 4):
        ops += _protocol_ops(d, rng.randrange(2 ** 32))
    seed = rng.randrange(2 ** 32)
    ops += [_lower_bound_op(d, seed) for d in (2, 3, 4)]
    return ops


WORKLOADS = {"dense-d4": dense_d4, "small-solves": small_solves, "protocol": protocol}
