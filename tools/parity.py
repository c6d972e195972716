"""Parity set of 136 solves: record status, value and iterations per solve,
and compare two such records.

    python tools/parity.py run OUT.json [--src SRC]
    python tools/parity.py compare BEFORE.json AFTER.json

``run`` imports vbroadcast from ``SRC`` (default: the ``src/`` next to this
directory, so a second checkout can be measured with the same script) and
solves, at the CLI's default tolerance 1e-9:

* ``exact_overhead``, ``min_error(1.8)`` and ``approx_overhead((0.1, 0.1))``
  at d = 2, 3, 4;
* the 9 x 9 ``approx_overhead`` grid of acceptance criterion 8 at d = 2;
* ``depolarizing_overhead(t, 2)`` for t = -1.0, -0.9, ..., 1.0;
* ``approx_overhead((a, 0), 2)`` at a = 0.6 and 1 ulp either side, and at the
  knees (1 - 1/d^2, 0) for d = 2, ..., 10;
* ``half_diamond_distance`` on the maps of acceptance criteria 2 and 3;
* ``overhead_of_map`` on a depolarizing channel, a channel mixture,
  ``canonical_broadcast_choi`` at (2, 0), (2, 0.3) and (3, 0), and seeded
  random trace-preserving maps with one and with two outputs.

The value is nu (mu for ``min_error``, the half diamond distance for
``half_diamond_distance``).  A solve that raises is recorded
with the status and iteration count of its last SDP solution and no value.
Each record also holds two sha256 fingerprints of that last SDP: ``problem``
over the constraint matrix (``a.indptr``, ``a.indices``, ``a.data``), ``b``,
``c`` and the row labels, and ``iterate`` over the solution's ``y`` and its
X blocks.  It also holds the solver's ``face_steps`` (face steps tried),
``face_accepted`` (whether one finished the solve) and ``seconds`` (the
solve's wall time).

``compare`` prints the largest |value difference| over solves with a value
in both files (and the solve it is at, when it is not 0), every status
difference and a count of the status changes to and from ``optimal``,
the solves with an unchanged status whose iteration count changed, and the
iteration totals over the solves whose status is the same
in both.  After the value line it counts the solves whose problems, and
whose iterates, are byte-identical in the two files; a solve without
fingerprints in either file counts as "n/a".  Next it counts, in each file,
the solves that a face step finished and the face steps tried ("n/a" for a
file recorded before the solver took face steps).  Then, for each family of
solves (``FAMILIES``, the key's prefix), it prints the iteration and time
totals before -> after ("n/a" for a file without times); these lines are
reported only.  It exits 1 when the two files hold different solve sets or
any status differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

TOL = 1e-9
FAMILIES = ("exact", "min-error", "approx", "grid", "depolarizing", "point", "knee",
            "diamond", "map")
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


def _cases(diamond_maps: dict, fixed_maps: dict):
    axis = [k / 8 for k in range(9)]
    cases = []
    for d in (2, 3, 4):
        cases += [(f"exact-{d}", "exact", (d,)),
                  (f"min-error-1.8-{d}", "min_error", (1.8, d)),
                  (f"approx-0.1-0.1-{d}", "approx", ((0.1, 0.1), d))]
    cases += [(f"grid-{a}-{b}", "approx", ((a, b), 2)) for a in axis for b in axis]
    cases += [(f"depolarizing-{round(0.1 * k, 10)}", "depolarizing",
               (round(0.1 * k, 10), 2)) for k in range(-10, 11)]
    cases += [(f"point-{a!r}-0.0", "approx", ((a, 0.0), 2))
              for a in (0.6 - math.ulp(0.6), 0.6, 0.6 + math.ulp(0.6))]
    cases += [(f"knee-{d}", "approx", ((1 - 1 / d ** 2, 0.0), d)) for d in range(2, 11)]
    cases += [(f"diamond-{name}", "diamond", (j,)) for name, j in diamond_maps.items()]
    cases += [(f"map-{name}", "map", (j,)) for name, j in fixed_maps.items()]
    return cases


def _maps() -> tuple[dict, dict]:
    """The named Choi operators of the ``half_diamond_distance`` and the
    ``overhead_of_map`` solves."""
    # imported here, once ``run`` has put SRC on the path
    import numpy as np
    from vbroadcast.channels import (
        ChoiOperator,
        canonical_broadcast_choi,
        depolarizing_choi,
        gamma_operator,
        replacement_choi,
    )
    from vbroadcast.linalg import partial_trace, random_hermitian

    def random_hptp(dims, seed):
        d, dout = dims[0], math.prod(dims[1:])
        h = random_hermitian(d * dout, np.random.default_rng(seed))
        h -= np.kron(partial_trace(h, (d, dout), drop=1) - np.eye(d), np.eye(dout)) / dout
        return ChoiOperator(h, d, dims[1:])

    differences = {f"replacement-{d}": ChoiOperator(
        gamma_operator(d) - replacement_choi(d).op, d, (d,)) for d in (2, 3, 4)}
    differences |= {f"depolarizing-{t}": ChoiOperator(
        depolarizing_choi(t, 2).op - gamma_operator(2), 2, (2,)) for t in (-0.5, 0.3, 1.0)}
    return differences, {
        "depolarizing": depolarizing_choi(0.5, 2),
        "mixture": ChoiOperator(0.5 * depolarizing_choi(0.0, 2).op
                                + 0.5 * depolarizing_choi(1.0, 2).op, 2, (2,)),
        "canonical-2": canonical_broadcast_choi(2, 0.0),
        "canonical-2-0.3": canonical_broadcast_choi(2, 0.3),
        "canonical-3": canonical_broadcast_choi(3, 0.0),
        "random-one-output": random_hptp((2, 2), 11),
        "random-two-outputs": random_hptp((2, 2, 2), 12),
    }


def _digest(parts) -> str:
    """sha256 over the bytes of each array or string of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part.tobytes())
    return h.hexdigest()


def fingerprints(problem, solution) -> dict:
    """The ``problem`` and ``iterate`` fingerprints of one solve."""
    a = problem.a
    return {"problem": _digest([a.indptr, a.indices, a.data, problem.b, problem.c,
                                repr(problem.labels)]),
            "iterate": _digest([solution.y] + [part for name, x in solution.x_blocks.items()
                                               for part in (name, x)])}


def run(src: str) -> dict:
    sys.path.insert(0, src)
    from vbroadcast import broadcasting as bc
    from vbroadcast import diamond
    from vbroadcast.sdp import SolverConfig
    from vbroadcast.sdp.solver import record_solves

    config = SolverConfig(tol_gap=TOL, tol_feas=TOL)
    calls = {"exact": bc.exact_overhead, "min_error": bc.min_error,
             "approx": bc.approx_overhead, "depolarizing": bc.depolarizing_overhead,
             "diamond": lambda j, config: diamond.half_diamond_distance(
                 j, config=config, lower_bound_samples=1),
             "map": bc.overhead_of_map}
    value_of = {"min_error": "mu", "diamond": "value"}
    out = {}
    for key, kind, args in _cases(*_maps()):
        with record_solves() as log:
            try:
                res = calls[kind](*args, config=config)
                value = getattr(res, value_of.get(kind, "nu"))
                status = res.status
            except RuntimeError:
                value, status = None, log[-1][1].status
        problem, solution = log[-1]
        out[key] = {"status": status, "value": value,
                    "iterations": solution.iterations,
                    "face_steps": solution.diagnostics.get("face_steps"),
                    "face_accepted": solution.diagnostics.get("face_accepted"),
                    "seconds": solution.diagnostics.get("seconds"),
                    **fingerprints(problem, solution)}
    return out


def _face_count(records: dict, keys: list[str]) -> str:
    """How many of the solves ``keys`` a face step finished, and the face
    steps tried over them; "n/a" unless every record holds both."""
    if any(records[k].get("face_steps") is None for k in keys):
        return "n/a"
    accepted = sum(bool(records[k]["face_accepted"]) for k in keys)
    tried = sum(records[k]["face_steps"] for k in keys)
    return f"{accepted}/{len(keys)} ({tried} tried)"


def _family_totals(records: dict, keys: list[str]) -> tuple[int, str]:
    """The iterations and the seconds, "n/a" unless every record holds
    them, summed over the solves ``keys``."""
    seconds = [records[k].get("seconds") for k in keys]
    time = "n/a" if None in seconds else f"{sum(seconds):.4f} s"
    return sum(records[k]["iterations"] for k in keys), time


def compare(before: dict, after: dict) -> tuple[list[str], bool]:
    """The report lines, and whether both files hold the same solves with
    the same statuses."""
    lines = []
    if before.keys() != after.keys():
        lines.append(f"different solve sets: {sorted(before.keys() ^ after.keys())}")
    keys = [k for k in before if k in after]
    diffs = [(abs(before[k]["value"] - after[k]["value"]), k) for k in keys
             if before[k]["value"] is not None and after[k]["value"] is not None]
    worst, at = max(diffs, default=(0.0, "-"))
    where = f" at {at}" if worst > 0 else ""
    lines.append(f"max |value difference| {worst:.3g}{where} over {len(diffs)} solves")
    for name, field in (("problems", "problem"), ("iterates", "iterate")):
        known = [k for k in keys if field in before[k] and field in after[k]]
        identical = sum(before[k][field] == after[k][field] for k in known)
        count = f"{identical}/{len(keys)}" if known else "n/a"
        if known and len(known) < len(keys):
            count += f" (n/a on {len(keys) - len(known)})"
        lines.append(f"{name} identical on {count}")
    lines.append("solves finished by a face step: "
                 + " -> ".join(_face_count(f, keys) for f in (before, after)))
    for family in FAMILIES:
        members = [k for k in keys if k.startswith(family + "-")]
        if members:
            (it_b, time_b), (it_a, time_a) = (_family_totals(f, members)
                                              for f in (before, after))
            lines.append(f"{family} ({len(members)} solves): iterations {it_b} -> {it_a}, "
                         f"time {time_b} -> {time_a}")
    same = [k for k in keys if before[k]["status"] == after[k]["status"]]
    changed = [k for k in keys if k not in same]
    for k in changed:
        b, a = before[k], after[k]
        lines.append(f"status {k}: {b['status']} ({b['iterations']} iterations) -> "
                     f"{a['status']} ({a['iterations']} iterations)")
    to_opt = sum(after[k]["status"] == "optimal" for k in changed)
    from_opt = sum(before[k]["status"] == "optimal" for k in changed)
    lines.append(f"statuses: {to_opt} to optimal, {from_opt} from optimal")
    moved = [f"{k} {before[k]['iterations']} -> {after[k]['iterations']}" for k in same
             if before[k]["iterations"] != after[k]["iterations"]]
    lines.append(f"iteration counts changed on {len(moved)} solves"
                 + (f": {', '.join(moved)}" if moved else ""))
    lines.append(f"iterations over {len(same)} solves with an unchanged status: "
                 f"{sum(before[k]['iterations'] for k in same)} -> "
                 f"{sum(after[k]['iterations'] for k in same)}")
    return lines, before.keys() == after.keys() and len(same) == len(keys)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="solve the parity set and write it as JSON")
    p.add_argument("out")
    p.add_argument("--src", default=str(DEFAULT_SRC))
    p = sub.add_parser("compare", help="compare two parity files")
    p.add_argument("before")
    p.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "run":
        Path(args.out).write_text(json.dumps(run(args.src), indent=1) + "\n")
        return 0
    before, after = (json.loads(Path(f).read_text()) for f in (args.before, args.after))
    lines, same = compare(before, after)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
