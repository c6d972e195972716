"""The report and verdict of ``tools/parity.py compare``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def record(status="optimal", value=1.0, iterations=10):
    return {"status": status, "value": value, "iterations": iterations}


def test_zero_difference_names_no_solve():
    before = {"a": record(), "z": record(value=2.0)}
    lines, same = parity.compare(before, dict(before))
    assert same
    assert lines[0] == "max |value difference| 0 over 2 solves"
    assert lines[-1] == "iterations over 2 solves with an unchanged status: 20 -> 20"


def test_nonzero_difference_names_its_solve():
    before = {"a": record(value=1.0), "z": record(value=2.0)}
    after = {"a": record(value=1.5), "z": record(value=2.0)}
    lines, same = parity.compare(before, after)
    assert same
    assert lines[0] == "max |value difference| 0.5 at a over 2 solves"


def test_status_change_fails():
    before = {"a": record(), "b": record(status="numerical_failure", value=None,
                                          iterations=40)}
    after = {"a": record(), "b": record(iterations=20)}
    lines, same = parity.compare(before, after)
    assert not same
    assert ("status b: numerical_failure (40 iterations) -> optimal (20 iterations)"
            in lines)
    assert "statuses: 1 to optimal, 0 from optimal" in lines
    assert lines[-1] == "iterations over 1 solves with an unchanged status: 10 -> 10"


def test_different_solve_sets_fail():
    before = {"a": record(), "b": record()}
    after = {"a": record(), "c": record()}
    lines, same = parity.compare(before, after)
    assert not same
    assert lines[0] == "different solve sets: ['b', 'c']"


def test_offsetting_iteration_changes_are_listed():
    before = {"a": record(iterations=10), "b": record(iterations=20),
              "c": record(), "d": record(status="numerical_failure", iterations=40)}
    after = {"a": record(iterations=12), "b": record(iterations=18),
             "c": record(), "d": record(iterations=30)}
    lines, same = parity.compare(before, after)
    assert not same
    # the totals hide the two changes, which cancel; the status change of d
    # is reported on its own line, not among the iteration changes
    assert lines[-1] == "iterations over 3 solves with an unchanged status: 40 -> 40"
    assert lines[-2] == "iteration counts changed on 2 solves: a 10 -> 12, b 20 -> 18"


def test_no_iteration_change_is_reported_as_none():
    before = {"a": record(), "b": record(iterations=7)}
    lines, _ = parity.compare(before, dict(before))
    assert lines[-2] == "iteration counts changed on 0 solves"


def test_fingerprints_count_identical_solves():
    before = {"a": record() | {"problem": "p", "iterate": "x"},
              "b": record() | {"problem": "q", "iterate": "y"}}
    after = {"a": record() | {"problem": "p", "iterate": "x"},
             "b": record() | {"problem": "q", "iterate": "z"}}
    lines, same = parity.compare(before, after)
    assert same
    assert lines[1:3] == ["problems identical on 2/2", "iterates identical on 1/2"]


def test_records_without_fingerprints_read_na():
    lines, _ = parity.compare({"a": record()}, {"a": record()})
    assert lines[1:3] == ["problems identical on n/a", "iterates identical on n/a"]
    with_prints = {"a": record() | {"problem": "p", "iterate": "x"}, "b": record()}
    lines, _ = parity.compare(with_prints, dict(with_prints))
    assert lines[1:3] == ["problems identical on 1/2 (n/a on 1)",
                          "iterates identical on 1/2 (n/a on 1)"]


def test_fingerprints_see_every_byte():
    import numpy as np
    from types import SimpleNamespace

    from vbroadcast.sdp.csr import Csr

    def solve_record(b, y):
        problem = SimpleNamespace(a=Csr.from_triplets([0, 1], [0, 1], [1.0, 1.0], (2, 2)),
                                  b=np.array(b),
                                  c=np.zeros(2), labels=[(0, 2, "rows")])
        solution = SimpleNamespace(y=np.array(y), x_blocks={"X": np.eye(2)})
        return parity.fingerprints(problem, solution)

    base = solve_record([1.0, 0.0], [0.5, 0.5])
    assert solve_record([1.0, 0.0], [0.5, 0.5]) == base
    # -0.0 == 0.0, but not byte for byte
    assert solve_record([1.0, -0.0], [0.5, 0.5])["problem"] != base["problem"]
    assert solve_record([1.0, 0.0], [0.5, np.nextafter(0.5, 1.0)])["iterate"] != base["iterate"]


def test_status_summary_counts_both_directions():
    before = {"a": record(), "b": record(status="numerical_failure", value=None),
              "c": record(status="max_iterations", value=None), "d": record()}
    after = {"a": record(status="numerical_failure", value=None), "b": record(),
             "c": record(status="numerical_failure", value=None), "d": record()}
    lines, same = parity.compare(before, after)
    assert not same
    # c changed between two statuses that are not optimal
    assert "statuses: 1 to optimal, 1 from optimal" in lines
    lines, same = parity.compare(before, dict(before))
    assert same and "statuses: 0 to optimal, 0 from optimal" in lines


def test_face_steps_counted_in_each_file():
    before = {"a": record(), "b": record()}
    after = {"a": record() | {"face_steps": 2, "face_accepted": True},
             "b": record() | {"face_steps": 1, "face_accepted": False}}
    lines, same = parity.compare(before, after)
    assert same
    assert lines[3] == "solves finished by a face step: n/a -> 1/2 (3 tried)"
    lines, _ = parity.compare(after, dict(after))
    assert lines[3] == "solves finished by a face step: 1/2 (3 tried) -> 1/2 (3 tried)"


def test_families_total_iterations_and_time():
    before = {"knee-2": record(iterations=13) | {"seconds": 0.004},
              "knee-3": record(iterations=12) | {"seconds": 0.003},
              "map-a": record(iterations=5), "a": record()}
    after = {"knee-2": record(iterations=5) | {"seconds": 0.002},
             "knee-3": record(iterations=6) | {"seconds": 0.001},
             "map-a": record(iterations=4) | {"seconds": 0.25}, "a": record()}
    lines, same = parity.compare(before, after)
    assert same
    # after the face-step line, one line per family that has solves; "a"
    # belongs to none
    assert lines[4:6] == ["knee (2 solves): iterations 25 -> 11, time 0.0070 s -> 0.0030 s",
                          "map (1 solves): iterations 5 -> 4, time n/a -> 0.2500 s"]
    assert lines[6].startswith("statuses:")
    # report only: a family that got slower leaves the verdict alone
    assert parity.compare(after, before)[1]
