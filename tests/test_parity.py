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
