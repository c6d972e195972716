"""Sweep records and deterministic CSV/JSON emission.

Every sweep row carries the same fixed schema so downstream plotting can
consume one format: inputs (a, b, gamma, d), outputs (nu, s, mu, t), and
solver metadata (status, gap, seconds).  Unused fields stay empty, and so do
non-finite numbers (the NaN outputs of an infeasible budget): an empty CSV
cell and a JSON null, so that strict JSON parsers read the file.  Numbers
are rendered with 9 significant digits and rows are ordered lexicographically
by inputs, so identical runs produce byte-identical files apart from the
wall-clock ``seconds`` column.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields

CSV_HEADER = "a,b,gamma,d,nu,s,mu,t,status,gap,seconds"
_NUMERIC = ("a", "b", "gamma", "nu", "s", "mu", "t", "gap", "seconds")


@dataclass
class SweepRecord:
    a: float | None = None
    b: float | None = None
    gamma: float | None = None
    d: int | None = None
    nu: float | None = None
    s: float | None = None
    mu: float | None = None
    t: float | None = None
    status: str | None = None
    gap: float | None = None
    seconds: float | None = None

    def sort_key(self):
        """Order by the inputs as rendered, so a parsed file sorts the same."""
        def key(v):
            v = v if isinstance(v, int) else _round9(v)
            return (False, 0.0) if v is None else (True, v)

        return (key(self.a), key(self.b), key(self.gamma), key(self.d))


def format_number(x: float | int | None) -> str:
    if x is None or not math.isfinite(x):
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.9g}"


def _round9(x: float | None) -> float | None:
    return None if x is None or not math.isfinite(x) else float(f"{x:.9g}")


def render_csv(records: list[SweepRecord]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for rec in sorted(records, key=SweepRecord.sort_key):
        row = asdict(rec)
        cells = []
        for f in fields(SweepRecord):
            v = row[f.name]
            if f.name == "status":
                cells.append(v or "")
            elif f.name == "d":
                cells.append("" if v is None else str(int(v)))
            else:
                cells.append(format_number(v))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def render_json(records: list[SweepRecord]) -> str:
    rows = []
    for rec in sorted(records, key=SweepRecord.sort_key):
        row = {}
        for f in fields(SweepRecord):
            v = getattr(rec, f.name)
            if f.name in _NUMERIC:
                v = _round9(v)
            row[f.name] = v
        rows.append(row)
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def parse_csv(text: str) -> list[SweepRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    records = []
    names = CSV_HEADER.split(",")
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"malformed row: {ln!r}")
        kwargs = {}
        for name, cell in zip(names, cells):
            if cell == "":
                kwargs[name] = None
            elif name == "status":
                kwargs[name] = cell
            elif name == "d":
                kwargs[name] = int(cell)
            else:
                kwargs[name] = float(cell)
        records.append(SweepRecord(**kwargs))
    return records


def write_records(records: list[SweepRecord], fmt: str, path: str) -> None:
    """Write records as ``csv`` or ``json``; raises OSError on I/O failure."""
    if fmt == "csv":
        payload = render_csv(records)
    elif fmt == "json":
        payload = render_json(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(payload)
