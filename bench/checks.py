"""Output checks for the CLI sweeps the benchmark runs, and value drift.

A command's CSV passes when its header is the documented one, it has one
row per grid point in row-major order over the requested axes, every value
is finite, and the invariants the library documents hold at every row.
"""

from __future__ import annotations

import math
from itertools import product
from pathlib import Path

from workloads import grid_points, parse_axis

TOL = 1e-9
RECORD_DIR = Path(__file__).resolve().parent / "record"

# command -> (parameter columns, diagnostic columns), as the CLI documents them
HEADERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "eof-surface": (("s", "phi"), ("eof",)),
    "ln-thermal": (("s", "sigma", "phi"), ("ln",)),
    "ln-phase": (("s", "sigma", "phi"), ("ln",)),
    "ent-power": (("s", "phi", "tau"), ("value",)),
    "criteria": (("s", "phi"), ("simon", "duan", "esv_criterion")),
    "swap": (("s",), ("probability", "fidelity")),
    "teleport": (("s", "a0", "a1"), ("probability", "fidelity")),
    "generate": (("s", "a0", "a1"), ("p_plus", "p_minus", "fid_schemes", "fid_esv")),
    "overlap": (("d", "r"), ("overlap",)),
}


def _fidelity(v: float) -> bool:
    return 0.0 <= v <= 1.0 + TOL


# command -> column -> predicate every value of that column must satisfy
INVARIANTS = {
    "eof-surface": {"eof": lambda v: 0.0 <= v <= 1.0 + TOL},
    "ln-thermal": {"ln": lambda v: v >= 0.0},
    "ln-phase": {"ln": lambda v: v >= 0.0},
    "criteria": {"esv_criterion": lambda v: v < 0.0},
    # zero by photon-number parity (see the esvsim.dynamics docstring)
    "ent-power": {"value": lambda v: abs(v) <= 1e-10},
    "overlap": {"overlap": lambda v: 0.0 < v <= 1.0},
    "swap": {"probability": lambda v: abs(v - 0.25) <= TOL, "fidelity": _fidelity},
    "teleport": {"probability": lambda v: abs(v - 0.25) <= TOL, "fidelity": _fidelity},
    "generate": {"fid_schemes": _fidelity, "fid_esv": _fidelity},
}


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def _axis_values(argv: list[str]) -> dict[str, list[float]]:
    out = {}
    for token in argv[1:]:
        axis = parse_axis(token)
        if axis is not None:
            name, lo, hi, steps = axis
            out[name] = [lo + (hi - lo) * k / (steps - 1) for k in range(steps)] if steps > 1 else [lo]
    return out


def check_csv(argv: list[str], text: str) -> list[str]:
    """Problems found in the CSV one command line printed (empty if none)."""
    command = argv[0]
    params, diagnostics = HEADERS[command]
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"{command}: unparsable CSV: {exc}"]
    if header != list(params + diagnostics):
        return [f"{command}: header {header} != {list(params + diagnostics)}"]
    expected = grid_points(argv)
    if len(rows) != expected or any(len(row) != len(header) for row in rows):
        return [f"{command}: {len(rows)} rows of {len(header)} columns, expected {expected}"]
    problems = []
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append(f"{command}: non-finite value")
    axes = _axis_values(argv)
    # parameters left to their default have one point: compare with row 0
    grid = product(*(axes.get(p, [rows[0][k]]) for k, p in enumerate(params)))
    for row, point in zip(rows, grid):
        if any(abs(v - w) > 1e-10 * max(1.0, abs(w)) for v, w in zip(row, point)):
            problems.append(f"{command}: row {row[:len(params)]} off the grid, expected {point}")
            break
    cols = {name: k for k, name in enumerate(header)}
    for name, ok in INVARIANTS.get(command, {}).items():
        bad = [row[cols[name]] for row in rows if not ok(row[cols[name]])]
        if bad:
            problems.append(f"{command}: {name} fails its invariant at {len(bad)} rows, e.g. {bad[0]!r}")
    if command == "generate":
        for row in rows:
            total = row[cols["p_plus"]] + row[cols["p_minus"]]
            if abs(total - 1.0) > TOL:
                problems.append(f"generate: p_plus + p_minus = {total!r}, not 1")
    return problems


def value_drift(argv: list[str], text: str) -> float | None:
    """Max |value - record| over the diagnostic columns, or None without a record.

    The record holds the seed-0 output of each command; a seeded grid whose
    parameter columns differ from it has no record.
    """
    path = RECORD_DIR / f"{argv[0]}.csv"
    if not path.is_file():
        return None
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(path.read_text())
    nparams = len(HEADERS[argv[0]][0])
    if header != ref_header or len(rows) != len(ref_rows):
        return None
    if any(row[:nparams] != ref[:nparams] for row, ref in zip(rows, ref_rows)):
        return None
    return max(abs(v - w) for row, ref in zip(rows, ref_rows)
               for v, w in zip(row[nparams:], ref[nparams:]))
