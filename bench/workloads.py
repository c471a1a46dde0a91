"""The benchmark's workloads: README CLI sweeps, and their seeded variants.

Seed 0 runs the README and ROADMAP command lines exactly.  Any other seed
moves every swept axis (``name=lo..hi:steps`` with steps > 1) up by a
seeded fraction of one grid step, below one half.  Point counts and cutoffs
stay fixed, so a pass does the same work on every seed.  The shift stays
under half a step because ``criteria`` at the default cutoff 30 is
truncation-limited above s of about 1.27, where ``esv_criterion`` turns
positive; s then stays at or below 1.2.

Every axis with more than one point is given on the command line, and every
parameter left to its default has a single point, so the rows a command
prints are the product of the given step counts.
"""

from __future__ import annotations

import random

TWO_PI = "6.283185307179586"
PI = "3.141592653589793"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, list[list[str]]] = {
    # 112 eigensolves of 900x900 partial transposes; the thermal channel runs
    # in ln-thermal and is bypassed in ln-phase.
    "noisy-ln": [
        ["ln-thermal", "s=1", "sigma=0..2:9", f"phi=0..{TWO_PI}:8", "--cutoff", "30"],
        ["ln-phase", "sigma=0..1:5", f"phi=0..{TWO_PI}:8"],
    ],
    # Thousands of small pure-state calls and four process starts per pass.
    "pure-sweeps": [
        ["eof-surface", "s=0.05..5:40", f"phi=0..{TWO_PI}:40", "--cutoff", "40"],
        ["criteria", "s=0.2..1:3", f"phi=0..{PI}:3"],
        ["ent-power", "tau=0..10:41"],
        ["overlap", "d=2", "r=0..2:81"],
    ],
    # Zero-padded 4-mode beam splitters and reshapes; no eigensolve.
    "protocols": [
        ["swap", "s=1", "--cutoff", "24"],
        ["teleport", "s=1", "a0=1", "a1=0", "--cutoff", "40"],
        ["generate"],
    ],
}

MAX_SHIFT = 0.5   # largest shift, as a fraction of one grid step


def parse_axis(token: str) -> tuple[str, float, float, int] | None:
    """(name, lo, hi, steps) for a ``name=lo..hi:steps`` token, else None."""
    name, sep, raw = token.partition("=")
    if not sep or ".." not in raw:
        return None
    lo, rest = raw.split("..", 1)
    hi, steps = rest.rsplit(":", 1)
    return name, float(lo), float(hi), int(steps)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines (without the program name) for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    readme = WORKLOADS[workload]
    if seed == 0:
        return [list(argv) for argv in readme]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for argv in readme:
        shifted = []
        for token in argv:
            axis = parse_axis(token)
            if axis is None or axis[3] < 2:
                shifted.append(token)
                continue
            name, lo, hi, steps = axis
            delta = MAX_SHIFT * rng.random() * (hi - lo) / (steps - 1)
            shifted.append(f"{name}={lo + delta!r}..{hi + delta!r}:{steps}")
        out.append(shifted)
    return out


def grid_points(argv: list[str]) -> int:
    """Rows the command prints: the product of its given step counts."""
    total = 1
    for token in argv[1:]:
        axis = parse_axis(token)
        if axis is not None:
            total *= axis[3]
    return total
