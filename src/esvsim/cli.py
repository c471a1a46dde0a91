"""Deterministic parameter-sweep CLI emitting CSV.

Each subcommand maps one-to-one onto a library operation; the CLI itself
contains no numerics.  Parameters are given as ``name=value`` or
``name=min..max:steps``; grids are swept in row-major order over the
declared parameter order, and values are printed with 12 significant
digits, so reruns of the same command are byte-identical.

Each command is one library call per point of its leading (outer) parameters,
on the whole inner grid below it, its float64 axes given as an open mesh that
broadcasts to it, returning one diagnostic per grid point, written out in
row-major order: one array pass over the whole ``(s, phi)`` grid, with no outer
parameter (``eof-surface``, ``criteria``), one channel output and LN call per
``(s, sigma)``, whose block eigensolves run point by point (``ln-thermal``,
``ln-phase``), one state per ``(s, phi)`` and an array pass over ``tau``
(``ent-power``), and an array pass over ``r`` per ``d`` (``overlap``).
``swap``, ``teleport`` and ``generate`` take every parameter as outer, so each
block is one point.

Every truncation check warns `TruncationWarning`; ``--strict`` runs the sweep
under ``warnings.simplefilter("error", TruncationWarning)``, so on every
command a flagged tail becomes a numeric-guard error.  ``swap``,
``teleport`` and ``overlap`` are cutoff-free (closed forms, see
`esvsim.protocols` and `esvsim.states.displaced_overlap`): they truncate
nothing, so ``--cutoff`` and ``--strict`` have nothing to act on there.

`main` reads a command line of the documented form itself: a command name,
then its assignments, then ``--cutoff INT``, ``--strict`` and ``--out PATH`` in
any order, each at most once and with no value starting with ``-``.  Any other
command line (help, every usage error, and the other spellings argparse
accepts, such as ``--cutoff=24`` or ``--cut 24``) goes to the argparse parser,
which alone prints help, usage and parse errors; argparse is imported only then.

Exit codes: 0 success, 2 usage error (an ``--out`` path whose directory is
missing or not writable too, found before the sweep runs), 3 numeric-guard
error (a ``RuntimeWarning`` that a warnings filter raises as an error too).
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from .channels import phase_channel, thermal_channel
from .dynamics import entangling_power
from .fock import TruncationWarning, fidelity
from .measures import esv_mixed_ln_curve, esv_pure_eof_curve
from .protocols import QubitAmplitudes, entanglement_swap, generate_scheme_a, generate_scheme_b, teleport
from .separability import esv_criteria_curve
from .states import EsvSpec, SqueezeSpec, displaced_overlap, esv_pure, squeezed_vacuum

__all__ = ["SweepConfig", "SweepResult", "run", "emit_csv", "main"]


_DEFAULT_CUTOFF = 30


class UsageError(ValueError):
    """Bad command line: unknown parameter or malformed range."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a command, per-parameter (min, max, steps) ranges, flags."""

    command: str
    ranges: dict[str, tuple[float, float, int]]
    cutoff: int = _DEFAULT_CUTOFF
    strict: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        cmd = COMMANDS[self.command]
        for name in self.ranges:
            if name not in cmd.params:
                raise UsageError(
                    f"{self.command} does not take parameter {name!r}; expected {list(cmd.params)}"
                )
        for name, (lo, hi, steps) in self.ranges.items():
            if steps < 1:
                raise UsageError(f"{name}: steps must be >= 1")
            try:
                finite = math.isfinite(lo) and math.isfinite(hi)
            except OverflowError:       # an int beyond the float range
                finite = False
            if not finite:
                raise UsageError(f"{name}: range bounds must be finite")
            if not math.isfinite(float(hi) - float(lo)):   # np.linspace takes hi - lo
                raise UsageError(f"{name}: range {lo!r}..{hi!r} spans more than the float range")
        if self.cutoff < 2:
            raise UsageError("cutoff must be at least 2")


@dataclass
class SweepResult:
    """Header plus rows of (parameter values..., diagnostics...)."""

    header: list[str]
    rows: list[tuple[float, ...]] = field(default_factory=list)


@dataclass(frozen=True)
class _Command:
    params: dict[str, tuple[float, float, int]]   # name -> default range
    diagnostics: tuple[str, ...]
    # (cutoff, *outer values, *inner axes) -> one array per diagnostic: the inner axes
    # below the outer point as an open mesh, the diagnostics on its grid.  Library
    # functions are looked up by module-global name when called, never bound at
    # import, so a profiler that rebinds them sees every call.
    evaluate: "callable"
    outer: int = 0        # how many leading params are outer


def _amp_pair(a0: float, a1: float) -> QubitAmplitudes:
    # hypot neither overflows nor underflows where the sum of squares would
    norm = math.hypot(abs(a0), abs(a1))
    if norm == 0:
        raise ValueError("a0 = a1 = 0 is not a state")
    return QubitAmplitudes(complex(a0) / norm, complex(a1) / norm)


def _generate(cutoff, s, a0, a1):
    anc = _amp_pair(a0, a1)
    state_a, p_plus = generate_scheme_a(s, anc, "+", cutoff)
    _, p_minus = generate_scheme_a(s, anc, "-", cutoff)
    state_b, _ = generate_scheme_b(s, anc, "+", cutoff)
    target = esv_pure(EsvSpec(s, 0.0, cutoff))
    return (p_plus, p_minus, fidelity(state_a, state_b), fidelity(state_a, target))


_QUBIT = {"s": (1.0, 1.0, 1), "a0": (0.7071067811865476, 0.7071067811865476, 1),
          "a1": (0.7071067811865476, 0.7071067811865476, 1)}

COMMANDS: dict[str, _Command] = {
    "eof-surface": _Command(
        {"s": (0.05, 2.0, 20), "phi": (0.0, math.tau, 16)}, ("eof",),
        lambda cutoff, s, phi: (esv_pure_eof_curve(s, phi, cutoff),)),
    "ln-thermal": _Command(
        {"s": (1.0, 1.0, 1), "sigma": (0.0, 2.0, 5), "phi": (0.0, math.tau, 8)}, ("ln",),
        lambda cutoff, s, sigma, phi: (esv_mixed_ln_curve(
            thermal_channel(squeezed_vacuum(SqueezeSpec(s, cutoff)).normalized().density(), sigma), phi),),
        outer=2),
    "ln-phase": _Command(
        {"s": (1.0, 1.0, 1), "sigma": (0.0, 1.0, 5), "phi": (0.0, math.tau, 8)}, ("ln",),
        lambda cutoff, s, sigma, phi: (esv_mixed_ln_curve(
            phase_channel(squeezed_vacuum(SqueezeSpec(s, cutoff)).normalized().density(), sigma), phi),),
        outer=2),
    "ent-power": _Command(
        {"s": (1.1, 1.1, 1), "phi": (0.0, 0.0, 1), "tau": (0.0, 10.0, 21)}, ("value",),
        lambda cutoff, s, phi, tau: (entangling_power(esv_pure(EsvSpec(s, phi, cutoff)), tau),), outer=2),
    "criteria": _Command(
        {"s": (0.2, 1.0, 3), "phi": (0.0, np.pi, 3)}, ("simon", "duan", "esv_criterion"),
        lambda cutoff, s, phi: esv_criteria_curve(s, phi, cutoff)),
    "swap": _Command(
        {"s": (1.0, 1.0, 1)}, ("probability", "fidelity"),
        lambda cutoff, s: entanglement_swap(s), outer=1),
    "teleport": _Command(
        _QUBIT, ("probability", "fidelity"),
        lambda cutoff, s, a0, a1: teleport(_amp_pair(a0, a1), s), outer=3),
    "generate": _Command(
        _QUBIT, ("p_plus", "p_minus", "fid_schemes", "fid_esv"), _generate, outer=3),
    "overlap": _Command(
        {"d": (2.0, 2.0, 1), "r": (0.0, 2.0, 41)}, ("overlap",),
        lambda cutoff, d, r: (displaced_overlap(0.0, d, r),), outer=1),
}


def run(config: SweepConfig) -> SweepResult:
    """Evaluate the sweep; rows come out in row-major grid order.

    The command's `evaluate` runs once per point of its outer parameters, on the
    whole inner grid below it as an open mesh of its axes.  The block of rows is
    checked for finiteness at once, and the first non-finite row in row-major
    order is named.
    """
    cmd = COMMANDS[config.command]
    axes = [np.linspace(*config.ranges.get(name, default)) for name, default in cmd.params.items()]
    # the inner axes as an open mesh: axis k of n along the k-th from last of n dimensions
    inner = [axis.reshape((-1,) + (1,) * k) for k, axis in enumerate(reversed(axes[cmd.outer:]))][::-1]
    result = SweepResult(header=list(cmd.params) + list(cmd.diagnostics))
    # the rows of one outer point, a column per header entry on the inner grid: the
    # parameter columns are the same for every block, broadcast from the open mesh
    block = np.empty(tuple(map(len, axes[cmd.outer:])) + (len(result.header),))
    for k, axis in enumerate(inner, cmd.outer):
        block[..., k] = axis
    flat = block.reshape(-1, len(result.header))     # the same rows, in row-major order
    with warnings.catch_warnings():
        if config.strict:
            warnings.simplefilter("error", TruncationWarning)
        for outer in product(*(axis.tolist() for axis in axes[:cmd.outer])):
            flat[:, :cmd.outer] = outer
            for k, column in enumerate(cmd.evaluate(config.cutoff, *outer, *inner), len(cmd.params)):
                block[..., k] = column
            rows = flat.tolist()
            if not all(map(math.isfinite, chain.from_iterable(rows))):
                row = next(row for row in rows if not all(map(math.isfinite, row)))   # the first in row-major order
                raise ValueError(f"non-finite diagnostic at {dict(zip(cmd.params, row))}")
            result.rows.extend(map(tuple, rows))
    return result


def emit_csv(result: SweepResult, path: str | None) -> None:
    """Write the sweep as UTF-8 CSV with 12-significant-digit values."""
    fmt = ",".join(["%.11e"] * len(result.header))
    lines = [",".join(result.header)]
    lines.extend(map(fmt.__mod__, result.rows))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _out_path_problem(path: str) -> str | None:
    """Why `path` cannot be written as the CSV output, or None.

    Checked before the sweep, without creating or truncating the file, so
    a long sweep is not run for an output it cannot write.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"{path}: directory {parent} does not exist"
    if os.path.isdir(path):
        return f"{path}: is a directory"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return f"{path}: not writable"
    return None


def _parse_assignment(text: str) -> tuple[str, tuple[float, float, int]]:
    if "=" not in text:
        raise UsageError(f"expected name=value or name=min..max:steps, got {text!r}")
    name, raw = text.split("=", 1)
    name = name.strip()
    try:
        if ".." in raw:
            lo_txt, rest = raw.split("..", 1)
            if ":" not in rest:
                raise ValueError("range needs ':steps'")
            hi_txt, steps_txt = rest.rsplit(":", 1)
            return name, (float(lo_txt), float(hi_txt), int(steps_txt))
        value = float(raw)
        return name, (value, value, 1)
    except ValueError as exc:
        raise UsageError(f"bad parameter {text!r}: {exc}") from exc


def _build_parser():
    """The esvsim argparse parser, with a subparser for each command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="esvsim",
        description="Parameter sweeps over entangled-squeezed-vacuum diagnostics (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(
            name,
            help=f"columns: {', '.join(list(cmd.params) + list(cmd.diagnostics))}",
        )
        p.add_argument("assignments", nargs="*", metavar="name=value|name=min..max:steps")
        p.add_argument("--cutoff", type=int, default=_DEFAULT_CUTOFF,
                       help="Fock cutoff per mode (swap, teleport and overlap are cutoff-free "
                            "and ignore it)")
        p.add_argument("--strict", action="store_true",
                       help="turn truncation-tail warnings into errors")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def _parse_canonical(argv: list[str]) -> tuple[str, list[str], int, bool, str | None] | None:
    """(command, assignments, cutoff, strict, out) of a documented command line, else None.

    The documented form is ``COMMAND [ASSIGNMENT ...]`` followed by
    ``--cutoff INT``, ``--strict`` and ``--out PATH`` in any order, each at
    most once, where no assignment or value starts with ``-``.  `_build_parser`
    parses such a line to the same fields; None leaves every other line to it.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    n = 1
    while n < len(argv) and not argv[n].startswith("-"):
        n += 1
    flags: dict[str, str] = {}
    rest = iter(argv[n:])
    for flag in rest:
        if flag in flags or flag not in ("--cutoff", "--strict", "--out"):
            return None
        # a value missing at the end falls back as one starting with "-" does
        flags[flag] = "" if flag == "--strict" else next(rest, "-")
        if flags[flag].startswith("-"):
            return None
    try:
        cutoff = int(flags.get("--cutoff", _DEFAULT_CUTOFF))   # what argparse's type=int does
    except ValueError:
        return None
    return argv[0], argv[1:n], cutoff, "--strict" in flags, flags.get("--out")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fields = _parse_canonical(argv)
    if fields is None:
        args = _build_parser().parse_args(argv)
        fields = args.command, args.assignments, args.cutoff, args.strict, args.out
    command, assignments, cutoff, strict, out = fields
    try:
        ranges = {}
        for name, grid in map(_parse_assignment, assignments):
            if name in ranges:
                raise UsageError(f"parameter {name!r} given more than once")
            ranges[name] = grid
        config = SweepConfig(command=command, ranges=ranges, cutoff=cutoff, strict=strict)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    problem = None if out is None else _out_path_problem(out)
    if problem is not None:
        print(f"error: output: {problem}", file=sys.stderr)
        return 2
    try:
        result = run(config)
    except (TruncationWarning, RuntimeWarning, ValueError) as exc:
        print(f"error: numeric-guard: {exc}", file=sys.stderr)
        return 3
    try:
        emit_csv(result, out)
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
