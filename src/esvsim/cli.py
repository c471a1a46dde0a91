"""Deterministic parameter-sweep CLI emitting CSV.

Each subcommand maps one-to-one onto a library operation; the CLI itself
contains no numerics.  Parameters are given as ``name=value`` or
``name=min..max:steps``; grids are swept in row-major order over the
declared parameter order, and values are printed with 12 significant
digits, so reruns of the same command are byte-identical.

Exit codes: 0 success, 2 usage error, 3 numeric-guard error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channels import phase_channel, thermal_channel
from .dynamics import entangling_power
from .fock import TruncationError, fidelity
from .measures import eof_pure, log_negativity
from .protocols import QubitAmplitudes, entanglement_swap, generate_scheme_a, generate_scheme_b, teleport
from .separability import duan_det, esv_criterion_det, simon_det
from .states import EsvSpec, SqueezeSpec, displaced_overlap, esv_mixed, esv_pure, squeezed_vacuum

__all__ = ["SweepConfig", "SweepResult", "run", "emit_csv", "main"]

TWO_PI = 2.0 * np.pi


class UsageError(ValueError):
    """Bad command line: unknown parameter or malformed range."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a command, per-parameter (min, max, steps) ranges, flags."""

    command: str
    ranges: dict[str, tuple[float, float, int]]
    cutoff: int = 30
    strict: bool = False
    out: str | None = None

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
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise UsageError(f"{name}: range bounds must be finite")
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
    evaluate: "callable"


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if steps == 1:
        return np.array([lo])
    return np.linspace(lo, hi, steps)


# --- per-command evaluators: point dict -> tuple of diagnostics ------------

def _eval_eof(point, cutoff, strict, cache):
    state = esv_pure(EsvSpec(point["s"], point["phi"], cutoff), strict=strict)
    return (eof_pure(state, [0]),)


def _noisy_ln(point, cutoff, strict, cache, channel):
    key = (point["s"], point["sigma"])
    if key not in cache:
        psi = squeezed_vacuum(SqueezeSpec(point["s"], cutoff), strict=strict)
        cache[key] = channel(psi.normalized().density(), point["sigma"])
    joint = esv_mixed(cache[key], cache[key], point["phi"])
    return (log_negativity(joint, [1]),)


def _eval_ln_thermal(point, cutoff, strict, cache):
    return _noisy_ln(point, cutoff, strict, cache, thermal_channel)


def _eval_ln_phase(point, cutoff, strict, cache):
    return _noisy_ln(point, cutoff, strict, cache, phase_channel)


def _eval_ent_power(point, cutoff, strict, cache):
    state = esv_pure(EsvSpec(point["s"], point["phi"], cutoff), strict=strict)
    return (entangling_power(state, point["tau"]),)


def _eval_criteria(point, cutoff, strict, cache):
    state = esv_pure(EsvSpec(point["s"], point["phi"], cutoff), strict=strict)
    return (simon_det(state, strict=strict), duan_det(state, strict=strict),
            esv_criterion_det(state, strict=strict))


def _eval_swap(point, cutoff, strict, cache):
    return entanglement_swap(point["s"], cutoff)


def _amp_pair(point) -> QubitAmplitudes:
    a = complex(point["a0"]), complex(point["a1"])
    norm = np.sqrt(abs(a[0]) ** 2 + abs(a[1]) ** 2)
    if norm == 0:
        raise ValueError("a0 = a1 = 0 is not a state")
    return QubitAmplitudes(a[0] / norm, a[1] / norm)


def _eval_teleport(point, cutoff, strict, cache):
    return teleport(_amp_pair(point), point["s"], cutoff)


def _eval_generate(point, cutoff, strict, cache):
    anc = _amp_pair(point)
    state_a, p_plus = generate_scheme_a(point["s"], anc, "+", cutoff)
    _, p_minus = generate_scheme_a(point["s"], anc, "-", cutoff)
    state_b, _ = generate_scheme_b(point["s"], anc, "+", cutoff)
    target = esv_pure(EsvSpec(point["s"], 0.0, cutoff))
    return (p_plus, p_minus, fidelity(state_a, state_b), fidelity(state_a, target))


def _eval_overlap(point, cutoff, strict, cache):
    return (displaced_overlap(0.0, point["d"], point["r"]),)


COMMANDS: dict[str, _Command] = {
    "eof-surface": _Command(
        {"s": (0.05, 2.0, 20), "phi": (0.0, TWO_PI, 16)}, ("eof",), _eval_eof),
    "ln-thermal": _Command(
        {"s": (1.0, 1.0, 1), "sigma": (0.0, 2.0, 5), "phi": (0.0, TWO_PI, 8)},
        ("ln",), _eval_ln_thermal),
    "ln-phase": _Command(
        {"s": (1.0, 1.0, 1), "sigma": (0.0, 1.0, 5), "phi": (0.0, TWO_PI, 8)},
        ("ln",), _eval_ln_phase),
    "ent-power": _Command(
        {"s": (1.1, 1.1, 1), "phi": (0.0, 0.0, 1), "tau": (0.0, 10.0, 21)},
        ("value",), _eval_ent_power),
    "criteria": _Command(
        {"s": (0.2, 1.0, 3), "phi": (0.0, np.pi, 3)},
        ("simon", "duan", "esv_criterion"), _eval_criteria),
    "swap": _Command(
        {"s": (1.0, 1.0, 1)}, ("probability", "fidelity"), _eval_swap),
    "teleport": _Command(
        {"s": (1.0, 1.0, 1), "a0": (0.7071067811865476, 0.7071067811865476, 1),
         "a1": (0.7071067811865476, 0.7071067811865476, 1)},
        ("probability", "fidelity"), _eval_teleport),
    "generate": _Command(
        {"s": (1.0, 1.0, 1), "a0": (0.7071067811865476, 0.7071067811865476, 1),
         "a1": (0.7071067811865476, 0.7071067811865476, 1)},
        ("p_plus", "p_minus", "fid_schemes", "fid_esv"), _eval_generate),
    "overlap": _Command(
        {"d": (2.0, 2.0, 1), "r": (0.0, 2.0, 41)}, ("overlap",), _eval_overlap),
}


def run(config: SweepConfig) -> SweepResult:
    """Evaluate the sweep; rows come out in row-major grid order."""
    cmd = COMMANDS[config.command]
    ranges = {name: config.ranges.get(name, default) for name, default in cmd.params.items()}
    axes = [(_grid(*ranges[name]), name) for name in cmd.params]
    result = SweepResult(header=list(cmd.params) + list(cmd.diagnostics))
    cache: dict = {}
    for values in product(*(axis for axis, _ in axes)):
        point = {name: float(v) for v, (_, name) in zip(values, axes)}
        diag = cmd.evaluate(point, config.cutoff, config.strict, cache)
        row = tuple(point[name] for name in cmd.params) + tuple(float(x) for x in diag)
        if not all(np.isfinite(row)):
            raise ValueError(f"non-finite diagnostic at {point}")
        result.rows.append(row)
    return result


def emit_csv(result: SweepResult, path: str | None) -> None:
    """Write the sweep as UTF-8 CSV with 12-significant-digit values."""
    lines = [",".join(result.header)]
    lines.extend(",".join(f"{v:.11e}" for v in row) for row in result.rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def _build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--cutoff", type=int, default=30)
        p.add_argument("--strict", action="store_true",
                       help="turn truncation-tail warnings into errors")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ranges = {}
        for name, grid in map(_parse_assignment, args.assignments):
            if name in ranges:
                raise UsageError(f"parameter {name!r} given more than once")
            ranges[name] = grid
        config = SweepConfig(command=args.command, ranges=ranges,
                             cutoff=args.cutoff, strict=args.strict, out=args.out)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(config)
        emit_csv(result, config.out)
    except (TruncationError, ValueError) as exc:
        print(f"error: numeric-guard: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
