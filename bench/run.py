"""esvsim benchmark: the README CLI sweeps, each command a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/esvsim`` of
that checkout, put on PYTHONPATH, with nothing to build.  One benchmark
process is the only client, in a closed loop: it starts each command of the
workload in turn (one pass) and starts the next when the previous exits.
Users pay interpreter start, imports and ``lru_cache`` fills on every
invocation, so all of that stays inside the timing.  Passes repeat while the
next one is expected to end within ``--seconds``; a workload whose pass is
longer than that runs one pass.

``--trace 0`` first starts five processes that only import ``esvsim.cli``
(set-up probes), then measures untraced passes and prints the end-to-end
metrics:

* ``wall_s``: median over passes of first spawn to last exit;
* ``sweep_s``: median over passes of the summed time inside ``esvsim.cli.main``;
* ``setup_s``: median over probes and invocations of spawn to ``esvsim.cli`` imported;
* ``peak_rss_mb``: median over passes of the largest max RSS of any process.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (``PER_LAYER``), medians over the traced passes, where the spans of
``spans.py`` time every esvsim layer from outside the library.  Per-command
``sweep_s``/``setup_s`` and the trace overhead come from the untraced passes.

Every invocation is checked (``checks.py``): exit code, header, grid, finite
values and the documented invariants; a traced CSV must also equal the
untraced one byte for byte.  A failed check counts toward ``failed`` and the
printed ``error_rate``, and the exit code is 1.  With ``--trace 1`` the
summary also prints ``cli.<command>.value_drift``, the largest deviation from
the seed-0 record in ``record/`` (written by ``record.py``); it is a
diagnostic, not a metric, and reads n/a where no record covers the grid, as
on seeds other than 0.

BLAS runs with one thread per available CPU (OPENBLAS_NUM_THREADS and
friends), and only one esvsim process runs at a time.  The last stdout line
is the JSON result; the lines before it are a readable summary and the
machine record (``# machine``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
from spans import LAYERS
from workloads import WORKLOADS, commands

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
SETUP_PROBES = 5
THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ALL_COMMANDS = [argv[0] for workload in WORKLOADS.values() for argv in workload]
UNITS = {"self_s": "s", "total_s": "s", "calls": "count", "n3": "count", "bytes": "B"}

# (span, fields): per-pass sums over the traced invocations; a metric is named
# after its span without the leading underscore of a private function
SPAN_METRICS = [
    ("fock.eigs_hermitian", ("self_s", "calls", "n3")),
    ("fock.partial_transpose", ("self_s", "bytes")),
    ("fock.apply_beamsplitter", ("self_s", "bytes")),
    ("fock.resize_mode", ("self_s",)),
    ("fock.reduced_density", ("self_s", "calls")),
    ("fock.moment", ("self_s", "calls")),
    ("fock._apply_unitary", ("self_s",)),
    ("fock.check_tail", ("self_s", "calls")),
    ("states.esv_mixed", ("self_s", "calls")),
    ("states.esv_pure", ("self_s", "calls")),
    ("states.squeezed_vacuum", ("self_s", "calls")),
    ("states.esv_aligned", ("self_s",)),
    ("measures.log_negativity", ("self_s", "total_s", "calls")),
    ("measures.eof_pure", ("self_s", "total_s", "calls")),
    ("channels.thermal_channel", ("self_s", "total_s", "calls")),
    ("channels.phase_channel", ("self_s", "calls")),
    ("separability.moment_matrix_entry", ("calls",)),
    ("dynamics.entangling_power", ("total_s", "calls")),
    ("dynamics.jc_unitary", ("self_s",)),
    ("protocols.entanglement_swap", ("total_s",)),
    ("protocols.teleport", ("total_s",)),
    ("protocols.generate_scheme_a", ("total_s",)),
    ("protocols.generate_scheme_b", ("total_s",)),
    ("protocols.odd_odd_projector", ("self_s",)),
    ("protocols.controlled_phase", ("self_s",)),
    ("cli.run", ("self_s",)),
    ("cli.emit_csv", ("self_s",)),
]


def _metric(span: str) -> str:
    return span.replace("._", ".")


MINOR_SPANS = ("separability.simon_det", "separability.duan_det", "separability.esv_criterion_det")

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{_metric(span)}.{f}": (UNITS[f], "lower") for span, fields in SPAN_METRICS for f in fields},
    "fock.truncation_warnings": ("count", "lower"),
    "fock.displace_matrix.calls": ("count", "lower"),
    "fock.displace_matrix.hit_ratio": ("ratio", "higher"),
    "separability.minor.total_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    **{f"cli.{c}.{m}": ("s", "lower") for c in ALL_COMMANDS for m in ("sweep_s", "setup_s")},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Invocation:
    argv: list[str]
    spawn: float
    end: float
    rc: int
    rss_mb: float
    record: dict | None = None
    csv: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float | None:
        return self.record["imported"] - self.spawn if self.record else None

    @property
    def sweep_s(self) -> float | None:
        return self.record["exit"] - self.record["enter"] if self.record and "exit" in self.record else None


class Runner:
    """Starts CLI invocations one at a time and collects their results."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **{v: str(THREADS) for v in THREAD_VARS})

    def invoke(self, argv: list[str], mode: str, tag: str) -> Invocation:
        paths = {ext: self.work / f"{tag}.{ext}" for ext in ("json", "csv", "err")}
        paths["json"].unlink(missing_ok=True)
        with open(paths["csv"], "wb") as out, open(paths["err"], "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(paths["json"]), mode, *argv],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(argv, spawn, end, proc.returncode, usage.ru_maxrss / 1024.0)
        if paths["json"].is_file():
            inv.record = json.loads(paths["json"].read_text())
        inv.csv = paths["csv"].read_text()
        if inv.rc != 0 or inv.record is None:
            tail = paths["err"].read_text().strip().splitlines()[-3:]
            inv.problems.append(f"{' '.join(argv) or 'setup'}: exit code {inv.rc}: {' | '.join(tail)}")
        elif not Path(inv.record["esvsim"]).resolve().is_relative_to(SRC):
            inv.problems.append(f"imported esvsim from {inv.record['esvsim']}, not from {SRC}")
        return inv

    def run_pass(self, argvs: list[list[str]], mode: str) -> tuple[float, list[Invocation]]:
        """One pass over the command lines; (wall seconds, checked invocations)."""
        invs = [self.invoke(argv, mode, f"{mode}-{k}") for k, argv in enumerate(argvs)]
        wall = invs[-1].end - invs[0].spawn
        for inv in invs:
            if not inv.problems:
                inv.problems.extend(checks.check_csv(inv.argv, inv.csv))
        return wall, invs


def measure(runner: Runner, argvs: list[list[str]], seconds: float, modes: tuple[str, ...]):
    """Passes in each mode, repeated while the next round should end in time."""
    passes: dict[str, list[tuple[float, list[Invocation]]]] = {m: [] for m in modes}
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for mode in modes:
            passes[mode].append(runner.run_pass(argvs, mode))
        now = time.monotonic()
        if (now - start) + (now - round_start) > seconds:
            return passes


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(passes, probes: list[Invocation]) -> dict[str, float]:
    invs = [inv for _, pass_invs in passes for inv in pass_invs]
    return {
        "wall_s": _median(wall for wall, _ in passes),
        "sweep_s": _median(sum(inv.sweep_s or 0.0 for inv in pass_invs) for _, pass_invs in passes),
        "setup_s": _median([inv.setup_s for inv in probes + invs]),
        "peak_rss_mb": _median(max(inv.rss_mb for inv in pass_invs) for _, pass_invs in passes),
    }


def _traced_pass(invs: list[Invocation]) -> tuple[dict[str, float], dict[str, float]]:
    """Span-derived metrics of one traced pass, and every span's self time."""
    spans: dict[str, dict[str, float]] = {}
    out = {"fock.truncation_warnings": 0.0, "cli.rows": 0.0, **{f"{layer}.errors": 0.0 for layer in LAYERS}}
    hits = misses = 0
    for inv in invs:
        out["cli.rows"] += max(0, len(inv.csv.splitlines()) - 1)
        trace = (inv.record or {}).get("trace")
        if trace is None:
            continue
        for key, stats in trace["spans"].items():
            acc = spans.setdefault(key, {})
            for name, value in stats.items():
                acc[name] = acc.get(name, 0.0) + value
        for layer, n in trace["errors"].items():
            out[f"{layer}.errors"] += n
        out["fock.truncation_warnings"] += trace["truncation_warnings"]
        cache = trace["caches"].get("fock.displace_matrix", {})
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
    for span, fields in SPAN_METRICS:
        for f in fields:
            out[f"{_metric(span)}.{f}"] = spans.get(span, {}).get(f, 0.0)
    out["separability.minor.total_s"] = sum(spans.get(s, {}).get("total_s", 0.0) for s in MINOR_SPANS)
    out["fock.displace_matrix.calls"] = hits + misses
    out["fock.displace_matrix.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out, {key: stats["self_s"] for key, stats in spans.items()}


def per_layer(untraced, traced) -> tuple[dict[str, float], dict[str, float], dict[str, float | None]]:
    """Per-layer metrics and span self times, as medians over the traced passes,
    and each command's value drift (None where no record covers its grid)."""
    per_pass = [_traced_pass(invs) for _, invs in traced]
    metrics = {name: _median(m[name] for m, _ in per_pass) for name in per_pass[0][0]}
    spans = {key for _, self_times in per_pass for key in self_times}
    self_times = {key: _median(st.get(key, 0.0) for _, st in per_pass) for key in spans}
    drifts: dict[str, float | None] = {}
    for command in ALL_COMMANDS:
        invs = [inv for _, pass_invs in untraced for inv in pass_invs if inv.argv[0] == command]
        metrics[f"cli.{command}.sweep_s"] = _median(inv.sweep_s for inv in invs)
        metrics[f"cli.{command}.setup_s"] = _median(inv.setup_s for inv in invs)
        if invs and not invs[0].problems:
            drifts[command] = checks.value_drift(invs[0].argv, invs[0].csv)
    metrics["trace.overhead_s"] = end_to_end(traced, [])["sweep_s"] - end_to_end(untraced, [])["sweep_s"]
    return {name: metrics[name] for name in PER_LAYER}, self_times, drifts


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": THREADS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: THREADS for v in THREAD_VARS},
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "esvsim" / "cli.py").is_file():
        print(f"error: no esvsim source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argvs = commands(args.workload, args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        runner = Runner(work)
        probes = []
        if args.trace:
            passes = measure(runner, argvs, args.seconds, ("run", "trace"))
        else:
            probes = [runner.invoke([], "setup", f"setup-{k}") for k in range(SETUP_PROBES)]
            passes = measure(runner, argvs, args.seconds, ("run",))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    invs = [inv for mode in passes for _, pass_invs in passes[mode] for inv in pass_invs]
    if args.trace:
        for (_, plain), (_, traced) in zip(passes["run"], passes["trace"]):
            for a, b in zip(plain, traced):
                if not b.problems and b.csv != a.csv:
                    b.problems.append(f"{b.argv[0]}: traced CSV differs from the untraced CSV")
        metrics, self_times, drifts = per_layer(passes["run"], passes["trace"])
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(passes["run"], probes)
        units = END_TO_END
    problems = [p for inv in probes + invs for p in inv.problems]
    failed = sum(1 for inv in invs if inv.problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    npasses = len(next(iter(passes.values())))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{npasses} pass(es) per mode, {len(invs)} invocations, {failed} failed")
    for argv in argvs:
        print(f"#   esvsim {' '.join(argv)}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'error_rate':40s} {failed / len(invs):.6g} ratio")
    if args.trace:
        top = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
        print("# largest self times: " + ", ".join(f"{k} {v:.4g} s" for k, v in top))
        for command, drift in drifts.items():
            value = "n/a (no record for this grid)" if drift is None else f"{drift:.6g} abs"
            print(f"# {f'cli.{command}.value_drift':38s} {value}")
    print("# machine " + json.dumps(machine()))
    result = {"correct": failed == 0 and not problems, "attempted": len(invs), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
