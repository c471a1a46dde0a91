"""Tests of the benchmark itself: tracing, output checks, seeds, metric names.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from workloads import WORKLOADS, commands, parse_axis

# Every benchmark command on a small grid or cutoff, so each runs in well under a second.
SMALL = [
    ["ln-thermal", "s=1", "sigma=0..2:2", "phi=0..6.283185307179586:2", "--cutoff", "10"],
    ["ln-phase", "sigma=0..1:2", "phi=0..6.283185307179586:2", "--cutoff", "10"],
    ["eof-surface", "s=0.05..5:3", "phi=0..6.283185307179586:3", "--cutoff", "20"],
    ["criteria", "s=0.2..1:2", "phi=0..3.141592653589793:2"],
    ["ent-power", "tau=0..10:3", "--cutoff", "12"],
    ["overlap", "d=2", "r=0..2:5"],
    ["swap", "s=1", "--cutoff", "12"],
    ["teleport", "s=1", "a0=1", "a1=0", "--cutoff", "16"],
    ["generate", "--cutoff", "12"],
]


def test_small_grids_cover_every_command():
    assert sorted(argv[0] for argv in SMALL) == sorted(run.ALL_COMMANDS)


@pytest.mark.parametrize("argv", SMALL, ids=[argv[0] for argv in SMALL])
def test_traced_csv_is_byte_identical(argv, tmp_path):
    runner = run.Runner(tmp_path)
    plain = runner.invoke(argv, "run", "plain")
    traced = runner.invoke(argv, "trace", "traced")
    assert plain.problems == [] and traced.problems == []
    assert checks.check_csv(argv, plain.csv) == []
    assert traced.csv == plain.csv
    spans = traced.record["trace"]["spans"]
    assert spans["cli.main"]["calls"] == 1
    assert all(s["self_s"] <= s["total_s"] + 1e-9 for s in spans.values())
    assert sum(traced.record["trace"]["errors"].values()) == 0


def _record(command):
    argv = next(a for w in WORKLOADS.values() for a in w if a[0] == command)
    return argv, (checks.RECORD_DIR / f"{command}.csv").read_text()


@pytest.mark.parametrize("command", run.ALL_COMMANDS)
def test_record_passes_checks_with_zero_drift(command):
    argv, text = _record(command)
    assert checks.check_csv(argv, text) == []
    assert checks.value_drift(argv, text) == 0.0


def _corrupt(text, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index(column)] = value(cells[header.index(column)])
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, column, value", [
    ("criteria", "esv_criterion", lambda v: v.lstrip("-")),
    ("swap", "probability", lambda v: "3.00000000000e-01"),
    ("teleport", "fidelity", lambda v: "1.00000100000e+00"),
    ("generate", "p_minus", lambda v: "0.0"),
    ("eof-surface", "eof", lambda v: "nan"),
    ("ent-power", "value", lambda v: "1e-6"),
    ("overlap", "overlap", lambda v: "0.0"),
    ("ln-thermal", "ln", lambda v: "-1e-3"),
    ("ln-phase", "phi", lambda v: "1.0"),
])
def test_checker_rejects_corrupted_csv(command, column, value):
    argv, text = _record(command)
    bad = _corrupt(text, column, value)
    assert checks.check_csv(argv, bad) != []
    assert checks.value_drift(argv, bad) != 0.0


def test_checker_rejects_missing_rows_and_wrong_header():
    argv, text = _record("criteria")
    assert checks.check_csv(argv, text.rsplit("\n", 2)[0] + "\n") != []
    assert checks.check_csv(argv, text.replace("esv_criterion", "esv", 1)) != []


def test_seed_zero_is_readme_and_other_seeds_shift_under_half_a_step():
    for name, readme in WORKLOADS.items():
        assert commands(name, 0) == readme
        assert commands(name, 5) == commands(name, 5)
        for base, seeded in zip(readme, commands(name, 5)):
            assert len(base) == len(seeded)
            for a, b in zip(base, seeded):
                axis_a, axis_b = parse_axis(a), parse_axis(b)
                if axis_a is None or axis_a[3] == 1:
                    assert a == b
                    continue
                step = (axis_a[2] - axis_a[1]) / (axis_a[3] - 1)
                assert axis_b[3] == axis_a[3]
                assert 0 < axis_b[1] - axis_a[1] < 0.5 * step
                assert axis_b[2] - axis_b[1] == pytest.approx(axis_a[2] - axis_a[1])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "protocols", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
