import argparse
import contextlib
import dataclasses
import io
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import esvsim
import esvsim.cli as cli
from esvsim import (
    SqueezeSpec,
    TruncationWarning,
    esv_mixed,
    log_negativity,
    phase_channel,
    squeezed_vacuum,
    thermal_channel,
)
from esvsim.cli import COMMANDS, SweepConfig, UsageError, _build_parser, _parse_canonical, emit_csv, main, run
from esvsim.measures import esv_mixed_ln_curve, esv_pure_eof_curve
from esvsim.separability import esv_criteria_curve

RECORD_DIR = Path(__file__).resolve().parents[1] / "bench" / "record"


def rows_of(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_eof_surface_row_count_and_bound(tmp_path):
    out = tmp_path / "eof.csv"
    rc = main(["eof-surface", "s=0.05..5:8", f"phi=0..{2*np.pi}:8",
               "--cutoff", "24", "--out", str(out)])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["s", "phi", "eof"]
    assert len(rows) == 64
    assert max(r[2] for r in rows) <= 1 + 1e-6
    assert all(np.isfinite(r).all() for r in np.asarray(rows))


def test_swap_single_row(tmp_path):
    out = tmp_path / "swap.csv"
    rc = main(["swap", "s=1", "--cutoff", "20", "--out", str(out)])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["s", "probability", "fidelity"]
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(0.25, abs=2e-3)


def test_criteria_signs(tmp_path):
    out = tmp_path / "crit.csv"
    rc = main(["criteria", "s=1", "phi=0", "--cutoff", "30", "--out", str(out)])
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["s", "phi", "simon", "duan", "esv_criterion"]
    (row,) = rows
    assert row[2] >= -1e-9 and row[3] >= -1e-9 and row[4] < 0


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["criteria", "s=0.2..1:3", "phi=0..3.14159:3", "--cutoff", "24"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format_significant_digits(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["overlap", "d=2", "r=0..1:2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,r,overlap"
    assert len(lines) == 3
    for token in lines[1].split(","):
        mantissa = token.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 12


def test_overlap_at_huge_separation_prints_zero(capsys):
    # the squared separation saturates at inf: a row of 0.0, not a traceback
    assert main(["overlap", "d=1e200", "r=0"]) == 0
    assert capsys.readouterr().out == "d,r,overlap\n1.00000000000e+200,0.00000000000e+00,0.00000000000e+00\n"


def test_usage_errors_exit_2():
    assert main(["swap", "squeeze=1"]) == 2          # unknown parameter
    assert main(["swap", "s=0..1"]) == 2             # range without steps
    assert main(["swap", "s"]) == 2                  # not an assignment
    assert main(["overlap", "r=0", "r=1"]) == 2      # repeated parameter
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["overlap", "d=2", "r=-1e308..1e308:3"], ["swap", "s=-1e308..1e308:3"],
                                  ["swap", "s=-1e308..1e308:1"]])
def test_range_whose_span_overflows_is_a_usage_error(argv, capsys):
    # each bound is finite, but np.linspace takes hi - lo, which overflows to inf
    assert main(argv) == 2
    name = argv[-1].split("=")[0]
    assert capsys.readouterr().err == (f"error: usage: {name}: range -1e+308..1e+308 "
                                       "spans more than the float range\n")


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), 10 ** 400, -10 ** 400],
                         ids=["nan", "inf", "-inf", "numpy-nan", "int-above-float", "int-below-float"])
def test_non_finite_range_bound_is_a_usage_error(bound):
    # an int beyond the float range is no finite bound either
    for lo, hi in ((bound, 1.0), (0.0, bound)):
        with pytest.raises(UsageError, match="^r: range bounds must be finite$"):
            SweepConfig("overlap", {"r": (lo, hi, 3)})


def _parse_exit(parse, argv):
    """Exit code, stdout and stderr of parsing `argv` where argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


PARSER_EXITS = [[name, "-h"] for name in COMMANDS] + [
    ["-h"], [], ["no-such-command"], ["--cutoff", "3", "swap"],
    ["swap", "--foo"], ["swap", "s=1", "--cutoff", "x"], ["overlap", "--strict=1"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_parser_with_every_command(argv):
    # main leaves help, usage and errors to the parser with every command: for
    # an unrecognized option argparse prints the top-level usage, which lists
    # every command
    expected = _parse_exit(_build_parser().parse_args, argv)
    assert expected[0] == (0 if "-h" in argv else 2)
    assert _parse_exit(main, argv) == expected


def test_top_level_help_lists_every_command():
    code, out, _ = _parse_exit(main, ["-h"])
    assert code == 0
    assert [line.split()[0] for line in out.splitlines() if "columns:" in line] == list(COMMANDS)


def test_a_canonical_line_registers_no_subparser(monkeypatch):
    registered = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["overlap", "d=2", "r=0", "--cutoff", "8"]) == 0
    assert registered == []
    # help and the other spellings go to the parser with every command
    _parse_exit(main, ["swap", "-h"])
    assert registered == list(COMMANDS)
    registered.clear()
    assert main(["overlap", "d=2", "r=0", "--cutoff=8"]) == 0
    assert registered == list(COMMANDS)


ARGV_TOKENS = [*COMMANDS, "no-such", "s=1", "phi=0..1:3", "", "-h", "--cutoff", "--cut", "--cutoff=5", "5",
               "-5", "x", "--strict", "--strict=1", "--out", "/dev/null", "--"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
# uniform draws seldom put two flags with their values after a command
@example(argv=["swap", "s=1", "--cutoff", "5", "--strict", "--out", "/dev/null"])
@example(argv=["overlap", "--out", "/dev/null", "--strict", "--cutoff", "5"])
@example(argv=["criteria", "", "phi=0..1:3", "x", "--out", ""])
@example(argv=["teleport", "5", "--strict", "--cutoff", "5"])
def test_a_canonical_line_parses_as_the_parser_parses_it(argv):
    fields = _parse_canonical(argv)
    if fields is None:
        return
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}, which _parse_canonical accepts as {fields!r}")
    assert fields == (args.command, args.assignments, args.cutoff, args.strict, args.out)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_diagnostic_exits_3_naming_the_point(bad, monkeypatch, capsys):
    # a finite row at r = 0, then the non-finite one at r = 1, in one block of columns
    cmd = COMMANDS["overlap"]
    monkeypatch.setitem(COMMANDS, "overlap",
                        dataclasses.replace(cmd, evaluate=lambda cutoff, d, r: (np.where(r > 0, bad, 0.5),)))
    assert main(["overlap", "d=2", "r=0..1:2"]) == 3
    assert capsys.readouterr().err == "error: numeric-guard: non-finite diagnostic at {'d': 2.0, 'r': 1.0}\n"


def test_unwritable_out_path_exits_2(tmp_path, capsys, monkeypatch):
    # the output path is checked before the sweep: no row is computed for it
    def no_run(config):
        pytest.fail("the sweep ran for an output path it cannot write")

    monkeypatch.setattr(esvsim.cli, "run", no_run)
    out = tmp_path / "missing" / "x.csv"
    assert main(["overlap", "d=2", "r=0..2:3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: output: ")
    assert not out.exists()
    assert main(["ln-thermal", "s=1", "--out", str(tmp_path)]) == 2     # a directory
    assert capsys.readouterr().err.startswith("error: output: ")


def test_out_file_untouched_by_a_run_that_exits_3(tmp_path):
    # the early output check neither creates nor truncates the file
    out = tmp_path / "eof.csv"
    argv = ["eof-surface", "s=0", "phi=3.141592653589793", "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()
    out.write_text("kept\n")
    assert main(argv) == 3
    assert out.read_text() == "kept\n"


def test_numeric_guard_exit_3():
    # strict mode rejects a squeezing this large at a tiny cutoff
    assert main(["eof-surface", "s=2.5..2.5:1", "phi=0..0:1",
                 "--cutoff", "12", "--strict"]) == 3
    # strict reaches the determinants: each single-mode tail (7.1e-9) passes,
    # the joint tail of the moment words (1.6e-8) does not
    assert main(["criteria", "s=0.62", "phi=0", "--strict"]) == 3
    # the degenerate (s = 0, phi = pi) point is a guard error too
    assert main(["eof-surface", "s=0..0:1", "phi=3.141592653589793..3.2:1"]) == 3
    # strict reaches generation and the thermal channel's tail check; swap and
    # teleport are cutoff-free, so nothing they print is truncated
    assert _main_stdout(["swap", "s=3", "--cutoff", "12", "--strict"]) == (
        0, "s,probability,fidelity\n3.00000000000e+00,2.50000000000e-01,1.00000000000e+00\n")
    assert _main_stdout(["teleport", "s=3", "a0=1", "a1=0", "--cutoff", "12", "--strict"]) == (
        0, "s,a0,a1,probability,fidelity\n"
           "3.00000000000e+00,1.00000000000e+00,0.00000000000e+00,2.50000000000e-01,1.00000000000e+00\n")
    assert main(["generate", "s=3", "--cutoff", "12", "--strict"]) == 3
    assert main(["ln-thermal", "s=0.3", "sigma=2", "phi=0", "--cutoff", "30", "--strict"]) == 3


def test_swap_and_teleport_exit_0_at_every_positive_squeezing(capsys):
    # the closed form holds at every finite s > 0, subnormals and a1 = -a0 included;
    # s = 0 stays outside its domain
    assert main(["swap", "s=1e-13"]) == 0
    assert capsys.readouterr().out == ("s,probability,fidelity\n"
                                       "1.00000000000e-13,2.50000000000e-01,1.00000000000e+00\n")
    for argv in (["swap", "s=5e-324"], ["teleport", "s=1e-13", "a0=1", "a1=-1"]):
        assert main(argv + ["--strict"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",2.50000000000e-01,1.00000000000e+00")
    assert main(["swap", "s=0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: numeric-guard: swap requires s > 0\n"


def test_pure_lines_at_phi_pi_exit_0_for_s_above_the_norm_floor(capsys):
    # s > 0 is not the zero vector at phi = pi: the state is (|0,2> - |2,0>)/sqrt 2 in the
    # limit, one ebit
    row = "1.00000000000e-07,3.14159265359e+00,"
    assert _main_stdout(["eof-surface", "s=1e-7", "phi=3.141592653589793"]) == (
        0, "s,phi,eof\n" + row + "1.00000000000e+00\n")
    assert _main_stdout(["criteria", "s=1e-7", "phi=3.141592653589793"]) == (
        0, "s,phi,simon,duan,esv_criterion\n" + row + "4.00000000000e+00,1.00000000000e+00,-1.00000000000e+00\n")
    # below s ~ 5e-13 the state's norm at phi = pi is under 1e-12, which is no floor at s > 0:
    # the EoF is h(lambda+) of x = cos(fl(pi)/2) / sinh s = 1.5e-4, not 1, and the
    # ESV criterion stays negative
    row = "4.00000000000e-13,3.14159265359e+00,"
    assert _main_stdout(["eof-surface", "s=4e-13", "phi=3.141592653589793"]) == (
        0, "s,phi,eof\n" + row + "9.99999966192e-01\n")
    assert _main_stdout(["criteria", "s=4e-13", "phi=3.141592653589793"]) == (
        0, "s,phi,simon,duan,esv_criterion\n" + row + "3.99999962506e+00,9.99999953133e-01,-9.99999906265e-01\n")
    # s = 0 is the zero vector
    for command in ("eof-surface", "criteria"):
        assert main([command, "s=0", "phi=3.141592653589793"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: numeric-guard: degenerate superposition is the zero vector\n"


@pytest.mark.parametrize("argv", [["eof-surface", "s=800", "phi=0"], ["eof-surface", "s=1e300", "phi=0"],
                                  ["generate", "s=800"]])
def test_squeezing_whose_sech_underflows_exits_3_naming_the_underflow(argv, capsys):
    # sech s underflows to 0, so every truncated amplitude would be 0: the state is not
    # a degenerate superposition, and no row is printed, with or without --strict
    for strict in ([], ["--strict"]):
        assert main(argv + strict) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: numeric-guard: sech s underflows to 0")


def test_subnormal_criteria_minor_prints_the_zeros_row(capsys):
    # the state is |00> to within subnormal amplitudes: an LU determinant pivoted on one of
    # them and divided by zero, where the eigenvalue product gives the exact zeros of s = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["criteria", "s=1e-300", "phi=1e-13", "--cutoff", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "1.00000000000e-300,1.00000000000e-13," + ",".join(["0.00000000000e+00"] * 3)
    assert err == ""


def test_criteria_contracts_only_the_2x2_coefficient_matrix(monkeypatch):
    # the sweep builds no two-mode Fock state: every minor entry is a contraction of the
    # 2 x 2 parity coefficient matrix, one stack of them for the whole (s, phi) grid, and
    # esv_pure is never called
    import esvsim.cli as cli
    import esvsim.fock as fock
    import esvsim.separability as separability
    import esvsim.states as states

    stacks, contracted, built = [], [], []
    expectations = separability._coefficient_expectations

    def spy(coeffs, proj_a, proj_b):
        stacks.append(coeffs.shape)
        return expectations(coeffs, proj_a, proj_b)

    monkeypatch.setattr(separability, "_coefficient_expectations", spy)
    for module in (fock, separability):
        monkeypatch.setattr(module, "_product_expectations", lambda state, pairs: contracted.append(state))
    for module in (cli, states):
        monkeypatch.setattr(module, "esv_pure", lambda spec: built.append(spec))
    assert main(["criteria", "s=0.2..1:3", "phi=0..3.141592653589793:3"]) == 0
    assert built == [] and contracted == []
    assert stacks == [(3, 3, 2, 2)]


def test_runtime_warning_raised_as_error_exits_3(monkeypatch, capsys):
    # under PYTHONWARNINGS=error::RuntimeWarning, as CI runs the console script, a warning
    # raised in a sweep is a numeric-guard error, not a traceback
    def evaluate(r):
        warnings.warn("divide by zero encountered in log", RuntimeWarning)
        return (np.full_like(r, 0.5),)

    monkeypatch.setitem(COMMANDS, "overlap",
                        dataclasses.replace(COMMANDS["overlap"], evaluate=lambda cutoff, d, r: evaluate(r)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["overlap", "d=2", "r=0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: numeric-guard: divide by zero encountered in log\n"


def test_strict_flags_truncation_that_keeps_almost_no_norm():
    # at large s a cutoff keeps almost none of the squeezed vacuum's norm and prints
    # a wrong value (EoF 0.9103 for 1, p_plus 0.5162 for 0.5); its band is a large
    # share of what is kept, though a tiny absolute mass
    for argv in (["eof-surface", "s=25", "phi=0"], ["generate", "s=25"],
                 ["ln-phase", "s=30", "sigma=0", "phi=0", "--cutoff", "6"]):
        rc, _, contexts = _contexts(argv)
        assert rc == 0 and contexts == {"squeezed_vacuum"}
        assert _main_stdout(argv + ["--strict"])[0] == 3


def _main_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["swap", "teleport", "generate", "ln-thermal", "eof-surface"]),
       s=st.floats(0.2, 3.0), cutoff=st.integers(8, 16), sigma=st.floats(0.0, 2.0))
def test_strict_is_warnings_as_errors(command, s, cutoff, sigma):
    argv = [command, f"s={s!r}"]
    if command == "ln-thermal":
        argv += [f"sigma={sigma!r}", "phi=0"]
    argv += ["--cutoff", str(cutoff)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        loose_rc, loose_csv = _main_stdout(argv)
    strict_rc, strict_csv = _main_stdout(argv + ["--strict"])
    assert loose_rc == 0
    if any(issubclass(w.category, TruncationWarning) for w in caught):
        assert strict_rc == 3
    else:
        assert strict_rc == 0
        assert strict_csv == loose_csv


def _contexts(argv):
    """Exit code, stdout and the TruncationWarning contexts of one CLI run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        rc, text = _main_stdout(argv)
    warned = [w for w in caught if issubclass(w.category, TruncationWarning)]
    return rc, text, {str(w.message).split(":")[0] for w in warned}


def _warned(argv):
    """Exit code, stderr and the TruncationWarning messages of one CLI run, in order."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always", TruncationWarning)
        rc = main(argv)
    return rc, err.getvalue(), [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]


def _per_s_loop(curve, argv):
    """The TruncationWarning messages of a loop over the s axis of a pure-sweep line,
    one scalar curve per point of s called on the whole phi axis, as the sweep once ran."""
    config = SweepConfig(argv[0], dict(map(cli._parse_assignment, argv[1:-2])), cutoff=int(argv[-1]))
    s_axis, phi_axis = (np.linspace(*config.ranges.get(name, default))
                        for name, default in COMMANDS[argv[0]].params.items())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        for s in s_axis.tolist():
            curve(s, phi_axis, config.cutoff)
    return [str(w.message) for w in caught]


PURE_WARNINGS = [   # (line, TruncationWarnings), the counts of the per-s sweep
    (["eof-surface", "s=0.05..5:40", "phi=0..6.283185307179586:40", "--cutoff", "40"], 34),
    (["criteria", "s=0.2..1:3", "phi=0..3.141592653589793:3", "--cutoff", "30"], 4),
    (["criteria", "s=0.05..1.3:7", "phi=-3..9:11", "--cutoff", "12"], 72),
    (["eof-surface", "s=1..1:3", "phi=0..1:2", "--cutoff", "30"], 3),      # a repeated s warns at each point
]


@pytest.mark.parametrize("argv, count", PURE_WARNINGS,
                         ids=["eof-readme", "criteria-readme", "criteria-72", "eof-repeated"])
def test_pure_sweeps_warn_as_a_loop_over_s(argv, count):
    # the whole (s, phi) grid in one pass warns as often, and in the same order, as one
    # curve per point of s did: per s its squeezed vacuum's tail, then the moments per phi
    curve = esv_pure_eof_curve if argv[0] == "eof-surface" else esv_criteria_curve
    rc, _, messages = _warned(argv)
    assert rc == 0 and len(messages) == count
    assert messages == _per_s_loop(curve, argv)


def test_strict_pure_sweep_fails_on_its_first_failing_check(capsys):
    # row-major, the first failing check of this line is the tail of its first squeezed vacuum
    assert main(["criteria", "s=0.05..1.3:7", "phi=-3..9:11", "--cutoff", "12", "--strict"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: numeric-guard: squeezed_vacuum: Fock-tail mass above 1e-08; "
                                 "results may be truncation-limited\n")


@pytest.mark.parametrize("argv, error, messages", [
    # a later negative s fails after the earlier points' warnings; under --strict the first of them
    (["eof-surface", "s=1..-1:5", "phi=0..3.14:3", "--cutoff", "12"], "s must be finite and >= 0, got -0.5",
     ["squeezed_vacuum"] * 2),
    # s = 0 at phi = pi is degenerate before any later point's squeezed vacuum is judged
    (["eof-surface", "s=0..1:2", "phi=3.141592653589793"], "degenerate superposition is the zero vector", []),
    # at s = 401.5 the squeezed vacuum warns, then its phi = pi is degenerate; s = 800 is never reached
    (["criteria", "s=3..800:3", "phi=0..3.141592653589793:3", "--cutoff", "12"],
     "degenerate superposition is the zero vector", ["squeezed_vacuum"] + ["moment"] * 3 + ["squeezed_vacuum"]),
], ids=["negative-s", "degenerate-first", "degenerate-after-warnings"])
def test_pure_sweep_errors_in_row_major_order(argv, error, messages):
    rc, err, warned = _warned(argv)
    assert rc == 3 and err == f"error: numeric-guard: {error}\n"
    assert [m.split(":")[0] for m in warned] == messages
    first = "squeezed_vacuum: Fock-tail mass above 1e-08; results may be truncation-limited" if messages else error
    assert _warned(argv + ["--strict"])[:2] == (3, f"error: numeric-guard: {first}\n")


def test_pure_sweeps_prepare_each_curve_once(monkeypatch):
    # one curve call per sweep, on the whole s axis as a column against the phi axis as a row
    shapes = []
    for name in ("esv_pure_eof_curve", "esv_criteria_curve"):
        def spy(s, phi, cutoff, curve=getattr(cli, name)):
            shapes.append(np.shape(s))
            return curve(s, phi, cutoff)
        monkeypatch.setattr(cli, name, spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert main(["eof-surface", "s=0.05..5:40", "phi=0..6.283185307179586:40", "--cutoff", "40"]) == 0
        assert main(["criteria", "s=0.2..1:3", "phi=0..3.141592653589793:3"]) == 0
    assert shapes == [(40, 1), (3, 1)]


def test_strict_reaches_the_splitter_tail_of_the_term_sums():
    # every mode carries a tail band, however few its levels: at cutoff 6 scheme b's
    # squeezed vacua warn, and so do the criteria and EoF rows, which print +0.645
    # for a negative esv_criterion at phi = pi/2 and 0.499 for an EoF of 0.8993
    argv = ["generate", "s=0.5", "--cutoff", "6"]
    rc, _, contexts = _contexts(argv)
    assert rc == 0 and contexts == {"squeezed_vacuum"}
    assert _main_stdout(argv + ["--strict"])[0] == 3
    for argv in (["criteria", "s=1", "--cutoff", "6"], ["eof-surface", "s=2", "phi=0", "--cutoff", "6"]):
        assert _contexts(argv)[0] == 0
        assert _main_stdout(argv + ["--strict"])[0] == 3
    # swap and teleport are cutoff-free: no cutoff warns, and --strict prints the same 1/4 and 1
    for cutoff in ("4", "6", "16", "30", "80"):
        for argv in (["swap", "s=0.3", "--cutoff", cutoff],
                     ["teleport", "s=3", "a0=0.6", "a1=0.8", "--cutoff", cutoff]):
            rc, text, contexts = _contexts(argv)
            assert rc == 0 and contexts == set()
            assert [float(v) for v in text.splitlines()[1].split(",")[-2:]] == [0.25, 1.0]
            assert _main_stdout(argv + ["--strict"]) == (0, text)


# The seed-0 README command lines and their stored CSVs in bench/record.
# ln-thermal and ln-phase are left out: their record predates the
# closed-form noise channels.  ROADMAP item 1 rewrites their record, and
# this test with it.
RECORDED = [
    ["eof-surface", "s=0.05..5:40", "phi=0..6.283185307179586:40", "--cutoff", "40"],
    ["criteria", "s=0.2..1:3", "phi=0..3.141592653589793:3"],
    ["ent-power", "tau=0..10:41"],
    ["overlap", "d=2", "r=0..2:81"],
    ["swap", "s=1", "--cutoff", "24"],
    ["teleport", "s=1", "a0=1", "a1=0", "--cutoff", "40"],
    ["generate"],
]


@pytest.mark.parametrize("argv", RECORDED, ids=[argv[0] for argv in RECORDED])
def test_readme_sweeps_reproduce_the_value_record(argv):
    # parameter columns exactly, values within 1e-10 (ROADMAP aim 1)
    rc, text = _main_stdout(argv)
    assert rc == 0
    lines = text.splitlines()
    record = (RECORD_DIR / f"{argv[0]}.csv").read_text().splitlines()
    assert lines[0] == record[0] and len(lines) == len(record)
    nparams = len(COMMANDS[argv[0]].params)
    for line, ref in zip(lines[1:], record[1:]):
        got, want = line.split(","), ref.split(",")
        assert got[:nparams] == want[:nparams]
        assert max(abs(float(x) - float(y)) for x, y in zip(got[nparams:], want[nparams:])) <= 1e-10


def _command_lines(text):
    """The esvsim command lines of a text, as argument lists without --strict or a comment;
    a line may capture its output, ``out=$(esvsim ...)``."""
    lines = [line.split("#")[0].strip() for line in text.splitlines()]
    lines = [line[len("out=$("):-1] if line.startswith("out=$(esvsim ") and line.endswith(")") else line
             for line in lines]
    return [[arg for arg in line.split()[1:] if arg != "--strict"] for line in lines if line.startswith("esvsim ")]


def test_ci_runs_every_readme_command_line():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    blocks = [block.split("\n", 1)[1] for block in readme.split("```")[1::2] if block.startswith("sh\n")]
    documented = [argv for block in blocks for argv in _command_lines(block)]
    ran = _command_lines((root / ".github" / "workflows" / "tests.yml").read_text())
    assert len(documented) == 9
    assert [argv for argv in documented if argv not in ran] == []


def test_run_api_defaults():
    config = SweepConfig(command="overlap", ranges={"r": (0.2, 0.4, 3)}, cutoff=16)
    result = run(config)
    assert result.header == ["d", "r", "overlap"]
    assert len(result.rows) == 3
    with pytest.raises(UsageError):
        SweepConfig(command="overlap", ranges={"bogus": (0, 1, 2)})


def test_emit_csv_stdout(capsys):
    config = SweepConfig(command="overlap", ranges={"r": (0.0, 0.0, 1)})
    emit_csv(run(config), None)
    out = capsys.readouterr().out
    assert out.startswith("d,r,overlap\n")
    assert out.endswith("\n")


def test_teleport_and_generate_commands(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["teleport", "s=1", "--cutoff", "24", "--out", str(out)]) == 0
    _, rows = rows_of(out)
    assert rows[0][3] == pytest.approx(0.25, abs=2e-3)   # probability column
    assert rows[0][4] >= 1 - 1e-6                        # fidelity column
    out2 = tmp_path / "g.csv"
    assert main(["generate", "s=0.8", "--cutoff", "24", "--out", str(out2)]) == 0
    header, rows = rows_of(out2)
    assert header[-4:] == ["p_plus", "p_minus", "fid_schemes", "fid_esv"]
    assert rows[0][-1] >= 1 - 1e-8
    assert rows[0][3] + rows[0][4] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("command", ["teleport", "generate"])
@pytest.mark.parametrize("a0, a1", [("1e200", "0"), ("1e-200", "0"), ("1e200", "1e-200")])
def test_ancilla_amplitudes_normalize_without_overflow(command, a0, a1):
    # the sum of squares overflows at 1e200 and underflows to 0 at 1e-200
    def diagnostics(*amps):
        rc, text = _main_stdout([command, "s=1", *amps, "--cutoff", "10"])
        assert rc == 0
        return text.splitlines()[1].split(",")[3:]

    assert diagnostics(f"a0={a0}", f"a1={a1}") == diagnostics("a0=1", "a1=0")
    assert main([command, "a0=0", "a1=0", "--cutoff", "10"]) == 3


def test_ent_power_commands(tmp_path):
    out = tmp_path / "ep.csv"
    assert main(["ent-power", "tau=0..2:3", "--cutoff", "16", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["s", "phi", "tau", "value"]
    assert len(rows) == 3
    assert all(v[3] >= 0 for v in rows)


def test_ln_phase_command_small(tmp_path):
    out = tmp_path / "lnp.csv"
    assert main(["ln-phase", "s=1", "sigma=0.5", "phi=0..3:2",
                 "--cutoff", "14", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["s", "sigma", "phi", "ln"]
    assert all(r[3] >= 0 for r in rows)


def test_ln_thermal_command_small(tmp_path):
    out = tmp_path / "ln.csv"
    assert main(["ln-thermal", "s=1", "sigma=0..1:2", "phi=0..3.14:2",
                 "--cutoff", "14", "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == ["s", "sigma", "phi", "ln"]
    assert len(rows) == 4
    # noiseless rows dominate their noisy partners at the same phase
    assert rows[0][3] >= rows[2][3] - 1e-9
    assert rows[1][3] >= rows[3][3] - 1e-9


@pytest.mark.parametrize("command, channel", [("ln-thermal", thermal_channel),
                                              ("ln-phase", phase_channel)])
def test_noisy_ln_rows_match_joint_state_oracle(tmp_path, command, channel):
    out = tmp_path / "ln.csv"
    assert main([command, "s=0.8", "sigma=0..1.5:3", f"phi=0..{2*np.pi}:5",
                 "--cutoff", "16", "--out", str(out)]) == 0
    _, rows = rows_of(out)
    points = [(sigma, phi) for sigma in np.linspace(0.0, 1.5, 3)
              for phi in np.linspace(0.0, 2 * np.pi, 5)]
    assert len(rows) == len(points)
    for row, (sigma, phi) in zip(rows, points):
        rho = channel(squeezed_vacuum(SqueezeSpec(0.8, 16)).normalized().density(), sigma)
        assert abs(row[3] - log_negativity(esv_mixed(rho, rho, phi), [1])) <= 1e-10


def _ln_oracle(channel):
    def ln(s, sigma, phi):
        rho = channel(squeezed_vacuum(SqueezeSpec(s, 10)).normalized().density(), sigma)
        return esv_mixed_ln_curve(rho, phi)
    return ln


# last column of a block of rows from its outer point and its inner columns, at cutoff
# 10: the library curve evaluated on the whole block at once, each value bit for bit
# that of the open mesh run passes
ROW_ORACLES = {
    "eof-surface": lambda s, phi: esv_pure_eof_curve(s, phi, 10),
    "ln-thermal": _ln_oracle(thermal_channel),
    "ln-phase": _ln_oracle(phase_channel),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_prepare_runs_once_per_outer_point(command, monkeypatch):
    # each command's evaluate runs once per outer point, on the whole inner grid below it;
    # two distinct values on every axis: a default range with lo == hi repeats
    # its value, and with it an outer point
    cmd = COMMANDS[command]
    ranges = {name: (lo, lo + 0.5, 2) for name, (lo, _, _) in cmd.params.items()}
    calls = []

    def counting_evaluate(cutoff, *args):
        calls.append(args[:cmd.outer])
        return cmd.evaluate(cutoff, *args)

    monkeypatch.setitem(COMMANDS, command, dataclasses.replace(cmd, evaluate=counting_evaluate))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rows = run(SweepConfig(command, ranges, cutoff=10)).rows
    assert len(rows) == 2 ** len(cmd.params)
    assert calls == list(dict.fromkeys(row[:cmd.outer] for row in rows))
    assert len(calls) == 2 ** cmd.outer
    if command in ROW_ORACLES:
        for outer in calls:
            block = np.array([row for row in rows if row[:cmd.outer] == outer])
            inner = block[:, cmd.outer:len(cmd.params)].T
            assert block[:, -1].tolist() == ROW_ORACLES[command](*outer, *inner).tolist()


def _run_python(code):
    """Run code in a fresh interpreter that imports this checkout's esvsim."""
    src = str(Path(esvsim.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code],
                          capture_output=True, text=True, timeout=120)


def test_a_canonical_run_loads_no_argparse():
    proc = _run_python("import contextlib, io\n"
                       "before = set(sys.modules)\n"
                       "import esvsim.cli\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       "    rc = esvsim.cli.main(['swap', 's=1'])\n"
                       "loaded = sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before))\n"
                       "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
                       "    esvsim.cli.main(['swap', '-h'])\n"
                       "print(rc, loaded, 'argparse' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 [] True"


def test_cli_import_loads_no_scipy():
    proc = _run_python("import esvsim.cli\n"
                       "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["swap", "s=1", "--cutoff", "8"],
                                  ["ent-power", "tau=0..8:3", "--cutoff", "10"],
                                  ["criteria", "s=0.5", "phi=0..3.14:2", "--cutoff", "12"],
                                  ["teleport", "s=1", "a0=0.6", "a1=0.8", "--cutoff", "12"],
                                  ["teleport", "s=1", "a0=1", "a1=0", "--cutoff", "40"],
                                  ["ln-thermal", "s=1", "sigma=0..1:2", "phi=0..6.28:3", "--cutoff", "10"],
                                  ["ln-thermal", "s=1", "sigma=0.5", "phi=0..6.28:3", "--cutoff", "11"],
                                  ["ln-phase", "sigma=0..1:2", "phi=0..6.28:3", "--cutoff", "10"],
                                  ["eof-surface", "s=0.05..2:3", "phi=0..6.28:3", "--cutoff", "10"],
                                  ["generate", "s=0.8", "--cutoff", "10"],
                                  ["overlap", "d=2", "r=0..2:3"]],
                         ids=["swap", "ent-power", "criteria", "teleport", "teleport-padded-79",
                              "ln-thermal", "ln-thermal-odd-cutoff", "ln-phase", "eof-surface",
                              "generate", "overlap"])
def test_swap_runs_with_scipy_unavailable(argv, capsys):
    # the cutoff-free swap and teleport algebra (at the README's teleport
    # cutoff 40 too, which it ignores), the product branches of generate, JC
    # Kraus maps (ent-power), moment minors (criteria), noise channels and the
    # factor-block log-negativity with its swap halves (ln-thermal, ln-phase; at
    # cutoff 11 the even and odd factor blocks differ in size), the Gram-matrix
    # EoF (eof-surface) and the closed-form overlap
    proc = _run_python('sys.modules["scipy"] = None\n'
                       "import esvsim.cli\n"
                       f"sys.exit(esvsim.cli.main({argv!r}))")
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
