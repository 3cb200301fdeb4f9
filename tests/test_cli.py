"""Tests for the command-line surface: formats, exit codes, determinism."""

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkstat.cli import main
from parkstat.parking_core import oracle_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3")
    assert code == 0
    assert out == "16\n"


def test_count_boundary(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "0", "--a", "9")
    assert (code, out) == (0, "1\n")


def test_count_symbolic(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--symbolic")
    assert code == 0
    assert out == "a^3+6a^2+9a\n"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--a", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "a": 2, "count": str(2 * 6**3)}


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--format", "csv")
    assert out == "n,a,count\n3,1,16\n"


def test_genfun_csv(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "area,count\n0,6\n1,6\n2,3\n3,1\n"


def test_genfun_n_zero(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--n", "0", "--format", "csv")
    assert out == "area,count\n0,1\n"


def test_genfun_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--n", "2", "--a", "2",
                           "--format", "json")
    obj = json.loads(out)
    assert obj["total"] == "8"
    assert sum(int(v) for v in obj["counts"].values()) == 8


def test_moments_json(capsys):
    code, out, _ = run_cli(capsys, "moments", "--n", "3", "--k", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["factorial"] == ["15/16", "3/4"]
    assert obj["scaled_split"][1]["var_power"] == "1"


def test_moments_zero_variance_flagged(capsys):
    code, out, _ = run_cli(capsys, "moments", "--n", "1", "--k", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["scaled_split"] is None


def test_moments_first_order_prints_the_variance(capsys):
    code, out, _ = run_cli(capsys, "moments", "--n", "5", "--k", "1")
    assert code == 0
    assert "variance = 42515/11664" in out
    assert "scaled_1 = 0 * variance^(-1/2)" in out
    code, out, _ = run_cli(capsys, "moments", "--n", "1", "--k", "1")
    assert code == 0
    assert "scaled moments undefined (variance = 0)" in out


def test_fit_text(capsys):
    code, out, _ = run_cli(capsys, "fit", "--k", "2")
    assert code == 0
    assert "5/12*n^3" in out and "-7/3*n-7/3" in out


def test_fit_k1(capsys):
    code, out, _ = run_cli(capsys, "fit", "--k", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["A"] == []
    assert obj["B"] == [{"powers": {"n": 0}, "coeff": "1"}]


def test_airy_csv(capsys):
    code, out, _ = run_cli(capsys, "airy", "--k", "1", "--grid", "36,144",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,n,ratio,deviation"
    assert len(lines) == 3


def test_airy_exit_4_when_threshold_unmet(capsys):
    # at tiny n the deviations are far above the threshold; the report is
    # still emitted but the exit code flags the failed convergence check
    code, out, err = run_cli(capsys, "airy", "--k", "2", "--grid", "9,25",
                             "--format", "csv")
    assert code == 4
    assert len(out.strip().split("\n")) == 5
    assert "convergence" in err


def test_hist_plain(capsys):
    code, out, _ = run_cli(capsys, "hist", "--n", "3", "--format", "csv")
    assert out == "area,count\n0,6\n1,6\n2,3\n3,1\n"


def test_hist_scaled(capsys):
    code, out, _ = run_cli(capsys, "hist", "--n", "6", "--scaled",
                           "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "area,count,x,density"
    assert len(lines) == 1 + 6 * 5 // 2 + 1  # areas 0..15
    assert "e" not in out.lower().replace("area", "").replace("density", "")


def test_verify_closed_form(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-form")
    assert code == 0
    assert "PASS closed-form" in out


def test_verify_oracle_small_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle",
                           "--budget", "20000")
    assert code == 0
    assert "PASS oracle-equivalence" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-form",
                           "--format", "json")
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["checks"][0]["name"] == "closed-form"


def test_exit_code_usage_on_bad_flag():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--bogus"])
    assert exc.value.code == 2


def test_exit_code_usage_on_bad_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["airy", "--k", "2", "--grid", "abc"])
    assert exc.value.code == 2


def test_exit_code_resource_guard(capsys):
    code, _, err = run_cli(capsys, "genfun", "--n", "500", "--budget", "100000")
    assert code == 3
    assert "budget" in err


def test_exit_code_on_invalid_value(capsys):
    code, _, err = run_cli(capsys, "moments", "--n", "0")
    assert code == 2


def test_scaled_hist_at_shift_zero_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "parkstat.cli",
                           "hist", "--n", "3", "--scaled", "--a", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "need a >= 1" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["hist", "--n", "3", "--scaled", "--precision", "0"],
    ["hist", "--n", "3", "--scaled", "--precision", "-1"],
    ["count", "--n", "3", "--threads", "0"],
    ["verify", "--suite", "oracle", "--budget", "1000", "--threads", "-2"],
    ["verify", "--suite", "oracle", "--budget", "0"],
    ["verify", "--suite", "oracle", "--budget", "-1"],
    ["fit", "--k", "3", "--n-max", "0"],
    ["fit", "--k", "3", "--n-max", "-5"],
], ids=["precision 0", "precision -1", "threads 0", "threads -2", "budget 0",
        "budget -1", "n-max 0", "n-max -5"])
def test_exit_code_usage_on_flag_below_one(argv):
    proc = subprocess.run([sys.executable, "-m", "parkstat.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "must be >= 1" in proc.stderr


# the flags each command's handler reads; every command also takes
# --threads, --format and --out
COMMAND_FLAGS = {
    "count": ("n", "a", "symbolic"),
    "genfun": ("n", "a", "budget"),
    "moments": ("n", "a", "k"),
    "fit": ("k", "general-a", "n-max"),
    "airy": ("k", "grid"),
    "hist": ("n", "a", "budget", "precision", "scaled"),
    "verify": ("n", "a", "budget", "suite"),
}


@st.composite
def small_argvs(draw):
    """Small argvs of every command, valid or not, each with its own flags."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    symbolic = "symbolic" in flags and draw(st.booleans())
    small = st.integers(-2, 6)
    argv = [command, "--format", draw(st.sampled_from(["csv", "json", "text"]))]
    if "n" in flags:
        # count --symbolic takes milliseconds at n = 60
        argv += ["--n", str(draw(st.integers(-2, 60 if symbolic else 25)))]
    if "a" in flags:
        argv += ["--a", str(draw(small))]
    k = draw(small)
    if "k" in flags:
        argv += ["--k", str(k)]
    if "grid" in flags and draw(st.booleans()):
        grid = draw(st.lists(st.integers(-2, 30), min_size=1, max_size=3))
        argv += ["--grid", ",".join(map(str, grid))]
    if "budget" in flags and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-2, 10**5)))]
    if "precision" in flags and draw(st.booleans()):
        argv += ["--precision", str(draw(st.integers(-2, 20)))]
    if symbolic:
        argv.append("--symbolic")
    # two-symbol fits past k = 4 take seconds each
    if "general-a" in flags and k <= 4 and draw(st.booleans()):
        argv.append("--general-a")
    if "n-max" in flags and draw(st.booleans()):
        argv += ["--n-max", str(draw(st.integers(-2, 30)))]
    if "scaled" in flags and draw(st.booleans()):
        argv.append("--scaled")
    if "suite" in flags:
        argv += ["--suite", draw(st.sampled_from(["closed-form", "oracle", "all"]))]
    return argv


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects before main returns
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(argv=small_argvs())
def test_cli_fuzz_exit_codes(argv):
    code, out, err = outcome(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""


def test_each_command_takes_only_its_own_flags(capsys):
    for command, flags in COMMAND_FLAGS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed == {f"--{f}" for f in flags + ("threads", "format", "out", "help")}


def _with(base, *extra):
    return base, base + list(extra)


# (command, flag) -> two argvs that differ only in that flag's value
LIVE_FLAGS = {
    ("count", "n"): _with(["count"], "--n", "3"),
    ("count", "a"): _with(["count", "--n", "3"], "--a", "2"),
    ("count", "symbolic"): _with(["count", "--n", "3"], "--symbolic"),
    ("count", "format"): _with(["count", "--n", "3"], "--format", "json"),
    ("genfun", "n"): _with(["genfun"], "--n", "3"),
    ("genfun", "a"): _with(["genfun", "--n", "3"], "--a", "2"),
    ("genfun", "budget"): _with(["genfun", "--n", "8"], "--budget", "10"),
    ("genfun", "format"): _with(["genfun", "--n", "3"], "--format", "csv"),
    ("moments", "n"): _with(["moments"], "--n", "3"),
    ("moments", "a"): _with(["moments", "--n", "3"], "--a", "2"),
    ("moments", "k"): _with(["moments", "--n", "3"], "--k", "3"),
    ("moments", "format"): _with(["moments", "--n", "3"], "--format", "json"),
    ("fit", "k"): _with(["fit"], "--k", "1"),
    ("fit", "general-a"): _with(["fit", "--k", "1"], "--general-a"),
    ("fit", "n-max"): _with(["fit", "--k", "1"], "--n-max", "30"),
    ("fit", "format"): _with(["fit", "--k", "1"], "--format", "json"),
    ("airy", "k"): _with(["airy", "--grid", "36,144"], "--k", "1"),
    ("airy", "grid"): _with(["airy", "--k", "1"], "--grid", "36,144"),
    ("airy", "format"): _with(["airy", "--k", "1", "--grid", "36"], "--format", "csv"),
    ("hist", "n"): _with(["hist"], "--n", "3"),
    ("hist", "a"): _with(["hist", "--n", "3"], "--a", "2"),
    ("hist", "budget"): _with(["hist", "--n", "8"], "--budget", "10"),
    ("hist", "precision"): _with(["hist", "--n", "4", "--scaled", "--format", "csv"],
                                 "--precision", "3"),
    ("hist", "scaled"): _with(["hist", "--n", "4"], "--scaled"),
    ("hist", "format"): _with(["hist", "--n", "3"], "--format", "csv"),
    ("verify", "n"): _with(["verify", "--suite", "closed-form"], "--n", "4"),
    ("verify", "a"): _with(["verify", "--suite", "closed-form"], "--a", "3"),
    # the default budget of 10^7 runs the full oracle, which takes seconds
    ("verify", "budget"): _with(["verify", "--suite", "oracle", "--budget", "1000"],
                                "--budget", "100"),
    ("verify", "suite"): _with(["verify", "--n", "3", "--budget", "100"],
                               "--suite", "closed-form"),
    ("verify", "format"): _with(["verify", "--suite", "closed-form"], "--format", "csv"),
}


def test_live_flag_cases_cover_every_declared_flag():
    assert set(LIVE_FLAGS) == {(c, f) for c, flags in COMMAND_FLAGS.items()
                               for f in flags + ("format",)}


@pytest.mark.parametrize("without,with_flag", LIVE_FLAGS.values(),
                         ids=[f"{c} --{f}" for c, f in LIVE_FLAGS])
def test_every_declared_flag_changes_the_outcome(without, with_flag):
    assert outcome(without)[:2] != outcome(with_flag)[:2]


# each value flag some command reads, paired with every command that does not
UNDECLARED = [(c, f) for c, flags in COMMAND_FLAGS.items()
              for f in ("n", "a", "k", "grid", "budget", "precision") if f not in flags]


@pytest.mark.parametrize("command,flag", UNDECLARED,
                         ids=[f"{c} --{f}" for c, f in UNDECLARED])
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag):
    code, out, err = outcome([command, f"--{flag}", "3"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_verify_honours_explicit_n_and_a(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-form",
                           "--n", "3", "--a", "1")
    assert code == 0
    assert "(n <= 3, a <= 1)" in out
    code, out, err = run_cli(capsys, "verify", "--suite", "closed-form", "--n", "0")
    assert (code, out) == (2, "")
    assert "n_max >= 1" in err


def test_out_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "count", "--n", "3", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err
    assert not target.exists()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "q3.csv"
    code, out, _ = run_cli(capsys, "genfun", "--n", "3", "--format", "csv",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "area,count\n0,6\n1,6\n2,3\n3,1\n"


FORMAT_SWEEP = [
    ["count", "--n", "4"],
    ["count", "--n", "4", "--symbolic"],
    ["genfun", "--n", "4"],
    ["moments", "--n", "4", "--k", "3"],
    ["fit", "--k", "1"],
    ["airy", "--k", "1", "--grid", "36,144"],
    ["hist", "--n", "4", "--scaled"],
    ["verify", "--suite", "closed-form", "--n", "4", "--a", "5"],
]


@pytest.mark.parametrize("argv", FORMAT_SWEEP,
                         ids=[" ".join(a[:2]) for a in FORMAT_SWEEP])
def test_every_command_honors_every_format(argv, capsys):
    for fmt in ("csv", "json", "text"):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out.endswith("\n")
        if fmt == "json":
            json.loads(out)
        assert "e+" not in out and "E+" not in out  # no scientific notation


def test_thread_determinism(tmp_path, capsys):
    outputs = []
    for threads in ("1", "8"):
        target = tmp_path / f"verify-{threads}.json"
        code, _, _ = run_cli(capsys, "verify", "--suite", "oracle",
                             "--budget", "50000", "--threads", threads,
                             "--format", "json", "--out", str(target))
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_count_prints_results_past_the_int_str_limit():
    # a(a+2) = 10^4400 + 2*10^2200 for a = 10^2200: 4401 digits, past
    # Python's default 4300-digit cap on int -> str conversion (spelled out
    # here, since this process may still have the cap)
    proc = subprocess.run([sys.executable, "-m", "parkstat.cli",
                           "count", "--n", "2", "--a", "1" + "0" * 2200],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "1" + "0" * 2199 + "2" + "0" * 2200 + "\n"
    assert proc.stderr == ""


def test_cli_import_loads_no_heavy_numeric_package():
    # these would add to every job's memory and start-up time
    heavy = ("numpy", "sympy", "mpmath", "gmpy2")
    code = ("import sys, parkstat.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


TRACED_LAYERS = ("airy", "conjecture_fit", "counting_engine", "exactalg",
                 "genfun_engine", "moment_lab", "parking_core")


def test_cli_cold_start_imports_no_dataclasses_and_every_layer():
    # every CLI call is a fresh interpreter, so what `import parkstat.cli`
    # pulls in is paid per call: dataclasses (and the inspect it imports)
    # added 15-25 ms to a 60-85 ms import.  The layers themselves stay eager,
    # because a per-layer tracer looks them up in sys.modules right after
    # the import.
    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", code + "; print('\\n'.join(sys.modules))"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare = loaded("import sys")
    cli = loaded("import sys, parkstat.cli")
    assert not {"dataclasses", "inspect"} & (cli - bare)
    assert {f"parkstat.{layer}" for layer in TRACED_LAYERS} <= cli


def test_traced_fit_matches_the_untraced_cli(tmp_path):
    # perfbench/tracer.py resolves every function it wraps when it starts,
    # and its counters read the records they return, so deleting or
    # renaming either would break the benchmark's traced runs
    root = pathlib.Path(__file__).resolve().parent.parent
    found = sum(a * (a + n) ** (n - 1) for n, a in oracle_pairs(10**4))
    cases = [
        (["fit", "--k", "2", "--general-a", "--format", "json"],
         "conjecture_fit.fit_moment", {}),
        (["verify", "--suite", "oracle", "--budget", "10000"],
         "parking_core.brute_histogram", {"parking_core.found": found}),
    ]
    for argv, span, counts in cases:
        argv = argv + ["--threads", "1"]
        spans = tmp_path / "spans.json"
        traced = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"),
                                 str(spans), "id", *argv],
                                capture_output=True, timeout=120, cwd=root)
        plain = subprocess.run([sys.executable, "-m", "parkstat.cli", *argv],
                               capture_output=True, timeout=120, cwd=root)
        assert traced.returncode == 0, traced.stderr
        assert plain.returncode == 0, plain.stderr
        assert traced.stdout == plain.stdout
        trace = json.loads(spans.read_text())
        assert span in {s[0] for s in trace["spans"]}
        for name, value in counts.items():
            assert trace["counts"][name] == value, name
