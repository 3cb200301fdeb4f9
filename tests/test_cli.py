"""Tests for the command-line surface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys
import time

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


def test_count_prints_past_the_int_str_limit_and_leaves_it_set(capsys):
    # count(2000, 1) = 2001^1999 has 6600 digits; the CLI renders it
    # through int_str and does not change the process-wide limit
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = f"{2001 ** 1999}\n"
        sys.set_int_max_str_digits(4300)
        assert run_cli(capsys, "count", "--n", "2000") == (0, want, "")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


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


SLOTS_AT_ONE_MILLION = 666666166668500002


@pytest.mark.parametrize("argv", ["genfun --n 1000000", "hist --n 1000000",
                                  "hist --n 1000000 --scaled"])
def test_polynomial_guard_refuses_a_huge_n_at_once(argv):
    start = time.perf_counter()
    code, out, err = outcome(argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"{argv.split()[0]}: budget exceeded: generating-function coefficient "
                   f"slots needs {SLOTS_AT_ONE_MILLION}, cap is 10000000\n")


@pytest.mark.parametrize("argv", [["genfun", "--n", "0", "--a", "9223372036854775807"],
                                  ["hist", "--n", "0", "--a", str(10 ** 30)]],
                         ids=["genfun", "hist"])
def test_length_zero_at_a_huge_shift_answers_at_once(argv):
    # --a has no upper bound; Q(0,a) = 1 needs no walk over a diagonals
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "parkstat.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0].endswith("total 1")


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
        # count --symbolic takes milliseconds at n = 60; genfun and hist
        # refuse every n from 10^6 up at once, past sys.maxsize by exit 2
        n = st.integers(-2, 60 if symbolic else 25)
        if command in ("genfun", "hist"):
            n = st.one_of(n, st.integers(10**6, 10**23))
        argv += ["--n", str(draw(n))]
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
    if code in (2, 3):
        assert out == ""
    if code == 3:
        assert err.count("\n") == 1 and err.endswith("\n")
    if code == 4:  # the full report comes first, then one line on stderr
        assert out.endswith("\n")
        assert err.count("\n") == 1 and err.endswith("\n")


# (argv, exit code, sha256 of stdout, stderr): every command in every format
# plus exit 2, 3 and 4 cases, recorded before the handlers shared one
# output path, so any change to the bytes a command writes shows here
GOLDEN = [
    ("count --n 5 --a 2 --format csv", 0,
     "dca17e7a4d55bf264338aaf0ce6e2098e4059dd0c8cfb30b4a3207519773a9a4",
     ""),
    ("count --n 5 --a 2 --format json", 0,
     "75137d445b5d358397e9a34748a6e4f4dc2a9882586932f1bb6f0e7b108bbe7b",
     ""),
    ("count --n 5 --a 2 --format text", 0,
     "4023b739a57e96ddfcf592b4e3edd05d72914988a5bae3e49b9674bf2eae8cb5",
     ""),
    ("count --n 4 --symbolic --format csv", 0,
     "6a637c4e7aecdb499e4806d862fe81d902b69c7ce45c928d8efdb2bfa41de205",
     ""),
    ("count --n 4 --symbolic --format json", 0,
     "ef9018967405512f46a0d05960d904709cd6e5d499bf275b1784b43772421aa4",
     ""),
    ("count --n 4 --symbolic --format text", 0,
     "b2d36cc29da650bd9cf4c350d7c6717f1ec5c3df66c39dd7d92811181e90bbdf",
     ""),
    ("genfun --n 4 --a 2 --format csv", 0,
     "b9b0fc81af791715949ea0fb125d6753323a7ae2a83bb76a8e11ce7249805b3e",
     ""),
    ("genfun --n 4 --a 2 --format json", 0,
     "38126cf7f70fde98ab5c8b305e46dc4a8a3f805390354baab9e6301481be52b0",
     ""),
    ("genfun --n 4 --a 2 --format text", 0,
     "733156924f085694a06d4465788a7bff9c57c9d7f67daa54db9ac537edb34cb6",
     ""),
    ("moments --n 5 --k 3 --format csv", 0,
     "fe7d63bb2d01aac379e038da03f43bc260d73d0afb41c7484f6fc5b5383689d6",
     ""),
    ("moments --n 5 --k 3 --format json", 0,
     "451fd3e129c7717bf9ed0a87d21ecbc9b18b963974eda4fde9e0c213e1f07207",
     ""),
    ("moments --n 5 --k 3 --format text", 0,
     "9ec4adfb3f01ded31b269cb60504d43b255be5ebbaad6ab7f04c4431ec6d20ce",
     ""),
    ("moments --n 1 --k 2 --format csv", 0,
     "b740935a6fc1412862c8c0bb651571886b6cb1fab5febbeea9695af5a0b4ecbe",
     ""),
    ("moments --n 1 --k 2 --format json", 0,
     "87234e1af609be521c6eb5418c37398f988b408346d1e1604eb87ec9b0fd20cf",
     ""),
    ("moments --n 1 --k 2 --format text", 0,
     "3fe79872a3525d8b083e8a0a536a4cc4c33fe39848155f0b711479d23fda0dbd",
     ""),
    ("fit --k 2 --format csv", 0,
     "894025f3f39bcd84bb60b75c0de9036637daeb070a0e1fe5dd9f662c44323904",
     ""),
    ("fit --k 2 --format json", 0,
     "88530218a34fdaffddd08d4cc9f61bba1b794f8df4a3a7ff5f334626b1dfae64",
     ""),
    ("fit --k 2 --format text", 0,
     "8dc0205e59feead719f8fb5db3852adb42f61768478bb2fe250d91e76a1f6e2c",
     ""),
    ("airy --k 1 --grid 36,144 --format csv", 0,
     "554da87d691d0be0e451c766b82096db2823bad02e25641bc58dc22adbe6a62f",
     ""),
    ("airy --k 1 --grid 36,144 --format json", 0,
     "80e13562b5a0bfaa3760bb05ff5e15fd92c86aa910dc19a55d2191434dfc8794",
     ""),
    ("airy --k 1 --grid 36,144 --format text", 0,
     "5e8257cad0068d5d56606a6435a0128fcaf65b11e7a62b558ce8216d17bdef6a",
     ""),
    ("hist --n 5 --format csv", 0,
     "d7124215cabb30dbc5d760814f8da672967824b08d6da994fb1b087cce864e27",
     ""),
    ("hist --n 5 --format json", 0,
     "08ad748e478517f092e16f99aa17a7a5e2823687b57578bd2eb4ad19e60c29cd",
     ""),
    ("hist --n 5 --format text", 0,
     "3fd3d4a34810b553ace8fc05c5769069950397fa326df4ec147b4f00f2a295ef",
     ""),
    ("hist --n 4 --scaled --format csv", 0,
     "db0fd160cbed407becf3f81f49ab88f82fad3b494ac7399a08065a8deadd2e24",
     ""),
    ("hist --n 4 --scaled --format json", 0,
     "21da6882f0dc0bf2a0f3984dd53110e769ae816b57197a0cc3c2c1183c7781af",
     ""),
    ("hist --n 4 --scaled --format text", 0,
     "ebf37b5001022b5cff6cda579e01a5001cf05369e7ef5799f3a1f4b015851fc1",
     ""),
    ("verify --n 4 --budget 20000 --format csv", 0,
     "a30c30d47f566536e32783918c70861a356ee454f0646a0ecbffa7447fa56820",
     ""),
    ("verify --n 4 --budget 20000 --format json", 0,
     "2d295ff5c143b6df89473e3080c9c9bab4f7a1fd091850da42841b1aba0f90ea",
     ""),
    ("verify --n 4 --budget 20000 --format text", 0,
     "d98ec04dd4a7a227484f9fa36aba12dea71b125946de89f0d3127ad279ab4671",
     ""),
    ("moments --n 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "moments: need n >= 1, a >= 1, order >= 1\n"),
    ("genfun --n 50 --budget 100", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "genfun: budget exceeded: generating-function coefficient slots needs "
     "82177, cap is 100\n"),
    # sizes past sys.maxsize are usage errors, not an OverflowError
    ("count --n 100000000000000000000000", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: parkstat count [-h] [--n N] [--a A] [--symbolic] [--threads THREADS]\n"
     "                      [--format {csv,json,text}] [--out OUT]\n"
     "parkstat count: error: argument --n: invalid value: 100000000000000000000000 "
     "(must be <= 9223372036854775807)\n"),
    ("count --symbolic --n 100000000000000000000000", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: parkstat count [-h] [--n N] [--a A] [--symbolic] [--threads THREADS]\n"
     "                      [--format {csv,json,text}] [--out OUT]\n"
     "parkstat count: error: argument --n: invalid value: 100000000000000000000000 "
     "(must be <= 9223372036854775807)\n"),
    ("moments --n 5 --k 100000000000000000000000", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: parkstat moments [-h] [--n N] [--a A] [--k K] [--threads THREADS]\n"
     "                        [--format {csv,json,text}] [--out OUT]\n"
     "parkstat moments: error: argument --k: invalid value: 100000000000000000000000 "
     "(must be <= 9223372036854775807)\n"),
    ("fit --k 100000000000000000000000", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "usage: parkstat fit [-h] [--k K] [--general-a] [--n-max N_MAX]\n"
     "                    [--threads THREADS] [--format {csv,json,text}] [--out OUT]\n"
     "parkstat fit: error: argument --k: invalid value: 100000000000000000000000 "
     "(must be <= 9223372036854775807)\n"),
    ("airy --k 2 --grid 9,25", 4,
     "52497126adff52f76f14c2f11d33c98c0f30cbcd962929eb1e4a2059ffb175ac",
     "airy: convergence check failed for k in [1, 2]\n"),
    # the rows for k = 3..8 too, odd k through the sqrt(2*pi*n) division
    ("airy --k 8 --grid 100,400 --format csv", 4,
     "051f6b08b9f46159e3870ab7e561a0fb1cd731c973b99ef5f91a329392b8c8f5",
     "airy: convergence check failed for k in [4, 5, 6, 7, 8]\n"),
    # orders up to 20 at a long length, through the moment identity's jets
    ("moments --n 300 --a 3 --k 20 --format json", 0,
     "006bb77fa1f9c3880fc8566618f1bbfb9cbabe8efe2d2589ab45ce1bc6d16217", ""),
    # Q(0,a) = 1 at any shift, harvested without walking a diagonals
    ("genfun --n 0 --a 9223372036854775807", 0,
     "bed51212af3ff4bb0af41e66023f84c9537c3720ac40fa13d0ce4f2d5b900f5d", ""),
]


@pytest.mark.parametrize("argv,code,digest,err", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_bytes_are_pinned(argv, code, digest, err, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to fit
    got_code, got_out, got_err = outcome(argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(got_out.encode()).hexdigest() == digest


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
    # an unwritable --out is a usage error even where the report would exit 4
    code, out, err = run_cli(capsys, "airy", "--k", "2", "--grid", "9,25",
                             "--out", str(target))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and str(target) in err


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
    # compiles and runs is paid per call: dataclasses (and the inspect it
    # imports) added 15-25 ms to a 60-85 ms import, json about 3 ms to
    # every call that prints text or csv.  Every layer is in
    # sys.modules from the import on, because a per-layer tracer looks them
    # up there right after it, but is a lazy module that runs only when a
    # command first reads one of its names.
    def modules(code):
        # module name -> whether it has run (a lazy module's type is a
        # subclass of types.ModuleType until then), read before the probe
        # imports json itself
        probe = (f"{code}; import types; loaded = {{k: type(m) is types.ModuleType"
                 " for k, m in sys.modules.items()}; import json; print(json.dumps(loaded))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    layers = [f"parkstat.{layer}" for layer in TRACED_LAYERS]
    bare = modules("import sys")
    cli = modules("import sys, parkstat.cli; parkstat.cli.build_parser()")
    assert not ({"dataclasses", "inspect", "fractions", "decimal", "json"}
                & (cli.keys() - bare.keys()))
    assert [name for name in layers if cli.get(name) is not False] == []
    count = modules("import sys, parkstat.cli; parkstat.cli.main(['count', '--n', '5'])")
    assert count["parkstat.counting_engine"]
    unused = ("airy", "conjecture_fit", "moment_lab", "parking_core")
    assert [layer for layer in unused if count[f"parkstat.{layer}"]] == []
    # fit takes E_1 from genfun_engine, next to the identities it checks
    fit = modules("import sys, parkstat.cli;"
                  " parkstat.cli.main(['fit', '--k', '2', '--format', 'json'])")
    assert fit["parkstat.conjecture_fit"]
    unused = ("airy", "counting_engine", "moment_lab", "parking_core")
    assert [layer for layer in unused if fit[f"parkstat.{layer}"]] == []


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
