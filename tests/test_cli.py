"""Tests for the command-line surface: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from parkstat.cli import main


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
], ids=["precision 0", "precision -1", "threads 0", "threads -2", "budget 0",
        "budget -1"])
def test_exit_code_usage_on_flag_below_one(argv):
    proc = subprocess.run([sys.executable, "-m", "parkstat.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "must be >= 1" in proc.stderr


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
