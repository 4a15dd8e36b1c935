import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from sparsebound import extremal
from sparsebound.cli import main
from sparsebound.rational import parse_rational


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_eval_bound(capsys):
    code, out = run_cli(capsys, "eval", "--which", "B", "1/2", "2", "5/2")
    assert code == 0
    assert out == "1/2 (strip m=1, plateau)\n"
    code, out = run_cli(capsys, "eval", "--which", "B", "1/4", "1", "1/2")
    assert code == 0
    assert out == "2/3 (mixed)\n"


def test_eval_profiles(capsys):
    code, out = run_cli(capsys, "eval", "--which", "f", "1", "7/2")
    assert code == 0
    assert out == "1/4 (strip m=2, plateau)\n"
    code, out = run_cli(capsys, "eval", "--which", "g", "1/10", "1")
    assert code == 0
    assert out.startswith("1/4")


def test_eval_usage_errors(capsys):
    assert main(["eval", "--which", "B", "1/2", "2"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--which", "B", "1/2", "2", "0.5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_eval_deterministic(capsys):
    _, first = run_cli(capsys, "eval", "--which", "B", "3/4", "3/2", "7/3")
    _, second = run_cli(capsys, "eval", "--which", "B", "3/4", "3/2", "7/3")
    assert first == second


def test_curves_csv(capsys):
    code, out = run_cli(capsys, "curves", "1", "--family", "F")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,k,x,lambda"
    assert "0,,0,0" in lines
    assert "0,0,1,2" in lines
    assert "1,1,1/2,5/2" in lines
    assert "1,0,1,3" in lines


def test_curves_json_includes_g_vertex(capsys):
    code, out = run_cli(capsys, "curves", "1", "--family", "G", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[1]["m"] == 1
    assert ["1/2", "2"] in payload[1]["vertices"]


def test_curves_single(capsys):
    code, out = run_cli(capsys, "curves", "0")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,,0,0", "0,0,1,2"]


def test_verify_suite(capsys):
    code, out = run_cli(capsys, "verify", "jump", "--seed", "1", "--count", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["check"] == "jump"
    assert payload[0]["violations"] == []


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_brute_small(capsys):
    code, out = run_cli(capsys, "brute", "1", "--lambda", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["domination"] is True
    row = [e for e in payload["entries"] if e["x"] == "1" and e["A"] == "2" and e["lambda"] == "2"]
    assert row and row[0]["attained"] is True


def test_brute_csv_output(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, _ = run_cli(capsys, "brute", "1", "--format", "csv", "--output", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "x,A,lambda,maxV,B,attained"


def test_brute_depth_cap_is_mode_error(capsys):
    code = main(["brute", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_brute_sampled(capsys):
    code, out = run_cli(capsys, "brute", "4", "--sample", "60", "--seed", "2")
    assert code == 0
    assert json.loads(out)["exhaustive"] is False


def test_extremize(capsys):
    code, out = run_cli(capsys, "extremize", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["achieved_V"] == "1/2"
    assert payload["report"]["target"] == {"x": "1/2", "A": "2", "lambda": "5/2", "B": "1/2"}
    assert payload["report"]["attained"] is True


def test_extremize_larger(capsys):
    code, out = run_cli(capsys, "extremize", "3", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["achieved_V"] == "1/8"
    assert payload["report"]["target"]["lambda"] == "15/4"


def test_extremize_bad_indices(capsys):
    # The index checks are the library's; the CLI forwards its DomainError.
    for argv in (["extremize", "1", "2"], ["extremize", "-1", "0"], ["corollary", "0", "2"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_corollary(capsys):
    code, out = run_cli(capsys, "corollary", "1", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["achieved_V"] == "1/2"
    assert payload["report"]["attained"] is True


# Curve indices above the extremizer cap of 10: extremize m k uses curve m,
# corollary n N curve N + n - 3.  Without the cap the first two take seconds
# and the others do not fit in memory.
@pytest.mark.parametrize(
    "argv",
    [["extremize", "11", "0"], ["corollary", "5", "9"], ["extremize", "40", "3"], ["corollary", "0", "40"]],
)
def test_extremizer_above_cap_is_usage_error(capsys, time_limit, argv):
    assert extremal.EXTREMIZER_CURVE_CAP == 10
    with time_limit(1):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "capped at m=10" in captured.err


@pytest.mark.parametrize("command", ["extremize", "corollary"])
def test_extremizer_help_states_the_cap(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "m above 10 is a usage error" in " ".join(capsys.readouterr().out.split())


# curves 401 would print over 11 MB; curves 100000 would never finish.
@pytest.mark.parametrize("argv", [["401"], ["401", "--format", "json"], ["100000", "--family", "G"]])
def test_curves_above_cap_is_usage_error(capsys, time_limit, argv):
    with time_limit(1):
        code = main(["curves", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "capped at m_max=400" in captured.err


def test_curves_help_states_the_cap(capsys):
    with pytest.raises(SystemExit):
        main(["curves", "--help"])
    assert "m_max above 400 is a usage error" in " ".join(capsys.readouterr().out.split())


def test_brute_help_states_the_exhaustive_cap(capsys):
    with pytest.raises(SystemExit):
        main(["brute", "--help"])
    assert "Exhaustive up to depth 4; deeper runs need --sample." in capsys.readouterr().out


def test_brute_5_without_sample_is_usage_error(capsys, time_limit):
    with time_limit(1):
        code = main(["brute", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exhaustive mode is capped at depth 4" in captured.err


@pytest.mark.parametrize("argv", [["jump", "--count", "-5"], ["all", "--count", "0"]])
def test_verify_count_below_one_is_usage_error(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_eval_prints_beyond_digit_limit(capsys, default_digit_limit):
    code, out = run_cli(capsys, "eval", "--which", "B", "1", "2", "15000")
    assert code == 0
    value, tag = out.split(" ", 1)
    assert tag == "(strip m=14998, plateau)\n"
    assert parse_rational(value) == F(1, 2**14998)
    assert len(value.split("/")[1]) == 4515
    assert sys.get_int_max_str_digits() == default_digit_limit


@pytest.mark.parametrize("sample", ["0", "-4"])
def test_brute_sample_below_one_is_usage_error(capsys, sample):
    code = main(["brute", "3", "--sample", sample])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_negative_rationals_are_values(capsys):
    assert run_cli(capsys, "eval", "--which", "B", "1/2", "2", "-1/2") == (0, "1 (obstacle)\n")
    spaced = run_cli(capsys, "brute", "1", "--lambda", "-1/2")
    assert spaced == run_cli(capsys, "brute", "1", "--lambda=-1/2")
    assert spaced[0] == 0 and '"lambda": "-1/2"' in spaced[1]


def test_negative_profile_level_is_usage_error(capsys):
    code = main(["eval", "--which", "f", "1/2", "-1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_unknown_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["brute", "1", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


SRC =str(Path(__file__).resolve().parents[1] / "src")
PATH = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
ENV = {**os.environ, "PYTHONPATH": PATH}


def run_python(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], env=ENV, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs
    )


@pytest.mark.parametrize("argv", [["curves", "3"], ["brute", "2", "--lambda", "1"]])
def test_closed_stdout_exits_3_without_traceback(argv):
    # A pipe whose read end is already closed: the first write or flush fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python(["-m", "sparsebound.cli", *argv], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_unexpected_error_exits_3_with_one_line(tmp_path):
    target = tmp_path / "missing" / "report.json"
    proc = run_python(["-m", "sparsebound.cli", "brute", "1", "--output", str(target)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: unexpected FileNotFoundError: ")
    assert proc.stderr.endswith(f"'{target}'\n") and len(proc.stderr.splitlines()) == 1


def test_numpy_is_not_imported():
    code = "import sys, sparsebound.verify, sparsebound.cli; print('numpy' in sys.modules)"
    proc = run_python(["-c", code], stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
