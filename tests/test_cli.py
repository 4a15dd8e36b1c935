import errno
import importlib
import io
import json
import os
import pkgutil
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
import sparsebound
from sparsebound import cli, extremal, verify
from sparsebound.cli import CURVES_CAP, _Rows, _dumps, main
from sparsebound.rational import format_rational, parse_rational
from sparsebound.verify import Violation


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


def test_verify_slopes_reads_neither_seed_nor_count(capsys):
    # A fixed grid with fixed certificates: the seed changes no byte, and the
    # count only the "samples" field that echoes it.
    reports = {
        (seed, count): run_cli(capsys, "verify", "slopes", "--seed", seed, "--count", count)
        for seed, count in (("1", "5"), ("2", "5"), ("1", "500"))
    }
    assert reports[("1", "5")] == reports[("2", "5")]
    (code, few), (_, many) = reports[("1", "5")], reports[("1", "500")]
    assert code == 0 and '"samples": 5,' in few
    assert many == few.replace('"samples": 5,', '"samples": 500,') != few


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


@pytest.mark.parametrize(
    "argv",
    [["brute", "2"], ["brute", "2", "--format", "csv"], ["curves", "3", "--format", "json"]],
)
def test_output_file_gets_the_stdout_bytes(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code, out = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "")
    assert out.endswith("\n") and target.read_bytes() == out.encode()


class Discard(io.TextIOBase):
    """A text stream that drops what it is given, allocating nothing."""

    def write(self, text: str) -> int:
        return len(text)


def test_emit_does_not_copy_the_report(tmp_path, monkeypatch):
    # The final newline is written on its own: ``text + "\n"`` would copy
    # the whole report while the caller still holds it.
    text = "x" * (1 << 20)
    target = tmp_path / "report.txt"
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        cli._emit(text, None)
        to_stdout = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cli._emit(text, str(target))
        to_file = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert to_stdout < len(text) // 8
    assert to_file < len(text) * 3 // 2  # the encoded bytes, and no copy of the text
    assert target.read_text() == text + "\n"


def test_emit_writes_a_file_in_slices(tmp_path):
    # A file's text stream encodes each write whole, so a report goes out
    # in slices: its encoded copy is one slice at a time, with the same bytes.
    text = "0123456789abcdef\n" * (1 << 18)  # 4.25 MiB
    target = tmp_path / "report.txt"
    tracemalloc.start()
    try:
        cli._emit(text, str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) // 4
    assert target.read_bytes() == text.encode()


class HalfWriter:
    """A file that writes half of its first text, then fails as a full disk does."""

    def __init__(self, handle) -> None:
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.handle.close()

    def write(self, text: str) -> None:
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_output_write_leaves_the_old_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: HalfWriter(fdopen(*args, **kwargs)))
    code = main(["brute", "2", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert target.read_text() == "old report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]  # no temporary file left


def test_output_file_keeps_its_mode_and_link(tmp_path, capsys):
    real, link, new = tmp_path / "real.csv", tmp_path / "link.csv", tmp_path / "new.csv"
    real.write_text("old\n")
    real.chmod(0o640)
    link.symlink_to(real)
    assert run_cli(capsys, "curves", "2", "--output", str(link)) == (0, "")
    assert link.is_symlink() and real.read_text().startswith("m,k,x,lambda\n")
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert run_cli(capsys, "curves", "2", "--output", str(new)) == (0, "")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "new.csv", "real.csv"]


def test_output_to_a_pipe_is_written_in_place(tmp_path, capsys):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert run_cli(capsys, "curves", "1", "--output", str(pipe)) == (0, "")
    reader.join(timeout=60)
    assert received == [run_cli(capsys, "curves", "1")[1].encode()]
    assert stat.S_ISFIFO(pipe.stat().st_mode)


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
# and the others do not fit in memory, so the cap is checked before any
# bound or configuration is built.
@pytest.mark.parametrize(
    "argv",
    [
        ["extremize", "11", "0"],
        ["corollary", "5", "9"],
        ["extremize", "40", "3"],
        ["corollary", "0", "40"],
        ["corollary", "0", "10000000000"],
        ["corollary", "10000000000", "3"],
    ],
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


def test_readme_exit_codes_state_the_caps():
    # The README's exit-code paragraph states each cap as its constant has it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (paragraph,) = [p for p in readme.split("\n\n") if p.startswith("Exit codes:")]
    text = " ".join(paragraph.split())
    for stated in (
        f"exhaustive depth beyond the cap of {verify.EXHAUSTIVE_DEPTH_CAP} without `--sample`",
        f"sampled depth beyond its cap of {verify.SAMPLED_DEPTH_CAP},",
        f"extremizers beyond curve index m = {extremal.EXTREMIZER_CURVE_CAP}:",
        f"`curves` beyond m_max = {CURVES_CAP},",
    ):
        assert stated in text


def test_readme_api_lists_each_module_all():
    # One README bullet per module that has an __all__, naming exactly its names.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullets = re.findall(r"^- `(sparsebound[.\w]*)`: (.*(?:\n  .*)*)", readme, re.M)
    listed = {module: set(re.findall(r"`(\w+)`", names)) for module, names in bullets}
    submodules = (f"sparsebound.{m.name}" for m in pkgutil.iter_modules(sparsebound.__path__))
    modules = map(importlib.import_module, ("sparsebound", *submodules))
    exported = {m.__name__: set(m.__all__) for m in modules if hasattr(m, "__all__")}
    assert listed == exported


def test_readme_line_counts_match_the_modules():
    # README's sizes of the source each command loads, as `wc -l` counts the module files.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    package = Path(sparsebound.__file__).parent

    def lines(*modules):
        return sum((package / f"{module}.py").read_bytes().count(b"\n") for module in modules)

    text = " ".join(readme.split())
    shared = lines("__init__", "rational", "geometry", "candidate", "cli")
    for stated in (
        f"`candidate` and `cli` modules ({shared:,} lines of source)",
        f"`dyadic` and `extremal` ({lines('dyadic', 'extremal'):,} lines)",
        f"`dyadic` and `verify` ({lines('dyadic', 'verify'):,} lines)",
    ):
        assert stated in text


def test_curves_help_states_the_cap(capsys):
    with pytest.raises(SystemExit):
        main(["curves", "--help"])
    assert "m_max above 400 is a usage error" in " ".join(capsys.readouterr().out.split())


def test_brute_help_states_the_exhaustive_cap(capsys):
    with pytest.raises(SystemExit):
        main(["brute", "--help"])
    assert "Exhaustive up to depth 5; deeper runs need --sample." in capsys.readouterr().out


def test_brute_help_states_the_sampled_cap(capsys):
    with pytest.raises(SystemExit):
        main(["brute", "--help"])
    assert "Sampled mode is capped at depth 8." in " ".join(capsys.readouterr().out.split())


def test_brute_9_sampled_is_usage_error(capsys, time_limit):
    with time_limit(1):
        code = main(["brute", "9", "--sample", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: sampled mode is capped at depth 8\n"


def test_brute_6_without_sample_is_usage_error(capsys, time_limit):
    with time_limit(1):
        code = main(["brute", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exhaustive mode is capped at depth 5" in captured.err


@pytest.mark.parametrize("argv", [["jump", "--count", "-5"], ["all", "--count", "0"]])
def test_verify_count_below_one_is_usage_error(capsys, argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [["verify", "jump"], ["brute", "3", "--sample", "5"]])
def test_negative_seed_is_usage_error(capsys, argv):
    # --seed -5 would draw what --seed 5 draws.
    code = main([*argv, "--seed", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative, got -5\n"


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


@pytest.mark.parametrize(
    "args", [["\u0661/\u0662", "\uff12", "\uff15/\uff12"], ["1/2", "2", "-\u0661/\u0662"]]
)
def test_non_ascii_digits_are_usage_errors(capsys, args):
    # Arabic-Indic and fullwidth digits: int() reads them, the format does not.
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--which", "B", *args])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and captured.err.startswith("usage: ")


# Each integer argument, with "{}" where the token goes.
INTEGER_ARGVS = [
    ["curves", "{}"],
    ["verify", "jump", "--seed", "{}", "--count", "3"],
    ["verify", "jump", "--count", "{}"],
    ["brute", "{}"],
    ["brute", "2", "--sample", "{}"],
    ["brute", "2", "--sample", "3", "--seed", "{}"],
    ["extremize", "{}", "0"],
    ["extremize", "3", "{}"],
    ["corollary", "{}", "3"],
    ["corollary", "1", "{}"],
]


def _fill(argv, token):
    return [token if arg == "{}" else arg for arg in argv]


@pytest.mark.parametrize("argv", INTEGER_ARGVS)
def test_integer_arguments_take_ascii_digits_only(capsys, default_digit_limit, argv):
    # int() also reads other scripts' digits and underscores; the format does
    # not.  Beyond int()'s digit limit a token stays a usage error.
    for token in ("\u0663", "1_0", "9" * (default_digit_limit + 1)):
        with pytest.raises(SystemExit) as exc:
            main(_fill(argv, token))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f": invalid int value: {token!r}\n")
    # A sign and surrounding whitespace are read, as by parse_rational.
    for token, plain in (("+2", "2"), (" 3", "3")):
        assert run_cli(capsys, *_fill(argv, token)) == run_cli(capsys, *_fill(argv, plain))


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


def outcome(capsys, run, argv):
    """The exit code, stdout and stderr of ``run(argv)``, which may exit through argparse."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Calls that could leak into the next through one shared parser: an append
# option and its default, a usage error, and --help.
IN_A_ROW = [
    (["brute", "2", "--lambda", "1/2", "--lambda", "3"], 0),
    (["brute", "2"], 0),
    (["eval", "--which", "X", "1", "2"], 2),
    (["extremize", "--help"], 0),
    (["extremize", "3", "2"], 0),
]


def test_one_parser_serves_calls_in_a_row(capsys, monkeypatch):
    """Each call made after the others prints and exits as it does alone, in a new process."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    in_a_row = [outcome(capsys, main, argv) for argv, _ in IN_A_ROW]
    for (argv, code), got in zip(IN_A_ROW, in_a_row):
        alone = subprocess.run(
            [sys.executable, "-m", "sparsebound.cli", *argv],
            env={**ENV, "COLUMNS": "80"}, capture_output=True, text=True, timeout=120,
        )
        assert got == (alone.returncode, alone.stdout, alone.stderr) and got[0] == code, argv
    # The levels show in the report, so a default that kept them would be seen.
    assert in_a_row[0] != in_a_row[1]


def test_numpy_is_not_imported():
    code = "import sys, sparsebound.verify, sparsebound.cli; print('numpy' in sys.modules)"
    proc = run_python(["-c", code], stdout=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Calls that argparse answers with help or a usage error: no command or an
# unknown one, missing, extra or invalid arguments, and each command's help.
USAGE_BATTERY = [
    [],
    ["-h"],
    ["bogus"],
    ["--"],
    ["extremize"],
    ["extremize", "1", "1", "2"],
    ["extremize", "x", "0"],
    ["verify", "bogus"],
    ["eval", "--which", "X", "1", "2"],
    ["brute", "3", "--lambda", "x"],
    ["curves", "3", "--format", "xml"],
] + [[name, "--help"] for name in cli._COMMANDS]


@pytest.mark.parametrize("argv", USAGE_BATTERY, ids=lambda argv: " ".join(argv) or "none")
def test_usage_matches_one_parser_tree(capsys, monkeypatch, argv):
    """Each command's own parser prints and exits as argparse's routing through one tree does."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    want = outcome(capsys, reference.cli_tree_parser().parse_args, argv)
    assert want[0] in (0, 2)  # help or a usage error: the tree never returns
    assert outcome(capsys, main, argv) == want


# Commands that run no verify code, and commands that do.
WITHOUT_VERIFY = [
    ["extremize", "0", "0"],
    ["eval", "--which", "B", "1/2", "2", "5/2"],
    ["curves", "2"],
    ["corollary", "1", "3"],
]


@pytest.mark.parametrize(
    "argvs, imported",
    [(WITHOUT_VERIFY, False), ([["verify", "jump", "--count", "1"]], True), ([["brute", "1"]], True)],
)
def test_verify_is_imported_by_its_commands_only(argvs, imported):
    code = (
        "import contextlib, io, sys\n"
        "from sparsebound.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'sparsebound.verify' in sys.modules)\n"
    )
    proc = run_python(["-c", code], stdout=subprocess.PIPE)
    assert proc.stdout == f"{[0] * len(argvs)} {imported}\n", proc.stderr


@pytest.mark.parametrize(
    "argvs, imported",
    [
        ([["eval", "--which", "B", "1/2", "2", "5/2"], ["eval", "--which", "g", "1/3", "3/2"]], False),
        ([["curves", "2"], ["curves", "2", "--family", "G", "--format", "json"]], False),
        ([["extremize", "0", "0"]], True),
        ([["corollary", "1", "3"]], True),
    ],
)
def test_extremal_is_imported_by_its_commands_only(argvs, imported):
    code = (
        "import contextlib, io, sys\n"
        "from sparsebound.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, [f'sparsebound.{name}' in sys.modules for name in ('dyadic', 'extremal')])\n"
    )
    proc = run_python(["-c", code], stdout=subprocess.PIPE)
    assert proc.stdout == f"{[0] * len(argvs)} {[imported] * 2}\n", proc.stderr


def test_package_imports_extremal_on_first_use():
    # The README example's curve_vertex_config is extremal's own, imported when first read.
    code = (
        "import sys, sparsebound\n"
        "before = 'sparsebound.extremal' in sys.modules\n"
        "from sparsebound import curve_vertex_config\n"
        "from sparsebound.extremal import curve_vertex_config as own\n"
        "print(before, curve_vertex_config is own)\n"
    )
    proc = run_python(["-c", code], stdout=subprocess.PIPE)
    assert proc.stdout == "False True\n", proc.stderr


def _payloads(capsys):
    """The JSON each JSON-printing command writes, parsed back."""
    argvs = [
        ["curves", "2", "--family", "G", "--format", "json"],
        ["verify", "jump", "--seed", "1", "--count", "5"],
        ["brute", "1", "--lambda", "1/2"],
        ["brute", "3", "--sample", "5", "--seed", "2"],
        ["extremize", "2", "1"],
        ["corollary", "1", "3"],
    ]
    for argv in argvs:
        main(argv)
        yield json.loads(capsys.readouterr().out)


def test_dumps_writes_what_json_dumps_writes(capsys):
    violation = Violation("jump", (("x", F(1, 2)), ("lambda", F(-3))), F(1), F(2))
    # Built as ``verify`` builds its report, from exact values.
    violations = [{**vars(violation), "witness": dict(violation.witness)}]
    payloads = [*_payloads(capsys), [{"check": "jump", "samples": 1, "violations": violations}]]
    for payload in payloads:
        assert _dumps(payload) == json.dumps(payload, indent=2, default=format_rational)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.fractions() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
# Scalars of every kind directly in a dict and in a list, beside nested and empty containers.
@example({"a": 1, "b": F(-1, 3), "c": None, "d": True, "e": "\u00e9", "f": [], "g": {}, "h": [2]})
@example([0, F(1, 2), None, False, "", [], {}, [1, [F(3)]], {"k": {"x": -5}}])
@example({"": {"": []}, "x": [{}]})
@example([[]])
def test_dumps_matches_json_dumps_drawn(value):
    assert _dumps(value) == json.dumps(value, indent=2, default=format_rational)


@st.composite
def record_lists(draw):
    """Unique keys and rows of ints and strings, one value per key."""
    keys = draw(st.lists(st.text(), unique=True, max_size=4))
    values = st.integers() | st.text()
    return keys, draw(st.lists(st.tuples(*[values] * len(keys)), max_size=4))


@settings(max_examples=150, deadline=None)
@given(record_lists(), st.text())
@example((["a", "b"], []), "k")
@example(([], [(), ()]), "k")
@example((["%s", "d%", "%%"], [(1, 2, "x")]), "%d")
def test_rows_written_as_json_dumps_writes_their_dicts(records, key):
    keys, rows = records
    dicts = [dict(zip(keys, row)) for row in rows]
    texts = [tuple(v if type(v) is int else json.dumps(v) for v in row) for row in rows]
    # At top level, in a dict and two lists down, each at its own indent.
    for wrap in (lambda v: v, lambda v: {key: v, "n": None}, lambda v: [1, {key: [v]}]):
        assert _dumps(wrap(_Rows(tuple(keys), texts))) == json.dumps(wrap(dicts), indent=2)
    assert _dumps(_Rows(tuple(keys), [])) == "[]"


def test_dumps_refuses_floats_and_non_string_keys():
    # A float at top level, directly in a dict or a list, or deeper down.
    for bad in (0.5, {"a": 0.5}, [0.5], [1, 2.0], {"a": {"b": [float("nan")]}}, {1: "a"}):
        with pytest.raises(TypeError):
            _dumps(bad)
