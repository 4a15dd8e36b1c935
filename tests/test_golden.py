"""Golden outputs of the README command-line examples, at test sizes, and its Python example.

Each case pins the exit status and the exact bytes printed (by length and
SHA-256), so a refactor that keeps the CLI byte-identical passes and any
change to a report shows here.  The fault-injected case breaks every
function the verify suites evaluate, so that the violation reports, their
witnesses and their order are pinned too, not only clean runs.

To print the table for the current code: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import io
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from sparsebound import candidate, cli, dyadic, verify

LAMBDAS = ["--lambda", "1/2", "--lambda", "1", "--lambda", "3/2", "--lambda", "2"]

# name: (argv, exit status, stdout bytes, stdout SHA-256)
GOLDEN = {
    "eval-B-strip": (
        ["eval", "--which", "B", "1/2", "2", "5/2"], 0, 25,
        "e4a64eca21ab59e43ee03070e9e6da85aff5cc19d73ebf378eb241d2d005cc7a",
    ),
    "eval-f-strip": (
        ["eval", "--which", "f", "1", "7/2"], 0, 25,
        "e826d33c06fa1188151b9b75c88f328a377bfb667506ac7a5c8a3965f45a907a",
    ),
    "eval-B-mixed": (
        ["eval", "--which", "B", "1/4", "1", "1/2"], 0, 12,
        "e4ef45c94799920261e6f972d1e75df24c6335b4b50ac49ddee0ea3698c52bcf",
    ),
    "eval-f-strip-0": (
        ["eval", "--which", "f", "1", "1/2"], 0, 23,
        "83efdb4328da3c75087a96e9a0e88233e622cb3b172830e90410b4f585191c4c",
    ),
    # Lattice point 5 of level 10**5: 2**-100002 in full, at the cost of any level.
    "eval-B-far-level": (
        ["eval", "--which", "B", "1/32", "2", "3199999/32"], 0, 30124,
        "f3c9ff9c9a11f96ce78594b7b5abf4032766a56df83409210678761d8b74b2c4",
    ),
    # The a=1 profile in each of its branches.  At (1/2, 1/2), on the edge
    # x = level, it prints "full" as classify_region(1/2, 1, 1/2) does.
    "eval-g-profile": (
        ["eval", "--which", "g", "1/10", "1"], 0, 14,
        "974e974d2952eb0dba7b7f9f96e4caa013bfcb04d928df1caf7d06b361a6f323",
    ),
    "eval-g-mixed": (
        ["eval", "--which", "g", "1/2", "1"], 0, 12,
        "e4ef45c94799920261e6f972d1e75df24c6335b4b50ac49ddee0ea3698c52bcf",
    ),
    "eval-g-mixed-at-full-edge": (
        ["eval", "--which", "g", "1/2", "1/2"], 0, 9,
        "f47d8586b0074cca3a1014a50a868537ad7396ea85a32d51cd2bb76983ba4a7a",
    ),
    "eval-g-full": (
        ["eval", "--which", "g", "3/4", "1/2"], 0, 9,
        "f47d8586b0074cca3a1014a50a868537ad7396ea85a32d51cd2bb76983ba4a7a",
    ),
    "eval-g-zero": (
        ["eval", "--which", "g", "0", "5/2"], 0, 9,
        "fc5654e124ee91abe06968cc7859b3023ffcbb7d133c6fc5d75f82fe247d1495",
    ),
    "eval-g-strip": (
        ["eval", "--which", "g", "1/3", "3/2"], 0, 19,
        "75ec0ca116a7f6b9db715523bb9dffad3dcef5a86ad68f8db313d214e02abbcc",
    ),
    "eval-g-plateau": (
        ["eval", "--which", "g", "1", "5/2"], 0, 25,
        "e826d33c06fa1188151b9b75c88f328a377bfb667506ac7a5c8a3965f45a907a",
    ),
    "curves-F-csv": (
        ["curves", "3", "--family", "F"], 0, 148,
        "f8f67ea852232c4ea63b46656865892c8ceb4557c6ef150d8235813530850cf6",
    ),
    "curves-G-json": (
        ["curves", "3", "--family", "G", "--format", "json"], 0, 786,
        "2b15866790e7f317c205e4968a6b5cb7932629b0ef65de9c8941b6d5a3ed2623",
    ),
    "verify-jump": (
        ["verify", "jump", "--seed", "1", "--count", "100"], 0, 74,
        "1e4957f6f8b15506d4e17eabe8d777f21ffab21cd49187b339ec88117b323c19",
    ),
    "verify-all": (
        ["verify", "all", "--seed", "7", "--count", "200"], 0, 518,
        "18c89ba1e71924471d9f4da8932d64e46b58e3561266aeae11e2b401a44338d8",
    ),
    "brute-2": (
        ["brute", "2", *LAMBDAS], 0, 28095,
        "b7f49fb71afb437371a1f47cedf0b22ea6e1e99a76621cf62e349e256229f568",
    ),
    "brute-3": (
        ["brute", "3", *LAMBDAS], 0, 183424,
        "af67bbf9864c2c6208b676aea568dbabce4222eb87b4a308348919decf70d846",
    ),
    # The README's exhaustive example at the cap, the CSV form, and query
    # levels that are negative, zero, repeated, off the grid and above
    # every value a configuration takes.
    "brute-4": (
        ["brute", "4"], 0, 1668263,
        "c57e04b6f00814cbdf0981b951be33f7401a7d3da77023382b1d6943aa978aa0",
    ),
    "brute-3-csv": (
        ["brute", "3", "--format", "csv"], 0, 26302,
        "47a8db525ca6e2ca1a8630cdb33ed0c15140c1bb4d3a483fda578e76295af660",
    ),
    "brute-3-edge-levels": (
        ["brute", "3", "--lambda", "-1", "--lambda", "0", "--lambda", "1/3",
         "--lambda", "1/3", "--lambda", "40"], 0, 240414,
        "32f374e443ff9d172cdcc9abfab6be492ee949d78caef0c767720bd51bb3961d",
    ),
    "brute-5-sampled": (
        ["brute", "5", "--sample", "200", "--seed", "1"], 0, 72344,
        "7ff32be261b12d03d9f20e5b55ad58fd1752bbb1c0f30767ddc9866d9ec787ba",
    ),
    # The sampled cap, depth 8: its draws are built straight into sequences.
    "brute-8-sampled": (
        ["brute", "8", "--sample", "100", "--seed", "3"], 0, 50100,
        "2a5fe2027013c2038b5799987ab1978181248d82a628e8a1bef7398981da84da",
    ),
    # The README's sampled brute at full size, and the largest extremizers
    # under the cap, at both ends of curve 10.
    "brute-5-sampled-2000": (
        ["brute", "5", "--sample", "2000", "--seed", "1"], 0, 465362,
        "2945d521c2b3ba6a5ed00dd091e1d37f3421037655ca91c294b7c21fa5f0120b",
    ),
    "extremize-10-0": (
        ["extremize", "10", "0"], 0, 334622,
        "cca032a24d9b0d23aeec80fb16159d2c1420218d4818c42779268b93da12b0e9",
    ),
    "extremize-10-10": (
        ["extremize", "10", "10"], 0, 397676,
        "7b8626bcd0c8603b153b61345bde825c0872ca0d8ca2aa24899562b0e15841e3",
    ),
    "extremize-3-2": (
        ["extremize", "3", "2"], 0, 2932,
        "40b551353ff8f6469102ad0f6c12bb5d97e81f45bb15d9abb0a7980b2314121f",
    ),
    # A chain that mixes the bare full set in four times, then halves four times.
    "extremize-8-4": (
        ["extremize", "8", "4"], 0, 83353,
        "85c0eccb4328565cc1c5f8ea4e35c6ad64e4636ae288af0b3e27b4fa8fcc6dae",
    ),
    "corollary-1-3": (
        ["corollary", "1", "3"], 0, 976,
        "77408e3309635cab56b34ca658cf11accf60733aace663c0e693b12c5b4b7e99",
    ),
}

FAULT_ARGV = ["verify", "all", "--seed", "7", "--count", "20"]
FAULT_GOLDEN = (
    1, 255149,
    "148a1ecb26336a8977212b8e2efd0ec2b3f62af224d3de2a4f8dcccf047dcba9",
)


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    data = out.getvalue().encode()
    return code, len(data), hashlib.sha256(data).hexdigest()


def _replace(monkeypatch, original, replacement):
    """Rebind ``original`` in every sparsebound module that binds it."""
    for key, module in list(sys.modules.items()):
        if key.startswith("sparsebound"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def clear_memos():
    """Forget results that verify memoized from the functions patched here."""
    for value in vars(verify).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def inject_faults(monkeypatch):
    """Break every function the verify suites evaluate.

    The suites call the integer entries of ``candidate`` on (numerator,
    denominator) pairs; each entry gets the integer form of the fake its
    public wrapper gets.
    """
    clear_memos()
    slopes, forms = candidate.profile_slopes, candidate.recip_slope_forms
    int_slopes, int_forms = candidate._profile_slopes, candidate._recip_slope_forms
    concat = dyadic.concat_configs

    def negated_forms(window, m):
        return {
            name: ((-c0, -c1), levels)
            for name, ((c0, c1), levels) in forms(window, m).items()
        }

    def int_negated_forms(window, m):
        return {
            name: (((-c0n, c0d), (-c1n, c1d)), levels)
            for name, (((c0n, c0d), (c1n, c1d)), levels) in int_forms(window, m).items()
        }

    _replace(monkeypatch, candidate.bellman_value, lambda x, a, level: x * x - a)
    _replace(monkeypatch, candidate.f_value, lambda x, level: F(-1))
    _replace(monkeypatch, candidate.g_value, lambda x, level: F(0))
    _replace(monkeypatch, candidate.f_extended, lambda x, level: F(1))
    _replace(monkeypatch, slopes, lambda level, x_min: slopes(level, x_min)[::-1])
    _replace(monkeypatch, candidate.segment_slope, lambda strip, level: F(0))
    _replace(monkeypatch, forms, negated_forms)
    _replace(monkeypatch, concat, lambda c1, c2, gamma: concat(c1, c2, 1 - gamma))

    def int_square_minus_height(x, a, level):  # x * x - a
        (xn, xd), (an, ad) = x, a
        return xn * xn * ad - an * xd * xd, xd * xd * ad

    _replace(monkeypatch, candidate._bound, int_square_minus_height)
    _replace(monkeypatch, candidate._f_value, lambda x, level: (-1, 1))
    _replace(monkeypatch, candidate._g_value, lambda x, level: (0, 1))
    _replace(monkeypatch, candidate._f_extended, lambda x, level: (1, 1))
    _replace(monkeypatch, int_slopes, lambda level, x_min: int_slopes(level, x_min)[::-1])
    _replace(monkeypatch, candidate._segment_slope, lambda strip, level: (0, 1))
    _replace(monkeypatch, int_forms, int_negated_forms)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_golden(name):
    argv, code, size, digest = GOLDEN[name]
    assert run(argv) == (code, size, digest)


def test_readme_python_example():
    # README's top-level API example runs as written; its asserts are its check.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(example, {})


def test_fault_injected_report_golden(monkeypatch):
    inject_faults(monkeypatch)
    try:
        assert run(FAULT_ARGV) == FAULT_GOLDEN
    finally:
        clear_memos()


if __name__ == "__main__":
    for name, (argv, *_rest) in GOLDEN.items():
        print(f"    {name!r}: ({argv!r}, {', '.join(map(repr, run(argv)))}),")
    with pytest.MonkeyPatch.context() as patch:
        inject_faults(patch)
        print("FAULT_GOLDEN =", run(FAULT_ARGV))
