import contextlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab
from shiftlab import cli
from shiftlab.cli import _build_parser, _dumps, main

import oracles

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture(scope="module")
def schema():
    """The report schema's validator, checked and built once for the module."""
    with resources.files("shiftlab").joinpath("schemas/report.schema.json").open() as fh:
        document = json.load(fh)
    validator = jsonschema.validators.validator_for(document)
    validator.check_schema(document)
    return validator(document)


def test_entropy_golden(capsys):
    report = run_json(capsys, "entropy", "--s", "co{0}", "--tol", "1e-10")
    assert abs(report["result"]["lambda"] - PHI) < 1e-9
    assert report["result"]["log_base"] == 2.0


def test_entropy_singleton_and_full(capsys):
    assert run_json(capsys, "entropy", "--s", "{0}")["result"]["entropy"] == 0.0
    assert run_json(capsys, "entropy", "--s", "co{}")["result"]["entropy"] == 1.0


def test_entropy_parse_error_exit_code(capsys):
    code, _ = run(capsys, "entropy", "--s", "{oops}")
    assert code == 2


def test_entropy_numeric_failure_exit_code(capsys):
    # An uncertifiable tolerance must surface as a numeric failure.
    code, _ = run(capsys, "entropy", "--s", "{0,1}", "--tol", "1e-30")
    assert code == 3
    # A tolerance that tol / 10 would underflow to zero, on an infinite set.
    code, _ = run(capsys, "entropy", "--s", "ep:pre=1;pat=1,0", "--tol", "5e-324")
    assert code == 3


def test_classify_reports(capsys):
    rep = run_json(capsys, "classify", "--s", "{0,2,5}")
    assert rep["result"]["has_specification"] is True
    rep = run_json(capsys, "classify", "--s", "ep:pre=;pat=0,1")
    assert rep["result"]["is_mixing"] is False
    rep = run_json(capsys, "classify", "--s", "co{3}")
    assert rep["result"]["is_sft"] is True


def test_blocks_sft_example(capsys):
    rep = run_json(
        capsys,
        "blocks",
        "--sft",
        "ac,ad,bd,ca,cb,da,db",
        "--alphabet",
        "abcd",
        "--n",
        "3",
    )
    assert rep["result"]["count_at_n"] == 20


def test_blocks_requires_one_source(capsys):
    code, _ = run(capsys, "blocks", "--n", "3")
    assert code == 2
    code, _ = run(capsys, "blocks", "--s", "co{}", "--even-shift", "--n", "3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["blocks", "--s", "{0}", "--alphabet", "01", "--n", "3"],
        ["check-bsm", "--even-shift", "--alphabet", "01", "--depth", "3"],
        ["blocks", "--sft", "11", "--n", "3"],
    ],
)
def test_alphabet_goes_with_sft_only(argv):
    # An unused --alphabet would be echoed into the report's config as if it
    # had shaped the result.
    code, out, err = call(argv)
    assert code == 2
    assert_one_line_failure(out, err)
    assert err == "shiftlab: --alphabet applies only to --sft, which requires it\n"


def test_blocks_csv_format(capsys):
    code, out = run(capsys, "blocks", "--s", "co{}", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count,log2_count,log2_count_over_n"
    assert out.splitlines()[1] == "1,2,1,1"


@pytest.mark.parametrize(
    "argv",
    [
        ["blocks", "--s", "{0,1}", "--n", "0"],
        ["blocks", "--even-shift", "--n", "-3"],
        ["check-bsm", "--s", "co{0}", "--depth", "0"],
        ["check-bsm", "--sft", "ac,ad", "--alphabet", "abcd", "--depth", "-1"],
        ["enumerate-one", "--lambda", "1.5", "--max-leaves", "0"],
        ["enumerate-one", "--lambda", "1.5", "--max-leaves", "-3"],
    ],
)
def test_nonpositive_sizes_are_usage_errors(capsys, monkeypatch, argv):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr("shiftlab.blocks.sgap_count_table", no_table)
    monkeypatch.setattr("shiftlab.blocks.automaton_count_table", no_table)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("shiftlab: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--s", "{0,1000000000}"],
        ["classify", "--s", "{0,1000000000}"],
        ["blocks", "--s", "{0,1000000000}", "--n", "3"],
        ["classify", "--s", "co{1000000000}"],
    ],
)
def test_oversized_description_is_a_budget_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("shiftlab: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--s", "{0,1}"],
        ["gibbs", "--s", "{0,1}"],
        ["expand", "--lambda", "1.5", "--x", "0.5"],
        ["enumerate-one", "--lambda", "1.5"],
        ["kl"],
        ["bridge", "--digits", "11"],
    ],
)
def test_non_finite_tol_is_a_usage_error(capsys, argv, tol):
    code = main([*argv, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"shiftlab: --tol must be finite, got {float(tol)}\n"


def test_check_bsm_even_shift(capsys):
    rep = run_json(capsys, "check-bsm", "--even-shift", "--depth", "10")
    num, den = rep["result"]["K_estimate"].split("/")
    assert int(num) / int(den) <= 4.0


@pytest.mark.parametrize("command, size", [("blocks", "--n"), ("check-bsm", "--depth")])
@pytest.mark.parametrize("value", ["1", "7", "150"])
def test_even_shift_is_the_gap_set_of_the_even_numbers(capsys, command, size, value):
    # --even-shift names ep:pre=;pat=1,0: every report reads the same but
    # for the source flags its config echoes.
    def output(*source, fmt="json"):
        code, out = run(capsys, command, *source, size, value, "--format", fmt)
        assert code == 0, out
        return out

    even, gaps = output("--even-shift"), output("--s", "ep:pre=;pat=1,0")
    assert json.loads(even)["result"] == json.loads(gaps)["result"]
    if command == "blocks":
        csv = output("--even-shift", fmt="csv")
        assert csv == output("--s", "ep:pre=;pat=1,0", fmt="csv")
        assert csv.count("\r\n") == int(value) + 1


@pytest.mark.parametrize("command, size", [("blocks", "--n"), ("check-bsm", "--depth")])
@pytest.mark.parametrize("s", ["{0}", "{1,2,3}", "{0,1,3,4,7}", "co{0}", "co{1,3}", "co{2,4,5}"])
def test_sft_blocks_of_a_gap_set_give_its_reports(capsys, command, size, s):
    # A finite or cofinite gap set is also the SFT of oracles.sft_blocks.
    blocks = ",".join(oracles.sft_blocks(shiftlab.parse_sgap_spec(s)))
    for value in ("1", "7", "60"):
        gaps = run_json(capsys, command, "--s", s, size, value)
        sft = run_json(capsys, command, "--sft", blocks, "--alphabet", "01", size, value)
        assert sft["result"] == gaps["result"], value


def test_check_balanced_decay(capsys):
    rep = run_json(
        capsys,
        "check-balanced",
        "--s",
        "{0,1,2,4,8,16,32}",
        "--word-max",
        "34",
        "--r-max",
        "12",
    )
    assert rep["result"]["verdict"] == "RatioDecayDetected"
    assert rep["result"]["witness"][0].startswith("10")


def test_gibbs_report_and_csv(capsys):
    rep = run_json(capsys, "gibbs", "--s", "co{0}", "--depth", "10")
    assert rep["result"]["all_cells_pass"] is True
    code, out = run(capsys, "gibbs", "--s", "co{0}", "--depth", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "omega,r,k,mu_value,lower,upper,passes"


def test_expand_report(capsys):
    rep = run_json(
        capsys, "expand", "--lambda", str(PHI), "--x", "1.0", "--mode", "lazy",
        "--depth", "5",
    )
    assert rep["result"]["digits"] == "01111"
    # The residual after depth steps is the unexpanded tail, at most
    # lambda**-depth times the interval width.
    assert rep["result"]["residual"] <= PHI**-5 * (1 / (PHI - 1)) + 1e-9


def test_enumerate_one_reports_and_budget(capsys):
    rep = run_json(capsys, "enumerate-one", "--lambda", str(PHI), "--depth", "10")
    assert rep["result"]["leaf_count"] > 3
    code, _ = run(
        capsys, "enumerate-one", "--lambda", str(PHI), "--depth", "10",
        "--max-leaves", "2",
    )
    assert code == 4


def test_env_budget_cap(capsys, monkeypatch):
    monkeypatch.setenv("SHIFTLAB_MAX_CELLS", "2")
    code, _ = run(capsys, "enumerate-one", "--lambda", str(PHI), "--depth", "10")
    assert code == 4


DIGIT_WORD_ARGVS = [
    ["expand", "--lambda", "1.5", "--x", "1.0", "--depth"],
    ["bridge", "--s", "co{0}", "--length"],
]


@pytest.mark.parametrize("argv", DIGIT_WORD_ARGVS)
def test_digit_word_past_the_budget_is_a_budget_error(monkeypatch, argv):
    monkeypatch.delenv("SHIFTLAB_MAX_CELLS", raising=False)
    start = time.perf_counter()
    code, out, err = call([*argv, "1000000"])
    assert time.perf_counter() - start < 0.5
    assert code == 4
    assert_one_line_failure(out, err)
    assert err == f"shiftlab: budget exceeded: {argv[-1]} 1000000 exceeds the budget 200000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--lambda", "1.5", "--x", "5", "--depth", "1000000"],
        ["bridge", "--s", "co{", "--length", "1000000"],
    ],
)
def test_usage_error_goes_before_the_digit_word_budget(monkeypatch, argv):
    monkeypatch.delenv("SHIFTLAB_MAX_CELLS", raising=False)
    code, out, err = call(argv)
    assert code == 2
    assert_one_line_failure(out, err)


@pytest.mark.parametrize("argv", DIGIT_WORD_ARGVS)
@pytest.mark.parametrize("size, code", [("5", 0), ("6", 4)])
def test_digit_word_budget_boundary(monkeypatch, argv, size, code):
    monkeypatch.setenv("SHIFTLAB_MAX_CELLS", "5")
    assert call([*argv, size])[0] == code


def test_kl_prints_both_logs(capsys):
    rep = run_json(capsys, "kl", "--tol", "1e-6")
    lam = rep["result"]["lambda_kl"]
    assert round(lam, 3) == 1.787
    assert abs(rep["result"]["ln_lambda_kl"] - math.log(lam)) < 1e-12
    assert abs(rep["result"]["log2_lambda_kl"] - math.log2(lam)) < 1e-12


def test_bridge_both_directions(capsys):
    rep = run_json(capsys, "bridge", "--digits", "11")
    assert rep["result"]["spec"] == "{0,1}"
    assert abs(rep["result"]["lambda"] - PHI) < 1e-9
    rep = run_json(capsys, "bridge", "--pre", "0", "--pat", "1")
    assert rep["result"]["spec"] == "co{0}"
    rep = run_json(capsys, "bridge", "--s", "{0,2}", "--length", "4")
    assert rep["result"]["digits"] == "1010"
    code, _ = run(capsys, "bridge", "--digits", "11", "--s", "{0}")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bridge", "--digits", "012"],
        ["bridge", "--pre", "1", "--pat", "2"],
        ["bridge", "--pre", "1,0", "--pat", "1"],
    ],
)
def test_non_binary_digit_words_are_usage_errors(argv):
    code, out, err = call(argv)
    assert code == 2
    assert_one_line_failure(out, err)
    assert err == "shiftlab: digit word must be binary\n"


@pytest.mark.parametrize("length", ["0", "-1"])
@pytest.mark.parametrize("source", [["--digits", "101"], ["--s", "{0,2}"]])
def test_bridge_length_below_one_is_a_usage_error(source, length):
    # A negative --length once sliced digits off the end of the word.
    code, out, err = call(["bridge", *source, f"--length={length}"])
    assert code == 2
    assert_one_line_failure(out, err)
    assert err == f"shiftlab: --length must be >= 1, got {length}\n"


def test_bridge_length_with_periodic_input_is_a_usage_error():
    code, out, err = call(["bridge", "--pre", "1", "--pat", "0", "--length", "3"])
    assert code == 2
    assert_one_line_failure(out, err)
    assert "--pre/--pat" in err


def test_empty_shift_reported_distinctly(capsys):
    code = main(["blocks", "--sft", "00,01,10,11", "--alphabet", "01", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2 and "empty shift" in err


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "gibbs", "--s", "co{0}", "--depth", "10")
    _, second = run(capsys, "gibbs", "--s", "co{0}", "--depth", "10")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "entropy", "--s", "{0,1}", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "entropy"


@pytest.mark.parametrize("missing", ["no-such-dir/report.json", ".", None])
def test_out_flag_unwritable_path(tmp_path, capsys, missing):
    # None is the empty path, such as an unset $OUT: it names no file, and
    # the report must not fall back to standard output.
    out = "" if missing is None else str(tmp_path / missing)
    code = main(["entropy", "--s", "{0,1}", "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("shiftlab: ") and captured.err.count("\n") == 1
    assert captured.err.startswith(f"shiftlab: cannot write {out!r}")


def test_every_command_validates_against_schema(capsys, schema):
    invocations = [
        ["entropy", "--s", "co{0}"],
        ["classify", "--s", "{0,2,5}"],
        ["blocks", "--s", "co{}", "--n", "4"],
        ["check-bsm", "--even-shift", "--depth", "6"],
        ["check-balanced", "--s", "{0,1}", "--word-max", "8", "--r-max", "6"],
        ["gibbs", "--s", "co{0}", "--depth", "8"],
        ["expand", "--lambda", "1.8", "--x", "1.0", "--depth", "8"],
        ["enumerate-one", "--lambda", str(PHI), "--depth", "8"],
        ["kl", "--tol", "1e-6"],
        ["bridge", "--digits", "1101"],
        ["bridge", "--s", "{0,2}", "--length", "4"],
    ]
    for argv in invocations:
        report = run_json(capsys, *argv)
        schema.validate(report)
        assert report["command"] == argv[0]
        assert report["version"]
        # The schema pins each command's result keys: none may go missing
        # and none may be added under another name.
        result = report["result"]
        for key in result:
            dropped = {k: v for k, v in result.items() if k != key}
            for changed in (dropped, {**dropped, key + "_": result[key]}):
                with pytest.raises(jsonschema.ValidationError):
                    schema.validate({**report, "result": changed})


def _readme_cli_lines():
    """The argvs of the fenced sh block under README.md's ## CLI heading,
    each with the comment that follows it on its line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "shiftlab", line
        lines.append((argv[1:], comment.strip()))
    return lines


def test_readme_cli_examples_run():
    checks = {
        "entropy": lambda r: str(r["lambda"]).startswith("1.6180339887"),
        "classify": lambda r: r["has_specification"] is True,
        "check-bsm": lambda r: r["K_estimate"] == "3364/1791" and Fraction(r["K_estimate"]) <= 4,
        "kl": lambda r: round(r["lambda_kl"], 3) == 1.787,
        "bridge": lambda r: r["spec"] == "{0,1}",
    }
    commented = set()
    for argv, comment in _readme_cli_lines():
        code, out, err = call(argv)
        assert code == 0, (argv, err)
        if comment:
            commented.add(argv[0])
            assert checks[argv[0]](json.loads(out)["result"]), (argv, comment)
    assert commented == set(checks)


def call(argv):
    """Exit code, stdout and stderr of one in-process main() call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_line_failure(out, err):
    assert out == ""
    assert err.startswith("shiftlab: ") and err.count("\n") == 1 and err.endswith("\n")


# One request of each subcommand that has no CSV form.
_JSON_ONLY_ARGVS = [
    ["entropy", "--s", "co{0}"],
    ["classify", "--s", "{0,2,5}"],
    ["check-bsm", "--s", "co{}", "--depth", "3000"],
    ["check-balanced", "--s", "{0,1}"],
    ["expand", "--lambda", "1.5", "--x", "1"],
    ["enumerate-one", "--lambda", "1.5"],
    ["kl"],
    ["bridge", "--digits", "1101"],
]


def test_every_command_but_blocks_and_gibbs_is_json_only():
    json_only = {argv[0] for argv in _JSON_ONLY_ARGVS}
    assert set(_build_parser().commands) - json_only == {"blocks", "gibbs"}


@pytest.mark.parametrize("argv", _JSON_ONLY_ARGVS, ids=lambda argv: argv[0])
def test_csv_without_a_csv_form_is_refused_before_any_work(monkeypatch, argv):
    # The handler is stubbed: the JSON request reaches it, and the CSV one
    # is a usage error before it runs.
    seen = []
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), seen.append)
    assert call(argv) == (0, "", "") and len(seen) == 1
    code, out, err = call([*argv, "--format", "csv"])
    assert code == 2 and len(seen) == 1
    assert_one_line_failure(out, err)
    assert "--format" in err


@pytest.mark.parametrize(
    "argv",
    [["entropy", "--s", "{0,2,5}"], ["entropy", "--s", "co{0}"], ["gibbs", "--s", "co{0}"]],
)
def test_tolerance_below_float_floor_fails_before_solving(monkeypatch, argv):
    # The bisection decides on float values of the series near 1, which
    # cannot meet 1e-300, so the solver must not evaluate the series at all.
    def no_series(*_):
        raise AssertionError("series evaluated")

    monkeypatch.setattr("shiftlab.entropy._closed_series", no_series)
    monkeypatch.setattr("shiftlab.entropy._exact_sign", no_series)
    code, out, err = call([*argv, "--tol", "1e-300"])
    assert code == 3
    assert_one_line_failure(out, err)
    assert "below the float floor" in err


def test_precision_cap_is_a_budget_error(monkeypatch):
    # Below the starting precision every sign check exceeds the cap.
    monkeypatch.setattr("shiftlab.entropy._MAX_PRECISION_BITS", 64)
    code, out, err = call(["entropy", "--s", "{0,2,5}"])
    assert code == 4
    assert_one_line_failure(out, err)
    assert err.startswith("shiftlab: budget exceeded: ")


def test_entropy_cost_follows_the_description():
    # One member per period of 100000: the series closes in O(1) terms.
    spec = "ep:pre=;pat=" + "0," * 99999 + "1"
    start = time.perf_counter()
    code, out, err = call(["entropy", "--s", spec])
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["lambda_lo"] <= 2.0 ** (1 / 100000) <= result["lambda_hi"]
    # As a subprocess too.  A 200 kB argument exceeds the limit on one exec
    # argument (128 KiB on Linux), so the child reads it from stdin.
    script = "import sys; from shiftlab.cli import main; "
    script += "sys.exit(main(['entropy', '--s', sys.stdin.read()]))"
    src = str(Path(shiftlab.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", script], input=spec.encode(), capture_output=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert child.returncode == 0 and json.loads(child.stdout)["result"] == result


def test_expand_digit_follows_its_flag(capsys):
    # x sits just below fl(switch_lo - tol): flagged forced0, it must take 0.
    lam, x, tol = 1.5, 0.6666666666636666, 3e-12
    result = run_json(
        capsys, "expand", "--lambda", str(lam), "--x", repr(x), "--tol", repr(tol),
        "--depth", "3",
    )["result"]
    y = x
    for digit, flag in zip(result["digits"], result["branch_flags"], strict=True):
        assert flag != "forced0" or digit == "0"
        assert flag != "forced1" or digit == "1"
        y = lam * y - int(digit)
        assert -tol <= y <= 1 / (lam - 1) + tol
    assert result["digits"] == "010"


@pytest.mark.parametrize("word_max, r_max", [("100001", "1"), ("1000000000", "10")])
def test_check_balanced_budget_counts_follower_classes(monkeypatch, word_max, r_max):
    # co{0} has three follower classes whatever the window, so a window of
    # any width reads 3 * r_max cells, far below the default budget.
    monkeypatch.delenv("SHIFTLAB_MAX_CELLS", raising=False)
    start = time.perf_counter()
    code, out, err = call(
        ["check-balanced", "--s", "co{0}", "--word-max", word_max, "--r-max", r_max]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["depth_tested"] == int(r_max)
    assert time.perf_counter() - start < 1.0
    # check-bsm reports its --depth as the depth tested in the same field.
    code, out, err = call(["check-bsm", "--s", "co{0}", "--depth", r_max])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["depth_tested"] == int(r_max)


@pytest.mark.parametrize("budget, code", [("69", 4), ("70", 0)])
def test_check_balanced_budget_boundary(monkeypatch, budget, code):
    # co{0,1,4} has q = 5 and p = 1: six classes after a one and one
    # all-zero class, so 7 * 10 = 70 cells at any window of 6 or more.
    monkeypatch.setenv("SHIFTLAB_MAX_CELLS", budget)
    got, out, err = call(
        ["check-balanced", "--s", "co{0,1,4}", "--word-max", "100", "--r-max", "10"]
    )
    assert got == code
    if code:
        assert_one_line_failure(out, err)
        assert err == f"shiftlab: budget exceeded: 70 follower cells exceed the budget {budget}\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_count_past_int_to_text_limit_is_a_budget_error(fmt):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    # co{} counts 2**n, which has limit + 1 digits at this n.
    n = math.ceil(limit * math.log2(10))
    code, out, err = call(["blocks", "--s", "co{}", "--n", str(n), "--format", fmt])
    assert code == 4
    assert_one_line_failure(out, err)
    assert err.startswith(f"shiftlab: budget exceeded: --n {n} gives a count of ")


@pytest.mark.parametrize(
    "limit, argv, code",
    [
        (4, ["blocks", "--s", "co{}", "--n", "13"], 0),  # 2**13 = 8192
        (4, ["blocks", "--s", "co{}", "--n", "14"], 4),  # 2**14 = 16384
        (0, ["blocks", "--s", "co{}", "--n", "14"], 0),  # 0: no limit
        (4, ["check-bsm", "--even-shift", "--depth", "10"], 0),  # 3364/1791
        (3, ["check-bsm", "--even-shift", "--depth", "10"], 4),
        # B is 5473/14328: the denominator alone passes the limit.
        (5, ["check-balanced", "--s", "ep:pre=;pat=1,0", "--word-max", "4", "--r-max", "20"], 0),
        (4, ["check-balanced", "--s", "ep:pre=;pat=1,0", "--word-max", "4", "--r-max", "20"], 4),
        (4, ["gibbs", "--s", "ep:pre=;pat=1,0", "--depth", "20"], 0),  # c2 is 3364/1791
        (3, ["gibbs", "--s", "ep:pre=;pat=1,0", "--depth", "20"], 4),
        # 75025 and 121393 both have 17 bits; only the larger has 6 digits.
        (5, ["blocks", "--s", "co{0}", "--n", "23"], 0),
        (5, ["blocks", "--s", "co{0}", "--n", "24"], 4),
        # The largest CSV cell part is 377 (after reduction); c1 and c2 are
        # 1/2 and 4/3, so only the cell guard decides these two.
        (3, ["gibbs", "--s", "{0,1}", "--format", "csv", "--depth", "20"], 0),
        (2, ["gibbs", "--s", "{0,1}", "--format", "csv", "--depth", "20"], 4),
    ],
)
def test_int_to_text_limit_boundary(monkeypatch, limit, argv, code):
    # The limit is read, never set, so a patched reader stands in for an
    # interpreter started with a lower one.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    got, out, err = call(argv)
    assert got == code
    if code:
        assert_one_line_failure(out, err)
        assert f"{argv[-2]} {argv[-1]} gives a " in err


def test_gibbs_csv_past_the_real_int_to_text_limit_is_a_budget_error():
    # The JSON form prints only c1, c2 and float ratios and exits 0; the CSV
    # cells' fractions reach about 2**2431 at this depth.
    src = str(Path(shiftlab.__file__).resolve().parents[1])
    argv = ["gibbs", "--s", "{0,1}", "--depth", "7000"]
    env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "640"}
    for fmt, code in [("json", 0), ("csv", 4)]:
        child = subprocess.run(
            [sys.executable, "-m", "shiftlab", *argv, "--format", fmt],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert child.returncode == code, child.stderr
    assert_one_line_failure(child.stdout, child.stderr)
    assert child.stderr.startswith("shiftlab: budget exceeded: --depth 7000 gives a ")


ARGUMENT_ERRORS = [
    ["blocks", "--n", "x"],
    ["frobnicate"],
    ["entropy"],
    [],
    ["kl", "--bogus", "1"],
    ["expand", "--lambda", "1.5", "--x", "0.5", "--mode", "sideways"],
    ["bridge", "--s", "{0}", "--length", "3", "--tol", "0"],
    ["bridge", "--s", "{0}", "--length", "3", "--tol=-1"],
]


@pytest.mark.parametrize("argv", ARGUMENT_ERRORS)
def test_argument_errors_are_one_line_usage_errors(argv):
    code, out, err = call(argv)
    assert code == 2
    assert_one_line_failure(out, err)


def test_gibbs_ratios_stay_finite_past_the_double_range(capsys):
    # 2.0 ** (n * h) overflows from n = 1475 on for {0,1}; the ratios up to
    # there are that expression divided by the count, bit for bit, and past
    # it their successive quotients are those of the counts.
    report = run_json(capsys, "gibbs", "--s", "{0,1}", "--depth", "1500")["result"]
    h, ratios = report["entropy"], {int(n): r for n, r in report["ratios"].items()}
    counts = shiftlab.blocks.sgap_count_table(shiftlab.parse_sgap_spec("{0,1}"), 1500).counts
    assert sorted(ratios) == list(range(1, 1501))
    for n in range(1, 1475):
        assert ratios[n] == 2.0 ** (n * h) / counts[n], n
    for n in range(1475, 1501):
        expected = 2**h * (counts[n - 1] / counts[n])
        assert ratios[n] / ratios[n - 1] == pytest.approx(expected, rel=1e-12, abs=0), n


@pytest.mark.parametrize("depth", [2**64, 10**30])
@pytest.mark.parametrize("s", ["co{}", "ep:pre=;pat=0,1", "{0}"])
def test_gibbs_depth_past_maxsize_is_a_budget_error(s, depth):
    # The cells are counted from the ends of their run ranges, whose len()
    # would overflow past sys.maxsize.
    code, out, err = call(["gibbs", "--s", s, "--depth", str(depth)])
    assert code == 4 and "follower cells exceed the budget" in err
    assert_one_line_failure(out, err)


@pytest.mark.parametrize("argv", [["-h"], ["blocks", "--help"]])
def test_help_still_prints_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: shiftlab")


@pytest.mark.parametrize("tol", ["4e-16", "1e-16", "1e-300"])
def test_kl_tolerance_below_double_spacing_terminates(capsys, tol):
    reference = run_json(capsys, "kl", "--tol", "1e-15")["result"]["lambda_kl"]
    lam = run_json(capsys, "kl", "--tol", tol)["result"]["lambda_kl"]
    assert abs(lam - reference) <= 1e-15


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _parsed(parse, argv):
    """vars() of the Namespace parse gives argv, or its error message."""
    try:
        return vars(parse(argv))
    except shiftlab.SpecSyntaxError as exc:
        return str(exc)


# Abbreviated, ambiguous, repeated and misplaced flags, and words after "--".
PARSER_EDGE_ARGVS = [
    ["check-bsm", "--even-shift", "--dep", "3"],
    ["expand", "--lambda", "1.5", "--x", "1", "--dep", "4", "--mo", "lazy"],
    ["bridge", "--p", "1"],
    ["kl", "--tol", "1e-3", "--tol", "1e-4"],
    ["entropy", "--s"],
    ["blocks", "--he=x"],
    ["blocks", "--", "--n", "3"],
    ["--s", "{0}", "entropy"],
    ["classify", "--s", "{0}", "extra"],
]


def test_each_argv_parses_as_the_top_level_parser_parses_it(digest_tool):
    argvs = [*digest_tool.argvs([1, 3]), *ARGUMENT_ERRORS, *PARSER_EDGE_ARGVS]
    parse_args = _build_parser().parse_args
    for argv in argvs:
        assert _parsed(cli._parse, argv) == _parsed(parse_args, argv), argv


def test_repeated_calls_in_one_process_are_identical():
    sequence = [
        ["entropy", "--s", "co{0}"],
        ["blocks", "--n", "x"],
        ["classify", "--s", "{0,2,5}"],
        ["frobnicate"],
        ["blocks", "--s", "co{}", "--n", "4"],
        ["blocks", "--s", "co{}", "--n", "4", "--format", "csv"],
        ["entropy", "--s", "{0,1}", "--tol", "1e-30"],
        ["check-bsm", "--even-shift", "--depth", "6"],
        [],
        ["check-balanced", "--s", "{0,1}", "--word-max", "8", "--r-max", "6"],
        ["classify", "--s", "{0,1000000000}"],
        ["gibbs", "--s", "co{0}", "--depth", "8"],
        ["gibbs", "--s", "co{0}", "--depth", "8", "--format", "csv"],
        ["entropy"],
        ["expand", "--lambda", "1.8", "--x", "1.0", "--depth", "8"],
        ["enumerate-one", "--lambda", str(PHI), "--depth", "10", "--max-leaves", "2"],
        ["enumerate-one", "--lambda", str(PHI), "--depth", "8"],
        ["kl", "--tol", "1e-6"],
        ["kl", "--format", "csv"],
        ["bridge", "--digits", "1101"],
    ]
    first = [call(argv) for argv in sequence]
    assert {code for code, _, _ in first} == {0, 2, 3, 4}
    assert [call(argv) for argv in sequence] == first


def test_handler_rebinding_takes_effect_after_first_call(monkeypatch):
    assert call(["kl", "--tol", "1e-6"])[0] == 0
    seen = []
    monkeypatch.setattr("shiftlab.cli.cmd_kl", seen.append)
    assert call(["kl", "--tol", "1e-6"]) == (0, "", "")
    assert [args.tol for args in seen] == [1e-6]


def _stdlib_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


_JSON_SCALARS = [
    "", "plain", "caf\u00e9 \u2603 \U0001d11e", "\x00\x1f\x7f\"\\/\n\t\u2028",
    True, False, None, 0, 1, -1, 2**200, -(3**150),
    0.0, -0.0, 0.1, -2.5, 5e-324, 1e308, -1e308, 1e16, math.nan, math.inf, -math.inf,
]
_JSON_KEYS = ["", "a", "b", "B", "\u00e9", "\x01", "\"q\"", "10", "9", "\U0001d11e"]


def _json_value(rng, depth):
    """A seeded nested value of dicts, lists and tuples over _JSON_SCALARS."""
    kind = rng.randrange(4) if depth else 0
    size = rng.randrange(5)  # 0 gives the empty containers
    if kind == 1:
        return {rng.choice(_JSON_KEYS): _json_value(rng, depth - 1) for _ in range(size)}
    if kind in (2, 3):
        items = [_json_value(rng, depth - 1) for _ in range(size)]
        return items if kind == 2 else tuple(items)
    return rng.choice(_JSON_SCALARS)


def test_report_writer_matches_json_dumps():
    rng = random.Random(7)
    nested = [_json_value(rng, 4) for _ in range(500)]
    for value in [*_JSON_SCALARS, {}, [], (), {"": []}, [{}], *nested]:
        assert _dumps(value) == _stdlib_json(value), value


def test_report_writer_matches_json_dumps_on_edge_results(monkeypatch, digest_tool):
    results, emit = [], cli._emit

    def record(args, result, to_csv=None):
        results.append(result)
        emit(args, result, to_csv)

    monkeypatch.setattr(cli, "_emit", record)
    for argv in digest_tool.EDGE_ARGVS:
        call(argv)
    assert len(results) > len(digest_tool.EDGE_ARGVS) // 2
    for result in results:
        assert _dumps(result) == _stdlib_json(result)


class _Text(str):
    pass


class _Level(IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [
        {1: "a"},
        {None: 0},
        {"a": Fraction(1, 3)},
        [Fraction(1, 2)],
        {"a", "b"},
        [_Text("a")],
        {"a": _Text("a")},
        [_Level.LOW],
        {"a": _Level.LOW},
    ],
)
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


# For each subcommand, the sets of flags that make a complete request.
FUZZ_FORMS = {
    "entropy": [("--s", "--tol")],
    "classify": [("--s",)],
    "blocks": [("--s", "--n"), ("--sft", "--alphabet", "--n"), ("--even-shift", "--n")],
    "check-bsm": [
        ("--s", "--depth"), ("--sft", "--alphabet", "--depth"), ("--even-shift", "--depth"),
    ],
    "check-balanced": [("--s", "--word-max", "--r-max")],
    "gibbs": [("--s", "--depth", "--tol")],
    "expand": [("--lambda", "--x", "--mode", "--depth", "--tol")],
    "enumerate-one": [("--lambda", "--depth", "--max-leaves", "--tol")],
    "kl": [("--tol",)],
    "bridge": [
        ("--digits", "--length", "--tol"), ("--pre", "--pat", "--tol"), ("--s", "--length"),
    ],
}


def _mostly(good, bad):
    """Values from good nine times in ten, from bad otherwise."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


_BAD_NUMBERS = st.sampled_from(["x", "", "1.5", "nan", "inf", "-inf", "1e309"])
# --n and --depth have no budget yet, so sizes stay small to bound the runtime.
_SIZE = _mostly(st.integers(1, 14).map(str), st.integers(-3, 0).map(str) | _BAD_NUMBERS)
_TOL = _mostly(
    st.sampled_from(["1e-6", "1e-10", "1e-12", "1e-15", "1e-16", "1e-300", "5e-324"]),
    st.sampled_from(["0", "-1"]) | st.floats().map(repr) | _BAD_NUMBERS,
)
_ANY_REAL = st.floats(allow_nan=True, allow_infinity=True).map(repr) | _BAD_NUMBERS
_BASE = _mostly(st.floats(1.0, 2.2).map(repr), _ANY_REAL)
_POINT = _mostly(st.floats(0.0, 3.0).map(repr), _ANY_REAL)
_WORD = _mostly(st.text(alphabet="01", max_size=8), st.text(alphabet="012x", max_size=8))
# The forbidden blocks of finite and cofinite gap sets: --sft requests that
# reach the subset construction on shifts whose counts the oracles know.
_SFT_GAP_SETS = [
    ",".join(oracles.sft_blocks(shiftlab.parse_sgap_spec(text)))
    for text in ("{0}", "{1,3}", "{0,2,5}", "co{0}", "co{3}")
]
FUZZ_VALUES = {
    "--s": _mostly(
        st.sampled_from(
            ["{0}", "{0,1}", "{0,2,5}", "co{}", "co{0}", "co{3}", "ep:pre=;pat=0,1",
             "ep:pre=1;pat=1,0", "ep:pre=;pat=0", "{0,1000000000}"]
        ),
        st.text(alphabet="{}co0123,;:=-ep x", max_size=14),
    ),
    "--sft": st.sampled_from(
        ["ac,ad,bd,ca,cb,da,db", "00,01,10,11", "11", "", ",", "z", *_SFT_GAP_SETS]
    ),
    "--alphabet": st.sampled_from(["abcd", "01", "", "a"]),
    "--even-shift": st.none(),
    "--n": _SIZE,
    "--depth": _SIZE,
    "--word-max": _SIZE,
    "--r-max": _SIZE,
    "--length": _SIZE,
    "--max-leaves": _SIZE,
    "--tol": _TOL,
    "--lambda": _BASE,
    "--x": _POINT,
    "--mode": _mostly(st.sampled_from(["greedy", "lazy"]), st.just("sideways")),
    "--digits": _WORD,
    "--pre": _WORD,
    "--pat": _WORD,
    "--format": _mostly(st.sampled_from(["json", "csv"]), st.just("xml")),
    "--out": st.just("no-such-dir/report.json"),
    "--bogus": st.just("1"),
}


@st.composite
def cli_argvs(draw):
    """A request of one of FUZZ_FORMS, one time in ten missing a flag or with
    up to two more flags of any subcommand."""
    command = draw(st.sampled_from(sorted(FUZZ_FORMS)))
    form = draw(st.sampled_from(FUZZ_FORMS[command]))
    flags = [flag for flag in form if draw(_mostly(st.just(True), st.just(False)))]
    if draw(st.booleans()):
        flags.append("--format")
    extra = st.lists(st.sampled_from(sorted(FUZZ_VALUES)), min_size=1, max_size=2)
    flags += draw(_mostly(st.just([]), extra))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(FUZZ_VALUES[flag])
        if value is None:
            argv.append(flag)
        elif value.startswith("-"):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
def test_fuzz_cli_contract(schema, argv):
    code, out, err = call(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code != 0:
        assert_one_line_failure(out, err)
        return
    assert err == ""
    formats = [argv[i + 1] for i, a in enumerate(argv) if a == "--format"]
    if formats and formats[-1] == "csv":
        assert out.endswith("\n") and "," in out.splitlines()[0]
    else:
        schema.validate(json.loads(out, parse_constant=_reject_constant))
