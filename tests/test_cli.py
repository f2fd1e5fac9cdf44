import contextlib
import io
import json
import math
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.cli import _build_parser, main

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
    with resources.files("shiftlab").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


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
    # tol / 10 underflows to zero in the truncation bound of an infinite set.
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


@pytest.mark.parametrize("missing", ["no-such-dir/report.json", "."])
def test_out_flag_unwritable_path(tmp_path, capsys, missing):
    code = main(["entropy", "--s", "{0,1}", "--out", str(tmp_path / missing)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("shiftlab: ") and captured.err.count("\n") == 1


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
    ]
    for argv in invocations:
        report = run_json(capsys, *argv)
        jsonschema.validate(report, schema)
        assert report["command"] == argv[0]
        assert report["version"]


def call(argv):
    """Exit code, stdout and stderr of one in-process main() call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_line_failure(out, err):
    assert out == ""
    assert err.startswith("shiftlab: ") and err.count("\n") == 1 and err.endswith("\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["blocks", "--n", "x"],
        ["frobnicate"],
        ["entropy"],
        [],
        ["kl", "--bogus", "1"],
        ["expand", "--lambda", "1.5", "--x", "0.5", "--mode", "sideways"],
    ],
)
def test_argument_errors_are_one_line_usage_errors(argv):
    code, out, err = call(argv)
    assert code == 2
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
FUZZ_VALUES = {
    "--s": _mostly(
        st.sampled_from(
            ["{0}", "{0,1}", "{0,2,5}", "co{}", "co{0}", "co{3}", "ep:pre=;pat=0,1",
             "ep:pre=1;pat=1,0", "ep:pre=;pat=0", "{0,1000000000}"]
        ),
        st.text(alphabet="{}co0123,;:=-ep x", max_size=14),
    ),
    "--sft": st.sampled_from(["ac,ad,bd,ca,cb,da,db", "00,01,10,11", "11", "", ",", "z"]),
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
        jsonschema.validate(json.loads(out, parse_constant=_reject_constant), schema)
