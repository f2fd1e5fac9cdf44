import json
import math
from importlib import resources

import jsonschema
import pytest

from shiftlab.cli import main

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
