"""End-to-end checks of the command-line interface.

Each test drives main() with an explicit argv and a temporary output
directory, then inspects exit codes, emitted files, and the manifest.
"""

import csv
import functools
import hashlib
import inspect
import io
import json
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lzcross import classes, cli, experiments, indexsets, norms, spectral
from lzcross.classes import extremal_f1, extremal_levels
from lzcross.cli import _theorem_params, main, parse_range, ConfigError
from lzcross.indexsets import Anisotropy, as_fraction, hyperbolic_cross
from lzcross.norms import GridFunction
from lzcross.spectral import GridSpec, SpectralFunction, block_rows, truncation_error


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_failed_manifest(out_dir, code=2):
    # a failed run leaves a manifest that records the failure and lists no output
    doc = read_json(out_dir / "manifest.json")
    assert doc["status"] == "error" and doc["exit_code"] == code
    assert doc["message"].startswith("error:" if code == 2 else "numerical failure:")
    assert "outputs" not in doc


RATE_1D = {"p": ["3/2"], "q": ["2"], "r": ["1"]}  # univariate rate parameters


# -- range parsing -------------------------------------------------------------


def test_parse_range_modes():
    assert parse_range("3:6") == [3, 4, 5, 6]
    assert parse_range("3:6:linear") == [3, 4, 5, 6]
    assert parse_range("4:64:dyadic") == [4, 8, 16, 32, 64]
    # dyadic stops before overshooting the upper bound
    assert parse_range("3:10:dyadic") == [3, 6]


@pytest.mark.parametrize("bad", ["6:3", "0:4", "a:b", "1:2:3:4", "1:2:weird"])
def test_parse_range_rejects(bad):
    with pytest.raises(ConfigError):
        parse_range(bad)


# -- exit codes ----------------------------------------------------------------


def test_lemma_check_passes_with_defaults(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "lemma", "check", "--id", "1", "--case", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out

    header, rows = read_csv(tmp_path / "lemma1_report.csv")
    assert header == ["n", "lhs", "rhs", "ratio"]
    assert [int(r[0]) for r in rows] == [16 * 2**k for k in range(9)]

    summary = read_json(tmp_path / "lemma1_report.summary.json")
    assert set(summary) == {"spread", "min_ratio", "max_ratio", "verdict"}
    assert summary["verdict"] == "within"
    assert summary["spread"] >= 1.0


def test_exit_one_when_threshold_is_tightened(tmp_path, capsys):
    # case-1 ratios drift by ~13% over the default range, so a spread
    # budget of 1.0 must fail without raising
    rc = main(
        ["--out", str(tmp_path), "lemma", "check", "--id", "1",
         "--spread-threshold", "1.0"]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    summary = read_json(tmp_path / "lemma1_report.summary.json")
    assert summary["verdict"] == "exceeded"


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("argv, doc, key", [
    (["lemma", "check", "--id", "1"], {}, "spread_threshold"),
    (["lemma", "check", "--id", "1"], {}, "lower_threshold"),
    (["lemma", "check", "--id", "2"], {}, "upper_threshold"),
    (["theorem1", "rate"], RATE_1D, "spread_threshold"),
    (["theorem1", "rate"], RATE_1D, "fit_tolerance"),
], ids=["lemma-spread", "lemma-lower", "lemma-upper", "rate-spread", "rate-fit"])
def test_verdict_threshold_that_is_not_positive_is_a_usage_error(
    tmp_path, capsys, value, argv, doc, key
):
    # a NaN or non-positive threshold fails every verdict, whatever the run;
    # the two keys with a flag are given by the flag, the others in --params
    if key in ("spread_threshold", "fit_tolerance"):
        argv = argv + ["--" + key.replace("_", "-"), value]
    else:
        doc = {**doc, key: float(value)}
    argv = argv + ["--params", str(make_params_file(tmp_path, doc))]
    assert main(["--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""
    assert_failed_manifest(tmp_path)


def test_exit_two_on_bad_lemma_case(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "lemma", "check", "--id", "1", "--case", "9"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_exit_four_on_numerical_failure(tmp_path, capsys):
    # at beta = 100 the growth case's sums leave the float range: a numerical
    # failure, told apart from a configuration error (2) and a fault (3)
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "2", "--case", "growth",
            "--params", str(make_params_file(tmp_path, {"beta": 100}))]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert_failed_manifest(tmp_path, 4)


@pytest.mark.parametrize("key, value, message", [
    ("tau1", "100", "a sample magnitude to the power 100 overflows"),
    ("tau2", "200", "the residual at n=6 measures 0.0"),
])
def test_rate_level_beyond_the_float_range_is_a_numerical_failure(
    tmp_path, capsys, key, value, message
):
    # a source fine index of 100 overflows the powers of the block samples
    # at n = 16; a target one of 200 underflows every residual sample to 0.
    # A RuntimeWarning on the way would be an error here (pyproject.toml's
    # filterwarnings), which main reports as a fault, exit 3
    params = make_params_file(tmp_path, {**RATE_1D, "thetas": ["inf"], key: [value]})
    argv = ["--out", str(tmp_path), "theorem1", "rate", "--params", str(params)]
    assert main(argv) == 4
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
    assert_failed_manifest(tmp_path, 4)


def test_non_finite_lemma_value_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "lemma1_sum", lambda l, **p: math.nan)
    assert main(["--out", str(tmp_path), "lemma", "check", "--id", "1"]) == 4
    assert capsys.readouterr().err == "numerical failure: non-finite value at n=16\n"
    assert_failed_manifest(tmp_path, 4)


def test_lemma3_box_value_beyond_the_float_range_is_a_numerical_failure(
    tmp_path, capsys
):
    # (s + 1)**200 overflows within the first series, on axis 0: the first
    # non-finite term ends the run
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "3",
            "--params", str(make_params_file(tmp_path, {"lams": [200, 200]}))]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        "numerical failure: lemma 3 term of axis 0 at n=4 is not finite\n")
    assert_failed_manifest(tmp_path, 4)


def test_failed_run_replaces_the_manifest_with_its_failure(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "1"]
    assert main(argv) == 0
    assert read_json(tmp_path / "manifest.json")["status"] == "ok"
    assert main(argv + ["--case", "9"]) == 2
    assert read_json(tmp_path / "manifest.json") == {
        "kind": "lemma-check", "version": cli.__version__, "status": "error",
        "message": capsys.readouterr().err.strip(), "exit_code": 2,
    }


def test_failure_whose_manifest_cannot_be_written_keeps_its_exit_code(
    tmp_path, capsys, monkeypatch
):
    def unwritable(path, doc):
        raise PermissionError(f"cannot write {path}")

    monkeypatch.setattr(cli, "_write_json", unwritable)
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "2", "--case", "growth",
            "--params", str(make_params_file(tmp_path, {"beta": 100}))]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (tmp_path / "manifest.json").exists()


def test_main_calls_run_by_its_module_name(tmp_path, monkeypatch):
    # the benchmark tracer wraps cli.run and reads the cli's own time from
    # that span, so main must look run up by name when it calls it
    seen = []
    real_run = cli.run

    def spy(kind, options, out_dir):
        seen.append((kind, options, out_dir))
        return real_run(kind, options, out_dir)

    monkeypatch.setattr(cli, "run", spy)
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), "lemma", "check", "--id", "2", "--case", "growth",
                 "--range", "2:4"]) == 0
    assert seen == [("lemma-check", {"id": 2, "case": "growth", "range": "2:4"}, out_dir)]
    assert read_json(out_dir / "manifest.json")["status"] == "ok"


def test_run_takes_the_output_directory_as_text(tmp_path):
    # library callers may pass out_dir as a string, as ExperimentConfig allowed
    manifest = cli.run("cross-gen", {"gamma": "1,1", "n": 3}, str(tmp_path))
    assert manifest.outputs[0]["path"] == "cross.json"
    assert read_json(tmp_path / "manifest.json")["summary"]["count"] == manifest.summary["count"]


@pytest.mark.parametrize("argv, doc", [
    (["lemma", "check", "--id", "4"], {"lams": ["1e400", 1]}),
    (["theorem1", "rate", "--range", "6:9"], {**RATE_1D, "q": ["1e400"]}),
    (["lemma", "check", "--id", "3"], {"alpha": "1e400"}),
    (["lemma", "check", "--id", "2", "--case", "decay"], {"beta": "1e400"}),
    # bare JSON numbers, which a float parse would turn into inf, as file text
    (["lemma", "check", "--id", "4"], '{"lams": [1e400, 1]}'),
    (["lemma", "check", "--id", "3"], '{"alpha": 1e400}'),
    (["theorem1", "rate", "--range", "6:9"], '{"p": [1e400], "q": ["2"], "r": ["1"]}'),
])
def test_config_number_beyond_the_float_range_is_a_usage_error(
    tmp_path, capsys, argv, doc
):
    # a configuration error (2), not a numerical failure (4) of the run
    argv = ["--out", str(tmp_path)] + argv + [
        "--params", str(make_params_file(tmp_path, doc))]
    assert main(argv) == 2
    assert "'1e400' is beyond the float range" in capsys.readouterr().err
    assert_failed_manifest(tmp_path)


def test_integer_option_beyond_the_float_range_names_the_literal(tmp_path, capsys):
    params = make_params_file(tmp_path, '{"which": 1e400, "p": ["3/2"], "q": ["2"], "r": ["1"]}')
    argv = ["--out", str(tmp_path), "theorem1", "rate", "--range", "6:9",
            "--params", str(params)]
    assert main(argv) == 2
    assert "which must be an integer, got '1e400'" in capsys.readouterr().err


@pytest.mark.parametrize("lemma_id, case, doc, key", [
    ("1", "3", {"alpha": 0.7, "beta": 0.5}, "alpha"),
    ("2", "decay", {"beta": 1.0, "gamma": ["1", "1"]}, "gamma"),
    ("3", None, {"gamma": ["1", "1"], "epsilons": [5, 5]}, "epsilons"),
    ("4", None, {"case": 3, "lams": [0, 0]}, "case"),
])
def test_lemma_parameter_the_lemma_does_not_read_is_a_usage_error(
    tmp_path, capsys, lemma_id, case, doc, key
):
    # a key another lemma reads must not pass silently, echoed with a default
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", lemma_id,
            "--params", str(make_params_file(tmp_path, doc))]
    argv += ["--case", case] if case else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"lemma {lemma_id}" in err and key in err
    assert_failed_manifest(tmp_path)
    del doc[key]
    make_params_file(tmp_path, doc)
    assert main(argv) == 0


@pytest.mark.parametrize("lemma_id, case, key, code", [
    ("1", "1", "alpha", 2),
    ("3", None, "lams", 2),
    ("3", None, "thetas", 2),
    ("4", None, "epsilons", 2),
    ("3", None, "gamma_prime", 0),
])
def test_lemma_parameter_given_as_null_is_a_usage_error_but_gamma_prime(
    tmp_path, capsys, lemma_id, case, key, code
):
    # gamma_prime: null means gamma; any other null is refused, naming its key
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", lemma_id,
            "--params", str(make_params_file(tmp_path, {key: None}))]
    argv += ["--case", case] if case else []
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"error: {key} must not be null; only gamma_prime: null means gamma\n"
        assert_failed_manifest(tmp_path)
    else:
        assert err == ""


@pytest.mark.parametrize("argv", [["theorem1", "rate"], ["extremal", "--n", "4"]],
                         ids=["rate", "extremal"])
@pytest.mark.parametrize("key, value", [
    ("thetas", None),
    ("gamma_prime", None),
    ("q", ["2", None]),
    ("p", None),
    ("alpha", [None]),
], ids=["thetas", "gamma-prime", "q-entry", "p", "alpha-entry"])
def test_theorem_parameter_given_as_null_is_a_usage_error(
    tmp_path, capsys, argv, key, value
):
    # no gamma here for a null gamma_prime to stand for; each null is
    # refused naming its key, not as the Fraction literal 'None'
    params = make_params_file(tmp_path, {**RATE_1D, key: value})
    assert main(["--out", str(tmp_path)] + argv + ["--params", str(params)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key} must not be null\n" and captured.out == ""
    assert_failed_manifest(tmp_path)
    assert read_json(tmp_path / "manifest.json")["message"] == f"error: {key} must not be null"


@pytest.mark.parametrize("argv, key, value, note", [
    (["lemma", "check", "--id", "3"], "gamma", ["1", None], "lemma"),
    (["lemma", "check", "--id", "3"], "gamma_prime", ["1", None], "lemma"),
    (["lemma", "check", "--id", "4"], "lams", [0, None], "lemma"),
    (["norm", "--grid"], "tau", [None], ""),
    (["approx", "--spectral"], "target_alpha", None, ""),
], ids=["lemma3-gamma-entry", "lemma3-gamma-prime-entry", "lemma4-lams-entry",
        "norm-tau-entry", "approx-target-alpha"])
def test_null_value_or_list_entry_is_refused_naming_its_key(
    tmp_path, capsys, argv, key, value, note
):
    # every per-axis list is read by one helper that refuses a null, so no
    # command reads one as the Fraction literal 'None'
    if argv[0] == "norm":
        data = {"m": 1, "shape": [4], "re": [1.0] * 4}
        argv = argv + [str(make_params_file(tmp_path, data))]
    elif argv[0] == "approx":
        data = {"m": 1, "terms": [{"k": [1], "re": 1.0}]}
        argv = argv + [str(make_params_file(tmp_path, data)), "--gamma", "1"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert main(["--config", str(config), "--out", str(tmp_path)] + argv) == 2
    message = f"error: {key} must not be null"
    if note:
        message += "; only gamma_prime: null means gamma"
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert_failed_manifest(tmp_path)
    assert read_json(tmp_path / "manifest.json")["message"] == message


@pytest.mark.parametrize("argv, doc, message", [
    (["theorem1", "rate"], {"p": ["3/2"], "q": ["2"]},
     "theorem parameters require p, q, and r"),
    # the --relation flag has choices; a params file bypasses them
    (["lemma", "check", "--id", "1"], {"relation": "sideways"},
     "relation must be two-sided, lower, or upper"),
], ids=["rate-without-r", "lemma-relation"])
def test_params_file_that_a_command_cannot_run_is_a_usage_error(
    tmp_path, capsys, argv, doc, message
):
    params = make_params_file(tmp_path, doc)
    assert main(["--out", str(tmp_path)] + argv + ["--params", str(params)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert_failed_manifest(tmp_path)


def test_lemma3_box_over_the_cell_budget_is_a_usage_error(tmp_path, capsys):
    # gamma = 1/100 on three axes is summed within the cell budget, where a
    # dense box would start at 409**3 cells.  Its squared value is the sum
    # over t = <s, 100 gamma> >= 100 n of C(t+2, 2) 4^(-t/100)
    params = make_params_file(tmp_path, {"gamma": ["1/100"] * 3, "lams": [0, 0, 0],
                                         "upper_threshold": 1000})
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "3", "--params", str(params)]
    assert main(argv + ["--range", "4:5"]) == 0
    for n, lhs, *_ in read_csv(tmp_path / "lemma3_report.csv")[1]:
        want = math.fsum(math.comb(t + 2, 2) * 4.0 ** (-t / 100)
                         for t in range(100 * int(n), 100 * int(n) + 8000))
        assert float(lhs) == pytest.approx(math.sqrt(want), rel=1e-12)
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["n"] for level in levels] == [4, 5]
    assert all(len(level["tail_bound"]) == len(level["terms"]) == 3 for level in levels)
    # gamma = 1/6000 on two axes: axis 0 would hold the 6001 rows up to
    # its budget (of a series of about 186,000 terms) for 6001 budgets,
    # past the 2**25-cell budget; it is refused before any recursion array
    # is allocated
    capsys.readouterr()
    make_params_file(tmp_path, {"gamma": ["1/6000"] * 2})
    tracemalloc.start()
    try:
        assert main(argv + ["--range", "1:1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "lemma 3 recursion array of axis 0 (6001, 6001) needs 36012001 cells" in err
    assert str(norms.DEFAULT_MAX_GRID_CELLS) in err
    assert_failed_manifest(tmp_path)
    assert peak < 1 << 20


def test_lemma3_holds_no_rows_past_the_budget(tmp_path):
    # gamma = 1/100 on three axes: at n=5 each axis sums 501 budgets over a
    # series of 3,504 terms, and from row 500 on every budget is spent, so
    # an axis holds 501 x 501 cells and adds the rest of its series in
    # blocks as tall; one dense 3,504 x 501 array is 14 MB, and the run
    # peaked at 58 MB when it held them
    params = make_params_file(tmp_path, {"gamma": ["1/100"] * 3})
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "3", "--params", str(params),
            "--range", "4:5"]
    main(argv)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 1  # the ratio window at these levels fails
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [level["terms"] for level in read_json(tmp_path / "manifest.json")["stats"]["levels"]
            ] == [[3408] * 3, [3504] * 3]
    assert peak < 6 * 501 * 501 * 8 < 3504 * 501 * 8


def test_lemma4_layer_box_over_the_cell_budget_is_a_usage_error(tmp_path, capsys):
    # five unit weights at n=32 are summed within the cell budget, where a
    # dense box spans 33**5 cells: the layer's C(36, 4) points of weight 2^-32
    params = make_params_file(tmp_path, {"gamma": [1] * 5, "lower_threshold": 0.05})
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", "4", "--params", str(params)]
    assert main(argv + ["--range", "32:32"]) == 0
    [[_, lhs, *_]] = read_csv(tmp_path / "lemma4_report.csv")[1]
    assert float(lhs) == math.comb(36, 4) * 2.0**-32
    make_params_file(tmp_path, {"gamma": [1] * 4})
    assert main(argv + ["--range", "64:64"]) == 0
    # gamma = 1/6000 on two axes: axis 0 would take 6001 steps on each of
    # 6001 budgets, past the 2**25-cell budget; it is refused before any
    # recursion array is allocated
    make_params_file(tmp_path, {"gamma": ["1/6000"] * 2})
    tracemalloc.start()
    try:
        assert main(argv + ["--range", "1:1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "lemma 4 recursion array of axis 0 (6001, 6001) needs 36012001 cells" in err
    assert str(norms.DEFAULT_MAX_GRID_CELLS) in err
    assert_failed_manifest(tmp_path)
    assert peak < 1 << 20


def test_exit_two_on_missing_config(tmp_path):
    rc = main(
        ["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path),
         "lemma", "check", "--id", "1"]
    )
    assert rc == 2


def test_exit_two_on_malformed_config(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("[1, 2, 3]")
    rc = main(["--config", str(bad), "--out", str(tmp_path),
               "lemma", "check", "--id", "1"])
    assert rc == 2


# -- cross generation ----------------------------------------------------------


def test_cross_gen_writes_indices_and_manifest(tmp_path):
    rc = main(["--out", str(tmp_path), "cross", "gen", "--n", "2", "--gamma", "1,1"])
    assert rc == 0

    doc = read_json(tmp_path / "cross.json")
    assert doc["m"] == 2
    got = {tuple(row) for row in doc["indices"]}
    assert got == {(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)}

    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["kind"] == "cross-gen"
    assert manifest["summary"]["count"] == 5
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_cross_gen_accepts_rational_level_and_weights(tmp_path):
    rc = main(
        ["--out", str(tmp_path), "cross", "gen", "--n", "3/2", "--gamma", "1,2/3"]
    )
    assert rc == 0
    doc = read_json(tmp_path / "cross.json")
    expected = hyperbolic_cross(as_fraction("3/2"), Anisotropy.of(["1", "2/3"]))
    assert {tuple(row) for row in doc["indices"]} == set(expected)


@pytest.mark.parametrize("n, gamma", [("26", "1,1"), ("1e400", "1,1"),
                                      ("25", "1,1,1,1,1,1,1,1")])
def test_cross_gen_over_the_cell_budget_lists_no_frequency(
    tmp_path, capsys, monkeypatch, n, gamma
):
    # 2**25 frequencies at most; the count stops before it walks every layer
    def listing(*args):
        raise AssertionError("a frequency was listed")

    monkeypatch.setattr(cli, "hyperbolic_cross", listing)
    rc = main(["--out", str(tmp_path), "cross", "gen", "--n", n, "--gamma", gamma])
    assert rc == 2
    assert "holds more than 33554432 frequencies" in capsys.readouterr().err
    assert_failed_manifest(tmp_path)


@pytest.mark.parametrize("argv", [["extremal", "--n", "26"],
                                  ["theorem1", "rate", "--range", "6:30"]])
def test_extremal_function_over_the_row_cap_is_refused_before_any_level(
    tmp_path, capsys, monkeypatch, argv
):
    # 2**26 frequencies at n = 26 in one variable; no level is built first
    def listing(*args):
        raise AssertionError("a frequency was listed")

    monkeypatch.setattr(classes, "axis_block", listing)
    argv = argv + ["--params", str(BENCH / "params" / "rate-1d.json")]
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert "n=26 would hold 67108864 frequencies" in capsys.readouterr().err
    assert_failed_manifest(tmp_path)


def test_zero_denominator_flag_is_a_usage_error(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "cross", "gen", "--n", "2", "--gamma", "1/0"])
    assert rc == 2
    assert "zero denominator in '1/0'" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    argv = ["lemma", "check", "--id", "2", "--case", "growth"]
    for d in ("a", "b"):
        assert main(["--out", str(tmp_path / d)] + argv) == 0
    for name in ("lemma2_report.csv", "lemma2_report.summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LZCROSS_OUT", str(tmp_path / "envdir"))
    rc = main(["cross", "gen", "--n", "1", "--gamma", "1"])
    assert rc == 0
    assert (tmp_path / "envdir" / "cross.json").exists()
    assert (tmp_path / "envdir" / "manifest.json").exists()


def test_an_invocation_builds_the_arguments_of_its_command_alone(tmp_path, monkeypatch):
    # each command's arguments are added when argparse hands it its own, so
    # lemma check never builds another command's; a second call in the same
    # process builds its parser anew and reads the environment again
    built = []
    for name in ("_lemma_arguments", "_cross_arguments", "_norm_arguments",
                 "_approx_arguments", "_extremal_arguments", "_theorem1_arguments"):

        def spy(parser, name=name, original=getattr(cli, name)):
            built.append(name)
            original(parser)

        monkeypatch.setattr(cli, name, spy)
    argv = ["lemma", "check", "--id", "2", "--case", "growth"]
    for call, out in enumerate(("first", "second"), start=1):
        monkeypatch.setenv("LZCROSS_OUT", str(tmp_path / out))
        assert main(argv) == 0
        assert built == ["_lemma_arguments"] * call
        assert (tmp_path / out / "lemma2_report.csv").exists()
        assert (tmp_path / out / "manifest.json").exists()


def test_json_files_hold_the_bytes_of_json_dump(tmp_path):
    doc = {
        "ratio": Fraction(2, 3),
        "spread": math.inf,
        "levels": [{"n": 6, "shape": (64, 64), "path": tmp_path / "a.csv"},
                   [Fraction(-1, 7), 0.1, None, True]],
        3: ("x", (1.5, [Fraction(5)])),
    }
    cli._write_json(tmp_path / "sub" / "doc.json", doc)
    want = io.StringIO()
    json.dump(cli._json_safe(doc), want, indent=2, sort_keys=True)
    assert (tmp_path / "sub" / "doc.json").read_bytes() == (
        want.getvalue() + "\n"
    ).encode("utf-8")


def test_json_files_name_every_value_that_is_not_finite(tmp_path):
    # JSON has no inf or nan, so each is written as a string that keeps its
    # sign, and the file parses with a strict reader
    doc = {
        "up": math.inf,
        "down": -math.inf,
        "none": math.nan,
        "levels": [{"n": 6, "margin": np.float64(-math.inf)}, (np.float64(math.nan), 1.5)],
    }
    cli._write_json(tmp_path / "doc.json", doc)

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    got = json.loads((tmp_path / "doc.json").read_text(), parse_constant=refuse)
    assert got == {
        "up": "inf",
        "down": "-inf",
        "none": "nan",
        "levels": [{"n": 6, "margin": "-inf"}, ["nan", 1.5]],
    }


# -- norm command --------------------------------------------------------------


def test_norm_prints_unit_value_for_constant_one(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    g = GridFunction(np.ones((8, 8)))
    grid_file.write_text(json.dumps(g.to_json_dict()))
    rc = main(
        ["--out", str(tmp_path), "norm", "--grid", str(grid_file),
         "--p", "2,2", "--alpha", "0,0", "--tau", "2,2"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["summary"]["shape"] == [8, 8]
    assert abs(manifest["summary"]["norm"] - 1.0) < 1e-12


@pytest.mark.parametrize("sample", ["NaN", "Infinity", "-Infinity"])
def test_norm_rejects_non_finite_samples(tmp_path, capsys, sample):
    for part in ("re", "im"):
        grid_file = tmp_path / "grid.json"
        doc = {"m": 1, "shape": [4], "re": [1.0] * 4, "im": [0.0] * 4}
        doc[part][2] = float(sample.replace("Infinity", "inf"))
        grid_file.write_text(json.dumps(doc))
        assert sample in grid_file.read_text()
        rc = main(["--out", str(tmp_path), "norm", "--grid", str(grid_file),
                   "--p", "2", "--alpha", "0", "--tau", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid samples must be finite" in captured.err


# -- config file layering ------------------------------------------------------


def test_config_file_sets_range(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"range": "16:32:dyadic"}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path),
               "lemma", "check", "--id", "1"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "lemma1_report.csv")
    assert [int(r[0]) for r in rows] == [16, 32]


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"range": "16:32:dyadic"}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path),
               "lemma", "check", "--id", "1", "--range", "16:64:dyadic"])
    assert rc == 0
    _, rows = read_csv(tmp_path / "lemma1_report.csv")
    assert [int(r[0]) for r in rows] == [16, 32, 64]


def test_unknown_params_key_is_a_usage_error(tmp_path, capsys):
    # misspelt keys must not fall back to the defaults (threshold 10, tau 2)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"p": ["3/2"], "q": ["2"], "r": ["1"],
                                  "spread_treshold": 0.5, "tau_2": ["3"]}))
    rc = main(["--out", str(tmp_path), "theorem1", "rate", "--params", str(params),
               "--range", "6:9"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "theorem1-rate" in err and "spread_treshold" in err and "tau_2" in err
    assert not (tmp_path / "theorem1_rate.csv").exists()


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"range": "16:32:dyadic", "gamma_prime": ["1"]}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "cross", "gen",
               "--n", "2", "--gamma", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cross-gen" in err and "gamma_prime" in err and "range" in err


# -- approximation scan --------------------------------------------------------


def test_approx_scan_two_harmonics(tmp_path):
    """Errors drop exactly when the cross finally swallows each frequency."""
    f = SpectralFunction(1, {(3,): 1.0, (9,): 1.0})
    spectral_file = tmp_path / "f.json"
    spectral_file.write_text(json.dumps(f.to_json_dict()))
    rc = main(
        ["--out", str(tmp_path), "approx", "--spectral", str(spectral_file),
         "--gamma", "1", "--range", "1:5"]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "approx.csv")
    assert header == ["n", "error", "card"]
    table = {int(n): (float(err), int(card)) for n, err, card in rows}
    root2 = math.sqrt(2.0)
    for n, expected_err in [(1, root2), (2, root2), (3, 1.0), (4, 1.0), (5, 0.0)]:
        err, card = table[n]
        assert err == pytest.approx(expected_err, rel=1e-12, abs=1e-15)
        assert card == 2**n - 1


def test_approx_on_a_grid_measures_an_empty_residual_as_zero(tmp_path):
    # one uniform product block at level (1, 2); by n=4 the cross holds it
    f = SpectralFunction(2, {(k0, k1): 1.0 for k0 in (-1, 1) for k1 in (-3, 3)})
    spectral_file = tmp_path / "f.json"
    spectral_file.write_text(json.dumps(f.to_json_dict()))
    rc = main(
        ["--out", str(tmp_path), "approx", "--spectral", str(spectral_file),
         "--gamma", "1,1", "--range", "1:4", "--grid", "8,8", "--target-p", "2,2"]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "approx.csv")
    assert [float(r[1]) for r in rows] == pytest.approx([2.0, 2.0, 2.0, 0.0], rel=1e-12)
    assert float(rows[-1][1]) == 0.0


def test_approx_rejects_frequency_outside_range(tmp_path, capsys):
    spectral_file = tmp_path / "f.json"
    doc = {"m": 1, "terms": [{"k": [2**63], "re": 1.0}]}
    spectral_file.write_text(json.dumps(doc))
    rc = main(
        ["--out", str(tmp_path), "approx", "--spectral", str(spectral_file),
         "--gamma", "1", "--range", "1:3"]
    )
    assert rc == 2
    assert "|k_j| < 2**63" in capsys.readouterr().err


def _approx_on_terms(tmp_path, terms):
    """Run approx on a one-axis polynomial whose frequencies all lie outside the cross."""
    spectral_file = tmp_path / "f.json"
    spectral_file.write_text(json.dumps({"m": 1, "terms": terms}))
    return main(
        ["--out", str(tmp_path), "approx", "--spectral", str(spectral_file),
         "--gamma", "1", "--range", "1:2"]
    )


def test_approx_error_beyond_squared_float_range(tmp_path):
    # each square fits in a float, their sum does not; the error is the norm
    rc = _approx_on_terms(
        tmp_path, [{"k": [5], "re": 1e154}, {"k": [6], "re": 1e154}]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "approx.csv")
    assert [float(r[1]) for r in rows] == pytest.approx([math.sqrt(2.0) * 1e154] * 2)


def test_approx_error_of_a_term_whose_square_overflows(tmp_path):
    rc = _approx_on_terms(tmp_path, [{"k": [5], "re": 1e200}])
    assert rc == 0
    _, rows = read_csv(tmp_path / "approx.csv")
    assert [float(r[1]) for r in rows] == [1e200, 1e200]


def test_approx_rejects_duplicate_frequency(tmp_path, capsys):
    rc = _approx_on_terms(
        tmp_path, [{"k": [3], "re": 1.0}, {"k": [3], "re": 2.0}, {"k": [9], "re": 1.0}]
    )
    assert rc == 2
    assert "duplicate frequency [3]" in capsys.readouterr().err


def test_approx_rejects_non_finite_coefficient(tmp_path, capsys):
    rc = _approx_on_terms(tmp_path, [{"k": [5], "re": float("nan")}])
    assert rc == 2
    assert "coefficients must be finite" in capsys.readouterr().err


ONE_HARMONIC = {"m": 1, "terms": [{"k": [3], "re": 1.0}]}


@pytest.mark.parametrize("doc, config, flags, field", [
    ({"m": 1, "terms": [{"k": [2.7], "re": 1.0}]}, {}, [], "frequency component k"),
    ({"m": 1.5, "terms": [{"k": [2], "re": 1.0}]}, {}, [], "m"),
    ({"m": 1.5, "shape": [2], "re": [1.0, 1.0]}, {}, [], "m"),
    ({"m": 1, "shape": [8.9], "re": [1.0] * 8}, {}, [], "shape entry"),
    (ONE_HARMONIC, {"grid": [16.9]}, [], "grid"),
    (ONE_HARMONIC, {}, ["--grid", "16.5"], "grid"),
], ids=["polynomial-k", "polynomial-m", "grid-file-m", "grid-file-shape", "config-grid",
        "flag-grid"])
def test_integer_field_that_is_not_an_integer_is_a_usage_error(
    tmp_path, capsys, doc, config, flags, field
):
    # int() would read the frequency 2.7 as 2 and the shape 8.9 as 8
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    if "terms" in doc:
        argv = ["approx", "--spectral", str(data), "--gamma", "1", "--range", "1:3"]
    else:
        argv = ["norm", "--grid", str(data)]
    cfg = make_params_file(tmp_path, config)
    assert main(["--config", str(cfg), "--out", str(tmp_path)] + argv + flags) == 2
    captured = capsys.readouterr()
    assert f"error: {field} must be an integer" in captured.err and captured.out == ""
    assert_failed_manifest(tmp_path)


RATE_ARGV = ["theorem1", "rate", "--params"]
LEMMA_ARGV = ["lemma", "check", "--id", "1", "--params"]


@pytest.mark.parametrize("argv, doc, config, field", [
    (["norm", "--grid"], [1, 2], {}, "a grid function must be a JSON object"),
    (["norm", "--grid"], {"m": 1, "shape": 4, "re": [1.0] * 4}, {}, "shape"),
    (["approx", "--spectral"], {"m": 1, "terms": [1]}, {}, "each term must be an object"),
    (["approx", "--spectral"], {"m": 1, "terms": {"k": [1]}}, {}, "terms"),
    (["approx", "--spectral"], {"m": 1, "terms": [{"k": 1, "re": 1.0}]}, {},
     "each term must be an object with a list k"),
    (["approx", "--spectral"], {"m": 1, "terms": [{"k": [1], "re": 1.0, "im": None}]}, {},
     "term im"),
    (RATE_ARGV, {**RATE_1D, "out": 5}, {}, "out"),
    (RATE_ARGV, {**RATE_1D, "out": None}, {}, "out"),
    (LEMMA_ARGV, {}, {"out": 5}, "out"),
    (LEMMA_ARGV, {}, {"out": None}, "out"),
    (RATE_ARGV, {**RATE_1D, "fit_tolerance": None}, {}, "fit_tolerance"),
    (RATE_ARGV, {**RATE_1D, "spread_threshold": None}, {}, "spread_threshold"),
    (LEMMA_ARGV, {"spread_threshold": None}, {}, "spread_threshold"),
    (LEMMA_ARGV, {"lower_threshold": None}, {}, "lower_threshold"),
    (LEMMA_ARGV, {"spread_threshold": True}, {}, "spread_threshold"),
    (["approx", "--spectral"], {"m": 1, "terms": [{"k": [1], "re": True}]}, {}, "term re"),
    (["norm", "--grid"], {"m": 1, "shape": [4], "re": [True, 0, 0, 0]}, {}, "re"),
    (["norm", "--grid"], {"m": 1, "shape": [4], "re": [1, 0, 0, 0], "im": [False] * 4}, {},
     "im"),
], ids=["grid-list", "grid-shape", "term-number", "terms-object", "term-k", "term-im",
        "params-out-5", "params-out-null", "config-out-5", "config-out-null",
        "fit-tolerance-null", "rate-spread-null", "lemma-spread-null", "lemma-lower-null",
        "lemma-spread-true", "term-re-true", "grid-re-true", "grid-im-false"])
def test_field_of_the_wrong_json_type_is_a_usage_error(
    tmp_path, capsys, argv, doc, config, field
):
    # each once escaped as a TypeError, a fault with exit code 3
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    if argv[0] == "approx":
        argv = argv + [str(data), "--gamma", "1", "--range", "1:3"]
    else:
        argv = argv + [str(data)]
    cfg = make_params_file(tmp_path, config)
    assert main(["--config", str(cfg), "--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert f"error: {field}" in captured.err and captured.out == ""
    assert_failed_manifest(tmp_path)


def test_integer_fields_accept_integral_floats(tmp_path, capsys):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"m": 1.0, "terms": [{"k": [3.0], "re": 1.0}]}))
    cfg = make_params_file(tmp_path, {"grid": [16.0]})
    assert main(["--config", str(cfg), "--out", str(tmp_path), "approx", "--spectral",
                 str(poly), "--gamma", "1", "--range", "1:3"]) == 0
    assert [row[2] for row in read_csv(tmp_path / "approx.csv")[1]] == ["1", "3", "7"]
    grid = tmp_path / "g.json"
    grid.write_text(json.dumps({"m": 1.0, "shape": [8.0], "re": [1.0] * 8}))
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "norm", "--grid", str(grid)]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"


# -- extremal builder ----------------------------------------------------------


def make_params_file(tmp_path, doc):
    # text goes in as it is: json.dumps writes a number beyond the float
    # range as Infinity, not as the 1e400 a config file may hold
    p = tmp_path / "params.json"
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return p


def test_extremal_sidecar_contract(tmp_path):
    params = make_params_file(
        tmp_path,
        {"p": ["3/2", "3/2"], "q": ["2", "2"], "r": ["1", "1"],
         "thetas": ["inf", "inf"], "gamma_prime": ["1", "1"]},
    )
    rc = main(
        ["--out", str(tmp_path), "extremal", "--which", "2", "--n", "3",
         "--params", str(params)]
    )
    assert rc == 0
    sidecar = read_json(tmp_path / "extremal.sidecar.json")
    assert set(sidecar) == {"besov", "support_size"}
    assert sidecar["support_size"] == 8
    assert sidecar["besov"] > 0

    f = SpectralFunction.from_json_dict(read_json(tmp_path / "extremal.json"))
    assert f.m == 2 and f.n_terms == 8


def test_extremal_which_comes_from_params_unless_flagged(tmp_path):
    doc = {"p": ["3/2", "3/2"], "q": ["2", "2"], "r": ["1", "1"],
           "thetas": ["inf", "inf"], "gamma_prime": ["1", "1"], "which": 2}
    params = make_params_file(tmp_path, doc)
    assert main(["--out", str(tmp_path), "extremal", "--n", "4",
                 "--params", str(params)]) == 0
    assert read_json(tmp_path / "manifest.json")["summary"]["which"] == 2
    assert main(["--out", str(tmp_path), "extremal", "--n", "4", "--which", "3",
                 "--params", str(params)]) == 0
    assert read_json(tmp_path / "manifest.json")["summary"]["which"] == 3
    params.write_text(json.dumps({k: v for k, v in doc.items() if k != "which"}))
    assert main(["--out", str(tmp_path), "extremal", "--n", "4",
                 "--params", str(params)]) == 0
    assert read_json(tmp_path / "manifest.json")["summary"]["which"] == 1


# -- rate experiment -----------------------------------------------------------


@pytest.mark.parametrize("argv, doc, budget", [
    (["theorem1", "rate", "--range", "6:9"], RATE_1D, -5),
    (["theorem1", "rate", "--range", "6:9"],
     {**RATE_1D, "beta": ["1/2"], "tau2": ["3"]}, 0),
    (["extremal", "--n", "4"], RATE_1D, 0),
], ids=["rate-l2", "rate-lz", "extremal"])
def test_grid_budget_below_one_cell_is_a_usage_error(tmp_path, capsys, argv, doc, budget):
    # it would put every level on the triangle bound, or refuse a non-L2 residual
    params = make_params_file(tmp_path, {**doc, "max_grid_cells": budget})
    assert main(["--out", str(tmp_path)] + argv + ["--params", str(params)]) == 2
    assert "max_grid_cells" in capsys.readouterr().err
    assert_failed_manifest(tmp_path)


@pytest.mark.parametrize("argv, doc, key", [
    (["extremal", "--n", "3"], {**RATE_1D, "which": 2.5}, "which"),
    (["extremal", "--n", "3"], {**RATE_1D, "max_grid_cells": True}, "max_grid_cells"),
    (["lemma", "check", "--id", "1"], {"case": 2.5}, "case"),
], ids=["which", "max_grid_cells", "case"])
def test_integer_option_that_is_not_an_integer_is_a_usage_error(
    tmp_path, capsys, argv, doc, key
):
    # int() would truncate 2.5 to 2 and read true as a budget of one cell
    params = make_params_file(tmp_path, doc)
    assert main(["--out", str(tmp_path)] + argv + ["--params", str(params)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert_failed_manifest(tmp_path)


def test_integer_option_accepts_integral_floats(tmp_path):
    params = make_params_file(tmp_path, {**RATE_1D, "which": 2.0, "max_grid_cells": 1e6})
    argv = ["extremal", "--n", "3", "--params", str(params)]
    assert main(["--out", str(tmp_path)] + argv) == 0
    summary = read_json(tmp_path / "manifest.json")["summary"]
    assert summary["which"] == 2 and summary["besov_exact"] is True


def test_non_l2_rate_over_the_cell_budget_measures_no_level(
    tmp_path, capsys, monkeypatch
):
    # levels 4-6 fit 4096 cells and n=7 needs 16,384: the run must stop
    # before the first level is synthesized, not after three of them
    original = spectral.synthesize
    calls = []

    def counting(*args):
        calls.append(None)
        return original(*args)

    for module in (spectral, classes, experiments):
        for attr, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, attr, counting)
    params = make_params_file(
        tmp_path, {**read_json(BENCH / "params" / "rate-2d-lz.json"), "max_grid_cells": 4096}
    )
    argv = ["theorem1", "rate", "--params", str(params), "--range", "4:8"]
    assert main(["--out", str(tmp_path)] + argv) == 2
    err = capsys.readouterr().err
    assert "n=7" in err and "16384 cells" in err
    assert calls == []
    assert_failed_manifest(tmp_path)


def test_theorem1_rate_manifest_lists_each_level(tmp_path):
    params = make_params_file(tmp_path, {**RATE_1D, "max_grid_cells": 512})
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    # level n has 2**n terms in one block on a 2**(n+1) grid; 1024 cells
    # exceed the budget, so n=9 takes the triangle bound; a univariate f1 is
    # one uniform block, its own axis factor, so its plain L_p functional
    # takes the product route; the stage seconds are checked on their own
    stages = ("build_s", "normalize_s", "truncate_s")
    assert [{k: v for k, v in level.items() if k not in stages} for level in levels] == [
        {"n": n, "support_size": 2**n, "grid_cells": 2 ** (n + 1),
         "normalizer_exact": n < 9, "normalizer": "product" if n < 9 else "bound",
         "blocks": 1}
        for n in range(6, 10)
    ]
    assert read_json(tmp_path / "theorem1_rate.summary.json")["normalizer_exact"] is False


def test_theorem1_rate_manifest_marks_levels_without_the_symmetry(tmp_path):
    # axis 1 is not tied, so f1 holds it at the one harmonic k_2 = +1: f1 is
    # not sign-symmetric, and its functional samples the whole grid
    doc = {"p": ["3/2", "3/2"], "q": ["2", "2"], "r": ["1", "2"]}
    argv = ["theorem1", "rate", "--params", str(make_params_file(tmp_path, doc)),
            "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["normalizer"] for level in levels] == ["grid"] * 4


def count_rearrangements(monkeypatch) -> list:
    """A list that gains, per call of iterated_rearrangement, the power it
    was asked for."""
    original = norms.iterated_rearrangement
    signature = inspect.signature(original)
    calls = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["power"])
        return original(*args, **kwargs)

    for module in (norms, spectral, classes, experiments):
        for attr, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


def test_rate_levels_synthesize_each_grid_once(tmp_path, monkeypatch):
    # the class functional sums the product of f's 1-D axis factors; the
    # truncation error samples the residual, f itself, on the orthant of its
    # 2-D grid, drawn from the same kind of factors (the axis factors and
    # blocks are measured on 1-D axis grids); every synthesis, of a
    # polynomial or of a block list, enters through the one sampler
    shapes = []
    original = spectral._block_samples

    def counting(blocks, shape, factors):
        shapes.append(tuple(shape))
        return original(blocks, shape, factors)

    monkeypatch.setattr(spectral, "_block_samples", counting)
    params = BENCH / "params" / "rate-2d-lz.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert [s for s in shapes if len(s) == 2] == [(2 ** n,) * 2 for n in range(6, 10)]


def count_kernel_calls(monkeypatch) -> dict:
    """{name: [grid, ...]} that gains the grid of each call of the sampler
    _block_samples(blocks, shape, factors) and of the synthesis kernels
    _axis_factor(k, n) and _inverse_fft(spec), as its shape (n or
    spec.shape)."""
    calls = {}
    for name in ("_block_samples", "_axis_factor", "_inverse_fft"):
        original, calls[name] = getattr(spectral, name), []

        def counting(*args, seen=calls[name], original=original):
            seen.append(args[1] if len(args) > 1 else args[0].shape)
            return original(*args)

        monkeypatch.setattr(spectral, name, counting)
    return calls


def test_lorentz_zygmund_rate_levels_transform_no_bivariate_orthant(
    tmp_path, monkeypatch
):
    # f is a sum of uniform product blocks, so the orthant of its residual is
    # filled from its 1-D axis factors: the DCT-I only ever transforms those,
    # and no complex ifft runs, not even on one axis
    calls = count_kernel_calls(monkeypatch)
    params = BENCH / "params" / "rate-2d-lz.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert calls["_axis_factor"] and calls["_inverse_fft"] == []


def test_rate_manifest_times_the_stages_of_each_level(tmp_path):
    params = BENCH / "params" / "rate-2d-lz.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    tp = _theorem_params(read_json(params))
    # blocks counts the nonzero blocks of the level's polynomial
    assert [level["blocks"] for level in levels] == [
        len(block_rows(extremal_f1(n, tp))) for n in range(6, 10)
    ]
    for level in levels:
        for stage in ("build_s", "normalize_s", "truncate_s"):
            assert isinstance(level[stage], float) and level[stage] >= 0.0


def test_rate_levels_rearrange_each_grid_once(tmp_path, monkeypatch):
    # the source space is plain L_{3/2}, measured unsorted; only the
    # truncation error rearranges the samples of its residual, f itself,
    # raised in the walk to the target's first fine index tau_0 = 3
    calls = count_rearrangements(monkeypatch)
    params = BENCH / "params" / "rate-2d-lz.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert calls == [3.0] * 4


def test_lorentz_zygmund_rate_levels_take_the_product_route(tmp_path):
    # the route follows the source space, plain L_{3/2}, not the target
    params = BENCH / "params" / "rate-2d-lz.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["normalizer"] for level in levels] == ["product"] * 4


def test_plain_l2_rate_levels_synthesize_no_bivariate_grid(tmp_path, monkeypatch):
    # the residual is measured by Parseval and the class functional sums the
    # product of its 1-D axis factors: no grid is sampled, no complex ifft
    # runs, and the whole-function norm and the block norms share one
    # synthesis of each distinct (axis set, N_j) of the level; block (s, t)
    # shares its axis sets with block (t, s) on the square grid
    calls = count_kernel_calls(monkeypatch)
    params = BENCH / "params" / "rate-2d-l2.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    tp = _theorem_params(read_json(params))
    distinct = 0
    for n in range(6, 10):
        blocks = classes.extremal_blocks(n, tp, 1)
        shape = GridSpec.minimal_for(classes.level_bandwidth(blocks)).shape
        distinct += len({
            (k.tobytes(), size)
            for _, axis_sets in blocks.values()
            for k, size in zip(axis_sets, shape)
        })
    assert distinct == 5 + 6 + 7 + 8  # the axis sets of levels 1..n-1
    assert len(calls["_axis_factor"]) == distinct
    assert calls["_block_samples"] == calls["_inverse_fft"] == []
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["normalizer"] for level in levels] == ["product"] * 4


def count_symmetry_tests(monkeypatch) -> list:
    """A list that gains each polynomial whose sign symmetry is tested."""
    symmetric, tested = SpectralFunction.sign_symmetric.func, []

    def testing(f):
        tested.append(f)
        return symmetric(f)

    prop = functools.cached_property(testing)
    prop.__set_name__(SpectralFunction, "sign_symmetric")
    monkeypatch.setattr(SpectralFunction, "sign_symmetric", prop)
    return tested


def count_row_listings(monkeypatch) -> list:
    """A list that gains ("polynomial", rows) for each SpectralFunction
    built, and ("cartesian_rows", rows) for each product of axis values
    listed, wherever cartesian_rows is looked up."""
    listed = []
    init = SpectralFunction.__init__

    def building(self, *args, **kwargs):
        init(self, *args, **kwargs)
        listed.append(("polynomial", self.n_terms))

    monkeypatch.setattr(SpectralFunction, "__init__", building)
    original = indexsets.cartesian_rows

    def listing(axes):
        rows = original(axes)
        listed.append(("cartesian_rows", len(rows)))
        return rows

    for module in (indexsets, spectral, classes, experiments):
        for attr, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, attr, listing)
    return listed


@pytest.mark.parametrize("workload", ["rate-2d-l2", "rate-2d-lz"])
def test_rate_levels_test_sign_symmetry_once_and_synthesize_nothing(
    tmp_path, monkeypatch, workload
):
    # each level is evaluated from its block list: no frequency row is
    # listed, so no polynomial's sign symmetry is tested and nothing is
    # synthesized; the block norms synthesize each 1-D factor from its
    # axis set, and the support is counted from the blocks
    tested, listed, synthesized = (
        count_symmetry_tests(monkeypatch), count_row_listings(monkeypatch), []
    )
    synthesize = spectral.synthesize

    def synthesizing(*args):
        synthesized.append(args)
        return synthesize(*args)

    monkeypatch.setattr(spectral, "synthesize", synthesizing)
    params = BENCH / "params" / f"{workload}.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert tested == listed == synthesized == []
    tp = _theorem_params(read_json(params))
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["support_size"] for level in levels] == [
        sum(2 ** sum(s) for s in extremal_levels(n, tp, 1)) for n in range(6, 10)
    ]


def test_bound_levels_test_no_sign_symmetry(tmp_path, monkeypatch):
    # n=13 and 14 are above the cell budget: their normalizer is the triangle
    # bound, which needs no route; n=11 and 12 take the product route from
    # their blocks' axis factors, and no level lists a frequency row
    tested, listed = count_symmetry_tests(monkeypatch), count_row_listings(monkeypatch)
    params = BENCH / "params" / "rate-2d-l2.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "11:14"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert tested == listed == []
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["normalizer"] for level in levels] == ["product"] * 2 + ["bound"] * 2


# the route each option set gives every level of f1 at 5:8, from the
# bivariate plain-L2 parameters below, and the run's exit code: a source
# space that is not plain L_p, an axis held at k_2 = +1 (axis 1 is not
# tied, so f1 is not sign-symmetric), with a plain-L2 and a
# Lorentz-Zygmund target, and a cell budget below every level's grid; the
# "product" and "bound" runs fail a verdict over these four levels (exit 1)
ROUTE_OPTIONS = {
    "product": ({}, 1),
    "orthant": ({"tau1": ["2", "2"]}, 0),
    "grid-l2": ({"r": ["1", "2"]}, 0),
    "grid-lz": ({"r": ["1", "2"], "beta": ["1/2", "1/2"], "tau2": ["3", "3"]}, 0),
    "bound": ({"max_grid_cells": 512}, 1),
}


@pytest.mark.parametrize("route", list(ROUTE_OPTIONS))
def test_no_rate_route_builds_a_polynomial_or_lists_a_row(tmp_path, monkeypatch, route):
    # every level is evaluated from its block list, also on the "grid"
    # route, whose whole function and residual are sampled by one complex
    # inverse FFT of the spectrum filled block by block
    options, code = ROUTE_OPTIONS[route]
    doc = {"p": ["3/2", "3/2"], "q": ["2", "2"], "r": ["1", "1"], **options}
    params = make_params_file(tmp_path, doc)
    listed = count_row_listings(monkeypatch)
    argv = ["theorem1", "rate", "--params", str(params), "--range", "5:8"]
    assert main(["--out", str(tmp_path)] + argv) == code
    levels = read_json(tmp_path / "manifest.json")["stats"]["levels"]
    assert [level["normalizer"] for level in levels] == [route.split("-")[0]] * 4
    assert listed == []


def test_rate_level_whose_blocks_all_underflow_is_a_numerical_failure(tmp_path, capsys):
    # every block of f1 underflows to 0 from n=7 on: the level is refused,
    # naming n, before its zero class functional divides anything
    doc = {"p": ["3/2", "3/2"], "q": ["2", "2"], "r": ["165", "165"], "alpha": [21, 21]}
    params = make_params_file(tmp_path, doc)
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:12"]
    assert main(["--out", str(tmp_path)] + argv) == 4
    err = capsys.readouterr().err
    assert "n=7" in err and "underflows to 0" in err and "division" not in err
    assert_failed_manifest(tmp_path, code=4)
    assert "n=7" in read_json(tmp_path / "manifest.json")["message"]


def test_rate_experiment_keeps_no_grid_after_it_returns():
    # a level's samples and profile are freed with its polynomial, so after
    # the run less than one grid of the last level, n=9, is still allocated
    tp = _theorem_params(read_json(BENCH / "params" / "rate-2d-lz.json"))
    tracemalloc.start()
    try:
        result = experiments.theorem1_rate_experiment(tp, range(6, 10))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.points[-1].grid_cells == 512 * 512
    assert kept < 512 * 512 * 8


def test_plain_lebesgue_rate_levels_rearrange_nothing(tmp_path, monkeypatch):
    # plain L_{3/2} source, plain L2 target: every norm is a sum of powers
    calls = count_rearrangements(monkeypatch)
    params = BENCH / "params" / "rate-2d-l2.json"
    argv = ["theorem1", "rate", "--params", str(params), "--range", "6:9"]
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert calls == []


def test_trivariate_plain_l2_rate_pins_the_log_exponent():
    # the criterion-9 exponents on three axes: levels 4-9 fit the cell budget
    # and take the product route, 10-12 the triangle bound; the pinned log
    # exponent is near mu = 1 (the free slope, about 0.95 against
    # rho* = 5/6, is outside its 0.1 tolerance over this range)
    tp = _theorem_params({"p": ["3/2"] * 3, "q": ["2"] * 3, "r": ["1"] * 3})
    t0 = time.perf_counter()
    result = experiments.theorem1_rate_experiment(tp, range(4, 13))
    elapsed = time.perf_counter() - t0
    assert [pt.normalizer for pt in result.points] == ["product"] * 6 + ["bound"] * 3
    assert result.derived.mu == 1.0
    assert abs(result.fit_pinned.polylog - result.derived.mu) < 0.3
    assert elapsed < 60.0


def test_zero_denominator_in_params_is_a_usage_error(tmp_path, capsys):
    for key in ("r", "alpha"):
        doc = {"p": ["3/2"], "q": ["2"], "r": ["1"]}
        doc[key] = ["1/0"]
        params = make_params_file(tmp_path, doc)
        rc = main(["--out", str(tmp_path), "theorem1", "rate", "--params", str(params),
                   "--range", "6:7"])
        assert rc == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err


def test_theorem1_rate_with_fewer_than_four_levels_builds_nothing(
    tmp_path, capsys, monkeypatch
):
    calls, listed = [], count_row_listings(monkeypatch)
    for name in ("extremal_levels", "extremal_blocks"):
        original = getattr(experiments, name)

        def counting(n, tp, which, original=original):
            calls.append(n)
            return original(n, tp, which)

        monkeypatch.setattr(experiments, name, counting)
    params = make_params_file(tmp_path, {"p": ["3/2"], "q": ["2"], "r": ["1"]})
    rc = main(["--out", str(tmp_path), "theorem1", "rate", "--params", str(params),
               "--range", "10:12"])
    assert rc == 2
    assert "at least four points" in capsys.readouterr().err
    assert calls == listed == []


def test_theorem1_rate_derives_its_exponents_once(tmp_path, monkeypatch):
    # the range check, each level's block list and prefactor, and its
    # reference all read the exponents the run derived
    calls = []
    original = classes.derived_exponents

    def counting(tp):
        calls.append(tp)
        return original(tp)

    for module in (classes, experiments):
        monkeypatch.setattr(module, "derived_exponents", counting)
    params = BENCH / "params" / "rate-2d-l2.json"
    argv = ["--out", str(tmp_path), "theorem1", "rate", "--params", str(params)]
    assert main(argv + ["--range", "6:9"]) == 0
    assert len(calls) == 1


def test_theorem1_rate_univariate_defaults(tmp_path, capsys):
    params = make_params_file(tmp_path, {"p": ["3/2"], "q": ["2"], "r": ["1"]})
    rc = main(
        ["--out", str(tmp_path), "theorem1", "rate", "--params", str(params)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2

    summary = read_json(tmp_path / "theorem1_rate.summary.json")
    assert summary["rho_star"] == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert abs(summary["slope_free"] - 5.0 / 6.0) < 0.1
    assert summary["normalizer_exact"] is True

    header, rows = read_csv(tmp_path / "theorem1_rate.csv")
    assert header == ["n", "error", "reference"]
    assert [int(r[0]) for r in rows] == list(range(6, 17))


# -- stored reference outputs --------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["rate-1d", "rate-2d-l2", "rate-2d-lz"])
def test_bench_extremal_polynomials_are_sign_symmetric(workload):
    tp = _theorem_params(json.loads((BENCH / "params" / f"{workload}.json").read_text()))
    assert all(extremal_f1(n, tp).sign_symmetric for n in (6, 9))


def test_oversampling_moves_the_normalized_error_by_under_two_percent():
    # every norm is one of the sample step function, so a finer grid moves
    # it; at 4x the samples per axis the rate-2d-lz points move by -1.0..-1.5%
    tp = _theorem_params(json.loads((BENCH / "params" / "rate-2d-lz.json").read_text()))
    for n in (6, 7, 8):
        f = extremal_f1(n, tp)
        minimal = GridSpec.minimal_for(f.bandwidth()).shape
        ratios = []
        for factor in (1, 4):
            grid = GridSpec(tuple(factor * c for c in minimal))
            error = truncation_error(f, n, tp.gamma_prime, tp.target, grid)
            ratios.append(error / classes.besov_functional(f, tp.source, grid))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.02


# (reference, argv, the manifest's params echo); the lemma outputs must match
# byte for byte, the rate run, whose stored outputs differ in the last bits,
# to rel 1e-12
REFERENCE_RUNS = [
    ("rate-1d/theorem1",
     ["theorem1", "rate", "--params", str(BENCH / "params" / "rate-1d.json")], None),
    ("lemmas/lemma1-1", ["lemma", "check", "--id", "1", "--case", "1"],
     {"id": 1, "case": 1, "alpha": 0.25, "beta": 0.25}),
    ("lemmas/lemma1-2", ["lemma", "check", "--id", "1", "--case", "2"],
     {"id": 1, "case": 2, "alpha": 1.0, "beta": 1.0}),
    ("lemmas/lemma1-3", ["lemma", "check", "--id", "1", "--case", "3"],
     {"id": 1, "case": 3, "alpha": 1.0, "beta": 0.5}),
    ("lemmas/lemma2-decay", ["lemma", "check", "--id", "2", "--case", "decay"],
     {"id": 2, "case": "decay", "beta": 1.0, "theta": 1.0, "lam1": -0.5, "lam2": 2.0}),
    ("lemmas/lemma2-growth", ["lemma", "check", "--id", "2", "--case", "growth"],
     {"id": 2, "case": "growth", "beta": 1.0, "theta": 2.0, "lam1": 1.0, "lam2": -1.0}),
    ("lemmas/lemma3", ["lemma", "check", "--id", "3"],
     {"id": 3, "gamma": ["1", "1"], "gamma_prime": ["1", "1"], "lams": [0.0, 0.0],
      "thetas": [2.0, 2.0], "alpha": 1.0}),
    ("lemmas/lemma4", ["lemma", "check", "--id", "4"],
     {"id": 4, "gamma": ["1", "1"], "lams": [0.0, 0.0], "epsilons": [1.0, 1.0],
      "alpha": 1.0}),
]


def assert_close(got, want, where):
    if isinstance(want, float) or isinstance(got, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def parse_output(path):
    if path.suffix == ".json":
        return read_json(path)
    header, rows = read_csv(path)
    return [header] + [[float(c) for c in row] for row in rows]


# levels compared: rate-2d-l2's stored run goes to 14, too slow for every run;
# rate-2d-lz's whole stored range
BIVARIATE_RANGES = {"rate-2d-l2": "6:10", "rate-2d-lz": "6:12"}


@pytest.mark.parametrize("name", sorted(BIVARIATE_RANGES))
def test_bivariate_rate_rows_match_stored_references(tmp_path, name):
    params = BENCH / "params" / f"{name}.json"
    levels = BIVARIATE_RANGES[name]
    argv = ["theorem1", "rate", "--params", str(params), "--range", levels]
    assert main(["--out", str(tmp_path)] + argv) == 0
    ref_dir = BENCH / "reference" / name / "theorem1"
    got = parse_output(tmp_path / "theorem1_rate.csv")
    want = parse_output(ref_dir / "theorem1_rate.csv")
    assert_close(got, want[: len(parse_range(levels)) + 1], name)
    if len(got) == len(want):  # the whole stored range, so the summary too
        summary = "theorem1_rate.summary.json"
        assert_close(read_json(tmp_path / summary), read_json(ref_dir / summary), summary)


@pytest.mark.parametrize(
    "ref, argv, params", REFERENCE_RUNS, ids=[r for r, *_ in REFERENCE_RUNS]
)
def test_outputs_match_stored_references(tmp_path, ref, argv, params):
    assert main(["--out", str(tmp_path)] + argv) == 0
    ref_dir = BENCH / "reference" / ref
    names = sorted(p.name for p in ref_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["manifest.json"])
    for name in names:
        if params is None:
            assert_close(parse_output(tmp_path / name), parse_output(ref_dir / name), name)
        else:
            assert (tmp_path / name).read_bytes() == (ref_dir / name).read_bytes(), name
    if params is not None:
        assert read_json(tmp_path / "manifest.json")["summary"]["params"] == params


@pytest.mark.parametrize("lemma_id, case, name", [
    ("1", "1", "lemma1_sum"), ("1", "3", "lemma1_interior_sum"), ("3", None, "lemma3_lhs"),
])
def test_lemma_check_calls_each_sum_by_its_module_name(tmp_path, monkeypatch, lemma_id,
                                                       case, name):
    # per-layer tracing replaces the sums bound in lzcross.cli, so lemma check
    # must look them up there at every call rather than hold the functions
    calls = []
    inner = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a[0]) or inner(*a, **k))
    argv = ["--out", str(tmp_path), "lemma", "check", "--id", lemma_id, "--range", "4:6"]
    assert main(argv + (["--case", case] if case else [])) == 0
    assert calls == [4, 5, 6]
