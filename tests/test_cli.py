import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupanon import cli, db2_filter, load_microfile, microdata, write_microfile
from groupanon.cli import (
    EXIT_ERROR,
    EXIT_INVARIANT,
    EXIT_OK,
    load_config,
    main,
    run_anonymize,
    run_inspect,
    run_verify,
)
from groupanon.errors import ConfigError, PlanError
from groupanon.microdata import Microfile

import adversary
import reference as ref
from conftest import Digest, flip_byte, write_distinct_lines_file
from reference import build_reconstruction_matrix


def write_small_input(path, counts, per_group=1000):
    rows = []
    for i, count in enumerate(counts):
        region = f"R{i + 1}"
        for j in range(per_group):
            job = ("X", "Y")[j % 2] if j < count else ("Z", "W")[j % 2]
            rows.append((region, job, ("1", "2")[j % 2]))
    write_microfile(Microfile.from_rows(["REG", "JOB", "SEX"], rows), path)
    return [f"R{i + 1}" for i in range(len(counts))]


def write_config(path, input_path, regions, plan, **overrides):
    base = path.parent
    config = {
        "input": str(input_path),
        "output": str(base / "out.csv"),
        "report": str(base / "report.json"),
        "plot_data": str(base / "plot.tsv"),
        "seed": 1,
        "attributes": {
            "vital": ["JOB"],
            "vital_combinations": [["X"], ["Y"]],
            "parameter": "REG",
            "parameter_values": regions,
            "fallback": "Z",
        },
        "wavelet": {"name": "db2", "level": 1, "extension": "left"},
        "plan": plan,
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=2))
    return path


def inspect_text(config) -> str:
    """What ``inspect`` writes for ``config``."""
    out = io.StringIO()
    run_inspect(config, out)
    return out.getvalue()


SEVEN_COUNTS = [200, 300, 100, 400, 200, 300, 200]
NONIDENTITY_PLAN = {"strategy": "manual", "free_values": {"3": 0.1}, "floor": 2.0}
IDENTITY_PLAN = {"strategy": "manual", "fixed_indices": [1, 2, 3, 4], "floor": None}


@pytest.fixture
def small_run(tmp_path):
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, SEVEN_COUNTS)
    config_path = write_config(tmp_path / "config.json", input_path, regions, NONIDENTITY_PLAN)
    return tmp_path, config_path


# ---------------------------------------------------------------- config

def test_config_parsing(small_run):
    _, config_path = small_run
    config = load_config(config_path)
    assert config.wavelet == "db2" and config.level == 1 and config.extension == "left"
    assert config.plan.free_values == {3: 0.1}
    assert config.spec.fallback_combination == ("Z",)


def test_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="not found"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"input": "x.csv", "attributes": {}, "typo": 1}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(unknown)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"input": "x.csv"}))
    with pytest.raises(ConfigError, match="missing required key"):
        load_config(incomplete)
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([{"input": "x.csv"}]))
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        load_config(listed)


@pytest.mark.parametrize("section, key, value, name", [
    ("plan", "targets", [[1]], "plan.targets"),
    (None, "seed", "abc", "seed"),
    ("wavelet", "level", "x", "wavelet.level"),
    ("plan", "fixed_indices", ["a"], "plan.fixed_indices"),
    ("plan", "floor", "low", "plan.floor"),
    ("attributes", "vital", 5, "attributes.vital"),
    ("attributes", "parameter_values", 7, "attributes.parameter_values"),
    # A bare string where a list of strings belongs is not split into characters.
    ("attributes", "vital", "JOB", "attributes.vital"),
    ("attributes", "parameter_values", "R1", "attributes.parameter_values"),
    (None, "delimiter", 5, "delimiter"),
    # Numeric keys take only the JSON number type they need, never true or false.
    ("wavelet", "level", 1.7, "wavelet.level"),
    ("wavelet", "level", True, "wavelet.level"),
    (None, "seed", True, "seed"),
    (None, "seed", 1.0, "seed"),
    ("plan", "floor", "2", "plan.floor"),
    ("plan", "floor", True, "plan.floor"),
    ("plan", "fixed_indices", [1.5], "plan.fixed_indices"),
    ("plan", "fixed_indices", [False], "plan.fixed_indices"),
    ("plan", "targets", [[1.0, 0.5]], "plan.targets"),
    ("plan", "targets", [[1, "0.5"]], "plan.targets"),
    ("plan", "free_values", {"3": "0.1"}, "plan.free_values"),
    ("plan", "free_values", {"3": True}, "plan.free_values"),
    # Values the dataclasses reject, alone or with another key, name the key too.
    ("wavelet", "level", 0, "wavelet.level"),
    ("plan", "floor", -1, "plan.floor"),
    ("attributes", "parameter", "JOB", "attributes.parameter"),
    ("attributes", "fallback", "X", "attributes.fallback"),
    ("attributes", "vital", [], "attributes.vital"),
    ("attributes", "vital_combinations", [["X"], ["X"]], "attributes.vital_combinations"),
    ("attributes", "parameter_values", [], "attributes.parameter_values"),
    ("attributes", "fallback", ["Z", "1"], "attributes.fallback"),  # two values for one vital attribute
    # The only rule name is "group_total"; any other string names the key.
    ("attributes", "denominator", "bogus", "attributes.denominator"),
    (None, "input", "", "input"),
    (None, "plan", 5, "plan"),
    # Checked against the known filter names before the input is loaded.
    ("wavelet", "name", "db3", "wavelet.name"),
    # int() reads each of these keys as 3: one of the two values would be dropped.
    ("plan", "free_values", {"3": -2.0, "03": 7.0}, "plan.free_values"),
    ("plan", "free_values", {"3": -2.0, " 3": 7.0}, "plan.free_values"),
    ("plan", "free_values", {"3": -2.0, "+3": 7.0}, "plan.free_values"),
    # A rewrite moves records into and out of a denominator filter on a vital attribute.
    ("attributes", "denominator", {"attribute": "JOB", "values": ["X", "Y", "W"]}, "attributes.denominator"),
    # A plan error that spans two keys names the one the strategy does not take.
    ("plan", "targets", [[1, 0.5]], "plan.targets"),
    ("plan", "strategy", "alleged_extrema", "plan.free_values"),
])
def test_malformed_config_value_names_key(small_run, capsys, section, key, value, name):
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    (config[section] if section else config)[key] = value
    config_path.write_text(json.dumps(config))
    # The config cannot be read, so the report path comes from the flag.
    report_path = tmp_path / "error.json"
    assert main(["anonymize", "--config", str(config_path), "--report", str(report_path)]) == EXIT_ERROR
    assert repr(name) in capsys.readouterr().err
    error = json.loads(report_path.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert repr(name) in error["message"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("section, key, value, allowed", [
    ("plan", "strategy", "bogus", "['manual', 'alleged_extrema', 'extremum_transition']"),
    ("wavelet", "extension", "up", "['left', 'right']"),
])
def test_value_outside_choices_names_key(small_run, capsys, section, key, value, allowed):
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    config[section][key] = value
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "error.json"
    assert main(["anonymize", "--config", str(config_path), "--report", str(report_path)]) == EXIT_ERROR
    message = (f"config key '{section}.{key}' has a malformed value: {value!r} "
               f"(expected one of {allowed})")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(report_path.read_text())["error"]["message"] == message
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("data, message", [
    (b"{not json", "config is not valid JSON: "),
    (b'{"input": "\xff.csv"}', "config {path} is not UTF-8 text: "),
], ids=["not_json", "not_utf8"])
def test_unreadable_config_fails_with_an_error_report(tmp_path, capsys, data, message):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(data)
    report_path = tmp_path / "error.json"
    assert main(["anonymize", "--config", str(config_path), "--report", str(report_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=config_path)) and err.count("\n") == 1
    assert json.loads(report_path.read_text())["error"] == {"type": "ConfigError", "message": err[7:-1]}


# Python's json reads NaN, Infinity and integers of any size.
@pytest.mark.parametrize("plan, key", [
    ({"strategy": "alleged_extrema", "targets": [[2, math.nan]]}, "plan.targets"),
    ({"strategy": "manual", "free_values": {"3": math.nan}}, "plan.free_values"),
    ({"strategy": "manual", "free_values": {"3": 10**400}}, "plan.free_values"),
    ({"strategy": "manual", "free_values": {"3": 0.1}, "floor": math.inf}, "plan.floor"),
], ids=["nan_target", "nan_free_value", "huge_free_value", "infinite_floor"])
def test_non_finite_number_names_key(small_run, capsys, plan, key):
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    config["plan"] = plan
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "error.json"
    assert main(["anonymize", "--config", str(config_path), "--report", str(report_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} has a malformed value: ") and err.endswith(" (must be finite)\n")
    assert json.loads(report_path.read_text())["error"] == {"type": "ConfigError", "message": err[7:-1]}
    assert not (tmp_path / "out.csv").exists()


def test_numeric_keys_take_integers_for_floats(small_run):
    # A JSON integer is a number too: floor 2 and free value 0 load as floats.
    _, config_path = small_run
    config = json.loads(config_path.read_text())
    config["plan"].update(floor=2, free_values={"3": 0})
    config_path.write_text(json.dumps(config))
    plan = load_config(config_path).plan
    assert plan.floor == 2.0 and plan.free_values == {3: 0.0}
    assert isinstance(plan.floor, float) and isinstance(plan.free_values[3], float)


@pytest.mark.parametrize("combinations", [[["X", "X"]], [["X", "X"], ["Y", "Y"]]])
def test_a_vital_attribute_named_twice_is_rejected(small_run, capsys, combinations):
    # Named twice, one attribute's cell would have to equal both values of a
    # combination, and a rewrite would write it twice: the run would fail
    # late, or write a release whose grown records match no combination.
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    config["attributes"].update(vital=["JOB", "JOB"], vital_combinations=combinations, fallback=["Z", "Z"])
    config_path.write_text(json.dumps(config))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    message = ("config key 'attributes.vital' has a malformed value: ['JOB', 'JOB'] "
               "(vital attributes must be distinct)")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("path", [
    ("sede",),
    ("attributes", "fallbak"),
    ("attributes", "denominator", "valeus"),
    ("wavelet", "levle"),
    ("plan", "flor"),
], ids=".".join)
def test_misspelled_config_key_names_object_and_key(small_run, capsys, path):
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    config["attributes"]["denominator"] = {"attribute": "SEX", "values": ["1", "2"]}
    obj = config
    for part in path[:-1]:
        obj = obj[part]
    obj[path[-1]] = 1
    config_path.write_text(json.dumps(config))
    name = ".".join(path)
    report_path = tmp_path / "error.json"
    assert main(["anonymize", "--config", str(config_path), "--report", str(report_path)]) == EXIT_ERROR
    assert repr(name) in capsys.readouterr().err
    error = json.loads(report_path.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert f"unknown config keys: [{name!r}]" == error["message"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("old, new, key", [
    ('"seed": 1,', '"seed": 99, "seed": 1,', "seed"),
    ('"3": 0.1', '"3": 7.0, "3": 0.1', "3"),
], ids=["top_level", "free_values"])
def test_repeated_config_key_is_an_error(small_run, capsys, old, new, key):
    # json keeps the last of two equal keys; the run would use one of two values unsaid.
    tmp_path, config_path = small_run
    text = config_path.read_text()
    assert text.count(old) == 1
    config_path.write_text(text.replace(old, new))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: config repeats key {key!r} in one object\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["anonymize"],
    ["anonymize", "--config", "{config}", "--bogus"],
    ["anonymize", "--config", "{config}", "--seed", "abc"],
    ["inspect", "--config", "{config}", "--output", "x.csv"],
    ["verify", "--config", "{config}", "--seed", "3"],
], ids=["no_config", "unknown_flag", "seed_not_a_number", "inspect_output", "verify_seed"])
def test_usage_error_exits_1(small_run, capsys, argv):
    # Exit 2 means that a run's invariant failed; a command line argparse
    # refuses is a hard error, with argparse's usage message on stderr.
    tmp_path, config_path = small_run
    assert main([arg.format(config=config_path) for arg in argv]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: groupanon ") and "error:" in captured.err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, flags", [
    ("anonymize", {"--config", "--seed", "--output", "--report"}),
    ("inspect", {"--config"}),
    ("verify", {"--config", "--output", "--report"}),
])
def test_each_command_takes_only_the_flags_it_reads(capsys, command, flags):
    assert main([command, "--help"]) == EXIT_OK
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == flags | {"--help"}


def test_readme_config_loads(tmp_path):
    # The complete configuration in the README goes through the key tables.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("A complete configuration:\n\n```json\n", 1)[1].split("```", 1)[0]
    config_path = tmp_path / "config.json"
    config_path.write_text(block)
    data = json.loads(block)
    config = load_config(config_path)
    assert config.input == Path(data["input"]) and config.plot_data == Path(data["plot_data"])
    assert config.spec.parameter_values == tuple(data["attributes"]["parameter_values"])
    assert config.spec.fallback_combination == ("999",)
    assert config.plan.free_values == {3: -2.0, 4: 0.0, 5: 1.0, 6: -5.0}


# ---------------------------------------------------------------- anonymize

def test_anonymize_small_file(small_run):
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"
    assert all(
        report["checks"][key]["passed"]
        for key in ("mean_preserved", "details_proportional", "positivity",
                    "border_equality", "released_counts_match", "denominators_unchanged")
    )
    assert report["counts"]["new"] == [245, 255, 218, 240, 237, 260, 245]
    plot_lines = (tmp_path / "plot.tsv").read_text().splitlines()
    assert plot_lines[0] == "index\tbefore\tafter"
    assert len(plot_lines) == 8


def test_anonymize_identity_plan_byte_identical(tmp_path):
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, SEVEN_COUNTS)
    config_path = write_config(tmp_path / "config.json", input_path, regions, IDENTITY_PLAN)
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == input_path.read_bytes()


def test_anonymize_deterministic_outputs(small_run, tmp_path):
    _, config_path = small_run
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["anonymize", "--config", str(config_path), "--output", str(first)]) == EXIT_OK
    assert main(["anonymize", "--config", str(config_path), "--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_anonymize_seed_changes_rows_not_counts(small_run, tmp_path):
    _, config_path = small_run
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["anonymize", "--config", str(config_path),
                 "--seed", "5", "--output", str(one)]) == EXIT_OK
    assert main(["anonymize", "--config", str(config_path),
                 "--seed", "6", "--output", str(two)]) == EXIT_OK
    assert one.read_bytes() != two.read_bytes()
    from groupanon import concentration_signal
    from groupanon.cli import load_config

    spec = load_config(config_path).spec
    counts_one = concentration_signal(load_microfile(one), spec).numerators
    counts_two = concentration_signal(load_microfile(two), spec).numerators
    np.testing.assert_array_equal(counts_one, counts_two)


@pytest.mark.parametrize("key, value, name", [
    ("parameter", "REGION", "REGION"),
    ("vital", ["JOBS"], "JOBS"),
    ("denominator", {"attribute": "GENDER", "values": ["1"]}, "GENDER"),
], ids=["parameter", "vital", "denominator"])
def test_anonymize_unknown_attribute(small_run, capsys, key, value, name):
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    config["attributes"][key] = value
    config_path.write_text(json.dumps(config))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    message = f"unknown attribute {name!r}"
    assert message in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "error"
    assert message in report["error"]["message"]
    assert not (tmp_path / "out.csv").exists()


def test_anonymize_ratio_above_one_names_group(tmp_path, capsys):
    # Group A has 3 vital records but only 2 records pass the denominator
    # filter (SEX == 1), so its ratio would be 1.5.
    input_path = tmp_path / "input.csv"
    rows = [("A", "X", "1"), ("A", "Y", "1"), ("A", "X", "2"), ("A", "Z", "2"),
            ("B", "X", "1"), ("B", "Z", "1"), ("B", "W", "2"),
            ("C", "Y", "1"), ("C", "Z", "1"), ("C", "W", "2")]
    write_microfile(Microfile.from_rows(["REG", "JOB", "SEX"], rows), input_path)
    config_path = write_config(tmp_path / "config.json", input_path, ["A", "B", "C"], NONIDENTITY_PLAN)
    config = json.loads(config_path.read_text())
    config["attributes"]["denominator"] = {"attribute": "SEX", "values": ["1"]}
    config_path.write_text(json.dumps(config))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    assert "'A' has 3 vital records but a denominator of 2" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error"]["type"] == "MicrofileError"
    assert "'A' has 3 vital records but a denominator of 2" in report["error"]["message"]
    assert not (tmp_path / "out.csv").exists()


def _anonymize_fails_before_output(tmp_path, capsys, counts, wavelet, free_values, message):
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, counts, per_group=2)
    plan = {"strategy": "manual", "free_values": free_values, "floor": 2.0}
    config_path = write_config(
        tmp_path / "config.json", input_path, regions, plan,
        wavelet={"name": wavelet, "level": 1, "extension": "left"},
    )
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    assert message in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error"]["type"] == "RewriteError"
    assert message in report["error"]["message"]
    assert not (tmp_path / "out.csv").exists()


def test_anonymize_count_rounded_to_zero_fails_before_output(tmp_path, capsys):
    # Four groups of two records, one vital each: the final ratios
    # [0.757, 0.243, 0.243, 0.757] round to counts [2, 0, 0, 2], which
    # would leave groups R2 and R3 without a vital record.
    _anonymize_fails_before_output(
        tmp_path, capsys, [1, 1, 1, 1], "haar", {"1": 3.0, "2": -3.0},
        "'R2': new vital count 0 is below 1 (capacity 2)",
    )


def test_anonymize_too_few_donors_fails_before_output(tmp_path, capsys):
    # Final ratios [0.43, 1.0, 1.267, 0.804] ask for 3 vital records in
    # group R3, which has only 2 records.
    _anonymize_fails_before_output(
        tmp_path, capsys, [1, 2, 2, 2], "db2", {"1": -3.0, "2": 1.0},
        "'R3': need 1 donor records, only 0 available (new vital count 3, capacity 2)",
    )


def test_reports_carry_timings_and_sizes(small_run):
    _, config_path = small_run
    config = load_config(config_path)
    status, report = run_anonymize(config)
    assert status == EXIT_OK
    assert set(report["timings"]) == {
        "load", "signal", "redistribute", "quantities", "rewrite", "write", "recount", "report"
    }
    sizes = report["sizes"]
    assert set(sizes) == {"records", "categories", "extended_length", "level", "records_changed"}
    assert sizes["records"] == 7000 and sizes["categories"] == 7
    assert sizes["records_changed"] == sum(
        abs(a - b) for a, b in zip(report["counts"]["old"], report["counts"]["new"])
    )
    status, checked = run_verify(config)
    assert status == EXIT_OK
    assert set(checked["timings"]) == {"load", "signal", "outcome", "compare"}
    # verify parses only the records whose bytes the rewrite changed.
    assert checked["sizes"] == {**sizes, "records_reparsed": sizes["records_changed"]}


def test_anonymize_even_length_rejects_unknown_extension(tmp_path):
    # Even-length signals skip the direction check of ExtensionMeta, so the
    # config check is the only one that sees this value.
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, [100, 200, 300, 100, 200, 300, 100, 200])
    config_path = write_config(
        tmp_path / "config.json", input_path, regions, IDENTITY_PLAN,
        wavelet={"name": "db2", "level": 1, "extension": "up"},
    )
    report_path = tmp_path / "error.json"
    assert main(["anonymize", "--config", str(config_path), "--report", str(report_path)]) == EXIT_ERROR
    error = json.loads(report_path.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert "'up'" in error["message"]
    assert not (tmp_path / "out.csv").exists()


def test_anonymize_requires_output(small_run):
    _, config_path = small_run
    config = load_config(config_path)
    config.output = None
    with pytest.raises(ConfigError, match="output"):
        run_anonymize(config)


def test_verify_requires_output(small_run):
    _, config_path = small_run
    config = load_config(config_path)
    config.output = None
    with pytest.raises(ConfigError, match="^verify needs an output path"):
        run_verify(config)


@pytest.mark.parametrize("edit, delimiter, message", [
    (lambda text: text.replace("\nR1,X,1\n", '\nR1,X"q",1\n', 1), ",",
     "line 2 has a quote inside an unquoted field"),
    (lambda text: text.replace("\nR1,X,1\n", '\nR1,"X"q,1\n', 1), ",",
     "line 2 has text after a closing quote"),
    (lambda text: text + 'R1,"Z,1\n', ",", "line 7002 has an unterminated quote"),
    (lambda text: text.replace(",", "é"), "é",
     "delimiter must be one ASCII character other than a quote or line break, got 'é'"),
], ids=["quote_in_unquoted_field", "text_after_closing_quote", "unterminated_quote", "non_ascii_delimiter"])
def test_anonymize_of_malformed_text_fails_before_output(small_run, capsys, edit, delimiter, message):
    tmp_path, config_path = small_run
    input_path = tmp_path / "input.csv"
    input_path.write_text(edit(input_path.read_text()))
    config = json.loads(config_path.read_text())
    config["delimiter"] = delimiter
    config_path.write_text(json.dumps(config))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    error = json.loads((tmp_path / "report.json").read_text())["error"]
    assert error == {"type": "MicrofileError", "message": message}
    assert not (tmp_path / "out.csv").exists()


def write_census_config(tmp_path, census_file, **overrides):
    from groupanon.fixture import REGION_CODES

    config_path = tmp_path / "config.json"
    config = {
        "input": str(census_file),
        "output": str(tmp_path / "anon.csv"),
        "report": str(tmp_path / "report.json"),
        "plot_data": str(tmp_path / "plot.tsv"),
        "seed": 42,
        "attributes": {
            "vital": ["OCC"],
            "vital_combinations": [["211"], ["311"]],
            "parameter": "REGNUK",
            "parameter_values": list(REGION_CODES),
            "denominator": "group_total",
            "fallback": "999",
        },
        "wavelet": {"name": "db2", "level": 1, "extension": "left"},
        "plan": {
            "strategy": "manual",
            "free_values": {"3": -2.0, "4": 0.0, "5": 1.0, "6": -5.0},
            "floor": 2.0,
        },
    }
    config.update(overrides)
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def test_anonymize_census_golden(census_file, tmp_path):
    # Full pipeline on the synthetic census extract: the report must carry
    # the golden shift/scale/counts and flag the decoy maxima.
    config_path = write_census_config(tmp_path, census_file)
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["counts"]["new"] == ref.FINAL_COUNTS.tolist()
    assert abs(report["redistribution"]["scale"] - ref.SCALE) < 1e-4
    assert abs(report["redistribution"]["shift"] - ref.SHIFT) < 1e-3
    assert report["redistribution"]["fixed_indices"] == [1, 2, 7]
    # Extended positions 9 and 13 (regions 40 and 70) carry the new maxima;
    # the original single peak is no longer identifiable.
    assert report["redistribution"]["extrema_after"]["maxima"] == [9, 13]
    assert abs(report["counts"]["achieved_mean"] - ref.FINAL_COUNTS_MEAN) < 0.05
    assert main(["verify", "--config", str(config_path)]) == EXIT_OK


@pytest.mark.parametrize("seed, digest", [
    (1, "410753788014fb2047624cfb5a362a9d655ed923a60acdb629173509bc918d78"),
    (42, "f36165818481fd8f1a573843c8f5a3c6dc4e7ed7b9d1efb88400909b00110ddb"),
])
def test_census_release_is_pinned(census_file, tmp_path, seed, digest):
    # The default release is fixed for a given config and seed, byte for
    # byte: a change to the record layer that alters one byte of it fails here.
    config_path = write_census_config(tmp_path, census_file, seed=seed)
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "anon.csv").read_bytes()).hexdigest() == digest


def write_distinct_lines_config(tmp_path, seed=42):
    """The distinct-lines input (see ``write_distinct_lines_file``) with a long-domain task: 4,000 categories, two decoy targets at level 2."""
    path = write_distinct_lines_file(tmp_path / "distinct.csv")
    return write_census_config(
        tmp_path, path, seed=seed,
        attributes={"vital": ["JOB"], "vital_combinations": [["V"]], "parameter": "CAT",
                    "parameter_values": [f"C{c:04d}" for c in range(1, 4_001)], "fallback": "N"},
        wavelet={"name": "db2", "level": 2, "extension": "left"},
        plan={"strategy": "alleged_extrema", "targets": [[1_000, 0.3], [3_000, 0.3]], "floor": 2.0},
    )


@pytest.mark.parametrize("seed, digest", [
    (1, "abca40d8292c98e9420d4a3f46a15096cc2374b3a69ee818d832eb21c6920d9c"),
    (42, "0e57c24ce3289e38ff500b904638985bcb361308b1c9c7fb023e5eceeae02e95"),
])
def test_distinct_lines_release_is_pinned(tmp_path, seed, digest):
    # Most lines of this input differ, so its load looks each column's fields
    # up in a table of their own, as domain-8191's does; the census release
    # pins the table of whole lines.
    config_path = write_distinct_lines_config(tmp_path, seed)
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "anon.csv").read_bytes()).hexdigest() == digest
    status, checked = run_verify(load_config(config_path))
    assert status == EXIT_OK
    assert 0 < checked["sizes"]["records_reparsed"] == checked["sizes"]["records_changed"]


def write_long_domain_config(tmp_path):
    """Shaped like the long-domain benchmark input, smaller: 2,000 categories of 2 to 5 records, one spike, and five decoy targets solved at level 2."""
    rng = random.Random(2_000)
    lines = []
    for c in range(2_000):
        size = rng.randint(2, 5)
        share = 0.9 if c == 1_333 else 0.25 + 0.1 * math.sin(6 * math.pi * c / 2_000)
        vital = max(1, round(share * size))
        lines += [f"C{c + 1:04d},V,{rng.choice('12')}\n" for _ in range(vital)]
        lines += [f"C{c + 1:04d},{'NMK'[j % 3]},{rng.choice('12')}\n" for j in range(size - vital)]
    rng.shuffle(lines)
    (tmp_path / "long.csv").write_text("CAT,JOB,SEX\n" + "".join(lines), encoding="utf-8")
    return write_census_config(
        tmp_path, tmp_path / "long.csv", seed=1,
        attributes={"vital": ["JOB"], "vital_combinations": [["V"]], "parameter": "CAT",
                    "parameter_values": [f"C{c:04d}" for c in range(1, 2_001)], "fallback": "N"},
        wavelet={"name": "db2", "level": 2, "extension": "left"},
        plan={"strategy": "alleged_extrema", "targets": [[100 + 400 * j, 0.9] for j in range(5)], "floor": 2.0},
    )


def write_small_census_config(tmp_path):
    """Shaped like the census fixture, smaller: its 13 regions with a two-hundredth of their records, runs of repeated lines, and its golden plan."""
    from groupanon.fixture import (EMPLOYED, FILLER_OCCUPATIONS, REGION_CODES, SCIENCE_OCCUPATIONS, SCIENTISTS,
                                   _periodic)

    path = tmp_path / "census.csv"
    path.write_text("REGNUK,OCC,SEX\n" + "".join(
        _periodic(region, SCIENCE_OCCUPATIONS, scientists // 200)
        + _periodic(region, FILLER_OCCUPATIONS, (employed - scientists) // 200)
        for region, employed, scientists in zip(REGION_CODES, EMPLOYED, SCIENTISTS)), encoding="utf-8")
    return write_census_config(tmp_path, path)


def _edited_at_block_edges(data, block, vital, other):
    """``data`` with, at each edge between blocks of ``block`` records, the vital cell of the record before it swapped (``vital`` for ``other`` and back) and the third cell of the record after it lengthened."""
    lines = data.split(b"\n")  # the header, the records and what follows the last terminator
    for edge in range(block, len(lines) - 2, block):
        before = lines[edge].split(b",")
        before[1] = other if before[1] == vital else vital
        lines[edge] = b",".join(before)
        after = lines[edge + 1].split(b",")  # with a block of 1, also the next edge's record before
        after[2] += b"0"
        lines[edge + 1] = b",".join(after)
    return b"\n".join(lines)


def _without_timings(report):
    return {key: value for key, value in report.items() if key != "timings"}


@pytest.mark.parametrize("shape", ["census", "long_domain"])
def test_block_edges_change_no_result(tmp_path, shape):
    # The record layer reads, counts, rewrites and compares a block of rows
    # or bytes at a time.  At other block sizes, down to one row and a few
    # bytes, a run gives the signal, the rewrite's picks, the release and the
    # report of one run at the default sizes, and so does verify of a
    # release edited on both sides of every block edge (a vital cell swapped
    # before the edge, a non-vital cell lengthened after it).
    write = write_small_census_config if shape == "census" else write_long_domain_config
    config = load_config(write(tmp_path))
    vital, other = (b"211", b"999") if shape == "census" else (b"V", b"N")
    original = config.input.read_bytes()
    edited = tmp_path / "edited.csv"
    edited_config = replace(config, output=edited, report=None)

    def run(block):
        status, report = run_anonymize(config)
        assert status == EXIT_OK
        release = config.output.read_bytes()
        edited.write_bytes(_edited_at_block_edges(release, block, vital, other))
        return _without_timings(report), release, _without_timings(run_verify(config)[1]), \
            _without_timings(run_verify(edited_config)[1])

    for block, block_bytes in [(1, 7), (7, 64), (1 << 13, 1000), (1 << 15, 1 << 16)]:
        expected = run(block)
        with patch.object(microdata, "_CHUNK_ROWS", block), patch.object(microdata, "_BLOCK_BYTES", block_bytes):
            assert run(block) == expected
    assert config.input.read_bytes() == original


def test_long_domain_solver_release_is_pinned(tmp_path):
    # Census-13's manual plan never reaches the target solver; this pins its
    # coefficients and the release they give, bit for bit.
    config_path = write_long_domain_config(tmp_path)
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "anon.csv").read_bytes()).hexdigest() == (
        "18bb391aa997a0a4aa17a46bda794f33f774fd72ed0ca201a72b17de88ce11b2")
    after = np.array(json.loads((tmp_path / "report.json").read_text())["redistribution"]["coefficients_after"])
    assert hashlib.sha256(after.tobytes()).hexdigest() == (
        "7b96e70cf9e9ee494fecbd9443682f925f7c1dd315590e773aac52a4ce00dfd9")
    # The minimum-norm solve sets every free coefficient no target reaches to 0.
    assert (after.size, np.count_nonzero(after == 0)) == (500, 490)


def test_release_of_quoted_input_does_not_mark_its_edits(census_file, tmp_path):
    # Every cell of the input is quoted.  An edited record that is quoted by
    # a rule of its own stands out among the release's lines: the attack,
    # which reads only the release and the config, must find nothing.
    data = census_file.read_bytes()
    quoted = b'"' + data.replace(b",", b'","').replace(b"\n", b'"\n"')[:-1]
    (tmp_path / "quoted.csv").write_bytes(quoted)
    config = load_config(write_census_config(tmp_path, census_file, input=str(tmp_path / "quoted.csv"), seed=1))
    status, report = run_anonymize(config)
    assert status == EXIT_OK
    changed = report["sizes"]["records_changed"]
    release = config.output.read_bytes()
    assert 0 < changed and adversary.quoting_outliers(release, config) == []
    # The same release with its edited lines quoted by csv's minimal rule
    # (none of the census values needs a quote): the attack finds exactly those.
    lines, originals = release.split(b"\n"), quoted.split(b"\n")
    edited = [r for r, (line, original) in enumerate(zip(lines, originals)) if line != original]
    assert len(edited) == changed
    for r in edited:
        lines[r] = lines[r].replace(b'"', b"")
    assert adversary.quoting_outliers(b"\n".join(lines), config) == [r - 1 for r in edited]
    del lines, originals
    status, checked = run_verify(config)
    assert status == EXIT_OK
    assert checked["sizes"]["records_reparsed"] == changed


@pytest.mark.parametrize("command, limit", [("anonymize", 0.7), ("verify", 0.8)])
def test_census_runs_hold_few_bytes_per_input_byte(census_file, tmp_path, command, limit):
    # The record layer holds a uint8 length and uint8 codes per record and
    # reads the text a block or a chunk at a time, and verify's release
    # shares its original's lengths; the signal, the rewrite and the compare
    # work a block of rows at a time.  Holding a whole text (verify would
    # hold two), an offset per record, or a temporary with an entry per
    # record or per byte on top of that (a slot, a bucket or a mask of every
    # record) would push the peaks past these multiples.
    config = load_config(write_census_config(tmp_path, census_file))
    if command == "verify":
        assert run_anonymize(config)[0] == EXIT_OK
    run = {"anonymize": run_anonymize, "verify": run_verify}[command]
    tracemalloc.start()
    try:
        status, _ = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK
    size = census_file.stat().st_size
    assert peak <= limit * size, f"{command} peak {peak / size:.2f}x the input's {size} bytes"


def test_distinct_lines_verify_holds_few_bytes_per_input_byte(tmp_path):
    # Verify of a long-domain release whose lines mostly differ: past its
    # loads, which parse a chunk of rows at a time, it counts and compares a
    # block of rows at a time.  A slot, a mask or a comparison of every
    # record, with chunks of 32,768 rows, takes it to 5.6 times the input;
    # it holds under 2.3.
    config = load_config(write_distinct_lines_config(tmp_path))
    assert run_anonymize(config)[0] == EXIT_OK
    tracemalloc.start()
    try:
        status, _ = run_verify(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK
    size = config.input.stat().st_size
    assert peak <= 3 * size, f"verify peak {peak / size:.2f}x the input's {size} bytes"


def test_census_records_cost_four_bytes_and_a_release_shares_their_lengths(census_file, census_microfile, tmp_path):
    # Per record, a uint8 code for each of the three columns and a uint8 length.
    mf = census_microfile
    assert sum(c.nbytes for c in mf.codes) + mf.lengths.nbytes == 4 * len(mf)
    config = load_config(write_census_config(tmp_path, census_file))
    assert run_anonymize(config)[0] == EXIT_OK
    released = load_microfile(config.output, like=mf)
    assert released.lengths is mf.lengths
    # The same release with its first record a byte longer keeps lengths of its own.
    head, rest = config.output.read_bytes().split(b"\n", 1)
    (tmp_path / "grown.csv").write_bytes(head + b"\n" + rest.replace(b"\n", b"1\n", 1))
    grown = load_microfile(tmp_path / "grown.csv", like=mf)
    assert grown.lengths is not mf.lengths
    assert np.flatnonzero(grown.lengths != mf.lengths).tolist() == [0]
    assert grown.lengths.dtype == np.uint8


_REWRITES = """
import json, sys
import numpy as np
from groupanon import cli, concentration_signal, load_microfile, rewrite_microfile
path = sys.argv[1]
assert cli.main(["anonymize", "--config", path]) == cli.EXIT_OK
config = cli.load_config(path)
mf = load_microfile(config.input)
old = concentration_signal(mf, config.spec).numerators
new = old.copy()
new[:3] += 40
first = rewrite_microfile(mf, config.spec, old, new, seed=1)
second = rewrite_microfile(first, config.spec, new, old, seed=2)
changed = np.zeros(len(mf), dtype=bool)
for a, b in zip(first.codes, second.codes):
    changed |= a != b
print(json.dumps({"ma": "numpy.ma" in sys.modules, "first": first.edited.tolist(),
                  "second": second.edited.tolist(), "changed": np.flatnonzero(changed).tolist()}))
"""


def test_anonymize_keeps_numpy_ma_unimported_and_edited_rows_sorted_once(small_run):
    # np.union1d imports numpy.ma (some 12 ms of a run) for its check of a
    # masked input; rewrite_microfile sorts and drops repeats itself.  A
    # microfile rewritten twice lists each row either rewrite edited once.
    _, config_path = small_run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                          os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _REWRITES, str(config_path)],
                         capture_output=True, text=True, env=env, check=True)
    out = json.loads(run.stdout.splitlines()[-1])  # after anonymize's own output
    assert out["ma"] is False
    first, second = out["first"], out["second"]
    assert first and first == sorted(set(first))
    assert second == sorted(set(first) | set(out["changed"]))
    assert len(second) < len(first) + len(out["changed"])  # rows both rewrites edited


def test_fixture_generator_cli(tmp_path, capsys):
    from groupanon.fixture import main as fixture_main

    out = tmp_path / "extract.csv"
    assert fixture_main([str(out)]) == 0
    first = out.read_text().splitlines()[:2]
    assert first[0] == "REGNUK,OCC,SEX"
    assert first[1].startswith("11,")
    assert "wrote 1156526 records" in capsys.readouterr().out
    # The bytes the benchmark's census-13 workload checks before it runs.
    data = out.read_bytes()
    assert len(data) == 10_408_749
    assert hashlib.sha256(data).hexdigest() == "27c1f39a4312fe0015f52fc89df81bd241ef4f8a6cdfdda14fc12dc5fff9d9a5"


# ---------------------------------------------------------------- report writer

_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([-0.0, 1e300, math.nan]), st.text()
)
# Lists of the lengths around the writer's slice, cycling through a few drawn
# values: flat, or of small objects, so a 3-slice list stays cheap to encode.
_SLICED = st.builds(
    lambda values, n: (values * n)[:n],
    st.lists(_SCALARS | st.dictionaries(st.text(), _SCALARS, max_size=2), min_size=1, max_size=4),
    st.sampled_from([0, cli._SLICE - 1, cli._SLICE, cli._SLICE + 1, 3 * cli._SLICE]),
)
_VALUES = st.recursive(
    _SLICED | _SCALARS,
    lambda children: st.dictionaries(st.text(), children, max_size=4) | st.lists(children, max_size=3),
    max_leaves=12,
)


def assert_holds_dumps(path, value):
    """Assert that ``path`` holds ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` and a newline.

    A difference is shown around its first character: pytest's own diff of
    texts this long takes minutes.
    """
    text, expected = path.read_text(encoding="utf-8"), _dumps(value) + "\n"
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        pytest.fail(f"{path.name} differs from json.dumps at character {at} of {len(expected)}: "
                    f"{text[at - 40:at + 40]!r} against {expected[at - 40:at + 40]!r}")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.dictionaries(st.text(), _SLICED | _VALUES, min_size=1, max_size=5))
def test_report_writer_writes_the_text_of_json_dumps(tmp_path, payload):
    cli._write_json(tmp_path / "report.json", payload)
    assert_holds_dumps(tmp_path / "report.json", payload)


def test_long_domain_report_file_is_the_text_of_its_report(tmp_path):
    # 2,000 categories: each list of the signal and the counts spans two slices.
    status, report = run_anonymize(load_config(write_long_domain_config(tmp_path)))
    assert status == EXIT_OK and len(report["counts"]["new"]) > cli._SLICE
    del report["timings"]["report"]  # the report file cannot hold its own write time
    assert_holds_dumps(tmp_path / "report.json", report)


def test_error_report_file_is_the_text_of_its_error(small_run, capsys):
    # The message names a path outside ASCII, which json.dumps escapes.
    tmp_path, config_path = small_run
    missing = tmp_path / "entrée ☃.csv"
    config = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**config, "input": str(missing)}))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    message = capsys.readouterr().err[len("error: "):-1]
    assert str(missing) in message
    assert_holds_dumps(tmp_path / "report.json",
                       {"status": "error", "error": {"type": "FileNotFoundError", "message": message}})


def test_report_writer_holds_a_fraction_of_its_text(tmp_path):
    # A report of five 8,191-entry lists, as domain-8191 writes.  json.dumps
    # holds the encoder's chunks and then the whole text: 10.5 times this
    # text at its peak.
    rng = np.random.default_rng(8_191)
    denominators = rng.integers(16, 33, 8_191)
    old, new = (rng.binomial(denominators, 0.3) for _ in range(2))
    payload = {
        "counts": {"old": old.tolist(), "new": new.tolist()},
        "signal": {"denominators": denominators.tolist(), "ratios": (old / denominators).tolist(),
                   "final_ratios": (new / denominators).tolist()},
    }
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._write_json(path, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert_holds_dumps(path, payload)
    assert peak < size / 2, f"report writer peak {peak} bytes for {size} bytes of text"


# ---------------------------------------------------------------- inspect

def test_inspect_census(census_file, tmp_path, capsys):
    from groupanon.fixture import REGION_CODES

    config_path = write_config(
        tmp_path / "config.json", census_file, list(REGION_CODES), NONIDENTITY_PLAN
    )
    config = json.loads(config_path.read_text())
    config["attributes"]["vital"] = ["OCC"]
    config["attributes"]["vital_combinations"] = [["211"], ["311"]]
    config["attributes"]["parameter"] = "REGNUK"
    config["attributes"]["fallback"] = "999"
    config_path.write_text(json.dumps(config))

    assert main(["inspect", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "approximation coefficients (level 1): 0.0188 0.0186 0.0184 0.0189 0.0180 0.0135 0.0223" in out
    assert "fixed coefficient indices: 1 2 7" in out
    matrix = build_reconstruction_matrix(db2_filter(), 14, 1)
    assert "\n".join(" ".join(f"{v:8.4f}" for v in row) for row in matrix) in out
    # inspect must not touch output paths
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_inspect_even_length_has_no_fixed_set(tmp_path):
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, [100, 200, 300, 100, 200, 300, 100, 200])
    # The plan leaves the fixed set to the border rows, of which there are none.
    plan = {"strategy": "manual", "floor": None}
    config_path = write_config(tmp_path / "config.json", input_path, regions, plan)
    text = inspect_text(load_config(config_path))
    assert "extension: none (8 -> 8 samples)" in text
    assert "fixed coefficient indices: (none)" in text


def test_inspect_prints_the_plans_fixed_set(tmp_path):
    # A plan's own fixed set overrides the border-derived one, in inspect as
    # in anonymize.
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, SEVEN_COUNTS)
    config_path = write_config(tmp_path / "config.json", input_path, regions, IDENTITY_PLAN)
    text = inspect_text(load_config(config_path))
    assert "fixed coefficient indices: 1 2 3 4" in text
    status, report = run_anonymize(load_config(config_path))
    assert status == EXIT_OK
    assert report["redistribution"]["fixed_indices"] == [1, 2, 3, 4]
    write_config(config_path, input_path, regions, {"strategy": "manual", "floor": None})
    text = inspect_text(load_config(config_path))
    assert "fixed coefficient indices: 1 2 4" in text
    # A set the run would reject is rejected by inspect too, before any line is written.
    write_config(config_path, input_path, regions, {**IDENTITY_PLAN, "fixed_indices": [1, 9]})
    out = io.StringIO()
    with pytest.raises(PlanError, match=r"fixed indices \[9\] outside 1..4"):
        run_inspect(load_config(config_path), out)
    assert out.getvalue() == ""


def test_inspect_of_many_categories_writes_line_by_line(tmp_path):
    # 2,049 categories at level 1: the operator alone prints 2,050 rows of
    # 1,025 cells.  inspect writes each line as it is made, so its peak stays
    # far below the size of its text, which its sha256 pins.
    input_path = tmp_path / "input.csv"
    regions = write_small_input(input_path, [c % 5 for c in range(2_049)], per_group=6)
    config_path = write_config(tmp_path / "config.json", input_path, regions, {"strategy": "manual", "floor": None})
    config = load_config(config_path)
    out = Digest()
    tracemalloc.start()
    try:
        run_inspect(config, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.size, out.sha256.hexdigest()) == (
        18_960_392, "54b3ef34d91804768b83fbd507bb21d02b87ebfca6955fddd0f8dd0bbd9a0a4d")
    assert peak < out.size / 8, f"inspect peak {peak} bytes for {out.size} bytes of text"


# ---------------------------------------------------------------- verify

def test_anonymize_of_an_input_changed_before_the_write_fails(small_run, capsys, monkeypatch):
    # The input changes after its load and before the release is written,
    # keeping its size and times: its last cell, a "1" or a "2", flips.
    tmp_path, config_path = small_run
    input_path = tmp_path / "input.csv"
    rewrite = cli.rewrite_microfile

    def change_then_rewrite(*args, **kwargs):
        flip_byte(input_path, input_path.stat().st_size - 2)
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(cli, "rewrite_microfile", change_then_rewrite)
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_ERROR
    message = f"{input_path.resolve()} changed after it was loaded"
    assert message in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error"]["type"] == "MicrofileError"
    assert report["error"]["message"].startswith(message)
    # No release, and no file it was written through.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "input.csv", "report.json"]


def test_verify_after_anonymize(small_run):
    _, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    assert main(["verify", "--config", str(config_path)]) == EXIT_OK


def test_verify_of_a_quoted_release_reparses_only_changed_records(small_run, capsys):
    # Every cell of the input is quoted.  The release copies the records it
    # did not change, quotes and all, so verify's delta load parses exactly
    # the records the rewrite changed.
    tmp_path, config_path = small_run
    input_path = tmp_path / "input.csv"
    lines = input_path.read_text().splitlines()
    input_path.write_text("".join('"' + line.replace(",", '","') + '"\n' for line in lines))
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--config", str(config_path)]) == EXIT_OK
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    assert 0 < sizes["records_reparsed"] == sizes["records_changed"] < sizes["records"]


def test_verify_detects_tampering(small_run, capsys):
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out.csv"
    lines = out.read_text().splitlines()
    # Change a non-vital cell: conservation must fail.
    row = lines[1].split(",")
    row[2] = "9"
    lines[1] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config_path)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "check failed: non_vital_cells_unchanged: value 1 (tolerance 0)" in captured.err
    summary = json.loads(captured.out)
    assert summary["status"] == "invariant_violation"
    assert summary["checks"]["non_vital_cells_unchanged"]["passed"] is False
    assert set(summary["timings"]) == {"load", "signal", "outcome", "compare"}
    assert summary["sizes"]["records"] == 7000


def _tamper_and_verify(tmp_path, config_path, capsys, edit):
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out.csv"
    out.write_text(edit(out.read_text()))
    assert main(["verify", "--config", str(config_path)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def test_verify_detects_tampering_in_record_of_new_length(small_run, capsys):
    # The tampered record is longer, so it is re-parsed, not byte-compared.
    tmp_path, config_path = small_run

    def edit(text):
        lines = text.split("\n")
        region, job, sex = lines[5].split(",")
        lines[5] = ",".join((region, job + "Q", sex + "9"))
        return "\n".join(lines)

    summary, err = _tamper_and_verify(tmp_path, config_path, capsys, edit)
    assert "check failed: non_vital_cells_unchanged: value 1 (tolerance 0)" in err
    assert summary["checks"]["non_vital_cells_unchanged"]["passed"] is False
    assert summary["sizes"]["records_reparsed"] >= 1


def test_verify_of_a_respelled_header_reparses_only_changed_records(small_run, capsys):
    # The release names the original's attributes in other bytes: quoted,
    # and ended by CRLF.  It is still read in the original's codes, as a
    # delta, and the one changed non-vital cell is found.
    tmp_path, config_path = small_run

    def edit(text):
        lines = text.split("\n")
        lines[0] = '"' + lines[0].replace(",", '","') + '"\r'
        region, job, sex = lines[1].split(",")
        lines[1] = ",".join((region, job, "2" if sex == "1" else "1"))
        return "\n".join(lines)

    summary, err = _tamper_and_verify(tmp_path, config_path, capsys, edit)
    assert err == "check failed: non_vital_cells_unchanged: value 1 (tolerance 0)\n"
    assert summary["checks"]["non_vital_cells_unchanged"]["value"] == 1
    originals = (tmp_path / "input.csv").read_bytes().split(b"\n")[1:]
    released = (tmp_path / "out.csv").read_bytes().split(b"\n")[1:]
    changed = sum(new != old for new, old in zip(released, originals))
    assert summary["sizes"]["records_reparsed"] == changed < summary["sizes"]["records"]


def test_verify_detects_appended_record(small_run, capsys):
    tmp_path, config_path = small_run
    summary, err = _tamper_and_verify(tmp_path, config_path, capsys, lambda text: text + "R1,Z,1\n")
    assert "check failed: record_count_unchanged: value 1 (tolerance 0)" in err
    assert "check failed: non_vital_cells_unchanged: value 7001 (tolerance 0)" in err
    assert summary["status"] == "invariant_violation"


def test_both_commands_report_check_rows(small_run, capsys):
    _, config_path = small_run
    summaries = {}
    for command in ("anonymize", "verify"):
        assert main([command, "--config", str(config_path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        summaries[command] = json.loads(captured.out)
    for command, summary in summaries.items():
        assert set(summary) == {"status", "checks", "timings", "sizes"}, command
        assert summary["status"] == "ok"
        for name, row in summary["checks"].items():
            assert set(row) == {"value", "tolerance", "passed"}, (command, name)
            assert row["passed"] is True, (command, name)
    anonymize, verify = (set(summaries[c]["checks"]) for c in ("anonymize", "verify"))
    assert anonymize & verify == {
        "mean_preserved", "details_proportional", "positivity", "border_equality",
        "denominators_unchanged", "released_counts_match",
    }
    assert anonymize - verify == set()
    assert verify - anonymize == {"record_count_unchanged", "non_vital_cells_unchanged"}


def test_readme_imports_are_exported():
    import groupanon

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    names = [
        name.strip()
        for line in readme.splitlines() if line.startswith("from groupanon import ")
        for name in line.removeprefix("from groupanon import ").split(",")
    ]
    assert names
    assert set(names) <= set(groupanon.__all__)
    assert all(hasattr(groupanon, name) for name in groupanon.__all__)


def test_verify_requires_existing_output(small_run):
    # The error leaves the anonymize report that verify would check as it was.
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    (tmp_path / "out.csv").unlink()
    written = (tmp_path / "report.json").read_bytes()
    assert main(["verify", "--config", str(config_path)]) == EXIT_ERROR
    assert (tmp_path / "report.json").read_bytes() == written


def test_verify_rejects_report_that_is_not_json(small_run, capsys):
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    report_path = tmp_path / "report.json"
    report_path.write_text(report_path.read_text()[:40])
    written = report_path.read_bytes()
    assert main(["verify", "--config", str(config_path)]) == EXIT_ERROR
    assert f"report {report_path} is not valid JSON" in capsys.readouterr().err
    assert report_path.read_bytes() == written
    # Valid JSON that is not an anonymize report is a hard error too, and so
    # is a report without the released counts, such as an error report.
    error_report = '{"error": {"message": "m", "type": "ConfigError"}, "status": "error"}'
    for text in ("[]", '{"counts": 3}', '{"counts": {}}', error_report):
        report_path.write_text(text)
        assert main(["verify", "--config", str(config_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"report {report_path} is not an anonymize report" in err
        assert "Traceback" not in err
        assert report_path.read_text() == text


def test_verify_counts_a_report_of_another_length_as_mismatched(small_run, capsys):
    # A report whose counts.new has another length than the signal cannot
    # be compared entry by entry: the larger size is the mismatch count.
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["counts"]["new"] += [1, 2, 3]
    report_path.write_text(json.dumps(report))
    assert main(["verify", "--config", str(config_path)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    row = json.loads(captured.out)["checks"]["released_counts_match"]
    assert row["value"] == len(SEVEN_COUNTS) + 3 and row["passed"] is False
    assert f"check failed: released_counts_match: value {len(SEVEN_COUNTS) + 3} (tolerance 0)" in captured.err


def test_verify_reads_its_report_before_the_microfiles(small_run, capsys, monkeypatch):
    # No anonymize has run, so the configured report does not exist; verify
    # fails on it without loading either microfile.
    tmp_path, config_path = small_run

    def no_load(*args, **kwargs):
        raise AssertionError("verify loaded a microfile before reading its report")

    monkeypatch.setattr(cli, "load_microfile", no_load)
    assert main(["verify", "--config", str(config_path)]) == EXIT_ERROR
    assert f"report {tmp_path / 'report.json'} does not exist" in capsys.readouterr().err


def test_verify_rejects_missing_report(small_run, capsys):
    # A configured report that does not exist is a hard error, not a
    # reason to drop the released_counts_match check.
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    missing = tmp_path / "typo.json"
    assert main(["verify", "--config", str(config_path), "--report", str(missing)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"report {missing} does not exist" in captured.err
    assert captured.out == ""
    assert not missing.exists()


@pytest.mark.parametrize("via, key", [
    ("config", "output"), ("config", "report"), ("config", "plot_data"),
    ("flag", "output"), ("flag", "report"),
])
def test_path_equal_to_input_is_rejected_before_writing(small_run, capsys, via, key):
    tmp_path, config_path = small_run
    input_path = tmp_path / "input.csv"
    original = input_path.read_bytes()
    argv = ["anonymize", "--config", str(config_path)]
    if via == "config":
        config = json.loads(config_path.read_text())
        # Spelled differently, but the same file.
        config[key] = str(tmp_path / "." / "input.csv")
        config_path.write_text(json.dumps(config))
    else:
        argv += [f"--{key}", str(input_path)]
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"{key} and input name the same file" in err
    assert input_path.read_bytes() == original
    assert not (tmp_path / "out.csv").exists()
    if via == "config":
        assert f"config key {key!r}" in err
    # A run whose paths clash writes no error report anywhere.
    assert not (tmp_path / "report.json").exists()


def test_clashing_config_writes_no_report_over_input(small_run, capsys):
    # The config does not load, so the flag's report path is never checked
    # against the input; the clash alone must keep it from being written.
    tmp_path, config_path = small_run
    input_path = tmp_path / "input.csv"
    original = input_path.read_bytes()
    config = json.loads(config_path.read_text())
    config["output"] = str(input_path)
    config_path.write_text(json.dumps(config))
    argv = ["anonymize", "--config", str(config_path), "--report", str(input_path)]
    assert main(argv) == EXIT_ERROR
    assert "output and input name the same file" in capsys.readouterr().err
    assert input_path.read_bytes() == original


@pytest.mark.parametrize("target", ["input.csv", "config.json"])
def test_unloadable_config_writes_no_report_over_other_files(small_run, capsys, target):
    # The config does not load, so the flag's report path is written only
    # where nothing is yet or where an earlier report is.
    tmp_path, config_path = small_run
    config = json.loads(config_path.read_text())
    config["plan"] = {"strategy": "bogus"}
    config_path.write_text(json.dumps(config))
    path = tmp_path / target
    original = path.read_bytes()
    assert main(["anonymize", "--config", str(config_path), "--report", str(path)]) == EXIT_ERROR
    assert "plan.strategy" in capsys.readouterr().err
    assert path.read_bytes() == original
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps({"status": "ok"}))
    assert main(["anonymize", "--config", str(config_path), "--report", str(earlier)]) == EXIT_ERROR
    assert json.loads(earlier.read_text())["status"] == "error"


def test_paths_of_one_run_must_differ(small_run):
    _, config_path = small_run
    config = load_config(config_path)
    with pytest.raises(ConfigError, match="plot_data and report name the same file") as info:
        replace(config, plot_data=config.report)
    assert info.value.field == "plot_data"


def test_inspect_error_writes_no_report(small_run, capsys):
    tmp_path, config_path = small_run
    assert main(["anonymize", "--config", str(config_path)]) == EXIT_OK
    written = (tmp_path / "report.json").read_bytes()
    config = json.loads(config_path.read_text())
    config["attributes"]["parameter"] = "REGION"
    config_path.write_text(json.dumps(config))
    assert main(["inspect", "--config", str(config_path)]) == EXIT_ERROR
    assert "REGION" in capsys.readouterr().err
    assert (tmp_path / "report.json").read_bytes() == written
