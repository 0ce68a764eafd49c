"""The CLI's contract at the file boundary, table-driven and in-process.

Every subcommand that reads a file is crossed with every slot it reads one
from (--jacobi1, --jacobi2, --nu1, --nu2, --omega FILE and validate FILE)
and with each malformed file of its kind.  The other inputs are the golden
files, so the malformed one is the only fault.  Each case must exit 2 with
exactly one stderr line, "input error: ...", naming the file, and nothing
on stdout: no traceback, no exit 0 on a value read wrongly.
"""

import json
from pathlib import Path

import pytest

from ncprod.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
J1, J2, NU1, NU2 = (str(GOLDEN / f"{name}.json") for name in ("j1", "j2", "nu1", "nu2"))

# marginal files that must be refused, as JSON text
BAD_MARGINALS = {
    "custom-zero-denominator": '{"preset": "custom", "beta": ["1/0"], "gamma": ["1"]}',
    "not-an-object": "[1, 2]",
    "beta-a-string": '{"beta": "12", "gamma": ["1"]}',
    "custom-beta-a-string": '{"preset": "custom", "beta": "12", "gamma": ["1"]}',
    "unknown-key": '{"betas": ["1"], "gamma": ["1"]}',
    "terms-not-an-integer": '{"preset": "q-gaussian", "q": "1/2", "terms": 2.9}',
    "terms-a-string": '{"preset": "q-gaussian", "q": "1/2", "terms": "24"}',
}

# tree files that must be refused
BAD_TREES = {
    "depth-not-an-integer": '{"words": [[2, 1]], "depth": 3.9, "implicit_runs": true}',
    "letter-not-an-integer": '{"words": [[2, 1.7]], "depth": 3, "implicit_runs": true}',
    "misspelled-key": '{"words": [[2, 1]], "depth": 3, "implicit_run": true}',
    "builtin-depth-zero": '{"builtin": "free", "depth": 0}',
}

# each subcommand (and engine or state) that builds a coefficient map
MAP_COMMANDS = {
    "moments": ["moments", "--order", "2"],
    "gram": ["gram", "--order", "1"],
    "cfrac-scalar": ["cfrac", "--engine", "scalar", "--order", "2"],
    "cfrac-matricial": ["cfrac", "--engine", "matricial", "--order", "2"],
    "mops": ["mops", "--order", "1"],
    "compare": ["compare", "--against", "free", "--order", "2"],
}


def marginal_cases():
    """(subcommand argv, the slot the bad file goes in, the other files)."""
    for name, argv in MAP_COMMANDS.items():
        for slot in ("--jacobi1", "--jacobi2"):
            yield f"{name}{slot}", argv, slot, {"--jacobi1": J1, "--jacobi2": J2, "--omega": "free"}
        for slot in ("--nu1", "--nu2"):
            files = {"--jacobi1": J1, "--jacobi2": J2, "--nu1": NU1, "--nu2": NU2}
            yield f"{name}{slot}", argv, slot, files
    yield "cfrac-classical--jacobi1", ["cfrac", "--engine", "classical"], "--jacobi1", {"--jacobi1": J1}
    for slot in ("--jacobi1", "--jacobi2"):
        argv = ["mops", "--state", "tensor", "--order", "1"]
        yield f"mops-tensor{slot}", argv, slot, {"--jacobi1": J1, "--jacobi2": J2}


def tree_cases():
    for name, argv in MAP_COMMANDS.items():
        yield f"{name}--omega", argv, "--omega", {"--jacobi1": J1, "--jacobi2": J2}
    yield "validate", ["validate"], None, {}


def cases(slot_cases, probes):
    return [
        pytest.param(argv, slot, files, text, id=f"{case}-{probe}")
        for case, argv, slot, files in slot_cases()
        for probe, text in probes.items()
    ]


def expect_input_error(capsys, argv, path):
    code = main(argv)  # an exception escaping main fails the case
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("input error: ") and path in lines[0], lines
    # a refused value is shown as the file writes it: 29/10, true, null
    for python_text in ("Fraction(", "True", "False", "None"):
        assert python_text not in lines[0], lines
    return lines[0]


@pytest.mark.parametrize(
    "argv, slot, files, text", cases(marginal_cases, BAD_MARGINALS) + cases(tree_cases, BAD_TREES)
)
def test_malformed_file_is_one_input_error(capsys, tmp_path, argv, slot, files, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    if slot is None:  # validate reads the tree file as its argument
        argv = [*argv, str(path)]
    else:
        files = {**files, slot: str(path)}
        argv = [*argv, *(item for flag_file in files.items() for item in flag_file)]
    expect_input_error(capsys, argv, str(path))


# a JSON number and the string of the same digits, in each form a marginal
# file takes; the number must not be rounded through a float
NUMBER_AND_STRING = {
    "plain": '{{"beta": [{}], "gamma": ["1"]}}',
    "custom": '{{"preset": "custom", "beta": [{}], "gamma": ["1"]}}',
    "q-gaussian": '{{"preset": "q-gaussian", "q": {}, "terms": 4}}',
}


@pytest.mark.parametrize("form", sorted(NUMBER_AND_STRING))
def test_number_reads_as_its_literal_text(capsys, tmp_path, form):
    digits = "0.10000000000000000001"  # a float reads 1/10
    tables = []
    for literal in (digits, json.dumps(digits)):
        path = tmp_path / "marginal.json"
        path.write_text(NUMBER_AND_STRING[form].format(literal))
        code = main(["moments", "--jacobi1", str(path), "--jacobi2", J2, "--omega", "free",
                     "--order", "4", "--format", "csv"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), literal
        tables.append(captured.out)
    assert tables[0] == tables[1]


# a valid file of each marginal form and each tree form, with every key it reads
VALID_MARGINALS = {
    "q-gaussian": {"preset": "q-gaussian", "q": "1/2", "terms": 4},
    "gaussian": {"preset": "gaussian", "terms": 4},
    "point-mass": {"preset": "point-mass", "c": "1/3"},
    "bernoulli": {"preset": "bernoulli", "p": "1/3", "a": 1, "b": "-1/2"},
    "custom": {"preset": "custom", "beta": ["1/2"], "gamma": [1], "extend": "zero"},
    "plain": {"beta": ["1/2"], "gamma": [1], "extend": "repeat"},
}
VALID_TREES = {
    "builtin": {"builtin": "free", "depth": 3},
    "words": {"words": [[2, 1]], "depth": 3, "implicit_runs": True},
}

# the JSON type each key takes, and values of other JSON types
RATIONAL = [True, None, [1], {"p": 1}]
INTEGER = ["4", 4.5, True, None, [4]]
WRONG_TYPES = {
    "q": RATIONAL, "c": RATIONAL, "p": RATIONAL, "a": RATIONAL, "b": RATIONAL,
    "terms": INTEGER, "depth": INTEGER,
    "beta": ["12", 1, {"0": 1}, None, True],
    "gamma": ["12", 1, {"0": 1}, None, True],
    "extend": [1, 2.5, ["repeat"], None, True],
    "preset": [1, 2.5, ["semicircle"], None, True],
    "builtin": [1, ["free"], None, True],
    "words": ["12", 1, {"0": [1]}, None],
    "implicit_runs": [1, "true", None],
}


def wrong_type_cases(valid):
    return [
        pytest.param(form, key, value, id=f"{form}-{key}-{json.dumps(value)}")
        for form, obj in valid.items()
        for key in obj
        for value in WRONG_TYPES[key]
    ]


def holds_string(value) -> bool:
    if isinstance(value, dict):
        value = [*value, *value.values()]
    return isinstance(value, str) or isinstance(value, list) and any(map(holds_string, value))


def moments_argv(jacobi1, omega):
    return ["moments", "--jacobi1", jacobi1, "--jacobi2", J2, "--omega", omega, "--order", "2"]


@pytest.mark.parametrize("kind, valid", [("marginal", VALID_MARGINALS), ("tree", VALID_TREES)])
def test_valid_forms_are_read(capsys, tmp_path, kind, valid):
    """The sweep below changes one key of these files, so each must pass as is."""
    for form, obj in valid.items():
        path = tmp_path / f"{form}.json"
        path.write_text(json.dumps(obj))
        argv = moments_argv(str(path), "free") if kind == "marginal" else moments_argv(J1, str(path))
        assert main(argv) == 0, form
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("form, key, value", wrong_type_cases(VALID_MARGINALS))
def test_marginal_key_of_wrong_type_is_one_input_error(capsys, tmp_path, form, key, value):
    path = tmp_path / "marginal.json"
    path.write_text(json.dumps({**VALID_MARGINALS[form], key: value}))
    line = expect_input_error(capsys, moments_argv(str(path), "free"), str(path))
    if holds_string(value):  # shown as the file writes it: "12", not '12'
        assert line.endswith(json.dumps(value)), line


@pytest.mark.parametrize("form, key, value", wrong_type_cases(VALID_TREES))
def test_tree_key_of_wrong_type_is_one_input_error(capsys, tmp_path, form, key, value):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({**VALID_TREES[form], key: value}))
    line = expect_input_error(capsys, moments_argv(J1, str(path)), str(path))
    if holds_string(value):
        assert line.endswith(json.dumps(value)), line


@pytest.mark.parametrize(
    "slot, text, shown",
    [("--jacobi1", '{"preset": "point-mass", "c": true}', "not a rational: true"),
     ("--jacobi1", '{"preset": "point-mass", "c": null}', "not a rational: null"),
     ("--jacobi1", '"semicircle"', "a marginal is a JSON object, not a string"),
     ("--omega", '{"words": [[2, 1]], "depth": 3, "implicit_runs": null}',
      "tree 'implicit_runs' must be a boolean, got null"),
     ("--omega", "[1]", "a tree is a JSON object, not an array")],
)
def test_refused_value_is_named_in_json_words(capsys, tmp_path, slot, text, shown):
    """A message names a value and its type as JSON does, not as Python."""
    path = tmp_path / "refused.json"
    path.write_text(text)
    files = {"--jacobi1": J1, "--omega": "free", slot: str(path)}
    line = expect_input_error(capsys, moments_argv(files["--jacobi1"], files["--omega"]), str(path))
    assert line.endswith(shown), line


@pytest.mark.parametrize(
    "probe, slot, shown",
    [("terms-not-an-integer", "--jacobi1", "got 29/10"),
     ("depth-not-an-integer", "--omega", "got 39/10"),
     ("letter-not-an-integer", "--omega", "letter 17/10")],
)
def test_refused_number_is_shown_exactly(capsys, tmp_path, probe, slot, shown):
    """A JSON number is read as the Fraction of its text; a message shows
    that number in exact form, never as Fraction(29, 10)."""
    path = tmp_path / f"{probe}.json"
    path.write_text({**BAD_MARGINALS, **BAD_TREES}[probe])
    files = {"--jacobi1": J1, "--omega": "free", slot: str(path)}
    line = expect_input_error(capsys, moments_argv(files["--jacobi1"], files["--omega"]), str(path))
    assert shown in line, line
