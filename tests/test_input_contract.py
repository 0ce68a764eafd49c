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
