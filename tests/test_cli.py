"""Command-line interface: exit codes, formats, determinism."""

import contextlib
import gc
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncprod import cli
from ncprod.cli import main
from ncprod.omega import BUILTIN_ALIASES

F = Fraction

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.fixture
def semicircle_file(tmp_path):
    path = tmp_path / "semicircle.json"
    path.write_text(json.dumps({"preset": "semicircle"}))
    return str(path)


@pytest.fixture
def generic_files(tmp_path):
    j1 = tmp_path / "j1.json"
    j1.write_text(json.dumps({"beta": ["1/2", "-1/3"], "gamma": ["1", "2/3"]}))
    j2 = tmp_path / "j2.json"
    j2.write_text(json.dumps({"beta": ["-1/2", "2/5"], "gamma": ["3/2", "1/2"]}))
    return str(j1), str(j2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_builtin_one_branch(capsys):
    code, out = run(capsys, "validate", "one-branch", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["boundary"] == [[2, 1]]
    assert report["associative"] is True


def test_validate_builtin_free(capsys):
    code, out = run(capsys, "validate", "free", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["boundary"] == []
    assert report["associative"] is True


def test_validate_invalid_file(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"words": [[1, 2, 1]], "depth": 3, "implicit_runs": True}))
    code, out = run(capsys, "validate", str(spec), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violation"]["condition"] == "hereditary"
    assert report["violation"]["witness"] == [2, 1]


def test_tree_file_without_depth_is_read_at_the_needed_depth(capsys, generic_files, tmp_path):
    # validate and --omega read a file without "depth" by the same rule
    j1, j2 = generic_files
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"words": [[2, 1]], "implicit_runs": True}))
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"words": [[2, 1]], "implicit_runs": True, "depth": 4}))
    argv = ("moments", "--jacobi1", j1, "--jacobi2", j2, "--order", "4", "--format", "csv")
    code_bare, out_bare = run(capsys, *argv, "--omega", str(bare))
    code_deep, out_deep = run(capsys, *argv, "--omega", str(deep))
    assert code_bare == code_deep == 0
    assert out_bare == out_deep
    code, out = run(capsys, "validate", str(bare), "--order", "4")
    assert code == 0
    assert json.loads(out)["depth"] == 4


def test_validate_parse_error(capsys, tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    code, _ = run(capsys, "validate", str(spec))
    assert code == 2


def test_moments_boolean_semicircle(capsys, semicircle_file):
    code, out = run(
        capsys,
        "moments",
        "--jacobi1", semicircle_file,
        "--jacobi2", semicircle_file,
        "--omega", "boolean",
        "--order", "4",
        "--format", "json",
    )
    assert code == 0
    rows = {tuple(row["word"]): row["value"] for row in json.loads(out)}
    assert rows[(1, 1, 2, 2)] == "1"
    assert rows[(1, 2, 1, 2)] == "0"
    assert rows[()] == "1"


def test_moments_order_zero(capsys, semicircle_file):
    code, out = run(
        capsys,
        "moments",
        "--jacobi1", semicircle_file,
        "--jacobi2", semicircle_file,
        "--omega", "free",
        "--order", "0",
    )
    assert code == 0
    assert json.loads(out) == [{"word": [], "value": "1"}]


def test_moments_csv_format(capsys, generic_files):
    j1, j2 = generic_files
    code, out = run(
        capsys,
        "moments",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "monotone",
        "--order", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,value"
    assert lines[1] == ",1"  # empty word
    assert lines[2] == "1,1/2"


def test_moments_missing_jacobi_is_input_error(capsys, semicircle_file):
    code, _ = run(capsys, "moments", "--jacobi1", semicircle_file, "--omega", "free")
    assert code == 2


def test_gram_command(capsys, semicircle_file):
    code, out = run(
        capsys,
        "gram",
        "--jacobi1", semicircle_file,
        "--jacobi2", semicircle_file,
        "--omega", "boolean",
        "--order", "2",
        "--format", "json",
    )
    assert code == 0
    triples = {(tuple(t["u"]), tuple(t["v"])): t["value"] for t in json.loads(out)}
    assert all(u == v for u, v in triples)  # diagonal
    assert triples[((1, 1), (1, 1))] == "1"
    assert ((1, 2), (1, 2)) not in triples  # zero entries are not emitted


def test_cfrac_scalar_matches_moments(capsys, generic_files):
    j1, j2 = generic_files
    code, out = run(
        capsys,
        "cfrac",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "free", "--order", "4", "--format", "json",
    )
    assert code == 0
    series_rows = json.loads(out)
    code, out = run(
        capsys,
        "moments",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "free", "--order", "4", "--format", "json",
    )
    assert code == 0
    assert series_rows == json.loads(out)


def test_row_values_are_reduced_like_fraction():
    """_ratio reduces n / q with one gcd; it must print what str(Fraction)
    prints for signed big numerators, zero, q = 1 and n = +-q."""
    from ncprod.cli import _ratio

    big = 3**90 * 7**11
    q = 420**13
    cases = [(0, 1), (0, q), (5, 1), (-5, 1), (1, 1), (-1, 1), (q, q), (-q, q),
             (big, q), (-big, q), (big * q, q), (-big * q, q), (2**200 + 1, 2**64), (-(6**50), 10**40)]
    for n, q in cases:
        assert _ratio(n, q) == str(Fraction(n, q)), (n, q)


def test_cfrac_classical_engine(capsys, semicircle_file):
    code, out = run(
        capsys,
        "cfrac",
        "--jacobi1", semicircle_file,
        "--engine", "classical", "--order", "6", "--format", "csv",
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows["1.1"] == "1"
    assert rows["1.1.1.1"] == "2"
    assert rows["1.1.1.1.1.1"] == "5"


def test_cfrac_matricial_engine(capsys, generic_files):
    j1, j2 = generic_files
    code_m, out_m = run(
        capsys,
        "cfrac",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "monotone", "--order", "4", "--engine", "matricial",
    )
    code_s, out_s = run(
        capsys,
        "cfrac",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "monotone", "--order", "4", "--engine", "scalar",
    )
    assert code_m == code_s == 0
    assert out_m == out_s


def test_compare_free_against_oracle(capsys, generic_files):
    j1, j2 = generic_files
    code, out = run(
        capsys,
        "compare",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "free", "--against", "free", "--order", "6",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_compare_mismatch_reports_witness(capsys, generic_files):
    j1, j2 = generic_files
    code, out = run(
        capsys,
        "compare",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "boolean", "--against", "monotone", "--order", "4",
    )
    assert code == 1
    report = json.loads(out)
    assert report["equal"] is False
    assert report["first_mismatch"]["word"] == [1, 2, 1]


def test_compare_against_cfrac(capsys, generic_files):
    j1, j2 = generic_files
    code, out = run(
        capsys,
        "compare",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "one-branch", "--against", "cfrac", "--order", "6",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_compare_cfree_mode(capsys, generic_files, tmp_path):
    j1, j2 = generic_files
    delta0 = tmp_path / "delta0.json"
    delta0.write_text(json.dumps({"preset": "point-mass", "c": "0"}))
    code, out = run(
        capsys,
        "compare",
        "--jacobi1", j1, "--jacobi2", j2,
        "--nu1", str(delta0), "--nu2", str(delta0),
        "--against", "boolean", "--order", "6",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_finitely_supported_marginal_is_accepted(capsys, generic_files, tmp_path):
    """A two-point marginal builds a state on a tree with longer runs of its
    letter: the pure runs give the atoms' moments, and the Boolean state
    agrees with its oracle."""
    _, j2 = generic_files
    two_points = tmp_path / "bernoulli.json"
    two_points.write_text(json.dumps({"preset": "bernoulli", "p": "1/3", "a": "2", "b": "-1"}))
    argv = ["--omega", "boolean", "--jacobi1", str(two_points), "--jacobi2", j2]
    code, out = run(capsys, "moments", *argv, "--order", "4")
    assert code == 0
    rows = {tuple(row["word"]): row["value"] for row in json.loads(out)}
    assert len(rows) == 31
    assert rows[(1, 1, 1)] == "2" and rows[(1, 1, 1, 1)] == "6"  # (1/3) 2^n + (2/3) (-1)^n
    code, out = run(capsys, "compare", *argv, "--against", "boolean", "--order", "6")
    assert code == 0
    assert json.loads(out) == {"equal": True, "order": 6}


def test_compare_against_cfree_oracle(capsys):
    """--against cfree checks the two-pair state against the c-free oracle
    built from all four marginals; the (mu1, mu2) oracles ignore the nu's,
    so --against free differs from it on the same inputs."""
    pairs = [str(GOLDEN / f"{name}.json") for name in ("j1", "nu1", "j2", "nu2")]
    argv = ["compare", "--jacobi1", pairs[0], "--nu1", pairs[1],
            "--jacobi2", pairs[2], "--nu2", pairs[3], "--order", "6"]
    code, out = run(capsys, *argv, "--against", "cfree")
    assert code == 0
    assert json.loads(out) == {"equal": True, "order": 6}
    code, out = run(capsys, *argv, "--against", "free")
    assert code == 1
    assert json.loads(out)["first_mismatch"]["word"] == [2, 1, 2]


def test_compare_against_the_direct_definitions_at_depth(capsys):
    """On the golden inputs the transfer operator equals the free oracle
    through order 12 and, on the two-pair map, the c-free oracle through
    order 11."""
    files = {name: str(GOLDEN / f"{name}.json") for name in ("j1", "j2", "nu1", "nu2")}
    marginals = ["--jacobi1", files["j1"], "--jacobi2", files["j2"]]
    code, out = run(capsys, "compare", *marginals, "--omega", "free", "--against", "free", "--order", "12")
    assert (code, json.loads(out)) == (0, {"equal": True, "order": 12})
    code, out = run(capsys, "compare", *marginals, "--nu1", files["nu1"], "--nu2", files["nu2"],
                    "--against", "cfree", "--order", "11")
    assert (code, json.loads(out)) == (0, {"equal": True, "order": 11})


def test_compare_against_cfree_needs_the_nu_files(capsys, generic_files):
    j1, j2 = generic_files
    argv = ["compare", "--jacobi1", j1, "--jacobi2", j2, "--against", "cfree", "--order", "4"]
    _assert_input_error(capsys, argv, "--nu1 and --nu2")
    _assert_input_error(capsys, [*argv, "--omega", "free"], "--nu1 and --nu2")
    _assert_input_error(capsys, [*argv, "--nu1", j1], "--nu1 and --nu2")


@pytest.mark.parametrize("against, files", [("free", 2), ("cfree", 4)])
def test_compare_reads_each_marginal_file_once(capsys, monkeypatch, against, files):
    """The map and the reference share the marginals compare read."""
    import ncprod.jacobi

    calls = []
    parse = ncprod.jacobi.jacobi_from_json
    monkeypatch.setattr(ncprod.jacobi, "jacobi_from_json", lambda obj: calls.append(obj) or parse(obj))
    inputs = ["--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    if against == "cfree":
        inputs += ["--nu1", str(GOLDEN / "nu1.json"), "--nu2", str(GOLDEN / "nu2.json")]
    else:
        inputs += ["--omega", "free"]
    code, out = run(capsys, "compare", *inputs, "--against", against, "--order", "4")
    assert (code, json.loads(out)) == (0, {"equal": True, "order": 4})
    assert len(calls) == files


def test_moments_table_obeys_letter_swap_and_reversal(capsys):
    """The written table keys each value by its word: the monotone state of
    (mu1, mu2) at w is the anti-monotone state of (mu2, mu1) at sigma w,
    sigma exchanging the letters 1 and 2, and each is its value at rev w,
    on all 511 rows through order 8."""
    def table(tree, first, second):
        code, out = run(capsys, "moments", "--omega", tree, "--jacobi1", str(GOLDEN / first),
                        "--jacobi2", str(GOLDEN / second), "--format", "csv", "--order", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "word,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert len(rows) == len(lines) - 1 == 511
        return {tuple(map(int, key.split("."))) if key else (): value for key, value in rows.items()}

    monotone = table("monotone", "j1.json", "j2.json")
    swapped = table("antimonotone", "j2.json", "j1.json")
    for w, value in monotone.items():
        assert swapped[tuple(3 - letter for letter in w)] == value, w
        assert monotone[w[::-1]] == value, w


_TWO_PAIR = ("--nu1", str(GOLDEN / "nu1.json"), "--nu2", str(GOLDEN / "nu2.json"))


@pytest.mark.parametrize(
    "against, flags",
    [
        ("free", ("--omega", "one-branch")),
        ("boolean", ("--omega", "free")),
        ("monotone", ("--omega", "free")),
        ("antimonotone", ("--omega", "monotone")),
        ("tensor", ("--omega", "free")),
        ("free", _TWO_PAIR),
        ("cfree", _TWO_PAIR),
        ("cfrac", ("--omega", "free")),
    ],
    ids=["free", "boolean", "monotone", "antimonotone", "tensor", "two-pair-free", "cfree", "cfrac"],
)
def test_compare_mismatch_report_equals_fraction_comparison(capsys, monkeypatch, against, flags):
    """compare checks numerators in integers; its first mismatch, the two
    reduced values there and the count are those of comparing word_moment
    with the public reference in Fractions.  Nothing mismatches the c-free
    oracle or the continued fraction, so those references are made to
    differ: the c-free oracle gets the two nu's swapped, and the continued
    fraction's numerators at (2,) and (1, 2, 1) gain 1."""
    from ncprod import cfrac, oracle, prodstate
    from ncprod.jacobi import jacobi_from_json
    from ncprod.words import format_rational, word_values, words_of_length, words_up_to
    from ncprod.omega import builder

    order = 6
    mu1, nu1, mu2, nu2 = (jacobi_from_json(json.loads((GOLDEN / f"{name}.json").read_text()))
                          for name in ("j1", "nu1", "j2", "nu2"))
    if flags == _TWO_PAIR:
        cm = prodstate.cfree_map(mu1, nu1, mu2, nu2, order)
    else:
        cm = prodstate.product_type_map(builder(flags[1], order), mu1, mu2)
    evaluator = prodstate.StateEvaluator(cm)
    if against == "cfree":
        real = oracle.cfree_state
        monkeypatch.setattr(oracle, "cfree_state",
                            lambda m1, n1, m2, n2, **scale: real(m1, n2, m2, n1, **scale))
        reference = real(mu1, nu2, mu2, nu1)
    elif against == "cfrac":
        bumped = {(2,): 1, (1, 2, 1): 1}
        real = cfrac.scalar_branched_parts

        def numerators(cm, order):
            parts = real(cm, order)
            for w, bump in bumped.items():
                parts[len(w)][words_of_length(2, len(w)).index(w)] += bump
            return parts

        values = dict(word_values(cm.d, cfrac.scalar_branched_parts(cm, order), cm.scale))
        monkeypatch.setattr(cfrac, "scalar_branched_parts", numerators)
        reference = lambda w: values[w] + F(bumped.get(w, 0), cm.scale ** len(w))
    else:
        reference = getattr(oracle, f"{against}_state")(mu1, mu2)
    rows = [(w, evaluator.word_moment(w), reference(w)) for w in words_up_to(2, order)]
    mismatches = [row for row in rows if row[1] != row[2]]
    word, state, expected = mismatches[0]

    argv = ["compare", "--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json"),
            *flags, "--against", against, "--order", str(order)]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "equal": False,
        "first_mismatch": {"word": list(word), "state": format_rational(state),
                           "reference": format_rational(expected)},
        "mismatch_count": len(mismatches),
    }
    code, out = run(capsys, *argv, "--format", "pretty")
    assert code == 1
    assert out == (f"MISMATCH at word {list(word)}: state {format_rational(state)} vs {against} "
                   f"{format_rational(expected)} ({len(mismatches)} differing words through order 6)\n")


def test_omega_with_two_pair_mode_is_input_error(capsys, generic_files):
    """Two-pair mode always uses the full binary tree, so a tree given with
    --nu1/--nu2 would be ignored; it is refused instead."""
    j1, j2 = generic_files
    for tree in ("one-branch", "free"):
        code = main([
            "moments", "--jacobi1", j1, "--jacobi2", j2, "--nu1", j1, "--nu2", j2,
            "--omega", tree, "--order", "3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--omega" in captured.err and "--nu1/--nu2" in captured.err


def _assert_refused(capsys, argv, line):
    """The command exits 2, prints nothing on stdout and writes exactly one
    stderr line, "input error: " and then ``line``."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: {line}\n"


def _assert_map_flags_refused(capsys, argv, j1, mode):
    """Each of --omega and --nu1/--nu2 given to a mode that builds no
    product-type map exits 2, prints nothing and names the flag."""
    for flags, named in ((("--omega", "nonsense"), "--omega"),
                         (("--nu1", j1, "--nu2", j1), "--nu1")):
        _assert_refused(capsys, [*argv, *flags],
                        f"{named} is not read by {mode}, which builds no product-type map")


def test_cfrac_classical_refuses_map_flags(capsys, generic_files):
    j1, _ = generic_files
    _assert_map_flags_refused(
        capsys, ["cfrac", "--engine", "classical", "--jacobi1", j1, "--order", "4"], j1,
        "--engine classical",
    )


def test_cfrac_classical_refuses_jacobi2(capsys, generic_files):
    """The classical engine reads one marginal; a second one is refused even
    when its file does not exist, since it would never be read."""
    j1, j2 = generic_files
    for path in (j2, "/nonexistent.json"):
        _assert_refused(
            capsys,
            ["cfrac", "--engine", "classical", "--jacobi1", j1, "--jacobi2", path, "--order", "4"],
            "--jacobi2 is not read by --engine classical, which takes its one marginal from --jacobi1",
        )


def test_mops_tensor_refuses_map_flags(capsys, generic_files):
    j1, j2 = generic_files
    _assert_map_flags_refused(
        capsys, ["mops", "--state", "tensor", "--jacobi1", j1, "--jacobi2", j2, "--order", "2"], j1,
        "--state tensor",
    )


def test_mops_q_gaussian_refuses_map_flags(capsys, generic_files):
    j1, _ = generic_files
    _assert_map_flags_refused(
        capsys, ["mops", "--state", "q-gaussian", "--order", "2"], j1, "--state q-gaussian"
    )


def _tree_file(tmp_path, depth):
    tree = tmp_path / f"tree{depth}.json"
    tree.write_text(json.dumps({"words": [[1, 2], [2, 1]], "depth": depth, "implicit_runs": True}))
    return str(tree)


# every table a product-type map feeds, in every format and engine
_TABLE_COMMANDS = [
    *(["moments", "--format", fmt] for fmt in ("json", "csv", "pretty")),
    *(["cfrac", "--engine", engine, "--format", fmt]
      for engine in ("scalar", "matricial") for fmt in ("json", "csv", "pretty")),
    *(["compare", "--against", against, "--format", fmt]
      for against in ("cfrac", "free") for fmt in ("json", "pretty")),
]


@pytest.mark.parametrize("command", _TABLE_COMMANDS, ids=" ".join)
def test_tree_file_of_depth_n_serves_the_tables_through_order_2n_plus_1(
    capsys, generic_files, tmp_path, command
):
    """A map of depth N serves every order through 2N + 1: a tree file of
    depth 2 gives through order 5 the bytes of the same tree at depth 5."""
    j1, j2 = generic_files
    inputs = ["--jacobi1", j1, "--jacobi2", j2]
    for order in range(6):
        served = [
            run(capsys, *command, *inputs, "--omega", _tree_file(tmp_path, depth), "--order", str(order))
            for depth in (2, 5)
        ]
        assert served[0] == served[1], order
        assert served[0][0] in (0, 1) and served[0][1], order


def test_tree_file_shallower_than_the_order_is_refused(capsys, generic_files, tmp_path):
    """The map's depth error is the one depth check: order 6 reads C at
    depth 3, past a tree file of depth 2, in every table command."""
    j1, j2 = generic_files
    inputs = ["--jacobi1", j1, "--jacobi2", j2, "--omega", _tree_file(tmp_path, 2)]
    for command in _TABLE_COMMANDS:
        _assert_refused(capsys, [*command, *inputs, "--order", "6"], "C query at depth 3 exceeds map depth 2")


@pytest.mark.parametrize("command", [["gram"], ["mops", "--format", "pretty"]])
def test_gram_and_mops_read_a_tree_file_of_depth_order(capsys, generic_files, tmp_path, command):
    """gram and mops read moments through order 2 * --order, which a map of
    depth --order serves: a tree file of depth 2 gives at --order 2 the
    bytes of the same tree at depth 4, and the map refuses --order 3."""
    j1, j2 = generic_files
    inputs = ["--jacobi1", j1, "--jacobi2", j2]
    outputs = []
    for depth in (2, 4):
        code, out = run(capsys, *command, *inputs, "--omega", _tree_file(tmp_path, depth), "--order", "2")
        assert code == 0 and out
        outputs.append(out)
    assert outputs[0] == outputs[1]
    _assert_refused(capsys, [*command, *inputs, "--omega", _tree_file(tmp_path, 2), "--order", "3"],
                    "C query at depth 3 exceeds map depth 2")


def test_moments_without_a_tree_or_a_nu_pair_is_refused(capsys, generic_files):
    j1, j2 = generic_files
    _assert_refused(capsys, ["moments", "--jacobi1", j1, "--jacobi2", j2, "--order", "3"],
                    "missing required --omega specification")


def test_unreadable_jacobi_file_is_refused(capsys, generic_files, tmp_path):
    _, j2 = generic_files
    absent = tmp_path / "absent.json"
    code = main(["moments", "--jacobi1", str(absent), "--jacobi2", j2, "--omega", "free", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot read {absent}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "free"),
        ("mops", "--omega", "free", "--order", "2"),
        ("compare", "--omega", "free", "--against", "free", "--order", "2"),
        ("counterexample",),
    ],
)
def test_csv_is_refused_where_no_table_is_printed(capsys, generic_files, argv):
    j1, j2 = generic_files
    inputs = ("--jacobi1", j1, "--jacobi2", j2) if argv[0] in ("mops", "compare") else ()
    with pytest.raises(SystemExit) as exc:
        main([*argv, *inputs, "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--format: invalid choice: 'csv'" in captured.err


def test_counterexample_report(capsys):
    code, out = run(capsys, "counterexample", "--q", "1/2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["inner_12_21"] == "1/2"
    assert report["q_121"] == {"2": "-1/2", "1.2.1": "1"}
    assert report["q_mops"] is False
    assert report["tensor_mops"] is False
    assert report["tensor_witness"] == [[1, 2], [2, 1]]


def test_counterexample_q_zero_is_mops(capsys):
    code, out = run(capsys, "counterexample", "--q", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["q_mops"] is True


def test_mops_command_tensor(capsys, semicircle_file):
    code, out = run(
        capsys,
        "mops",
        "--state", "tensor",
        "--jacobi1", semicircle_file,
        "--jacobi2", semicircle_file,
        "--order", "2", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mops"] is False
    assert report["witness"] == [[1, 2], [2, 1]]


def _assert_input_error(capsys, argv, message):
    """The command exits 2, prints nothing on stdout and names the problem."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and message in captured.err


def test_short_error_policy_data_is_input_error(capsys, generic_files, tmp_path):
    """Jacobi data under the "error" policy that run out before the order
    needs them are bad input, not a traceback."""
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"beta": ["1/2", "1/3"], "gamma": ["1", "2"], "extend": "error"}))
    _, j2 = generic_files
    _assert_input_error(capsys, ["moments", "--omega", "free", "--order", "6",
                                 "--jacobi1", str(short), "--jacobi2", j2], "beta_2")
    _assert_input_error(capsys, ["cfrac", "--engine", "classical", "--order", "8",
                                 "--jacobi1", str(short)], "beta_2")
    code, _ = run(capsys, "cfrac", "--engine", "classical", "--order", "3", "--jacobi1", str(short))
    assert code == 0


def test_classical_engine_reads_the_betas_its_table_reads(capsys, tmp_path):
    """m_n reads beta_k only for k <= (n - 1) // 2: one stored beta serves
    m_2 = beta_0^2 + gamma_1, and m_3 is the first moment that needs beta_1."""
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"beta": ["1/2"], "gamma": ["1", "2"], "extend": "error"}))
    argv = ["cfrac", "--engine", "classical", "--jacobi1", str(short), "--format", "csv"]
    code, out = run(capsys, *argv, "--order", "2")
    assert code == 0
    assert out.splitlines()[-1] == "1.1,5/4"
    _assert_input_error(capsys, [*argv, "--order", "3"], "beta_1 beyond stored prefix of length 1")


def test_short_error_policy_data_runs_where_no_route_reads_past_it(capsys, generic_files, tmp_path):
    """The map reads no coefficient at construction, so Jacobi data under
    the "error" policy refuse a command only when it reads past them: the
    table and the pretty fraction through order 4 read beta_0, beta_1,
    gamma_1 and gamma_2 alone, and gram and mops through --order 2 read
    moments through order 4; the free oracle's moment m_n reads beta_k only
    for k <= (n - 1) // 2, so it first needs beta_2 at order 5."""
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"beta": ["1/2", "1/3"], "gamma": ["1", "2"], "extend": "error"}))
    _, j2 = generic_files
    inputs = ["--omega", "free", "--jacobi1", str(short), "--jacobi2", j2]
    for argv in (["moments", "--order", "2"], ["cfrac", "--format", "pretty", "--order", "4"],
                 ["gram", "--order", "2"], ["mops", "--order", "2"]):
        code, out = run(capsys, *argv, *inputs)
        assert code == 0 and out, argv
    for argv in (["moments", "--order", "6"], ["cfrac", "--format", "pretty", "--order", "5"],
                 ["gram", "--order", "3"], ["compare", "--against", "free", "--order", "5"]):
        _assert_input_error(capsys, [*argv, *inputs], "beta_2")


# every command and route that reads one marginal file {f}
_ONE_DEPTH_CONTRACT = {
    "moments": "moments --omega free --jacobi1 {f} --jacobi2 {f}",
    "cfrac scalar json": "cfrac --omega free --engine scalar --jacobi1 {f} --jacobi2 {f}",
    "cfrac scalar csv": "cfrac --omega free --engine scalar --format csv --jacobi1 {f} --jacobi2 {f}",
    "cfrac matricial json": "cfrac --omega free --engine matricial --jacobi1 {f} --jacobi2 {f}",
    "cfrac matricial csv": "cfrac --omega free --engine matricial --format csv --jacobi1 {f} --jacobi2 {f}",
    "cfrac classical": "cfrac --engine classical --jacobi1 {f}",
    "compare cfrac": "compare --omega free --against cfrac --jacobi1 {f} --jacobi2 {f}",
    "compare free": "compare --omega free --against free --jacobi1 {f} --jacobi2 {f}",
    "compare boolean": "compare --omega boolean --against boolean --jacobi1 {f} --jacobi2 {f}",
    "compare monotone": "compare --omega monotone --against monotone --jacobi1 {f} --jacobi2 {f}",
    "compare antimonotone": "compare --omega antimonotone --against antimonotone --jacobi1 {f} --jacobi2 {f}",
    "compare tensor": "compare --omega free --against tensor --jacobi1 {f} --jacobi2 {f}",
    "compare cfree": "compare --against cfree --jacobi1 {f} --jacobi2 {f} --nu1 {f} --nu2 {f}",
    "cfrac pretty": "cfrac --omega free --format pretty --jacobi1 {f} --jacobi2 {f}",
}


@pytest.mark.parametrize("row", list(_ONE_DEPTH_CONTRACT))
def test_error_policy_data_refuse_every_command_at_one_order(capsys, tmp_path, row):
    """m_n reads beta_k only for k <= (n - 1) // 2 and gamma_k only for k <=
    n // 2, so two stored betas and gammas under "error" serve every order
    through 4 and refuse order 5, naming beta_2, whatever the command, the
    engine, the reference or the format: where they serve, the command gives
    the exit code and bytes of the same data under "repeat"."""
    template = _ONE_DEPTH_CONTRACT[row]
    files = {}
    for policy in ("error", "repeat"):
        files[policy] = tmp_path / f"{policy}.json"
        files[policy].write_text(json.dumps({"beta": ["1/2", "1/3"], "gamma": ["1", "2/3"], "extend": policy}))
    for order in range(2, 6):
        argv = [*template.split(), "--order", str(order)]
        if order == 5:
            _assert_input_error(capsys, [arg.format(f=files["error"]) for arg in argv],
                                "beta_2 beyond stored prefix of length 2")
        else:
            served = [run(capsys, *(arg.format(f=files[policy]) for arg in argv)) for policy in files]
            assert served[0] == served[1], (row, order)
            assert served[0][0] in (0, 1) and served[0][1], (row, order)


@pytest.mark.parametrize(
    "files",
    [["--omega", "free", "--jacobi1", "{bad}", "--jacobi2", "{j2}"],
     ["--jacobi1", "{j1}", "--jacobi2", "{j2}", "--nu1", "{nu1}", "--nu2", "{bad}"]],
    ids=["jacobi1", "nu2"],
)
def test_marginal_that_is_not_json_is_one_plain_input_error(capsys, tmp_path, files):
    """A marginal file that is not JSON is named once, in the reader's own
    words, with no prefix of the marginal's parser."""
    bad = tmp_path / "broken.json"
    bad.write_text('{"beta": [1/2]}')
    with pytest.raises(ValueError) as parsed:
        json.loads(bad.read_text())
    paths = {name: GOLDEN / f"{name}.json" for name in ("j1", "j2", "nu1")}
    assert main(["moments", "--order", "2", *(arg.format(bad=bad, **paths) for arg in files)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {bad} is not valid JSON: {parsed.value}\n"


def test_mops_q_without_q_gaussian_is_input_error(capsys, generic_files):
    j1, j2 = generic_files
    for state in (("--omega", "free"), ("--state", "tensor")):
        _assert_input_error(capsys, ["mops", *state, "--jacobi1", j1, "--jacobi2", j2,
                                     "--q", "notanumber", "--order", "2"], "--q")


def test_mops_q_gaussian_refuses_jacobi_files(capsys, generic_files):
    j1, j2 = generic_files
    for flag, path in (("--jacobi1", j1), ("--jacobi2", j2), ("--jacobi1", "/absent.json")):
        _assert_refused(capsys, ["mops", "--state", "q-gaussian", flag, path, "--order", "2"],
                        f"{flag} is not read by --state q-gaussian, which has fixed marginals")


def test_mops_q_gaussian_default_q_is_one_half(capsys):
    argv = ("mops", "--state", "q-gaussian", "--order", "3", "--format", "json")
    code_default, out_default = run(capsys, *argv)
    code_half, out_half = run(capsys, *argv, "--q", "1/2")
    assert code_default == code_half == 0
    assert out_default == out_half


def test_output_is_deterministic(capsys, generic_files):
    j1, j2 = generic_files
    args = (
        "moments",
        "--jacobi1", j1, "--jacobi2", j2,
        "--omega", "antimonotone", "--order", "5", "--format", "csv",
    )
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(capsys, monkeypatch, name):
    """Stdout and exit code are byte-identical to the frozen outputs in
    tests/golden (rewrite them with tests/golden/regenerate.py).  main
    never freezes the heap: tests and tracers call it in-process."""
    monkeypatch.chdir(GOLDEN)
    frozen = gc.get_freeze_count()
    code, out = run(capsys, *GOLDEN_CASES[name])
    assert gc.get_freeze_count() == frozen
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output_of_the_module_run(name):
    """``python -m ncprod.cli`` ends through run(): its stdout bytes and exit
    code are the golden ones too."""
    child = subprocess.run(
        [sys.executable, "-m", "ncprod.cli", *GOLDEN_CASES[name]], cwd=GOLDEN, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert child.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert child.stdout == (GOLDEN / f"{name}.out").read_bytes()


_ATEXIT_CHILD = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["ncprod", *sys.argv[1:]]
runpy.run_module("ncprod.cli", run_name="__main__")
"""


def test_module_run_freezes_the_heap_and_keeps_atexit():
    """run() freezes the heap after main returns; atexit handlers and the
    stdout flush still run at exit."""
    name = "moments-free-csv"
    child = subprocess.run(
        [sys.executable, "-c", _ATEXIT_CHILD, *GOLDEN_CASES[name]], cwd=GOLDEN, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, b"frozen at exit: True\n")
    assert child.stdout == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("alias,name", sorted(BUILTIN_ALIASES.items()))
def test_tree_aliases_accepted_by_validate_and_omega(capsys, generic_files, alias, name):
    j1, j2 = generic_files
    for argv in (
        ("validate", "{}", "--order", "4"),
        ("moments", "--jacobi1", j1, "--jacobi2", j2, "--omega", "{}", "--order", "4"),
    ):
        code_alias, out_alias = run(capsys, *(a.format(alias) for a in argv))
        code_name, out_name = run(capsys, *(a.format(name) for a in argv))
        assert code_alias == code_name == 0
        assert out_alias == out_name


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "free"),
        ("moments", "--omega", "free"),
        ("gram", "--omega", "free"),
        ("cfrac", "--omega", "free"),
        ("cfrac", "--engine", "classical"),
        ("mops", "--omega", "free"),
        ("compare", "--omega", "free", "--against", "free"),
    ],
)
def test_negative_order_is_input_error(capsys, generic_files, argv):
    j1, j2 = generic_files
    inputs = () if argv[0] == "validate" else ("--jacobi1", j1, "--jacobi2", j2)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *inputs, "--order", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--order: must be nonnegative, got -1" in captured.err


# the flags that build each row's map: two built-in trees, the two-pair map
# on the golden nu pair, and a tree file of depth 3
_MATRICIAL_ROW_MAPS = {
    "free": ("--omega", "free"),
    "one-branch": ("--omega", "one-branch"),
    "two-pair": _TWO_PAIR,
    "tree-file": ("--omega", str(GOLDEN / "two_branch_tree.json")),
}


@pytest.mark.parametrize(
    "row,orders",
    [("free", range(5)), ("one-branch", range(11)), ("free", [12]), ("one-branch", [14]),
     ("two-pair", range(10)), ("tree-file", range(4))],
)
def test_matricial_rows_equal_scalar_rows(capsys, generic_files, row, orders):
    """Every order is served exactly, by no more levels than the map built
    for that order holds: the matricial engine prints the scalar engine's
    output byte for byte in every format, also past order 10, which needs
    more than 5 levels, on the two-pair map, whose inner runs read the nu
    pair, and on a tree file through its depth."""
    j1, j2 = generic_files
    for order in orders:
        for fmt in ("json", "csv", "pretty"):
            out = {}
            for engine in ("scalar", "matricial"):
                code, out[engine] = run(capsys, "cfrac", "--engine", engine, "--jacobi1", j1, "--jacobi2", j2,
                                        *_MATRICIAL_ROW_MAPS[row], "--order", str(order), "--format", fmt)
                assert code == 0, (engine, order, fmt)
            assert out["matricial"] == out["scalar"], (order, fmt)


# names perfbench/traced.py still wraps that the library no longer has, in
# the order it installs them: the full-length expansion, the evaluator's
# polynomial extension, the series type's multiply and inverse, and the
# map-to-matrices builder moved to the tests' reference kernels or to
# oracle.functional_inner, or left with the series type.  The tracer warns
# and carries on, and their metrics read 0, as they did before on every
# workload.
RETIRED_WRAP_POINTS = [
    "jacobi.moment",
    "prodstate.expansion",
    "prodstate.eval_poly",
    "ncpoly.series_mul",
    "ncpoly.series_inverse",
    "cfrac.scalar_branched_cf",
    "cfrac.matricial_cf",
    "cfrac.matricial_from_map",
]


def test_traced_benchmark_finds_every_wrap_point(tmp_path):
    """perfbench/traced.py wraps ncpoly's arithmetic by attribute name; a wrap
    point it cannot find would leave its per-layer metrics at zero, so no
    name beyond RETIRED_WRAP_POINTS may be missing.  The moments run also
    pins the transfer operator's work: the table is one dense sweep over
    word length, with no expansion of any single word, so it makes no
    left_multiply call (pairing half-length expansions took 14 through
    order 6, and full-length ones 126).  The mops run pins its moment matrix: it comes from one moment
    table through order 4, with no word moment evaluated one at a time (one
    per entry of the 7 x 7 matrix took 49, and pair-by-pair polynomial
    products 328).  Both continued fractions solve on dense integer lists
    and give value tables, so there is no series type left to multiply.
    Only the counterexample run still multiplies polynomials, in
    functional_inner."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    inputs = ["--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    recorded = set()
    left_multiplies = {}
    word_moments = {}
    tables = {}
    runs = {
        "cfrac": ["cfrac", *inputs, "--omega", "free", "--order", "3"],
        "cfrac-matricial": ["cfrac", *inputs, "--omega", "free", "--engine", "matricial", "--order", "3"],
        "mops": ["mops", *inputs, "--omega", "free", "--order", "2"],
        "moments": ["moments", *inputs, "--omega", "free", "--order", "6"],
        "compare": ["compare", *inputs, "--omega", "free", "--against", "free", "--order", "6"],
        "counterexample": ["counterexample", "--q", "1/2"],
    }
    for name, argv in runs.items():
        spans = tmp_path / "spans.json"
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), *argv],
            env=env, stdout=subprocess.DEVNULL, check=True, timeout=120,
        )
        dump = json.loads(spans.read_text())
        assert dump["missing"] == RETIRED_WRAP_POINTS, name
        recorded |= {span[0] for span in dump["spans"]}
        left_multiplies[name] = sum(span[0] == "prodstate.left_multiply" for span in dump["spans"])
        word_moments[name] = sum(span[0] == "prodstate.word_moment" for span in dump["spans"])
        tables[name] = sum(span[0] == "prodstate.moment_table" for span in dump["spans"])
    assert "ncpoly.poly_mul" in recorded
    assert left_multiplies["moments"] == 0
    assert word_moments["mops"] == 0
    assert tables["mops"] == 1


def test_closed_pipe_exits_141_in_silence(tmp_path):
    """A reader that closes stdout early (``| head``) ends the table with exit
    code 128 + SIGPIPE and nothing on stderr, not a traceback and exit 1."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "ncprod.cli", "moments", "--omega", "free", "--order", "11",
            "--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    with open(tmp_path / "stderr.txt", "w+b") as errors:
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=errors, env=env)
        assert child.stdout.readline() == b"[\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 141
        errors.seek(0)
        assert errors.read() == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["mops", "--state", "q-gaussian", "--jacobi1", "{good}"],
        ["mops", "--omega", "free", "--order", "1", "--jacobi1", "{bad}", "--jacobi2", "{good}"],
        ["gram", "--omega", "free", "--order", "1", "--jacobi1", "{missing}", "--jacobi2", "{good}"],
        ["gram", "--omega", "free", "--order", "1", "--jacobi1", "{bad}", "--jacobi2", "{good}"],
        ["counterexample", "--q", "1/0"],
        ["validate", "{bad}"],
    ],
    ids=["mops-refused-flag", "mops-bad-marginal", "gram-missing-file", "gram-bad-marginal",
         "counterexample-bad-q", "validate-bad-tree"],
)
def test_module_run_reports_input_errors(tmp_path, argv):
    """Run as ``python -m ncprod.cli``, the commands that print through
    ``ncprod.reports`` keep the input contract: exit 2, one "input error:"
    line and nothing on stdout."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"beta": [0], "gamma": [1], "colour": 3}')
    paths = {"good": GOLDEN / "j1.json", "bad": bad, "missing": tmp_path / "missing.json"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "ncprod.cli", *(arg.format(**paths) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


_ONE_CLI_CHILD = """
import runpy, sys
sys.argv = ["ncprod", *sys.argv[1:]]
try:
    runpy.run_module("ncprod.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "ncprod.cli" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [["validate", "free"], ["gram", "--omega", "free", "--order", "1"],
     ["mops", "--omega", "free", "--order", "1"], ["counterexample"]],
    ids=lambda argv: argv[0],
)
def test_module_run_loads_one_copy_of_the_cli(argv):
    """Run as ``python -m ncprod.cli``, the CLI is ``__main__``, and no module
    a report loads imports ``ncprod.cli``: that would compile and run a
    second copy for nothing."""
    inputs = ["--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    child = subprocess.run(
        [sys.executable, "-c", _ONE_CLI_CHILD, *argv, *(inputs if "--omega" in argv else [])],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert child.stderr == "0 False\n"


# A command line is read by the plain reader or, when that returns None, by
# argparse; both read cli._COMMANDS.  Junk values: a negative number, a
# leading zero, a non-ASCII decimal digit, a digit that int refuses, the
# empty string, a flag as a value, an "=" inside a value.
_JUNK = ("-1", "07", "٣", "²", "", "--order", "a=b")


def _now_and_then(draw):
    """True once in four draws."""
    return draw(st.integers(0, 3)) == 0


@st.composite
def _command_lines(draw):
    """A command line built from the table: flags in any order, values from
    their choices or junk, and now and then a prefix, a --flag=value, a
    repeated flag, a stray positional or no command at all."""
    name = draw(st.sampled_from([*cli._COMMANDS, "nope", "-h"]))
    if name not in cli._COMMANDS:
        return draw(st.sampled_from([[], [name]]))
    _, _, positional, flags = cli._COMMANDS[name]
    chosen = draw(st.permutations(list(flags)))[: draw(st.integers(0, len(flags)))]
    if chosen and _now_and_then(draw):
        chosen.append(draw(st.sampled_from(chosen)))
    tokens = []
    for flag in chosen:
        spec = flags[flag]
        values = ("0", "3") if spec.get("type") is cli._order else spec.get("choices", ("free", "j1.json"))
        value = draw(st.sampled_from(_JUNK if _now_and_then(draw) else values))
        if _now_and_then(draw):
            if draw(st.booleans()):
                tokens += [flag[: draw(st.integers(2, len(flag) - 1))], value]
            else:
                tokens.append(f"{flag}={value}")
        else:
            tokens += [flag, value]
    if positional is not None and not _now_and_then(draw):
        tokens.insert(draw(st.sampled_from([0, draw(st.integers(0, len(tokens)))])), "free")
    if _now_and_then(draw):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["stray", "-x", *_JUNK])))
    return [name, *tokens]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_command_lines())
@example(["moments", "--format", "xml", "--format", "json"])  # the first of two values is refused
@example(["moments", "--order", "²"])  # a digit that int refuses
@example(["counterexample", "--q", "--format"])  # a flag where a value belongs
def test_plain_reader_returns_what_argparse_returns_or_none(argv):
    plain = cli._read_plain(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            assert plain is None
            return
    assert plain is None or vars(plain) == vars(parsed)


def _readme_command_lines():
    """The argv of every ``ncprod ...`` line in the README's command-line
    section, continuation lines joined."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ncprod ")]


def _benchmark_command_lines():
    """The argv of every command the benchmark's workloads run, as its
    runner builds them."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    runner = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports its sibling spans
    try:
        spec.loader.exec_module(runner)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        del sys.modules[spec.name]
    bench = SimpleNamespace(files=["j1.json", "j2.json"])
    return [
        runner.Bench.cli_args(bench, command)
        for workload in runner.WORKLOADS.values()
        for command in (*workload.timed, *workload.checks)
    ]


def test_plain_reader_takes_every_documented_and_benchmarked_command_line():
    """The golden cases, the README's examples and the benchmark's workloads
    never build the argparse parser."""
    readme, bench = _readme_command_lines(), _benchmark_command_lines()
    assert len(readme) == 8 and len(bench) == 9
    for argv in (*GOLDEN_CASES.values(), *readme, *bench):
        plain = cli._read_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(cli.build_parser().parse_args(argv))


def test_help_is_argparse_help():
    child = subprocess.run(
        [sys.executable, "-m", "ncprod.cli", "moments", "--help"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert child.returncode == 0
    assert child.stdout.startswith("usage: ncprod moments")
    assert child.stderr == ""


@pytest.mark.parametrize("spelling", [("--ord", "3"), ("--order=3",)])
def test_argparse_reads_what_the_plain_reader_leaves(capsys, generic_files, spelling):
    j1, j2 = generic_files
    inputs = ("moments", "--jacobi1", j1, "--jacobi2", j2, "--omega", "free")
    assert cli._read_plain([*inputs, *spelling]) is None
    assert run(capsys, *inputs, *spelling) == run(capsys, *inputs, "--order", "3")


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        ([], "usage: ncprod [-h]", "ncprod: error: the following arguments are required: command"),
        (["compare", "--omega", "free"], "usage: ncprod compare [-h]",
         "ncprod compare: error: the following arguments are required: --against"),
    ],
    ids=["no-command", "compare-without-against"],
)
def test_usage_errors_are_argparse_errors(argv, usage, error):
    child = subprocess.run(
        [sys.executable, "-m", "ncprod.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr.startswith(usage)
    assert child.stderr.splitlines()[-1] == error
