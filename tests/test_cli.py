"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
    from ncprod.words import format_rational, words_of_length, words_up_to
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

        series = cfrac.scalar_branched_cf(cm, order)
        monkeypatch.setattr(cfrac, "scalar_branched_parts", numerators)
        reference = lambda w: series.coefficient(w) + F(bumped.get(w, 0), cm.scale ** len(w))
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


def _assert_map_flags_refused(capsys, argv, j1):
    """Each of --omega and --nu1/--nu2 given to a mode that builds no
    coefficient map exits 2, prints nothing and names the flag."""
    for flags, named in ((("--omega", "nonsense"), "--omega"),
                         (("--nu1", j1, "--nu2", j1), "--nu1")):
        code = main([*argv, *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert named in captured.err and "builds no coefficient map" in captured.err


def test_cfrac_classical_refuses_map_flags(capsys, generic_files):
    j1, _ = generic_files
    _assert_map_flags_refused(
        capsys, ["cfrac", "--engine", "classical", "--jacobi1", j1, "--order", "4"], j1
    )


def test_cfrac_classical_refuses_jacobi2(capsys, generic_files):
    """The classical engine reads one marginal; a second one is refused even
    when its file does not exist, since it would never be read."""
    j1, j2 = generic_files
    for path in (j2, "/nonexistent.json"):
        _assert_input_error(capsys, ["cfrac", "--engine", "classical", "--jacobi1", j1,
                                     "--jacobi2", path, "--order", "4"], "--jacobi2")


def test_mops_tensor_refuses_map_flags(capsys, generic_files):
    j1, j2 = generic_files
    _assert_map_flags_refused(
        capsys, ["mops", "--state", "tensor", "--jacobi1", j1, "--jacobi2", j2, "--order", "2"], j1
    )


def test_mops_q_gaussian_refuses_map_flags(capsys, generic_files):
    j1, _ = generic_files
    _assert_map_flags_refused(capsys, ["mops", "--state", "q-gaussian", "--order", "2"], j1)


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


def test_mops_q_without_q_gaussian_is_input_error(capsys, generic_files):
    j1, j2 = generic_files
    for state in (("--omega", "free"), ("--state", "tensor")):
        _assert_input_error(capsys, ["mops", *state, "--jacobi1", j1, "--jacobi2", j2,
                                     "--q", "notanumber", "--order", "2"], "--q")


def test_mops_q_gaussian_refuses_jacobi_files(capsys, generic_files):
    j1, j2 = generic_files
    for flag, path in (("--jacobi1", j1), ("--jacobi2", j2), ("--jacobi1", "/absent.json")):
        _assert_input_error(capsys, ["mops", "--state", "q-gaussian", flag, path,
                                     "--order", "2"], flag)


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
    tests/golden (rewrite them with tests/golden/regenerate.py)."""
    monkeypatch.chdir(GOLDEN)
    code, out = run(capsys, *GOLDEN_CASES[name])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


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


def test_matricial_order_beyond_its_levels_is_input_error(capsys, tmp_path):
    # the marginal files do not exist: the order is refused before anything is read
    absent = str(tmp_path / "absent.json")
    code = main([
        "cfrac", "--engine", "matricial", "--jacobi1", absent, "--jacobi2", absent,
        "--omega", "free", "--order", "11",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exact only through order 10; got --order 11" in captured.err


@pytest.mark.parametrize("omega,orders", [("free", range(5)), ("one-branch", range(11))])
def test_matricial_rows_equal_scalar_rows(capsys, generic_files, omega, orders):
    """Every order the matricial engine accepts is served, by no more levels
    than the map built for that order holds."""
    j1, j2 = generic_files
    for order in orders:
        out = {}
        for engine in ("scalar", "matricial"):
            code, out[engine] = run(capsys, "cfrac", "--engine", engine, "--jacobi1", j1,
                                    "--jacobi2", j2, "--omega", omega, "--order", str(order))
            assert code == 0, (engine, order)
        assert out["matricial"] == out["scalar"], order


def test_traced_benchmark_finds_every_wrap_point(tmp_path):
    """perfbench/traced.py wraps ncpoly's arithmetic by attribute name; a wrap
    point it cannot find would leave its per-layer metrics at zero.  The
    moments run also pins the transfer operator's work: each word is
    evaluated from two half-length expansions, so a table through order 6
    expands each word of length 1 to 3 once, one left_multiply apiece
    (2 + 4 + 8 = 14; full-length expansions would take 126).  The free
    oracle's comparison pins the marginal moments: each of the 2 marginals
    is needed at indices 0..6, so at most 14 jacobi.moment calls (the oracle
    reads its moment sequences and makes none; rebuilding every moment from
    scratch took 3,602).  The mops run pins its moment matrix: the 7 words
    through length 2 give 7 x 7 = 49 word moments (pair-by-pair polynomial
    products took 328).  No command inverts or multiplies an NCSeries: both
    continued fractions solve on dense integer lists (the scalar one took
    one inverse per node it reached, 3 through order 3, and the matricial
    one multiplied series matrices in its Neumann steps).  Only the
    counterexample run still multiplies polynomials, in functional_inner."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    inputs = ["--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    recorded = set()
    left_multiplies = {}
    moment_calls = {}
    word_moments = {}
    inverses = {}
    products = {}
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
        assert dump["missing"] == [], name
        recorded |= {span[0] for span in dump["spans"]}
        left_multiplies[name] = sum(span[0] == "prodstate.left_multiply" for span in dump["spans"])
        moment_calls[name] = dump["totals"]["jacobi.moment"][0]
        word_moments[name] = sum(span[0] == "prodstate.word_moment" for span in dump["spans"])
        inverses[name] = sum(span[0] == "ncpoly.series_inverse" for span in dump["spans"])
        products[name] = sum(span[0] == "ncpoly.series_mul" for span in dump["spans"])
    assert "ncpoly.poly_mul" in recorded
    assert products == dict.fromkeys(runs, 0)
    assert left_multiplies["moments"] == 14
    assert word_moments["mops"] == 49
    assert inverses == dict.fromkeys(runs, 0)
    assert moment_calls["compare"] <= 14


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
    ],
    ids=["mops-refused-flag", "mops-bad-marginal", "gram-missing-file", "gram-bad-marginal",
         "counterexample-bad-q"],
)
def test_module_run_reports_input_errors(tmp_path, argv):
    """Run as ``python -m ncprod.cli``, the polynomial reports keep the input
    contract: exit 2, one "input error:" line and nothing on stdout."""
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
