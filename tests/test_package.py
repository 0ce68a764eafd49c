"""The package namespace, the value types' contracts, and the scripts that
import through them."""

import ast
import copy
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncprod
from ncprod import JacobiData, OmegaTree

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
F = Fraction


def test_every_public_name_resolves_to_its_home_module():
    for name in ncprod.__all__:
        value = getattr(ncprod, name)
        if name in ncprod._EXPORTS:
            assert value is sys.modules[f"ncprod.{name}"]
        else:
            assert value is getattr(sys.modules[f"ncprod.{ncprod._HOME[name]}"], name), name


def test_readme_api_quickstart_runs_as_written():
    """The README's API quick start runs as printed, and every expression
    in it gives the result its trailing comment names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart (API)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    results = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            results.append((repr(value), lines[statement.end_lineno - 1].split("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert [comment for _, comment in results] == [
        "Fraction(1, 1)", "Fraction(0, 1)", "True", "Fraction(1, 1)", "True"]
    assert all(value == comment for value, comment in results), results


def test_dir_lists_every_public_name():
    assert set(ncprod.__all__) <= set(dir(ncprod))
    assert "__version__" in dir(ncprod)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncprod.no_such_name  # noqa: B018
    assert not hasattr(ncprod, "dataclass")


def test_lazy_submodule_load_is_timed_by_importtime():
    """A submodule loaded through the package's __getattr__ gets its own
    -X importtime line, so its start-up cost shows in the standard tool."""
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "from ncprod import omega"],
        env=ENV, capture_output=True, text=True, check=True, timeout=120,
    )
    timed = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "ncprod.omega" in timed, done.stderr


# Runs in a fresh process (pytest itself has loaded most of the standard
# library), without site hooks, so sys.modules holds only what the
# subcommand loaded.
LOADED_MODULES = """
import json, sys
from ncprod.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


# the polynomial layer, which no table command loads
POLYNOMIAL = {"ncprod.ncpoly"}
# the reports, the tree checks and the basis polynomials, which no table
# command runs
NOT_TABLES = {"ncprod.reports", "ncprod.treecheck", "ncprod.basis"}
# argparse and the gettext it imports: loaded only for help and usage errors,
# never for a plain command line
ARGPARSE = {"argparse", "gettext"}


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        (["moments", "--omega", "free", "--order", "3"],
         {"ncprod.prodstate"},
         {"ncprod.cfrac", "ncprod.oracle", "dataclasses", *POLYNOMIAL, *NOT_TABLES, *ARGPARSE}),
        (["cfrac", "--engine", "scalar", "--omega", "free", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL, *NOT_TABLES, *ARGPARSE}),
        (["cfrac", "--engine", "matricial", "--omega", "free", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL, *NOT_TABLES, *ARGPARSE}),
        (["compare", "--omega", "free", "--against", "cfrac", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL, *NOT_TABLES, *ARGPARSE}),
        (["compare", "--omega", "free", "--against", "free", "--order", "3"],
         {"ncprod.oracle"}, {"ncprod.cfrac", "dataclasses", *POLYNOMIAL, *NOT_TABLES, *ARGPARSE}),
        (["mops", "--omega", "free", "--order", "1"],
         {"ncprod.ncpoly", "ncprod.oracle", "ncprod.reports"}, {"ncprod.cfrac", "dataclasses", *ARGPARSE}),
        (["gram", "--omega", "free", "--order", "1"],
         {"ncprod.ncpoly", "ncprod.prodstate", "ncprod.reports", "ncprod.basis"},
         {"ncprod.cfrac", "ncprod.oracle", *ARGPARSE}),
        (["validate", "free"], {"ncprod.omega", "ncprod.reports", "ncprod.treecheck"},
         {"ncprod.jacobi", "ncprod.prodstate", *POLYNOMIAL, *ARGPARSE}),
        (["cfrac", "--engine", "classical", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL, *NOT_TABLES, *ARGPARSE}),
        (["moments", "--omega", str(GOLDEN / "two_branch_tree.json"), "--order", "3"],
         {"ncprod.prodstate", "ncprod.treecheck"},
         {"ncprod.reports", "ncprod.basis", *POLYNOMIAL, *ARGPARSE}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, loaded, not_loaded):
    inputs = []
    if argv[0] != "validate":
        inputs = ["--jacobi1", str(GOLDEN / "j1.json")]
        if "classical" not in argv:  # the classical engine reads one marginal
            inputs += ["--jacobi2", str(GOLDEN / "j2.json")]
    done = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_MODULES, *argv, *inputs],
        env=ENV, capture_output=True, text=True, check=True, timeout=120,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded <= set(modules)
    assert not not_loaded & set(modules)
    # no module imports typing: annotations are strings, and the aliases
    # come from collections.abc
    assert "typing" not in modules


# the three engines called from the library, each checked on a value it
# must give; they hand out dense integer parts, so no polynomial or series
# is built
ENGINE_MODULES = """
import json, sys
from ncprod.cfrac import chain_map, matricial_map_parts, scalar_branched_parts
from ncprod.jacobi import preset
from ncprod.omega import builder
from ncprod.prodstate import product_type_map
from ncprod.words import word_values
semi = preset("semicircle")
chain = chain_map(semi, 4)
assert list(word_values(1, scalar_branched_parts(chain, 4), chain.scale))[4] == ((1, 1, 1, 1), 2)
cm = product_type_map(builder("free", 4), semi, semi)
assert dict(word_values(2, scalar_branched_parts(cm, 4), cm.scale))[(1, 2, 2, 1)] == 1
assert list(word_values(1, matricial_map_parts(chain, 4), chain.scale))[2] == ((1, 1), 1)
print(json.dumps(sorted(sys.modules)))
"""


def test_engines_load_no_polynomial_layer():
    done = subprocess.run(
        [sys.executable, "-S", "-c", ENGINE_MODULES],
        env=ENV, capture_output=True, text=True, check=True, timeout=120,
    )
    modules = set(json.loads(done.stdout.splitlines()[-1]))
    assert "ncprod.cfrac" in modules
    assert not {"ncprod.ncpoly", "typing"} & modules


def _negative_order_calls():
    """Every library function that takes an order or a depth, called with -1."""
    from ncprod import cfrac, gram_matrix, gram_schmidt_mops, oracle, prodstate

    semi = ncprod.preset("semicircle")
    cm = prodstate.product_type_map(ncprod.builder("free", 3), semi, semi)
    return {
        "moment_parts": lambda: prodstate.moment_parts(cm, -1),
        "moment_table": lambda: prodstate.moment_table(cm, -1),
        "scalar_branched_parts": lambda: cfrac.scalar_branched_parts(cm, -1),
        "matricial_map_parts": lambda: cfrac.matricial_map_parts(cm, -1),
        "chain_map": lambda: cfrac.chain_map(semi, -1),
        "gram_matrix": lambda: gram_matrix(cm, -1),
        "gram_schmidt_mops": lambda: gram_schmidt_mops(oracle.free_state(semi, semi), -1),
        "render_branched_cf": lambda: cfrac.render_branched_cf(cm, -1),
    }


@pytest.mark.parametrize("name", sorted(_negative_order_calls()))
def test_negative_order_or_depth_is_refused(name):
    """A negative order or depth is refused, never read as an empty or a
    root-only request."""
    with pytest.raises(ValueError, match="must be nonnegative"):
        _negative_order_calls()[name]()


def test_map_errors_stay_input_errors(capsys, monkeypatch):
    """The map's depth error and the Jacobi data's range error are
    ValueErrors, so main reports them without naming them or importing
    their modules; raised from a subcommand they exit 2."""
    from ncprod import jacobi, prodstate
    from ncprod.cli import main

    inputs = ["--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    for error in (prodstate.DepthExhaustedError("too deep"), jacobi.JacobiRangeError("too far")):
        def raising(*args, error=error):
            raise error

        monkeypatch.setattr(prodstate, "moment_parts", raising)
        assert main(["moments", *inputs, "--omega", "free", "--order", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: {error}\n")


def test_key_error_is_not_an_input_error(monkeypatch):
    """No input is refused by a KeyError, so one raised from a subcommand is
    a bug: it leaves main as it is, not as an input error with exit 2."""
    from ncprod import prodstate
    from ncprod.cli import main

    def raising(*args):
        raise KeyError("internal")

    monkeypatch.setattr(prodstate, "moment_parts", raising)
    inputs = ["--jacobi1", str(GOLDEN / "j1.json"), "--jacobi2", str(GOLDEN / "j2.json")]
    with pytest.raises(KeyError):
        main(["moments", *inputs, "--omega", "free", "--order", "2"])


def test_frozen_records_keep_their_contracts():
    data = JacobiData(beta=(F(1, 2),), gamma=("3/4",), extend="repeat-last")
    assert (data.beta, data.gamma, data.extend) == ((F(1, 2),), (F(3, 4),), "repeat")
    same = JacobiData((F(1, 2),), (F(3, 4),))
    assert data == same and hash(data) == hash(same)
    assert data != JacobiData((F(1, 2),), (F(3, 4),), "zero")
    tree = OmegaTree(depth=1, members=frozenset({(), (1,), (2,)}))
    assert tree == OmegaTree(1, frozenset({(), (1,), (2,)}))
    assert len({tree, OmegaTree(1, frozenset({(), (1,), (2,)}))}) == 1
    for value in (data, tree):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        field = value.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(data) == f"JacobiData(beta={data.beta!r}, gamma={data.gamma!r}, extend='repeat')"


@pytest.mark.parametrize(
    "script", ["associativity_search.py", "counterexample_report.py", "product_gallery.py"]
)
def test_script_runs(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_cross_route_sweep_agrees_on_every_tree_with_words_to_length_3():
    """The small half of ``scripts/cross_route_sweep.py``, in-process: on
    each of the 64 trees with words to length 3, every route gives the
    transfer-operator table's numerators through order 5, the most a
    depth-2 map serves, and the 64 tables differ; on the full tree, so do
    the free and c-free oracles through the script's order."""
    spec = importlib.util.spec_from_file_location("cross_route_sweep", ROOT / "scripts" / "cross_route_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.SWEEPS[0] == (3, 5)
    assert sweep.sweep(3, 5) == (64, 64, None)
    assert sweep.oracle_disagreement(sweep.ORACLE_ORDER) is None
