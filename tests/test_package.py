"""The package namespace, the value types' contracts, and the scripts that
import through them."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncprod
from ncprod import JacobiData, MatricialData, OmegaTree

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


def test_dir_lists_every_public_name():
    assert set(ncprod.__all__) <= set(dir(ncprod))
    assert "__version__" in dir(ncprod)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncprod.no_such_name  # noqa: B018
    assert not hasattr(ncprod, "dataclass")


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


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        (["moments", "--omega", "free", "--order", "3"],
         {"ncprod.prodstate"}, {"ncprod.cfrac", "ncprod.oracle", "dataclasses", *POLYNOMIAL}),
        (["cfrac", "--engine", "scalar", "--omega", "free", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL}),
        (["cfrac", "--engine", "matricial", "--omega", "free", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL}),
        (["compare", "--omega", "free", "--against", "cfrac", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL}),
        (["compare", "--omega", "free", "--against", "free", "--order", "3"],
         {"ncprod.oracle"}, {"ncprod.cfrac", "dataclasses", *POLYNOMIAL}),
        (["mops", "--omega", "free", "--order", "1"],
         {"ncprod.ncpoly", "ncprod.oracle"}, {"ncprod.cfrac", "dataclasses"}),
        (["gram", "--omega", "free", "--order", "1"],
         {"ncprod.ncpoly", "ncprod.prodstate"}, {"ncprod.cfrac", "ncprod.oracle"}),
        (["validate", "free"], {"ncprod.omega"}, {"ncprod.jacobi", "ncprod.prodstate", *POLYNOMIAL}),
        (["cfrac", "--engine", "classical", "--order", "3"],
         {"ncprod.cfrac"}, {"ncprod.oracle", "dataclasses", *POLYNOMIAL}),
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
    matrices = dict(d=1, t=((((F(0),),),),), c=())
    md = MatricialData(**matrices)
    assert md == md and md != MatricialData(**matrices)
    with pytest.raises(AttributeError):
        md.d = 2
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
