"""Rewrite the golden CLI outputs in this directory.

Usage: PYTHONPATH=src python tests/golden/regenerate.py

Each entry of cases.json maps a case name to a CLI argument list, run from
this directory.  The case's stdout goes to <name>.out and its exit code to
exit_codes.json.  Run it only when a change to the CLI's output is intended,
and review the diff it leaves.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from ncprod.cli import main

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    os.chdir(HERE)
    codes = {}
    for name, argv in json.loads((HERE / "cases.json").read_text()).items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes[name] = main(argv)
        (HERE / f"{name}.out").write_text(out.getvalue())
    (HERE / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
