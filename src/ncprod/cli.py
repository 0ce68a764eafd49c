"""Command-line interface.

Subcommands: validate | moments | gram | cfrac | mops | compare |
counterexample.  Inputs are JSON files for one-variable states (Jacobi data
or presets) and tree specifications (builtin name or JSON file); outputs are
JSON or pretty text, and CSV for the tables of moments, gram and cfrac,
deterministic for identical inputs (words in graded-lexicographic order,
rationals in lowest terms).  --omega picks the tree of a product-type
state; two-pair mode (--nu1/--nu2) runs on ``prodstate.cfree_map``, whose
tree is always the full one, so it refuses --omega; compare --against
cfree checks it against the two-pair oracle and needs --nu1/--nu2.  Where
the flags pick no product-type map (cfrac --engine classical, which runs on
the chain map of its one marginal, mops --state tensor or q-gaussian),
--omega and --nu1/--nu2 are refused rather than ignored, and so are cfrac
--engine classical's --jacobi2, mops --q without --state q-gaussian and
--jacobi1/--jacobi2 with it.

Each file kind has one reader, which refuses a non-object, an unknown key
and a value of the wrong type: ``jacobi.jacobi_from_json`` for marginals,
``treecheck.omega_from_json`` for trees.  A JSON number reaches them as the
exact Fraction of its literal text.  Every refusal of the inputs, here or
in the library, is a ValueError, the one type ``main`` reports as one
"input error:" line and exit code 2.

Every module but ``omega`` and ``words`` is imported by the subcommands
that run it, so a process compiles and loads only what its subcommand uses.
That holds for argparse too: each subcommand and its flags are described
once, in ``_COMMANDS``, and a plain command line (``COMMAND [SPEC] (--flag
value)...``, as every example and the benchmark write it) is read from that
table directly.  argparse is imported, and its parser built from the same
table, only for help and usage errors (and the spellings the plain reader
leaves to it, such as ``--ord 3`` or ``--order=3``), so its messages and
exit codes are the only ones.  The table commands (``moments``, ``cfrac``
with each engine, ``compare``) run on the integer core: they load no
polynomial module (:mod:`ncprod.ncpoly`, :mod:`ncprod.basis`), no report
and, on a built-in tree, no tree check (:mod:`ncprod.treecheck`, which only
a tree file and ``validate`` load).  ``validate``, ``gram``, ``mops`` and
``counterexample`` load their inputs here and print what
:mod:`ncprod.reports` computes; ``gram`` and ``mops --state omega`` read
every moment of the state from the one dense table,
``prodstate.moment_table`` through order 2 * --order.

Every map is built at depth --order (at least 1), or at a tree file's own
"depth", and the map's ``DepthExhaustedError`` is the one depth check: a
map of depth N serves the tables through order 2N + 1, and ``gram`` and
``mops`` through --order N.  ``cfrac --format pretty`` renders the fraction
that the scalar engine solves at --order, so it reads what the table reads.

``compare`` checks each word in integers.  The state's numerators
D^|w| phi(w), with D the coefficient map's scale, are the transfer
operator's dense table (``prodstate.moment_parts``), the integers that
``moments`` divides once per word; the reference gives its numerators over
the same D^|w|, the oracles built at that scale and read word by word
(the free and c-free ones from a dense table of their own) and the scalar
continued fraction as its own dense integer table on the same map, compared
list to list.  Two equal integers mean two equal moments, so a ``Fraction``
is built only for the first mismatch it reports.  The moments and cfrac
tables go through one writer that takes dense integer numerators over D^m,
one list per degree: ``moments`` and every ``cfrac`` engine hand it their
tables as they come (``classical`` the scalar engine's, on the chain map).
It builds each degree's row stems from the previous degree's, reduces each
distinct value of a degree with one gcd and writes each degree as one join.

Exit codes: 0 on success, 1 on mathematical failure (invalid tree, mismatch
in a comparison), 2 on input errors, including a negative --order, a read
past the map's depth and Jacobi data under the "error" extension policy too
short for a coefficient the command reads, and 141 (128 + SIGPIPE) with
nothing on stderr when the reader closes stdout early, as ``| head`` does.  A process ends through
:func:`run`, which freezes the heap before it exits (see there).
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from . import omega
from .words import format_rational, parse_rational, words_of_length

# typing.TYPE_CHECKING without loading typing; type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from .jacobi import JacobiData
    from .prodstate import CoefficientMap

    # (mu1, mu2, nu1, nu2); the nu's are None outside two-pair mode
    Marginals = tuple[JacobiData, JacobiData, JacobiData | None, JacobiData | None]


def _order(text: str) -> int:
    """argparse type of --order: a nonnegative integer.  It runs only on the
    argparse path; the plain reader takes --order in ASCII digits alone,
    which ``int`` reads the same way, and leaves the rest to argparse, so
    every refusal of --order is this function's message."""
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_json(path: str) -> object:
    """The file's JSON value, each non-integer number the Fraction of its text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=Fraction)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_jacobi(path: str | None, what: str) -> JacobiData:
    from . import jacobi

    if path is None:
        raise ValueError(f"missing required jacobi file for {what}")
    obj = _load_json(path)
    try:
        return jacobi.jacobi_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"bad jacobi data in {path}: {exc}") from exc


def _load_tree(spec: str, depth: int) -> omega.OmegaTree:
    """A builtin name, or any alias of one, builds a tree of the given depth;
    otherwise the spec names a JSON tree file, read at ``depth`` when it has
    no "depth" of its own."""
    if spec in omega.BUILTIN_OMEGAS or spec in omega.BUILTIN_ALIASES:
        return omega.builder(spec, depth)
    from . import treecheck

    obj = _load_json(spec)
    if isinstance(obj, dict) and "depth" not in obj:
        obj = {**obj, "depth": depth}
    try:
        return treecheck.omega_from_json(obj)
    except omega.OmegaValidationError:
        raise
    except ValueError as exc:
        raise ValueError(f"bad tree specification in {spec}: {exc}") from exc


def _load_marginals(args) -> Marginals:
    """(mu1, mu2, nu1, nu2) from --jacobi1, --jacobi2, --nu1 and --nu2, each
    file read once; the nu's are None outside two-pair mode, which refuses
    --omega."""
    nu1 = getattr(args, "nu1", None)
    nu2 = getattr(args, "nu2", None)
    if (nu1 is None) != (nu2 is None):
        raise ValueError("--nu1 and --nu2 must be given together")
    if nu1 is not None and args.omega is not None:
        raise ValueError(
            "--omega cannot be combined with --nu1/--nu2: the two-pair state "
            "always lives on the full binary tree"
        )
    j1 = _load_jacobi(args.jacobi1, "--jacobi1")
    j2 = _load_jacobi(args.jacobi2, "--jacobi2")
    if nu1 is None:
        return j1, j2, None, None
    return j1, j2, _load_jacobi(nu1, "--nu1"), _load_jacobi(nu2, "--nu2")


def _build_map(args, marginals: Marginals | None = None) -> CoefficientMap:
    """The coefficient map the flags name, on ``marginals`` as
    :func:`_load_marginals` returns them, read from the files if not given.
    It has depth --order (at least 1), or a tree file's own "depth", and
    refuses a read past it itself (see the module docstring)."""
    from . import prodstate

    depth = max(args.order, 1)
    mu1, mu2, nu1, nu2 = _load_marginals(args) if marginals is None else marginals
    if nu1 is None:
        if args.omega is None:
            raise ValueError("missing required --omega specification")
        return prodstate.product_type_map(_load_tree(args.omega, depth), mu1, mu2)
    return prodstate.cfree_map(mu1, nu1, mu2, nu2, depth)


# --omega and --nu1/--nu2 pick a product-type map
_MAP_FLAGS = ("omega", "nu1", "nu2")


def _refuse(args, flags: Sequence[str], mode: str, why: str) -> None:
    """Refuse the first of ``flags`` that is given, since ``mode`` does not
    read it, rather than ignore it."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is not read by {mode}, which {why}")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _ratio(n: int, q: int) -> str:
    """n / q in lowest terms for q > 0, as ``str(Fraction(n, q))`` prints it."""
    g = math.gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


# how a table is framed: its opening, the head of the empty word's row (in
# pretty its key, padded like the others), the text before a key, between
# two letters and between the key and the value, the text between two rows
# and the closing
_TABLE_FRAMES = {
    "json": ("[\n", '  {\n    "word": [],\n    "value": "', '  {\n    "word": [\n      ',
             ",\n      ", '\n    ],\n    "value": "', '"\n  },\n', '"\n  }\n]\n'),
    "csv": ("word,value\n", ",", "", ".", ",", "\n", "\n"),
    "pretty": ("", "()", "", ".", " ", "\n", "\n"),
}


def _emit_table(parts: Sequence[Sequence[int]], d: int, fmt: str, scale: int) -> None:
    """The table of every word's value through order len(parts) - 1, in
    graded-lex order: parts[m] holds the int numerators over scale^m of the
    d^m words of length m at their base-d indices.  Each distinct value of a
    degree is written in lowest terms with one gcd against the degree's
    denominator; the cache is per degree, because one numerator over scale^m
    and over scale^(m+1) prints differently.  Each row of a degree starts
    with its stem: the row separator, the row opening and the key.  The
    next degree's stems are each stem plus the letter separator plus a
    letter, and a degree is written as one join of its stems, the text
    between key and value, which is the same for every row of the degree,
    and its values.  That holds because the letters 1..d print as one digit
    each, so every key of a degree has one length and pretty pads them
    alike.  The json is the text of json.dumps([{"word": [...], "value":
    "p/q"}, ...], indent=2), built directly: a letter is an int and a value
    holds only digits, "-" and "/", so nothing needs escaping."""
    if d > 9:
        raise ValueError(f"a table is written for at most 9 letters, not {d}")
    opening, empty, before, sep, between, row_sep, closing = _TABLE_FRAMES[fmt]
    letters = [str(i) for i in range(1, d + 1)]
    width = 0
    if fmt == "pretty":
        # every key padded to the longest one's length plus 2
        top = len(parts) - 1
        width = 2 * top + 1 if top else 2
        empty = empty.ljust(width) + between
    write = sys.stdout.write
    write(opening)
    steps = [sep + letter for letter in letters]
    stems = [row_sep + before]
    for m, values in enumerate(parts):
        q = scale**m
        # a product-type moment depends on the word's run structure, so
        # values repeat: each distinct one is reduced and printed once
        text = dict.fromkeys(values)
        for n in text:
            text[n] = _ratio(n, q)
        if m == 0:
            write(empty + text[values[0]])
            continue
        stems = [stem + step for stem in stems for step in (letters if m == 1 else steps)]
        # in pretty, a key of m letters is 2m - 1 long; elsewhere width is 0
        rows = [" " * (width - 2 * m + 1) + between] * (3 * len(stems))
        rows[::3] = stems
        rows[2::3] = map(text.__getitem__, values)
        write("".join(rows))
    write(closing)


def cmd_validate(args) -> int:
    from . import reports

    try:
        tree = _load_tree(args.spec, args.order)
    except omega.OmegaValidationError as exc:
        _emit(reports.invalid_tree(exc, args.format))
        return 1
    _emit(reports.valid_tree(tree, args.format))
    return 0


def cmd_moments(args) -> int:
    from . import prodstate

    cm = _build_map(args)
    _emit_table(prodstate.moment_parts(cm, args.order), cm.d, args.format, cm.scale)
    return 0


def cmd_gram(args) -> int:
    from . import reports

    cm = _build_map(args)
    _emit(reports.gram(cm, args.order, args.format))
    return 0


def cmd_cfrac(args) -> int:
    from . import cfrac

    if args.engine == "classical":
        _refuse(args, _MAP_FLAGS, "--engine classical", "builds no product-type map")
        _refuse(args, ("jacobi2",), "--engine classical", "takes its one marginal from --jacobi1")
        cm = cfrac.chain_map(_load_jacobi(args.jacobi1, "--jacobi1"), args.order)
    else:
        cm = _build_map(args)
    # integer numerators by degree over D^m: no Fraction per row
    if args.engine == "matricial":
        parts = cfrac.matricial_map_parts(cm, args.order)
    else:
        parts = cfrac.scalar_branched_parts(cm, args.order)
    if args.format == "pretty" and args.engine != "classical":
        _emit(cfrac.render_branched_cf(cm, args.order))
        _emit("")
    _emit_table(parts, cm.d, args.format, cm.scale)
    return 0


def cmd_mops(args) -> int:
    from . import oracle, reports

    if args.state != "omega":
        _refuse(args, _MAP_FLAGS, f"--state {args.state}", "builds no product-type map")
    if args.state == "q-gaussian":
        _refuse(args, ("jacobi1", "jacobi2"), "--state q-gaussian", "has fixed marginals")
    elif args.q is not None:
        raise ValueError(f"--q is read only by --state q-gaussian, not by --state {args.state}")
    if args.state == "tensor":
        j1 = _load_jacobi(args.jacobi1, "--jacobi1")
        j2 = _load_jacobi(args.jacobi2, "--jacobi2")
        phi = oracle.tensor_state(j1, j2)
    elif args.state == "q-gaussian":
        phi = oracle.q_gaussian_state(parse_rational(args.q if args.q is not None else "1/2"))
    else:
        from . import prodstate

        cm = _build_map(args)
        phi = dict(prodstate.moment_table(cm, 2 * args.order)).__getitem__
    _emit(reports.mops(phi, args.state, args.order, args.format))
    return 0


# the oracles of one (mu1, mu2) pair: each is oracle.<name>_state(mu1, mu2)
_ORACLES = ("free", "boolean", "monotone", "antimonotone", "tensor")


def cmd_compare(args) -> int:
    from . import prodstate

    if args.against == "cfree" and args.nu1 is None:
        raise ValueError("--against cfree needs --nu1 and --nu2")
    marginals = mu1, mu2, nu1, nu2 = _load_marginals(args)
    cm = _build_map(args, marginals)
    # each side gives D^|w| phi(w), with D the map's scale, by degree
    state = prodstate.moment_parts(cm, args.order)
    if args.against == "cfrac":
        from . import cfrac

        reference = cfrac.scalar_branched_parts(cm, args.order)
    else:
        from . import oracle

        if args.against == "cfree":
            phi = oracle.cfree_state(mu1, nu1, mu2, nu2, scale=cm.scale)
        else:
            # looked up at call time, so that a replaced factory is the one called
            phi = getattr(oracle, f"{args.against}_state")(mu1, mu2, scale=cm.scale)
        reference = [list(map(phi, words_of_length(cm.d, m))) for m in range(args.order + 1)]
    mismatches = [
        (m, x, left, right)
        for m, (lefts, rights) in enumerate(zip(state, reference))
        for x, (left, right) in enumerate(zip(lefts, rights))
        if left != right
    ]
    if not mismatches:
        _emit(
            json.dumps({"equal": True, "order": args.order}, indent=2)
            if args.format == "json"
            else f"equal through order {args.order}"
        )
        return 0
    m, x, left, right = mismatches[0]
    word = words_of_length(cm.d, m)[x]
    power = cm.scale**m
    left, right = format_rational(Fraction(left, power)), format_rational(Fraction(right, power))
    if args.format == "json":
        payload = {
            "equal": False,
            "first_mismatch": {"word": list(word), "state": left, "reference": right},
            "mismatch_count": len(mismatches),
        }
        _emit(json.dumps(payload, indent=2))
    else:
        _emit(
            f"MISMATCH at word {list(word)}: state {left} vs {args.against} {right} "
            f"({len(mismatches)} differing words through order {args.order})"
        )
    return 1


def cmd_counterexample(args) -> int:
    from . import reports

    _emit(reports.counterexample(parse_rational(args.q), args.format))
    return 0


def _map_flags(order: int = 6, formats: tuple[str, ...] = ("json", "csv", "pretty")) -> dict:
    """The flags of every command that builds a product-type map."""
    return {
        "--jacobi1": {"help": "JSON file for the first marginal state"},
        "--jacobi2": {"help": "JSON file for the second marginal state"},
        "--omega": {"help": "builtin tree name or JSON file"},
        "--nu1": {"help": "JSON file for the first secondary state (two-pair mode)"},
        "--nu2": {"help": "JSON file for the second secondary state (two-pair mode)"},
        "--order": {"type": _order, "default": order, "help": "order / depth bound"},
        "--format": {"choices": formats, "default": "json", "help": "output format"},
    }


# Each subcommand once: its help line, its function, its positional
# argument (name and help) or None, and its flags, each with the keyword
# arguments of argparse's add_argument, in the order the help lists them.
# build_parser hands the table to argparse; _read_plain reads the plain
# command lines from it without argparse.
_COMMANDS = {
    "validate": ("check a tree specification", cmd_validate, ("spec", "builtin tree name or JSON file"), {
        "--order": {"type": _order, "default": 6, "help": "depth for builtins"},
        "--format": {"choices": ("json", "pretty"), "default": "json"},
    }),
    "moments": ("table of all word moments up to an order", cmd_moments, None, _map_flags()),
    "gram": ("Gram matrix of the basis polynomials", cmd_gram, None, _map_flags(order=3)),
    "cfrac": ("continued-fraction moment series", cmd_cfrac, None, {
        **_map_flags(),
        "--engine": {"choices": ("scalar", "matricial", "classical"), "default": "scalar"},
    }),
    "mops": ("orthogonalize monomials and test the family", cmd_mops, None, {
        **_map_flags(order=3, formats=("json", "pretty")),
        "--state": {"choices": ("omega", "tensor", "q-gaussian"), "default": "omega"},
        "--q": {"help": "deformation parameter of --state q-gaussian (default 1/2)"},
    }),
    "compare": ("diff the state against an oracle or engine", cmd_compare, None, {
        **_map_flags(formats=("json", "pretty")),
        "--against": {"required": True, "choices": (*_ORACLES, "cfree", "cfrac")},
    }),
    "counterexample": ("report the states whose monomial families fail orthogonality", cmd_counterexample, None, {
        "--q": {"default": "1/2", "help": "deformation parameter"},
        "--format": {"choices": ("json", "pretty"), "default": "pretty"},
    }),
}


def _read_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a plain command line, read
    from ``_COMMANDS`` without argparse; None for every other one.

    A plain command line is ``COMMAND [SPEC] (--flag value)...``: the
    positional argument right after the command, if it has one; each flag
    of its table spelled in full and given at most once; no value that
    starts with "-"; each value among its flag's choices, --order in ASCII
    digits (which ``int`` reads as ``_order`` does); every required flag
    given.  This reader never refuses and never prints: help, usage errors,
    abbreviations, ``--flag=value`` and all else are left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, positional, flags = _COMMANDS[argv[0]]
    values: dict[str, object] = {"command": argv[0]}
    rest = argv[1:]
    if positional is not None:
        if not rest or rest[0].startswith("-"):
            return None
        values[positional[0]], rest = rest[0], rest[1:]
    if len(rest) % 2:
        return None
    given: dict[str, str] = {}
    for flag, text in zip(rest[::2], rest[1::2]):
        if flag not in flags or flag in given or text.startswith("-"):
            return None
        given[flag] = text
    for flag, spec in flags.items():
        text = given.get(flag)
        if text is None:
            if spec.get("required"):
                return None
            value = spec.get("default")
        elif spec.get("type") is _order:
            if not (text.isascii() and text.isdigit()):
                return None
            value = int(text)
        elif "choices" in spec and text not in spec["choices"]:
            return None
        else:
            value = text
        values[flag[2:]] = value
    values["func"] = func
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of the subcommands in ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ncprod",
        description=(
            "Product-type states on non-commutative polynomials: tree validation, "
            "moments, Gram matrices, continued fractions, and orthogonality checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positional, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if positional is not None:
            p.add_argument(positional[0], help=positional[1])
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code.  A plain command line is read by
    :func:`_read_plain`; argparse is imported and :func:`build_parser`'s
    parser built only for the rest, so help, usage errors and their exit
    codes are argparse's own."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point the descriptor at the
        # null device, so that the flush at exit writes nowhere and stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except omega.OmegaValidationError as exc:  # a ValueError, so it comes first
        print(f"invalid tree: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point, shared by ``python -m ncprod.cli`` and the
    installed ``ncprod`` command: exit with :func:`main`'s code.

    ``gc.freeze()`` first moves every object still alive out of the
    collector's reach, so the interpreter's shut-down skips its full
    collections over the module graph, which the operating system discards
    anyway; atexit handlers, the flushes of stdout and stderr and reference
    teardown still run.  ``main`` never freezes: tests and tracers call it
    in-process many times, and a freeze there would keep every later cycle
    of their process alive."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
