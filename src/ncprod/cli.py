"""Command-line interface.

Subcommands: validate | moments | gram | cfrac | mops | compare |
counterexample.  Inputs are JSON files for one-variable states (Jacobi data
or presets) and tree specifications (builtin name or JSON file); outputs are
JSON or pretty text, and CSV for the tables of moments, gram and cfrac,
deterministic for identical inputs (words in graded-lexicographic order,
rationals in lowest terms).  --omega picks the tree of a product-type
state; two-pair mode (--nu1/--nu2) always uses the full tree, so it
refuses --omega; compare --against cfree checks it against the two-pair
oracle and needs --nu1/--nu2.  Where the flags pick no coefficient map
(cfrac --engine classical, which runs on the chain map of its one marginal,
mops --state tensor or q-gaussian), --omega and --nu1/--nu2 are refused
rather than ignored, and so are cfrac --engine classical's --jacobi2, mops
--q without --state q-gaussian and --jacobi1/--jacobi2 with it.

Each file kind has one reader, which refuses a non-object, an unknown key
and a value of the wrong type: ``jacobi.jacobi_from_json`` for marginals,
``omega.omega_from_json`` for trees.  A JSON number reaches them as the
exact Fraction of its literal text.  Every refusal of the inputs is a
ValueError, so ``main`` reports it as one "input error:" line and exits 2.

Every module but ``omega`` and ``words`` is imported by the subcommands
that run it, so a process compiles and loads only what its subcommand uses:
``validate`` loads ``omega`` and ``words`` alone.  The table commands
(``moments``, ``cfrac`` with each engine, ``compare``) run on the integer
core and load no polynomial module (:mod:`ncprod.ncpoly`); only ``gram``,
``mops`` and ``counterexample``, which build polynomials, load it.

``compare`` checks each word in integers.  The state's numerators
D^|w| phi(w), with D the coefficient map's scale, are the transfer
operator's dense table (``prodstate.moment_parts``), the integers that
``moments`` divides once per word; the reference gives its numerators over
the same D^|w|, the oracles built at that scale word by word and the scalar
continued fraction as its own dense integer table on the same map, compared
list to list.  Two equal integers mean two equal moments, so a ``Fraction``
is built only for the first mismatch it reports.  The moments and cfrac
tables go through one writer that takes dense integer numerators over D^m,
one list per degree: ``moments`` and every ``cfrac`` engine hand it their
tables as they come (``classical`` the scalar engine's, on the chain map).
It builds each degree's word texts from the previous degree's, reduces each
distinct value of a degree with one gcd and writes one degree at a time.

Exit codes: 0 on success, 1 on mathematical failure (invalid tree, mismatch
in a comparison), 2 on input errors, including a negative --order, an
order beyond what the chosen engine can deliver, and Jacobi data under the
"error" extension policy too short for the order, and 141 (128 + SIGPIPE)
with nothing on stderr when the reader closes stdout early, as ``| head``
does.  A process ends through :func:`run`, which freezes the heap before it
exits (see there).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import omega
from .words import Word, format_rational, graded_lex_key, parse_rational, words_of_length


if TYPE_CHECKING:
    from .jacobi import JacobiData
    from .ncpoly import NCPolynomial
    from .prodstate import CoefficientMap

    # (mu1, mu2, nu1, nu2); the nu's are None outside two-pair mode
    Marginals = tuple[JacobiData, JacobiData, JacobiData | None, JacobiData | None]


class CliInputError(Exception):
    """Bad file, bad flag value, or an inconsistent combination of inputs."""


# the matricial engine runs on at most this many levels of the map, and is
# exact only through order 2 * levels
MATRICIAL_MAX_LEVELS = 5


def _order(text: str) -> int:
    """argparse type of --order: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _word_key(word: Word) -> str:
    return ".".join(str(letter) for letter in word)


def _load_json(path: str) -> object:
    """The file's JSON value, each non-integer number the Fraction of its text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=Fraction)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _load_jacobi(path: str | None, what: str) -> JacobiData:
    from . import jacobi

    if path is None:
        raise CliInputError(f"missing required jacobi file for {what}")
    try:
        return jacobi.jacobi_from_json(_load_json(path))
    except ValueError as exc:
        raise CliInputError(f"bad jacobi data in {path}: {exc}") from exc


def _load_tree(spec: str, depth: int) -> omega.OmegaTree:
    """A builtin name, or any alias of one, builds a tree of the given depth;
    otherwise the spec names a JSON tree file, read at ``depth`` when it has
    no "depth" of its own."""
    if spec in omega.BUILTIN_OMEGAS or spec in omega.BUILTIN_ALIASES:
        return omega.builder(spec, depth)
    obj = _load_json(spec)
    if isinstance(obj, dict) and "depth" not in obj:
        obj = {**obj, "depth": depth}
    try:
        return omega.omega_from_json(obj)
    except omega.OmegaValidationError:
        raise
    except ValueError as exc:
        raise CliInputError(f"bad tree specification in {spec}: {exc}") from exc


def _load_omega(spec: str | None, depth: int) -> omega.OmegaTree:
    """The tree for --omega; a JSON file's own depth, if it has one, must be
    sufficient."""
    if spec is None:
        raise CliInputError("missing required --omega specification")
    tree = _load_tree(spec, depth)
    if tree.depth < depth:
        raise CliInputError(
            f"tree depth {tree.depth} in {spec} is insufficient; need at least {depth}"
        )
    return tree


def _load_marginals(args) -> Marginals:
    """(mu1, mu2, nu1, nu2) from --jacobi1, --jacobi2, --nu1 and --nu2, each
    file read once; the nu's are None outside two-pair mode, which refuses
    --omega."""
    nu1 = getattr(args, "nu1", None)
    nu2 = getattr(args, "nu2", None)
    if (nu1 is None) != (nu2 is None):
        raise CliInputError("--nu1 and --nu2 must be given together")
    if nu1 is not None and args.omega is not None:
        raise CliInputError(
            "--omega cannot be combined with --nu1/--nu2: the two-pair state "
            "always lives on the full binary tree"
        )
    j1 = _load_jacobi(args.jacobi1, "--jacobi1")
    j2 = _load_jacobi(args.jacobi2, "--jacobi2")
    if nu1 is None:
        return j1, j2, None, None
    return j1, j2, _load_jacobi(nu1, "--nu1"), _load_jacobi(nu2, "--nu2")


def _build_map(args, depth: int, marginals: Marginals | None = None) -> CoefficientMap:
    """The coefficient map the flags name, on ``marginals`` as
    :func:`_load_marginals` returns them, read from the files if not given."""
    from . import prodstate

    mu1, mu2, nu1, nu2 = _load_marginals(args) if marginals is None else marginals
    if nu1 is None:
        tree, nu = _load_omega(args.omega, depth), None
    else:
        tree, nu = omega.builder("free", depth), (nu1, nu2)
    return prodstate.product_type_map(tree, mu1, mu2, nu)


def _refuse_map_flags(args, mode: str) -> None:
    """--omega and --nu1/--nu2 pick a coefficient map; a mode that builds none
    from them refuses them rather than ignore them."""
    for flag in ("omega", "nu1", "nu2"):
        if getattr(args, flag) is not None:
            raise CliInputError(f"--{flag} is not read by {mode}, which builds no coefficient map")


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
    and over scale^(m+1) prints differently.  A degree's keys are built once
    from the previous degree's, and the table is written one degree at a
    time.  The json is the text of json.dumps([{"word": [...], "value":
    "p/q"}, ...], indent=2), built directly: a letter is an int and a value
    holds only digits, "-" and "/", so nothing needs escaping."""
    opening, empty, before, sep, between, row_sep, closing = _TABLE_FRAMES[fmt]
    letters = [str(i) for i in range(1, d + 1)]
    width = 0
    if fmt == "pretty":
        # every key padded to the longest one's length plus 2
        top = len(parts) - 1
        width = top * (len(letters[-1]) + 1) + 1 if top else 2
        empty = empty.ljust(width) + between
    write = sys.stdout.write
    write(opening)
    keys = [""]
    for m, values in enumerate(parts):
        q = scale**m
        # a product-type moment depends on the word's run structure, so
        # values repeat: each distinct one is reduced and printed once
        text = dict.fromkeys(values)
        for n in text:
            text[n] = _ratio(n, q)
        texts = list(map(text.__getitem__, values))
        if m == 0:
            heads = [empty]
        else:
            keys = letters if m == 1 else [k + sep + letter for k in keys for letter in letters]
            heads = [before + k.ljust(width) + between for k in keys]
            write(row_sep)
        write(row_sep.join(map(str.__add__, heads, texts)))
    write(closing)


def _poly_json(p: NCPolynomial) -> dict:
    return {_word_key(w): format_rational(p.terms[w]) for w in sorted(p.terms, key=graded_lex_key)}


def cmd_validate(args) -> int:
    depth = args.order if args.order is not None else 6
    try:
        tree = _load_tree(args.spec, depth)
    except omega.OmegaValidationError as exc:
        report = {"valid": False, "violation": exc.report()}
        _emit(json.dumps(report, indent=2) if args.format == "json" else
              f"INVALID: {exc}")
        return 1
    assoc_depth = min(tree.depth, 4)
    boundary = [list(w) for w in sorted(tree.boundary(), key=graded_lex_key)]
    report = {
        "valid": True,
        "depth": tree.depth,
        "boundary": boundary,
        "associative": omega.is_associative(tree, assoc_depth),
        "associativity_depth": assoc_depth,
    }
    if args.format == "json":
        _emit(json.dumps(report, indent=2))
    else:
        _emit(
            "valid tree\n"
            f"depth: {tree.depth}\n"
            f"boundary: {', '.join(map(str, boundary)) or '(empty)'}\n"
            f"associative (to depth {assoc_depth}): {report['associative']}"
        )
    return 0


def cmd_moments(args) -> int:
    from . import prodstate

    cm = _build_map(args, max(args.order, 1))
    _emit_table(prodstate.moment_parts(cm, args.order), cm.d, args.format, cm.scale)
    return 0


def cmd_gram(args) -> int:
    from . import prodstate

    depth = args.order
    cm = _build_map(args, max(2 * depth, 1))
    gram = prodstate.gram_matrix(cm, depth)
    triples = gram.to_triples()
    if args.format == "json":
        payload = [
            {"u": list(u), "v": list(v), "value": format_rational(value)}
            for u, v, value in triples
        ]
        _emit(json.dumps(payload, indent=2))
    elif args.format == "csv":
        lines = ["u,v,value"]
        lines += [f"{_word_key(u)},{_word_key(v)},{format_rational(value)}" for u, v, value in triples]
        _emit("\n".join(lines))
    else:
        lines = [f"<P_{_word_key(u) or '()'}, P_{_word_key(v) or '()'}> = {format_rational(value)}"
                 for u, v, value in triples]
        lines.append(f"diagonal: {gram.is_diagonal()}")
        _emit("\n".join(lines))
    return 0


def cmd_cfrac(args) -> int:
    from . import cfrac

    if args.engine == "classical":
        _refuse_map_flags(args, "--engine classical")
        if args.jacobi2 is not None:
            raise CliInputError(
                "--jacobi2 is not read by --engine classical, which takes its one marginal from --jacobi1"
            )
        cm = cfrac.chain_map(_load_jacobi(args.jacobi1, "--jacobi1"), args.order)
    elif args.engine == "matricial" and args.order > 2 * MATRICIAL_MAX_LEVELS:
        raise CliInputError(
            f"the matricial engine is exact only through order {2 * MATRICIAL_MAX_LEVELS}; "
            f"got --order {args.order}"
        )
    else:
        cm = _build_map(args, max(args.order, 1))
    # integer numerators by degree over D^m: no Fraction per row
    if args.engine == "matricial":
        # the fewest levels exact through the order; never deeper than the map
        levels = (args.order + 1) // 2
        parts, scale = cfrac.matricial_map_parts(cm, levels, args.order)
    else:
        parts, scale = cfrac.scalar_branched_parts(cm, args.order), cm.scale
    if args.format == "pretty" and args.engine != "classical":
        _emit(cfrac.render_branched_cf(cm, min(args.order, 4)))
        _emit("")
    _emit_table(parts, cm.d, args.format, scale)
    return 0


def cmd_mops(args) -> int:
    from . import oracle

    depth = args.order if args.order is not None else 3
    if args.state != "omega":
        _refuse_map_flags(args, f"--state {args.state}")
    if args.state == "q-gaussian":
        for flag in ("jacobi1", "jacobi2"):
            if getattr(args, flag) is not None:
                raise CliInputError(f"--{flag} is not read by --state q-gaussian, which has fixed marginals")
    elif args.q is not None:
        raise CliInputError(f"--q is read only by --state q-gaussian, not by --state {args.state}")
    if args.state == "tensor":
        j1 = _load_jacobi(args.jacobi1, "--jacobi1")
        j2 = _load_jacobi(args.jacobi2, "--jacobi2")
        phi = oracle.tensor_state(j1, j2)
    elif args.state == "q-gaussian":
        phi = oracle.q_gaussian_state(parse_rational(args.q if args.q is not None else "1/2"))
    else:
        from . import prodstate

        cm = _build_map(args, max(2 * depth, 1))
        evaluator = prodstate.StateEvaluator(cm)
        phi = evaluator.word_moment
    result = oracle.gram_schmidt_mops(phi, depth)
    report = {
        "state": args.state,
        "depth": depth,
        "mops": result.is_mops,
    }
    if result.witness:
        u, v = result.witness
        report["witness"] = [list(u), list(v)]
        report["witness_value"] = format_rational(result.witness_value)
    polynomials = sorted(result.polynomials.items(), key=lambda kv: graded_lex_key(kv[0]))
    if args.format == "json":
        report["polynomials"] = {_word_key(w) or "()": _poly_json(p) for w, p in polynomials}
        _emit(json.dumps(report, indent=2))
    else:
        lines = [f"MOPS verdict: {'yes' if result.is_mops else 'no'}"]
        if result.witness:
            u, v = result.witness
            lines.append(
                f"witness: <Q_{_word_key(u)}, Q_{_word_key(v)}> = {format_rational(result.witness_value)}"
            )
        for w, p in polynomials:
            lines.append(f"Q_{_word_key(w) or '()'} = {p.to_str()}")
        _emit("\n".join(lines))
    return 0


# the oracles of one (mu1, mu2) pair: each is oracle.<name>_state(mu1, mu2)
_ORACLES = ("free", "boolean", "monotone", "antimonotone", "tensor")


def cmd_compare(args) -> int:
    from . import prodstate

    if args.against == "cfree" and args.nu1 is None:
        raise CliInputError("--against cfree needs --nu1 and --nu2")
    marginals = mu1, mu2, nu1, nu2 = _load_marginals(args)
    cm = _build_map(args, max(args.order, 1), marginals)
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
    from . import jacobi, oracle

    q = parse_rational(args.q)
    q_phi = oracle.q_gaussian_state(q)
    q_result = oracle.gram_schmidt_mops(q_phi, 3)
    inner = oracle.functional_inner(
        q_phi, q_result.polynomials[(1, 2)], q_result.polynomials[(2, 1)]
    )
    semicircle = jacobi.preset("semicircle")
    tensor_result = oracle.gram_schmidt_mops(oracle.tensor_state(semicircle, semicircle), 2)
    report = {
        "q": format_rational(q),
        "inner_12_21": format_rational(inner),
        "q_121": _poly_json(q_result.polynomials[(1, 2, 1)]),
        "q_mops": q_result.is_mops,
        "tensor_mops": tensor_result.is_mops,
    }
    if q_result.witness:
        report["q_witness"] = [list(w) for w in q_result.witness]
    if tensor_result.witness:
        report["tensor_witness"] = [list(w) for w in tensor_result.witness]
    if args.format == "json":
        _emit(json.dumps(report, indent=2))
    else:
        lines = [
            f"q = {format_rational(q)}",
            f"<Q_1.2, Q_2.1> = {format_rational(inner)}",
            f"Q_1.2.1 = {q_result.polynomials[(1, 2, 1)].to_str()}",
            f"q-state MOPS: {'yes' if q_result.is_mops else 'no'}",
            f"tensor (semicircle marginals) MOPS: {'yes' if tensor_result.is_mops else 'no'}",
        ]
        if tensor_result.witness:
            u, v = tensor_result.witness
            lines.append(f"tensor witness: ({_word_key(u)}) vs ({_word_key(v)})")
        _emit("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncprod",
        description=(
            "Product-type states on non-commutative polynomials: tree validation, "
            "moments, Gram matrices, continued fractions, and orthogonality checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, order_default=6, formats=("json", "csv", "pretty")):
        p.add_argument("--jacobi1", help="JSON file for the first marginal state")
        p.add_argument("--jacobi2", help="JSON file for the second marginal state")
        p.add_argument("--omega", help="builtin tree name or JSON file")
        p.add_argument("--nu1", help="JSON file for the first secondary state (two-pair mode)")
        p.add_argument("--nu2", help="JSON file for the second secondary state (two-pair mode)")
        p.add_argument("--order", type=_order, default=order_default, help="order / depth bound")
        p.add_argument(
            "--format", choices=formats, default="json", help="output format"
        )

    p_validate = sub.add_parser("validate", help="check a tree specification")
    p_validate.add_argument("spec", help="builtin tree name or JSON file")
    p_validate.add_argument("--order", type=_order, default=None, help="depth for builtins")
    p_validate.add_argument("--format", choices=("json", "pretty"), default="json")
    p_validate.set_defaults(func=cmd_validate)

    p_moments = sub.add_parser("moments", help="table of all word moments up to an order")
    add_common(p_moments)
    p_moments.set_defaults(func=cmd_moments)

    p_gram = sub.add_parser("gram", help="Gram matrix of the basis polynomials")
    add_common(p_gram, order_default=3)
    p_gram.set_defaults(func=cmd_gram)

    p_cfrac = sub.add_parser("cfrac", help="continued-fraction moment series")
    add_common(p_cfrac)
    p_cfrac.add_argument(
        "--engine", choices=("scalar", "matricial", "classical"), default="scalar"
    )
    p_cfrac.set_defaults(func=cmd_cfrac)

    p_mops = sub.add_parser("mops", help="orthogonalize monomials and test the family")
    add_common(p_mops, order_default=None, formats=("json", "pretty"))
    p_mops.add_argument(
        "--state", choices=("omega", "tensor", "q-gaussian"), default="omega"
    )
    p_mops.add_argument(
        "--q", default=None, help="deformation parameter of --state q-gaussian (default 1/2)"
    )
    p_mops.set_defaults(func=cmd_mops)

    p_compare = sub.add_parser("compare", help="diff the state against an oracle or engine")
    add_common(p_compare, formats=("json", "pretty"))
    p_compare.add_argument(
        "--against",
        required=True,
        choices=(*_ORACLES, "cfree", "cfrac"),
    )
    p_compare.set_defaults(func=cmd_compare)

    p_counter = sub.add_parser(
        "counterexample", help="report the states whose monomial families fail orthogonality"
    )
    p_counter.add_argument("--q", default="1/2", help="deformation parameter")
    p_counter.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p_counter.set_defaults(func=cmd_counterexample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (CliInputError, ValueError) as exc:
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
