"""Trees from listed words, and the analysis of a tree: validity of a word
set, the iterated-product alphabet Omega^2 and its associativity test, and
the enumeration of every small valid tree.

:func:`validate` checks the three conditions of :mod:`ncprod.omega` on a
set of words and builds the tree, or raises the first violation;
:func:`omega_from_json` reads a tree file.  A built-in tree needs neither,
so in the CLI only a tree file (``--omega FILE``, ``validate FILE``) and
``validate``'s associativity report load this module.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from .omega import OmegaTree, OmegaValidationError, builder
from .words import Word, check_word, format_value, graded_lex_key, json_type, words_up_to


def validate(words: Iterable[Iterable[int]], depth: int) -> OmegaTree:
    """Check the three conditions and build a tree, or raise the first violation.

    Conditions are checked in order: postfix closure, pure runs, sibling
    closure; the raised :class:`OmegaValidationError` carries the condition
    name and a witness word.
    """
    if depth < 1:
        raise ValueError("tree depth must be at least 1")
    limit = depth + 1
    members = set()
    for word in words:
        w = check_word(word, 2)
        if len(w) > limit:
            raise ValueError(
                f"word {list(w)} longer than stored depth {limit} (= depth + 1)"
            )
        members.add(w)

    for u in sorted(members, key=graded_lex_key):
        for k in range(1, len(u) + 1):
            suffix = u[k:]
            if suffix not in members:
                raise OmegaValidationError(
                    "hereditary", suffix, f"word {list(u)} requires postfix {list(suffix)}"
                )

    for n in range(limit + 1):
        for letter in (1, 2):
            run = (letter,) * n
            if run not in members:
                raise OmegaValidationError(
                    "pure-runs", run, f"missing pure run of letter {letter} and length {n}"
                )

    for u in sorted(members, key=graded_lex_key):
        if not u or len(u) > depth:
            continue
        i = u[0]
        j = 2 if i == 1 else 1
        if (j,) + u in members and (i,) + u not in members:
            raise OmegaValidationError(
                "sibling",
                u,
                f"{list((j,) + u)} present forces {list((i,) + u)}",
            )

    return OmegaTree(depth, frozenset(members))


def _pure_runs(limit: int) -> set[Word]:
    return {(letter,) * n for letter in (1, 2) for n in range(limit + 1)}


def omega_from_json(obj: Mapping) -> OmegaTree:
    """Read {"builtin": name, "depth": n} or {"words": [[1, 2], ...], "depth":
    n, "implicit_runs": bool}, each value of its JSON type, never coerced,
    and no other key.  "implicit_runs": true adds all pure runs (and the
    empty word) before validation, so only the extra words need listing.
    """
    if not isinstance(obj, Mapping):
        raise ValueError(f"a tree is a JSON object, not {json_type(obj)}")
    if "builtin" in obj:
        kinds = {"builtin": "a string", "depth": "an integer"}
    else:
        kinds = {"words": "an array", "depth": "an integer", "implicit_runs": "a boolean"}
    for key, value in {"depth": None, **obj}.items():  # "depth" is required
        if key not in kinds:
            raise ValueError(
                f"unknown tree key {format_value(key)}; this form reads {format_value(sorted(kinds))}"
            )
        if json_type(value) != kinds[key]:
            raise ValueError(f"tree {format_value(key)} must be {kinds[key]}, got {format_value(value)}")
    depth = obj["depth"]
    if "builtin" in obj:
        return builder(obj["builtin"], depth)
    words = obj.get("words", [])
    if not all(type(word) is list for word in words):
        raise ValueError(f'tree "words" must be an array of letter arrays, got {format_value(words)}')
    members = set(map(tuple, words))
    if obj.get("implicit_runs"):
        members |= _pure_runs(depth + 1)
    return validate(members, depth)


def omega_squared(tree: OmegaTree, depth: int) -> frozenset[Word]:
    """Words over {1, 2, 3} passing the two-part iterated-membership test.

    Split the word at maximal runs of letter 3; the word passes when every
    {1, 2}-block is a member and the length pattern, with 1-runs recording
    block lengths and 2-runs recording the letter-3 run lengths, is a member.
    """
    return _iterated_membership(tree, depth, separator=3, shift=0, letters=(1, 2))


def _omega_squared_mirror(tree: OmegaTree, depth: int) -> frozenset[Word]:
    """The mirrored construction: split at 1-runs, blocks over {2, 3}.

    Blocks must lie in the relabeled tree (members with 1 -> 2, 2 -> 3), and
    the pattern with 2-runs for block lengths and 1-runs for the separator
    runs must be a member.
    """
    return _iterated_membership(tree, depth, separator=1, shift=1, letters=(2, 1))


def _iterated_membership(
    tree: OmegaTree, depth: int, separator: int, shift: int, letters: tuple[int, int]
) -> frozenset[Word]:
    """Words over {1, 2, 3} up to ``depth`` that split at maximal runs of
    ``separator`` into blocks that are members once each letter is lowered
    by ``shift``, and whose length pattern is a member: letters[0]-runs
    record the block lengths, letters[1]-runs the separator run lengths.

    The blocks are the maximal stretches of non-separator letters (an empty
    one is the empty word, which every tree holds).  The length pattern is
    the word with each separator letter replaced by letters[1] and each
    other letter by letters[0]."""
    if depth > tree.depth + 1:
        raise ValueError(f"query depth {depth} exceeds stored depth {tree.depth + 1}")
    block_letter, run_letter = letters
    out = set()
    for u in words_up_to(3, depth):
        blocks = (block for is_run, block in itertools.groupby(u, separator.__eq__) if not is_run)
        if any(tuple(letter - shift for letter in block) not in tree.members for block in blocks):
            continue
        pattern = tuple(run_letter if letter == separator else block_letter for letter in u)
        if pattern in tree.members:
            out.add(u)
    return frozenset(out)


def is_associative(tree: OmegaTree, depth: int) -> bool:
    """True when the direct and mirrored constructions agree up to depth."""
    return omega_squared(tree, depth) == _omega_squared_mirror(tree, depth)


def enumerate_valid_trees(max_len: int = 3) -> list[frozenset[Word]]:
    """The member sets of every valid tree stored to words of length
    <= max_len, grown level by level: a pure run keeps its same-letter
    child, and no node has only its cross-letter child."""

    def child_options(u: Word) -> list[tuple[Word, ...]]:
        same = (u[0],) + u
        cross = (2 if u[0] == 1 else 1,) + u
        if len(set(u)) == 1:
            return [(same,), (same, cross)]
        return [(), (same,), (same, cross)]

    results: list[frozenset[Word]] = []

    def grow(members: set[Word], frontier: list[Word], length: int) -> None:
        if length > max_len:
            results.append(frozenset(members))
            return
        for combo in itertools.product(*(child_options(u) for u in frontier)):
            new_frontier = sorted(set(itertools.chain.from_iterable(combo)), key=graded_lex_key)
            grow(members | set(new_frontier), new_frontier, length + 1)

    grow({(), (1,), (2,)}, [(1,), (2,)], 2)
    return results
