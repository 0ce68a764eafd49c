"""Hereditary subtrees of the binary tree that index product-type states.

A valid tree is a set of words over {1, 2} that is postfix-closed (every
right-suffix of a member is a member), contains every pure run 1^n and 2^n,
and satisfies the sibling-closure condition: whenever u is a member with
first letter i and the cross extension (j, u) with j != i is a member, the
same-letter extension (i, u) must be a member too.

Trees are truncated: a tree of depth N stores all members of length at most
N + 1, one guard level beyond N, so boundary and coefficient queries at depth
N never consult an undefined frontier.  The boundary consists of the members
whose extension by their own first letter is not a member.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping

from .words import FrozenRecord, Word, check_word, format_value, graded_lex_key, json_type, words_up_to

BUILTIN_OMEGAS = ("free", "boolean", "monotone", "antimonotone", "one-branch")

# other spellings that name a built-in tree
BUILTIN_ALIASES = {
    "anti-monotone": "antimonotone",
    "one_branch": "one-branch",
    "onebranch": "one-branch",
}


class OmegaValidationError(ValueError):
    """A tree violated one of the membership conditions.

    ``condition`` is one of "hereditary", "pure-runs", "sibling"; ``witness``
    is the word demonstrating the violation.
    """

    def __init__(self, condition: str, witness: Word, detail: str = ""):
        self.condition = condition
        self.witness = witness
        self.detail = detail
        message = f"{condition} violation at {list(witness)}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)

    def report(self) -> dict:
        data = {"condition": self.condition, "witness": list(self.witness)}
        if self.detail:
            data["detail"] = self.detail
        return data


class OmegaTree(FrozenRecord):
    """A validated truncated tree; members hold words of length <= depth + 1.

    A tree is given by its member set or, for the built-ins, by a rule that
    answers membership of a word over {1, 2} of length <= depth + 1.  A
    rule's member set is built only when something reads ``members``; ``in``
    asks the rule.  Either way a tree compares and hashes by its depth and
    member set.
    """

    __slots__ = ("depth", "_members", "_rule")
    depth: int

    def __init__(
        self,
        depth: int,
        members: frozenset[Word] | None = None,
        rule: Callable[[Word], bool] | None = None,
    ):
        if (members is None) == (rule is None):
            raise ValueError("a tree needs either its members or a membership rule")
        super().__init__(depth, members, rule)

    @property
    def members(self) -> frozenset[Word]:
        members = self._members
        if members is None:
            members = frozenset(filter(self._rule, words_up_to(2, self.depth + 1)))
            object.__setattr__(self, "_members", members)
        return members

    def _values(self) -> tuple:
        return self.depth, self.members

    def __repr__(self):
        return f"OmegaTree(depth={self.depth!r}, members={self.members!r})"

    def __contains__(self, word) -> bool:
        u = tuple(word)
        if self._members is not None:
            return u in self._members
        return len(u) <= self.depth + 1 and _BINARY.issuperset(u) and self._rule(u)

    def boundary(self) -> frozenset[Word]:
        """Members of length <= depth whose same-letter extension is missing."""
        return frozenset(
            u
            for u in self.members
            if u and len(u) <= self.depth and (u[0],) + u not in self.members
        )

    def in_interior(self, word: Word) -> bool:
        """True when the word is a member and not on the boundary."""
        u = tuple(word)
        if len(u) > self.depth:
            raise ValueError(f"interior query at depth {len(u)} exceeds tree depth {self.depth}")
        if u not in self:
            return False
        return not u or (u[0],) + u in self

    def restricted(self, depth: int) -> "OmegaTree":
        """The same tree truncated to a smaller depth."""
        if depth > self.depth:
            raise ValueError("cannot deepen a truncated tree")
        limit = depth + 1
        return OmegaTree(depth, frozenset(u for u in self.members if len(u) <= limit))


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


_BINARY = frozenset((1, 2))


def _is_pure_run(word: Word) -> bool:
    return len(set(word)) <= 1


# membership rules of the built-in trees, for words over {1, 2}
_BUILTIN_RULES = {
    "free": lambda word: True,
    "boolean": _is_pure_run,
    # 2^k 1^n: no letter rises
    "monotone": lambda word: list(word) == sorted(word, reverse=True),
    # 1^k 2^n: no letter falls
    "antimonotone": lambda word: list(word) == sorted(word),
    "one-branch": lambda word: _is_pure_run(word) or word == (2, 1),
}


def builder(name: str, depth: int) -> OmegaTree:
    """Construct one of the built-in trees, truncated to depth + 1; its
    members are listed only when read."""
    rule = _BUILTIN_RULES.get(BUILTIN_ALIASES.get(name, name))
    if rule is None:
        raise ValueError(f"unknown builtin tree {name!r}; known: {', '.join(BUILTIN_OMEGAS)}")
    return OmegaTree(depth, rule=rule)


def _pure_runs(limit: int) -> set[Word]:
    return {(letter,) * n for letter in (1, 2) for n in range(limit + 1)}


def _split_on_letter(word: Word, separator: int) -> tuple[list[Word], list[int]]:
    """Blocks between maximal runs of ``separator`` and the run lengths.

    Returns n + 1 blocks (possibly empty) and n run lengths for a word that
    contains n maximal separator runs.
    """
    blocks: list[Word] = []
    runs: list[int] = []
    current: list[int] = []
    run = 0
    for letter in word:
        if letter == separator:
            if run == 0:
                blocks.append(tuple(current))
                current = []
            run += 1
        else:
            if run:
                runs.append(run)
                run = 0
            current.append(letter)
    if run:
        runs.append(run)
    blocks.append(tuple(current))
    return blocks, runs


def _interleave(block_letter: int, run_letter: int, block_lengths: list[int], runs: list[int]) -> Word:
    """Pattern word: block_letter^b1 run_letter^r1 block_letter^b2 ..."""
    out: list[int] = []
    for idx, b in enumerate(block_lengths):
        out.extend([block_letter] * b)
        if idx < len(runs):
            out.extend([run_letter] * runs[idx])
    return tuple(out)


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
    record the block lengths, letters[1]-runs the separator run lengths."""
    if depth > tree.depth + 1:
        raise ValueError(f"query depth {depth} exceeds stored depth {tree.depth + 1}")
    block_letter, run_letter = letters
    out = set()
    for u in words_up_to(3, depth):
        blocks, runs = _split_on_letter(u, separator)
        if any(tuple(letter - shift for letter in block) not in tree.members for block in blocks):
            continue
        pattern = _interleave(block_letter, run_letter, [len(b) for b in blocks], runs)
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
            raise ValueError(f"unknown tree key {key!r}; this form reads {sorted(kinds)}")
        if json_type(value) != kinds[key]:
            raise ValueError(f"tree {key!r} must be {kinds[key]}, got {format_value(value)}")
    depth = obj["depth"]
    if "builtin" in obj:
        return builder(obj["builtin"], depth)
    words = obj.get("words", [])
    if not all(type(word) is list for word in words):
        raise ValueError(f"tree 'words' must be an array of letter arrays, got {format_value(words)}")
    members = set(map(tuple, words))
    if obj.get("implicit_runs"):
        members |= _pure_runs(depth + 1)
    return validate(members, depth)
