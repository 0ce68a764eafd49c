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

This module holds the tree type and the built-in trees, which answer
membership by rule: all that a command on a built-in tree reads.  A tree
from a list of words (:func:`ncprod.treecheck.validate`), a tree file
(:func:`ncprod.treecheck.omega_from_json`) and the associativity test live
in :mod:`ncprod.treecheck`.
"""

from __future__ import annotations

from collections.abc import Callable

from .words import FrozenRecord, Word, format_value, words_up_to

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
        raise ValueError(f"unknown builtin tree {format_value(name)}; known: {', '.join(BUILTIN_OMEGAS)}")
    if depth < 1:
        raise ValueError("tree depth must be at least 1")
    return OmegaTree(depth, rule=rule)
