"""Tree validation, boundaries, builders, and the two-alphabet closure test."""

import re

import pytest

from ncprod.words import graded_lex_key, words_up_to
from ncprod.omega import BUILTIN_OMEGAS, OmegaTree, OmegaValidationError, builder
from ncprod.treecheck import (
    _omega_squared_mirror,
    enumerate_valid_trees,
    is_associative,
    omega_from_json,
    omega_squared,
    validate,
)


def runs(limit, letters=(1, 2)):
    return {(letter,) * n for letter in letters for n in range(limit + 1)}


def test_validate_boolean_runs():
    tree = validate(runs(5), 4)
    assert tree.depth == 4
    assert (2, 2) in tree and (1, 2) not in tree


def test_validate_hereditary_violation():
    with pytest.raises(OmegaValidationError) as info:
        validate(runs(3) | {(1, 2, 1)}, 2)
    assert info.value.condition == "hereditary"
    assert info.value.witness == (2, 1)


def test_validate_sibling_violation():
    with pytest.raises(OmegaValidationError) as info:
        validate(runs(3) | {(2, 1), (1, 2, 1)}, 2)
    assert info.value.condition == "sibling"
    assert info.value.witness == (2, 1)
    assert "[2, 2, 1]" in info.value.detail


def test_validate_missing_pure_run():
    with pytest.raises(OmegaValidationError) as info:
        validate(runs(2) | {(1, 1, 1)}, 2)
    assert info.value.condition == "pure-runs"
    assert info.value.witness == (2, 2, 2)


def test_validation_error_report_shape():
    try:
        validate(runs(3) | {(1, 2, 1)}, 2)
    except OmegaValidationError as exc:
        report = exc.report()
        assert report["condition"] == "hereditary"
        assert report["witness"] == [2, 1]


def test_free_builder_counts():
    tree = builder("free", 3)
    assert len(tree.members) == 31  # 2 + 4 + 8 + 16 nonempty words plus ()
    assert len([w for w in tree.members if w]) == 30


def test_monotone_builder_contents():
    tree = builder("monotone", 3)
    expected = {
        (),
        (1,), (2,),
        (1, 1), (2, 1), (2, 2),
        (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2),
        (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2),
    }
    assert tree.members == frozenset(expected)


def test_antimonotone_is_mirror_of_monotone():
    mono = builder("monotone", 2)
    anti = builder("antimonotone", 2)
    assert anti.members == frozenset(tuple(3 - l for l in w) for w in mono.members)


def test_one_branch_builder():
    tree = builder("one-branch", 4)
    assert tree.members == frozenset(runs(5) | {(2, 1)})


def test_builders_validate():
    for name in BUILTIN_OMEGAS:
        for depth in (1, 3, 5):
            tree = builder(name, depth)
            rebuilt = validate(tree.members, depth)
            assert rebuilt.members == tree.members


def _enumerated_builtin(name, limit):
    """The built-in trees' member sets listed word by word, as the builder
    once stored them."""
    if name == "free":
        return set(words_up_to(2, limit))
    if name == "boolean":
        return runs(limit)
    if name == "monotone":
        return {(2,) * k + (1,) * n for k in range(limit + 1) for n in range(limit + 1 - k)}
    if name == "antimonotone":
        return {(1,) * k + (2,) * n for k in range(limit + 1) for n in range(limit + 1 - k)}
    return runs(limit) | {(2, 1)}


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_builtin_rules_equal_their_enumerations(name):
    """A built-in tree answers membership by rule and lists its members only
    when read; rule, member set, equality and hash all match the enumerated
    tree, and words off the alphabet or past depth + 1 are not members."""
    for depth in range(1, 9):
        tree = builder(name, depth)
        expected = _enumerated_builtin(name, depth + 1)
        assert {w for w in words_up_to(2, depth + 2) if w in tree} == expected, (name, depth)
        assert (3,) not in tree and (1, 0) not in tree
        assert tree.members == frozenset(expected)
        enumerated = validate(expected, depth)
        assert tree == enumerated and hash(tree) == hash(enumerated)
        assert builder(name, depth) == enumerated  # compared before its members are read
        assert builder(name, depth) != builder(name, depth + 1)


def test_builder_truncation_consistency():
    for name in BUILTIN_OMEGAS:
        big = builder(name, 5)
        for smaller in (1, 2, 3, 4):
            kept = frozenset(u for u in big.members if len(u) <= smaller + 1)
            assert kept == builder(name, smaller).members


def test_boundaries():
    assert builder("free", 4).boundary() == frozenset()
    assert builder("boolean", 4).boundary() == frozenset()
    assert builder("one-branch", 4).boundary() == frozenset({(2, 1)})
    for name in ("free", "boolean", "monotone", "antimonotone"):
        for depth in (1, 3, 5):
            assert builder(name, depth).boundary() == frozenset()


def test_interior_membership():
    tree = builder("one-branch", 3)
    assert tree.in_interior((1, 1))
    assert not tree.in_interior((2, 1))  # boundary
    assert not tree.in_interior((1, 2))  # not a member


def test_interior_is_postfix_closed():
    # holds for every valid tree, not just builtins
    for members in enumerate_valid_trees(3):
        tree = OmegaTree(2, members)
        interior = {u for u in members if len(u) <= 2 and tree.in_interior(u)}
        for u in interior:
            for k in range(1, len(u) + 1):
                assert u[k:] in interior


def test_local_vertex_types():
    # no member may have only its cross-letter child
    for members in enumerate_valid_trees(3):
        for u in members:
            if not u or len(u) > 2:
                continue
            same = (u[0],) + u
            cross = (2 if u[0] == 1 else 1,) + u
            assert not (cross in members and same not in members)


def test_omega_squared_one_branch():
    tree = builder("one-branch", 4)
    expected = {(2, 1), (3, 1), (3, 2)} | runs(4, letters=(1, 2, 3))
    assert omega_squared(tree, 4) == frozenset(expected)


def test_omega_squared_boolean_is_pure_runs():
    tree = builder("boolean", 4)
    assert omega_squared(tree, 4) == frozenset(runs(4, letters=(1, 2, 3)))


def test_omega_squared_free_is_everything():
    tree = builder("free", 3)
    assert omega_squared(tree, 3) == frozenset(words_up_to(3, 3))


def test_builtins_associative():
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 4)
        assert is_associative(tree, 4), name


# Regression fixture: the first valid tree stored to length 3 (in canonical
# enumeration order) that fails the mirror test.  The word (1, 2, 3) passes
# the direct construction via the pattern (1, 1, 2) but its mirror pattern
# (1, 2, 2) is not a member.
NON_ASSOCIATIVE_FIXTURE = frozenset(
    {(), (1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (2, 2, 2)}
)


def test_non_associative_fixture():
    tree = validate(NON_ASSOCIATIVE_FIXTURE, 2)
    assert not is_associative(tree, 3)
    direct = omega_squared(tree, 3)
    mirror = _omega_squared_mirror(tree, 3)
    assert direct - mirror == {(1, 2, 3)}
    assert mirror - direct == frozenset()


def test_exhaustive_search_finds_the_fixture():
    trees = enumerate_valid_trees(3)
    assert len(trees) == 64
    failures = [
        members
        for members in trees
        if not is_associative(OmegaTree(2, members), 3)
    ]
    assert NON_ASSOCIATIVE_FIXTURE in failures
    smallest = min(failures, key=lambda s: (len(s), sorted(s, key=graded_lex_key)))
    assert smallest == NON_ASSOCIATIVE_FIXTURE


def reference_iterated_membership(tree, depth, separator, shift, letters):
    """The words omega_squared's docstring defines, read off the digit string:
    the blocks between maximal separator runs, each lowered by the shift, must
    be members, and so must the block lengths interleaved with the run lengths."""
    block_letter, run_letter = letters
    out = set()
    for u in words_up_to(3, depth):
        text = "".join(map(str, u))
        blocks = re.split(f"{separator}+", text)
        run_lengths = [len(run) for run in re.findall(f"{separator}+", text)]
        if any(tuple(int(c) - shift for c in block) not in tree for block in blocks):
            continue
        pattern = (block_letter,) * len(blocks[0])
        for run, block in zip(run_lengths, blocks[1:]):
            pattern += (run_letter,) * run + (block_letter,) * len(block)
        if pattern in tree:
            out.add(u)
    return frozenset(out)


def test_iterated_membership_matches_its_definition_on_every_small_tree():
    trees = [validate(members | runs(5), 4) for members in enumerate_valid_trees(3)]
    assert len(trees) == 64
    for tree in trees:
        for depth in (4, 5):
            assert omega_squared(tree, depth) == reference_iterated_membership(tree, depth, 3, 0, (1, 2))
            assert _omega_squared_mirror(tree, depth) == reference_iterated_membership(tree, depth, 1, 1, (2, 1))
    assert sum(not is_associative(tree, 4) for tree in trees) == 54


def test_ends_in_one_tree_not_associative():
    # every word ending in 1, plus the pure runs of 2
    members = {
        w for w in words_up_to(2, 3) if w and w[-1] == 1
    } | runs(3, letters=(2,)) | {()}
    tree = validate(members, 2)
    assert not is_associative(tree, 3)


def test_omega_json_round_trip():
    tree = omega_from_json({"builtin": "monotone", "depth": 5})
    assert tree.members == builder("monotone", 5).members
    custom = omega_from_json({"words": [[2, 1]], "depth": 5, "implicit_runs": True})
    assert custom.members == builder("one-branch", 5).members
    with pytest.raises(OmegaValidationError):
        omega_from_json({"words": [[1, 2, 1]], "depth": 3, "implicit_runs": True})


def test_validate_rejects_overlong_words():
    with pytest.raises(ValueError, match="longer than stored depth"):
        validate(runs(3) | {(1, 1, 1, 1, 1)}, 2)
