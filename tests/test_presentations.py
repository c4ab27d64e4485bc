import inspect
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from premonoids import BoundTooSmallError, CapExceededError, ShapeError, presentations
from premonoids.presentations import (
    BoundedCongruence,
    parse_relation_word,
    presentation_explore,
)

from premonoids.bitrows import indices

from presentation_oracle import loop_chains, oracle_explore, strict_children


def test_parse_relation_word():
    assert parse_relation_word("x2", "xy") == "xx"
    assert parse_relation_word("yx2y", "xy") == "yxxy"
    assert parse_relation_word("x12", "xy") == "x" * 12
    with pytest.raises(ShapeError):
        parse_relation_word("z", "xy")


def test_bound_too_small():
    with pytest.raises(BoundTooSmallError):
        presentation_explore("xy", [("x2", "yx2y")], 3)


def test_word_caps_hold_for_library_callers():
    """The caps are checked where the words are listed, so every caller gets
    them; lengths are counted only up to the first with no words."""
    with pytest.raises(CapExceededError, match="cap of 32768 words"):
        BoundedCongruence(alphabet="xy", relations=(), bound=15)
    assert len(BoundedCongruence(alphabet="xy", relations=(), bound=14).words) == 2**15 - 1
    assert presentations._word_lengths("", 10**9) == 1
    assert presentations._word_lengths("x", 1023) == 1024


def test_relation_merges_at_bound_eight():
    report = presentation_explore("xy", [("x2", "yx2y")], 8)
    cong = report.congruence
    assert cong.class_of("xx") == cong.class_of("yxxy")
    assert cong.class_of("xx") == cong.class_of("yyxxyy")
    # appended context merges too
    assert cong.class_of("xxy") == cong.class_of("yxxyy")
    # and a merge chain is logged with its reason
    assert any(reason[0] == "relation" for _, _, reason in cong.merge_log)


def test_free_monoid_control():
    report = presentation_explore("xy", [], 4)
    assert report.class_count == 2**5 - 1  # all words of length <= 4
    assert report.cycles == ()
    assert report.accp_evidence_chain == ()
    # plain descending chains exist (subword towers), but each step shortens
    chain = report.longest_descending_chain
    lengths = [len(w) for w in chain]
    assert lengths == sorted(lengths, reverse=True)


def test_explorer_reports_cycle_and_descending_chain_evidence():
    report = presentation_explore("xy", [("x2", "yx2y")], 10)
    cong = report.congruence
    assert cong.class_of("xx") == cong.class_of("yxxy")
    # acyclicity refutation: xx sits in a proper two-sided context of itself
    assert any(w == "xx" and p and s for w, p, s in report.cycles)
    # a strictly descending chain of length >= 3 whose representatives do not
    # shrink at some step: impossible in a free monoid
    chain = report.accp_evidence_chain
    assert len(chain) >= 3
    lengths = [len(w) for w in chain]
    assert any(b >= a for a, b in zip(lengths, lengths[1:]))
    assert report.note == "bounded evidence, not a certificate"


def test_congruence_closed_under_appends():
    cong = BoundedCongruence(alphabet="ab", relations=(("aa", "b"),), bound=5)
    assert cong.class_of("aa") == cong.class_of("b")
    assert cong.class_of("aab") == cong.class_of("bb")
    assert cong.class_of("baa") == cong.class_of("bb")
    assert cong.class_of("aaaa") == cong.class_of("bb")
    # canonical representatives are shortest-then-lex
    assert cong.class_of("aa") == "b"


def test_report_json_shape():
    data = presentation_explore("xy", [("x2", "yx2y")], 8).to_json()
    assert data["bound"] == 8
    assert data["class_count"] > 0
    assert isinstance(data["cycles"], list)
    assert data["note"] == "bounded evidence, not a certificate"


def _divisibility(case):
    alphabet, relations, bound = case
    rels = tuple((parse_relation_word(l, alphabet), parse_relation_word(r, alphabet)) for l, r in relations)
    return presentations._divisibility(BoundedCongruence(alphabet=alphabet, relations=rels, bound=bound))


def test_strict_children_match_the_pairwise_definition():
    """``below`` is the transpose of ``reach``, so the child masks the chain
    pass reads, ``below[v] & ~reach[v]``, are the classes c with c | v and
    not v | c."""
    cases = [
        ("xy", [("x2", "yx2y")], 8),
        ("xy", [], 4),
        ("xyz", [("xy", "yx"), ("xz", "zx")], 5),
        ("ab", [("aa", "b"), ("ab", "ba")], 5),
    ]
    for case in cases:
        _, _, _, reach, below = _divisibility(case)
        k = len(reach)
        assert sum(map(int.bit_count, below)) == sum(map(int.bit_count, reach))
        assert all(below[v] >> c & 1 for c in range(k) for v in indices(reach[c]))
        children = strict_children(reach)
        for v in range(k):
            pairwise = [c for c in range(k) if reach[c] >> v & 1 and not reach[v] >> c & 1]
            assert indices(below[v] & ~reach[v]) == pairwise == children[v]


# the largest bound drawn per alphabet size keeps the oracle's factor loop small
_MAX_BOUND = {1: 12, 2: 7, 3: 4}


@st.composite
def small_presentations(draw):
    size = draw(st.integers(1, 3))
    alphabet = "".join(draw(st.permutations("xyz"))[:size])
    side = st.text(alphabet=alphabet, max_size=3)
    relations = draw(st.lists(st.tuples(side, side), max_size=3))
    longest = max((len(w) for rel in relations for w in rel), default=0)
    bound = draw(st.integers(longest, _MAX_BOUND[size]))
    return alphabet, relations, bound


@settings(max_examples=400, deadline=None)
@given(small_presentations())
@example(("x", [], 0))
@example(("yx", [("y", "")], 5))
@example(("xy", [("xy", "yx"), ("yy", "")], 6))
def test_explorer_matches_the_all_factor_oracle(case):
    assert presentation_explore(*case).to_json() == oracle_explore(*case).to_json()


# the presentations of the benchmark and of the README
_BENCH_CASES = [
    ("xy", [("x2", "yx2y")], 9),
    ("xy", [("x2", "yx2y")], 10),
    ("xyz", [("xy", "yx"), ("xz", "zx")], 5),
    ("xyz", [("xy", "yx"), ("xz", "zx")], 7),
]
# more than 20 cycles, so the scan stops early: inside the first class with
# words of two lengths, or after several of them
_MANY_CYCLES = [
    ("x", [("x3", "x5")], 40),
    ("yx", [("yyx", "yx")], 6),
    ("yx", [("y", "yxx")], 6),
    ("xy", [("xy", "x")], 6),
]


@pytest.mark.parametrize("case", _BENCH_CASES + _MANY_CYCLES)
def test_explorer_matches_the_oracle_on_fixed_cases(case):
    assert presentation_explore(*case).to_json() == oracle_explore(*case).to_json()


# the last case has a class whose best evidence step, to one child, is both
# kinds at once; the plain step must win
_CHAIN_CASES = _BENCH_CASES + _MANY_CYCLES + [
    ("x", [], 400),
    ("xy", [("x2", "yx2y")], 11),
    ("xy", [("xy", "yx"), ("yy", "")], 6),
]


@pytest.mark.parametrize("case", _CHAIN_CASES)
def test_chains_by_level_masks_match_the_child_loop(case):
    reps, _, _, reach, below = _divisibility(case)
    assert presentations._chains(reach, below, reps) == loop_chains(reach, reps)


@pytest.mark.parametrize("case", _MANY_CYCLES)
def test_many_cycles_are_cut_at_twenty(case):
    assert len(presentation_explore(*case).cycles) == 20


def test_cycles_stop_exactly_at_twenty():
    """x^3 ~ x^5 puts every longer power in one of two classes; the quota
    fills inside the first of them and sorts by context."""
    cycles = presentation_explore("x", [("x3", "x5")], 40).cycles
    assert len(cycles) == 20
    assert {w for w, _, _ in cycles} == {"xxx"}
    assert list(cycles) == sorted(cycles)


@pytest.mark.parametrize("case", [("x", [], 400), ("x", [("x3", "x5")], 60)])
def test_explorer_needs_no_recursion(case):
    """The free monoid on one letter has a descending chain through all 401
    classes; the chain walk must not take a frame per step."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        report = presentation_explore(*case)
    finally:
        sys.setrecursionlimit(limit)
    if not case[1]:
        assert report.longest_descending_chain == tuple("x" * n for n in range(400, -1, -1))


@pytest.mark.parametrize("alphabet", ["xx", "xyx", "x1", "1", "a0b"])
def test_alphabet_letters_are_distinct_and_not_digits(alphabet):
    with pytest.raises(ShapeError):
        presentation_explore(alphabet, [], 3)
