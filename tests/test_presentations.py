import hashlib
import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import premonoids
from premonoids import BoundTooSmallError, CapExceededError, ShapeError, bitrows, presentations
from premonoids.cli import main
from premonoids.presentations import (
    BoundedCongruence,
    parse_relation_word,
    presentation_explore,
)

from premonoids.bitrows import indices

from presentation_oracle import loop_chains, oracle_explore, rewrite_classes, strict_children, warshall


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
    # and the relation is the first merge logged
    assert cong.merge_log[0] == ("xx", "yxxy")


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


def test_words_are_listed_in_code_point_order_and_the_least_is_the_representative():
    cong = BoundedCongruence(alphabet="yx", relations=(("yy", "x"),), bound=4)
    assert list(cong.words) == sorted(cong.words, key=lambda w: (len(w), w))
    assert cong.words[:3] == ("", "x", "y")
    assert all(cong.index[w] == i for i, w in enumerate(cong.words))
    for w in cong.words:
        members = [u for u in cong.words if cong.class_of(u) == cong.class_of(w)]
        assert cong.class_of(w) == members[0]


def _parsed(alphabet, relations):
    return tuple((parse_relation_word(l, alphabet), parse_relation_word(r, alphabet)) for l, r in relations)


def _classes(alphabet, relations, bound):
    """Each word's representative in the explorer's congruence."""
    cong = BoundedCongruence(alphabet=alphabet, relations=_parsed(alphabet, relations), bound=bound)
    return {w: cong.class_of(w) for w in cong.words}


# homogeneous: the sides of each relation have equal length
_HOMOGENEOUS = [
    ("xy", [("xyx", "yxy")]),  # positive braid monoid on three strands
    ("xy", [("xx", "yy")]),
    ("xy", [("xy", "yx")]),
    ("xy", [("xxy", "xyx"), ("xyy", "yxy")]),  # rank-2 plactic monoid
    ("xyz", [("xy", "yx"), ("xz", "zx")]),
]


@pytest.mark.parametrize("alphabet, relations", _HOMOGENEOUS)
def test_congruence_is_exact_on_homogeneous_presentations(alphabet, relations):
    """Every word's class equals the one found by applying each relation in
    every context that fits, at every bound up to 8."""
    longest = max(len(w) for rel in relations for w in rel)
    for bound in range(longest, 9):
        assert _classes(alphabet, relations, bound) == rewrite_classes(alphabet, relations, bound)


@pytest.mark.xfail(strict=True, reason="the worklist extends only the pairs a union merges")
@pytest.mark.parametrize("alphabet, relations, bound", [
    ("zb", [("bbz", "z")], 7),  # bbzzz ~ zzz but bbzzzz and zzzz stay apart
    ("xy", [("x2", "yx2y")], 9),  # 727 classes against 709
    ("ab", [("aba", "b"), ("bab", "a")], 12),  # 2,828 classes against 763
])
def test_congruence_misses_rewrites_on_non_homogeneous_presentations(alphabet, relations, bound):
    assert _classes(alphabet, relations, bound) == rewrite_classes(alphabet, relations, bound)


@pytest.mark.parametrize("alphabet, relations, bound", [
    (alphabet, relations, 7) for alphabet, relations in _HOMOGENEOUS[:4]
] + [("xyz", [("xy", "yx"), ("xz", "zx")], 6), ("xy", [], 6)])
def test_reversed_alphabet_keeps_homogeneous_evidence(alphabet, relations, bound):
    """The classes, and so the evidence read off them, do not depend on the
    order the alphabet is written in when the congruence is exact."""
    want, got = (presentation_explore(a, relations, bound).to_json() for a in (alphabet, alphabet[::-1]))
    for key in ("class_count", "cycles", "longest_descending_chain", "accp_evidence_chain"):
        assert got[key] == want[key]


def test_report_json_shape():
    data = presentation_explore("xy", [("x2", "yx2y")], 8).to_json()
    assert data["bound"] == 8
    assert data["class_count"] > 0
    assert isinstance(data["cycles"], list)
    assert data["note"] == "bounded evidence, not a certificate"


def _divisibility(case):
    """The explorer's ``(reps, pred)``, and ``reach``: Warshall's closure of
    the forward one-letter edges, built here and not by the program."""
    alphabet, relations, bound = case
    cong = BoundedCongruence(alphabet=alphabet, relations=_parsed(alphabet, relations), bound=bound)
    reps, _, index, pred = presentations._divisibility(cong)
    succ: list = [[] for _ in reps]
    for w in cong.words:
        if len(w) < bound:
            succ[index[w]] += [index[d] for a in alphabet for d in (w + a, a + w)]
    return reps, pred, warshall(succ)


def test_strict_children_match_the_pairwise_definition():
    """The closure of the returned predecessor lists, built here, is the
    transpose of the forward closure ``reach``, and ``below[v]`` less the
    classes whose row equals ``below[v]`` are the classes c with c | v and
    not v | c."""
    cases = [
        ("xy", [("x2", "yx2y")], 8),
        ("xy", [], 4),
        ("xyz", [("xy", "yx"), ("xz", "zx")], 5),
        ("ab", [("aa", "b"), ("ab", "ba")], 5),
        ("x", [("x3", "x5")], 12),
    ]
    for case in cases:
        _, pred, reach = _divisibility(case)
        k = len(reach)
        below = warshall(pred)
        assert below == [sum((reach[c] >> v & 1) << c for c in range(k)) for v in range(k)]
        children = strict_children(reach)
        for v in range(k):
            same = [c for c in range(k) if below[c] == below[v]]
            pairwise = [c for c in range(k) if reach[c] >> v & 1 and not reach[v] >> c & 1]
            assert [c for c in indices(below[v]) if c not in same] == pairwise == children[v]


def test_exploration_builds_no_closure(monkeypatch):
    calls = []

    def counted(succ):
        calls.append(len(succ))
        return bitrows.close(succ)

    monkeypatch.setattr(bitrows, "close", counted)
    presentation_explore("xy", [("x2", "yx2y")], 9)
    assert calls == [] and not hasattr(presentations, "close")


def test_exploration_memory_stays_under_eight_megabytes():
    """Linear in the words: a closure of the 8191 classes, one row of up to
    8191 bits each, took the traced peak to 12 MB."""
    tracemalloc.start()
    try:
        presentation_explore("xy", (), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the Linux VmHWM")
def test_describe_presentation_peaks_under_sixty_megabytes():
    """``describe present:xy::14`` in its own process, which reports its own
    peak resident size: 170 MB with one closure, about 13 MB for a bare
    interpreter.  It reads VmHWM, the high-water mark of its own image in
    kilobytes, because ``ru_maxrss`` keeps the peak of the forking test
    process across exec."""
    code = (
        "import contextlib, io\n"
        "from premonoids.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['describe', 'present:xy::14'])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(premonoids.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 60 * 1024


# stdout digests of ``describe`` on larger presentations, recorded while the
# explorer still built the forward closure as well
DESCRIBE_DIGESTS = {
    "present:xy::14": "c1ca1ba50aaab06e101132fa05d4df4bd9ad496d245fa8eea6bc1e62b2d4092c",
    "present:xyz::9": "dea4a763f1283d81f2767448cb7a07006d9283a8eaeda1298d74517f05dbf798",
    "present:xy:x2=yx2y:11": "c9f84fad1eefa3ab9a522323668b8b13537d6d09afc9a41d487aa10ccf3345e5",
    "present:xy:x3=x5:13": "514ec2ac8e27662bc2471ddc372011b1df18b9e59458e42ddf9e5e248daa2642",
}


@pytest.mark.parametrize("spec", sorted(DESCRIBE_DIGESTS))
def test_describe_presentation_is_byte_identical(spec, capsys):
    assert main(["describe", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DESCRIBE_DIGESTS[spec]


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
    """The chains read off the components of the one-letter digraph equal
    the child loop's over every strict child of the Warshall closure."""
    reps, pred, reach = _divisibility(case)
    assert presentations._chains(pred, reps) == loop_chains(reach, reps)


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
