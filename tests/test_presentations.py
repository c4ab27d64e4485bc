import pytest

from premonoids import BoundTooSmallError, ShapeError, presentations
from premonoids.presentations import (
    BoundedCongruence,
    parse_relation_word,
    presentation_explore,
)


def test_parse_relation_word():
    assert parse_relation_word("x2", "xy") == "xx"
    assert parse_relation_word("yx2y", "xy") == "yxxy"
    assert parse_relation_word("x12", "xy") == "x" * 12
    with pytest.raises(ShapeError):
        parse_relation_word("z", "xy")


def test_bound_too_small():
    with pytest.raises(BoundTooSmallError):
        presentation_explore("xy", [("x2", "yx2y")], 3)


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


def test_strict_children_match_the_pairwise_definition(monkeypatch):
    def pairwise_children(reach):
        k = len(reach)

        def strictly_below(i, j):
            return bool(reach[i] >> j & 1) and not (reach[j] >> i & 1)

        return [[c for c in range(k) if strictly_below(c, v)] for v in range(k)]

    cases = [
        ("xy", [("x2", "yx2y")], 8),
        ("xy", [], 4),
        ("xyz", [("xy", "yx"), ("xz", "zx")], 5),
        ("ab", [("aa", "b"), ("ab", "ba")], 5),
    ]
    fast = [presentation_explore(*case).to_json() for case in cases]
    monkeypatch.setattr(presentations, "_strict_children", pairwise_children)
    assert [presentation_explore(*case).to_json() for case in cases] == fast
