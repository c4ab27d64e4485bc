import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premonoids import (
    NotFactorableError,
    PreorderRel,
    Premonoid,
    divisibility_preorder,
    phi_preorder,
    preorder_from_json,
    pullback_preorder,
)
from premonoids.errors import ShapeError
from premonoids.families import make_zn, powerset_premonoid, zn_premonoid


def test_closure_on_load():
    rel = PreorderRel.from_pairs(3, [(0, 1), (1, 2)])
    assert rel.leq(0, 2)
    assert rel.leq(1, 1)
    assert rel.source == {"pairs": [(0, 1), (1, 2)]}


@given(st.integers(1, 6), st.data())
@settings(max_examples=120, deadline=None)
def test_closure_is_reflexive_transitive_and_strict_part_acyclic(n, data):
    matrix = data.draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    rel = PreorderRel.from_matrix(matrix)
    for a in range(n):
        assert rel.leq(a, a)
        for b in range(n):
            for c in range(n):
                if rel.leq(a, b) and rel.leq(b, c):
                    assert rel.leq(a, c)
    assert rel.strict_is_acyclic()


def test_divisibility_zn4():
    rel = divisibility_preorder(make_zn(4))
    assert rel.equiv(1, 3)  # mutual: both units
    assert rel.lt(2, 0)
    assert not rel.leq(0, 2)
    assert rel.kind == "divisibility"


def test_divisibility_on_group_is_total():
    from premonoids.families import cyclic_group

    rel = divisibility_preorder(cyclic_group(5))
    assert rel == PreorderRel.total(5)


def test_pullback_constant_and_identity():
    from premonoids.preorder import natural_order_rel

    chain = natural_order_rel(4)
    const = pullback_preorder([0, 0, 0, 0], chain)
    assert const == PreorderRel.total(4)
    ident = pullback_preorder([0, 1, 2, 3], chain)
    assert ident == chain


def test_restrict_preserves_relation():
    rel = divisibility_preorder(make_zn(4))
    sub = rel.restrict((0, 1, 2))  # indices {0,1,2}: classes of 0,1,2
    # 2 strictly below 0 survives restriction (new indices: 0->0, 1->1, 2->2)
    assert sub.lt(2, 0)
    one_point = rel.restrict((1,))
    assert one_point.n == 1 and one_point.leq(0, 0)


def test_restricted_units_are_restricted():
    P = zn_premonoid(8)
    for x in range(8):
        view = P.divisor_closed_localization(x)
        expected = {e for e in view.to_parent if e in P.units()}
        assert {view.to_parent[u] for u in view.units()} == expected


def test_divisor_closed_restriction_is_native_divisibility():
    m = make_zn(8)
    rel = divisibility_preorder(m)
    for x in range(8):
        mask = m.divisor_closed_closure(x)
        sub, to_parent = m.submonoid(mask)
        assert rel.restrict(to_parent).rows == divisibility_preorder(sub).rows


def test_preorder_units_examples():
    assert sorted(zn_premonoid(4).units()) == [1, 3]
    P, labels = powerset_premonoid(3)
    assert [labels[u] for u in sorted(P.units())] == [()]
    total = Premonoid(make_zn(4), PreorderRel.total(4))
    assert total.units() == frozenset(range(4))


def test_heights_zn4():
    P = zn_premonoid(4)
    h = P.heights()
    assert h[0] == 2 and h[2] == 1
    assert h[1] == 0 and h[3] == 0  # units have empty chain sets


def test_heights_remark_premonoid():
    from premonoids.families import make_remark_premonoid

    P = make_remark_premonoid(12)
    assert P.heights_of(range(7)) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


def test_flags_zn4():
    f = zn_premonoid(4).flags()
    assert f.weakly_positive and f.preordered and f.positive
    assert not f.strongly_positive
    assert f.artinian and f.strongly_artinian


def test_flags_total_relation():
    P = Premonoid(make_zn(4), PreorderRel.total(4))
    f = P.flags()
    assert f.positive and f.strongly_positive and f.weakly_positive


def test_flags_remark_premonoid_bounded():
    from premonoids.families import make_remark_premonoid

    f = make_remark_premonoid(9).bounded_flags(range(7))
    assert f.positive and not f.strongly_positive
    assert f.weakly_positive
    assert f.method.startswith("bounded")


def test_phi_preorder_zn4():
    m = make_zn(4)
    rel, phi = phi_preorder(m, [2])
    assert phi == (2, 0, 1, 0)
    P = Premonoid(m, rel)
    from premonoids import irreducibles, quarks

    assert irreducibles(P) == (2,)
    assert quarks(P) == (2,)


def test_phi_preorder_empty_generators():
    m = make_zn(4)
    rel, phi = phi_preorder(m, [])
    assert phi == (0, 0, 0, 0)
    assert rel == PreorderRel.total(4)


def test_phi_preorder_all_nonunits_of_zn9():
    m = make_zn(9)
    nonunits = [x for x in range(9) if x not in m.units()]
    rel, phi = phi_preorder(m, nonunits)
    for x in range(9):
        if x in m.units():
            assert phi[x] == 0
        else:
            assert phi[x] >= 1
    with pytest.raises(ShapeError):
        phi_preorder(m, [1])  # identity not allowed


@pytest.mark.parametrize("bad", [-1, 9, 99, "a", 2.0, True, [2]])
def test_phi_preorder_takes_element_indices_only(bad):
    """-1 is not read as the last element, nor True as element 1."""
    with pytest.raises(ShapeError):
        phi_preorder(make_zn(9), [2, bad])


def test_pullback_via_isomorphism_maps_irreducibles():
    from premonoids import atoms, irreducibles, quarks
    from premonoids.monoid import FiniteMonoid

    rng = random.Random(4)
    P = zn_premonoid(8)
    n = 8
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[perm[i]][perm[j]] = perm[P.monoid.table[i][j]]
        m2 = FiniteMonoid(table, perm[1])
        p2 = Premonoid(m2, divisibility_preorder(m2))
        for fn in (quarks, irreducibles, atoms):
            assert {perm[a] for a in fn(P)} == set(fn(p2))


def test_preorder_json_roundtrip():
    m = make_zn(4)
    div = divisibility_preorder(m)
    assert preorder_from_json(div.to_json(), monoid=m) == div
    explicit = PreorderRel.from_pairs(3, [(0, 1)])
    assert preorder_from_json(explicit.to_json()) == explicit
    rel, _ = phi_preorder(m, [2])
    assert preorder_from_json(rel.to_json(), monoid=m) == rel
    from premonoids.preorder import natural_order_rel

    pb = pullback_preorder([0, 1, 1, 0], natural_order_rel(2))
    assert preorder_from_json(pb.to_json()) == pb
    with pytest.raises(ShapeError):
        preorder_from_json({"kind": "mystery"})
    with pytest.raises(ShapeError):
        preorder_from_json({"kind": "divisibility"})  # needs the monoid


def test_condensation_dot_deterministic():
    P = zn_premonoid(4)
    dot = P.preorder.condensation_dot()
    assert dot == P.preorder.condensation_dot()
    assert "digraph" in dot and "{1,3}" in dot
