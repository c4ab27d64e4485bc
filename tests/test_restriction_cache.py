"""``Premonoid.restrict`` builds one view per element set and carrier.

The oracle is a view built afresh from the carrier's submonoid and the
pullback of its preorder, as ``restrict`` built every view before it kept
them.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premonoids import FiniteMonoid, PreorderRel, ShapeError, divisibility_preorder, irreducibles
from premonoids.families import zn_premonoid
from premonoids.premonoid import Premonoid, SubPremonoid
from premonoids.randgen import monoid_pool, random_premonoid


def fresh_view(P, elements) -> SubPremonoid:
    sub_monoid, to_parent = P.monoid.submonoid(frozenset(elements))
    return SubPremonoid(sub_monoid, P.preorder.restrict(to_parent), to_parent)


def assert_same_view(got, want):
    assert got.monoid.table == want.monoid.table
    assert got.identity == want.identity
    assert got.preorder.rows == want.preorder.rows
    assert got.to_parent == want.to_parent


def closed_sets(P, rng) -> list:
    """The divisor-closed closure and the germ of every element, and the
    submonoids generated by a few seeded subsets, in an order that mixes
    sets of one size."""
    m = P.monoid
    sets = [m.divisor_closed_closure(x) for x in range(m.n)]
    sets += [m.germ_submonoid(x) for x in range(m.n)]
    sets += [m.generated_submonoid([y for y in range(m.n) if rng.random() < 0.4]) for _ in range(6)]
    rng.shuffle(sets)
    return sets


def assert_cached_views_are_fresh(P, rng) -> int:
    """Every set restricted twice, the second time after the first view's
    units and irreducibles were asked, gives one view equal to a fresh one;
    returns the number of distinct sets."""
    sets = closed_sets(P, rng)
    for elements in sets:
        view = P.restrict(elements)
        assert_same_view(view, fresh_view(P, elements))
        units, irr = view.units(), irreducibles(view)
        again = P.restrict(sorted(elements, reverse=True))
        assert again is view
        assert (again.units(), irreducibles(again)) == (units, irr)
    return len(set(map(frozenset, sets)))


def test_equal_sets_in_any_form_share_one_view():
    P = zn_premonoid(12)
    elements = P.monoid.divisor_closed_closure(4)
    view = P.restrict(elements)
    forms = (list(elements), set(elements), frozenset(elements), sorted(elements, reverse=True), iter(elements))
    assert all(P.restrict(form) is view for form in forms)
    # submonoids of one size are distinct views
    pairs = [P.restrict(s) for s in ({0, 1}, {1, 11}, {1, 5}, [11, 1])]
    assert [v.to_parent for v in pairs] == [(0, 1), (1, 11), (1, 5), (1, 11)]
    assert pairs[1] is pairs[3] and len({id(v) for v in pairs}) == 3
    # the localizations read the same views
    assert P.divisor_closed_localization(4) is view


def test_views_live_on_their_carrier():
    """Two carriers over one table keep their own views, each with the
    pullback of its own preorder."""
    m = zn_premonoid(8).monoid
    P, Q = Premonoid(m, divisibility_preorder(m)), Premonoid(m, PreorderRel.total(m.n))
    elements = m.divisor_closed_closure(2)
    assert P.restrict(elements).preorder.rows != Q.restrict(elements).preorder.rows
    for carrier in (P, Q):
        assert_same_view(carrier.restrict(elements), fresh_view(carrier, elements))


def test_cached_views_are_fresh_on_the_monoid_pool():
    rng = random.Random(7)
    distinct = 0
    for table, identity in monoid_pool():
        m = FiniteMonoid(table, identity)
        distinct += assert_cached_views_are_fresh(Premonoid(m, divisibility_preorder(m)), rng)
    assert distinct > 100


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cached_views_are_fresh_on_random_premonoids(seed):
    rng = random.Random(seed)
    assert_cached_views_are_fresh(random_premonoid(rng, 6), rng)


@pytest.mark.parametrize("elements", [{1, 2}, [1, 3, 2], {2, 4, 6}, (0, 3, 5)])
def test_a_set_that_is_not_a_submonoid_raises_on_every_call(elements):
    """{1, 2} and {1, 2, 3} miss 2*2 = 4, and the others miss the identity 1
    of Z/8."""
    P = zn_premonoid(8)
    for _ in range(3):
        with pytest.raises(ShapeError):
            P.restrict(elements)
    assert P.restrict({0, 1}).to_parent == (0, 1)
