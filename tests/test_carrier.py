"""The carrier protocol: who implements it, that the engines need nothing
else, exact ``strictly_below``, and heights without recursion.

The oracles are the literal definitions: the non-units y with y < x, filtered
out of a pool known to contain them all, and heights by plain recursion over
that filter.
"""
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premonoids import (
    FiniteMonoid,
    NotComputableError,
    classify,
    divisibility_preorder,
    element_profile,
    enumerate_factorizations,
    is_atom,
    is_irreducible,
    is_quark,
)
from premonoids.cli import load_instance
from premonoids.factorization import DivisorAutomaton
from premonoids.families import AdditiveNaturals, cyclic_group, power_premonoid, zn_premonoid
from premonoids.localfinite import LocalPremonoid, RuleOrderPremonoid
from premonoids.premonoid import Carrier, Premonoid, SubPremonoid, heights_of
from premonoids.randgen import monoid_pool, random_premonoid

from protocol_only import ProtocolOnly

# one instance of each local builder the CLI loads (power:FILE loads
# power_premonoid when the base has more than four elements)
LOCAL_SPECS = ("powerN:9", "b:c3:1,2", "b:dinf:", "numerical:3,5,7", "n2sub:4", "remarkN:20")


def local_builders():
    out = [(spec, load_instance(spec).payload) for spec in LOCAL_SPECS]
    out.append(("power(C5)", power_premonoid(cyclic_group(5))))
    return out


LOCAL = local_builders()


def finite_strictly_below(P, x) -> tuple:
    return tuple(y for y in range(P.monoid.n) if not P.is_unit(y) and P.lt(y, x))


def assert_finite_exact(P):
    for x in range(P.monoid.n):
        assert P.strictly_below(x) == finite_strictly_below(P, x), x


def local_strictly_below(P, x) -> set:
    """Every y < x divides x under divisibility; under the remark order no
    non-unit is strictly below anything. The sample widens the pool so that
    a hook that missed an element would show."""
    pool = set(P.divisors(x)) | set(P.monoid.sample_elements())
    return {y for y in pool if not P.is_unit(y) and P.lt(y, x)}


def recursive_heights(P, elements) -> dict:
    memo: dict = {}

    def height(x) -> int:
        if P.is_unit(x):
            return 0
        if x not in memo:
            memo[x] = 1 + max((height(y) for y in local_strictly_below(P, x)), default=0)
        return memo[x]

    return {x: height(x) for x in elements}


def test_finite_and_restricted_carriers_are_carriers():
    P = zn_premonoid(8)
    sub = P.divisor_closed_localization(2)
    assert isinstance(sub, SubPremonoid)
    for carrier in (P, sub):
        assert isinstance(carrier, Carrier)
    assert_finite_exact(sub)


@pytest.mark.parametrize("spec, P", LOCAL, ids=[s for s, _ in LOCAL])
def test_local_builders_are_carriers(spec, P):
    assert isinstance(P, LocalPremonoid) and isinstance(P, Carrier)


def test_strictly_below_is_exact_on_the_monoid_pool():
    for table, identity in monoid_pool():
        monoid = FiniteMonoid(table, identity)
        assert_finite_exact(Premonoid(monoid, divisibility_preorder(monoid)))


def carrier_members() -> set:
    return {name for name in vars(Carrier) if not name.startswith("_")} | set(Carrier.__annotations__)


def test_the_protocol_declares_six_queries():
    members = {"identity", "op", "divisors", "leq", "is_unit", "strictly_below"}
    assert carrier_members() == members
    assert {name for name in dir(ProtocolOnly) if not name.startswith("_")} == members


def test_the_readme_lists_the_protocol_members():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"`Carrier` protocol .*?declares: (.*?)\.\s", readme, re.S)
    assert sentence is not None, "README lost the sentence listing the Carrier members"
    assert set(re.findall(r"`(\w+)`", sentence.group(1))) == carrier_members()


PROTOCOL_CASES = [("zn:12", zn_premonoid(12)), ("numerical:3,5,7", load_instance("numerical:3,5,7").payload)]


def takes_finite_construction(P, x, letters) -> bool:
    """Whether x's automaton numbers its states by element (the finite
    construction) rather than 0..d-1; the goal tells them apart wherever
    x's place among its divisors is not x itself."""
    auto = DivisorAutomaton(P, x, letters)
    divisors = P.divisors(x)
    assert divisors.index(x) != x, "x does not tell the constructions apart"
    assert auto.goal in (x, divisors.index(x))
    assert auto.elements(1 << auto.goal) == {x}
    return auto.goal == x


def test_finite_carriers_take_the_finite_construction():
    P = zn_premonoid(12)
    sub = P.divisor_closed_localization(2)  # elements 1, 2, 4, 5, 7, 8, 10, 11
    for carrier, x in ((P, 4), (P, 9), (sub, sub.from_parent(10))):
        for letters in ("irreducibles", "atoms"):
            assert takes_finite_construction(carrier, x, letters), (carrier, x, letters)
            assert not takes_finite_construction(ProtocolOnly(carrier), x, letters), (carrier, x)


class WithCapabilities(ProtocolOnly):
    """A carrier that is no ``Premonoid`` but offers its finite capabilities,
    counting the calls to each."""

    __slots__ = ("calls",)

    def __init__(self, carrier):
        super().__init__(carrier)
        self.calls = Counter()

    def letter_rows(self, letters, alphabet):
        self.calls["letter_rows"] += 1
        return self._carrier.letter_rows(letters, alphabet)

    def inverse_row(self, b):
        self.calls["inverse_row"] += 1
        return self._carrier.inverse_row(b)


def test_finite_paths_go_by_type_not_by_capability():
    """Offering ``letter_rows`` and ``inverse_row`` does not make a carrier
    finite: the engines never call them on a non-``Premonoid``, and the
    verdicts stay those of the wrapped carrier."""
    P = zn_premonoid(12)
    sub = P.divisor_closed_localization(2)  # elements 1, 2, 4, 5, 7, 8, 10, 11
    for carrier, x in ((P, 4), (P, 9), (sub, sub.from_parent(10))):
        W = WithCapabilities(carrier)
        for letters in ("irreducibles", "atoms"):
            assert not takes_finite_construction(W, x, letters), (carrier, x, letters)
        elements = carrier.nonunits()
        for y in elements:
            assert element_profile(W, y) == element_profile(carrier, y), y
            for s in (2, 3):
                assert is_irreducible(W, y, s) == is_irreducible(carrier, y, s), (y, s)
                assert is_atom(W, y, s) == is_atom(carrier, y, s), (y, s)
        assert classify(W, elements=elements) == classify(carrier, elements=elements)
        assert W.calls == {}, carrier


@pytest.mark.parametrize("spec, P", PROTOCOL_CASES, ids=[s for s, _ in PROTOCOL_CASES])
def test_engines_ask_only_the_protocol(spec, P):
    elements = P.nonunits() if isinstance(P, Premonoid) else P.nonunit_sample()
    W = ProtocolOnly(P)
    assert isinstance(W, Carrier)
    for x in elements:
        if P.divisors(x).index(x) != x:
            assert takes_finite_construction(P, x, "irreducibles") == isinstance(P, Premonoid), x
            assert not takes_finite_construction(W, x, "irreducibles"), x
        assert element_profile(W, x) == element_profile(P, x), x
        assert list(enumerate_factorizations(W, x, 5)) == list(enumerate_factorizations(P, x, 5)), x
        for s in (2, 3):
            assert is_irreducible(W, x, s) == is_irreducible(P, x, s), (x, s)
            assert is_atom(W, x, s) == is_atom(P, x, s), (x, s)
        assert is_quark(W, x) == is_quark(P, x), x
    assert classify(W, elements=elements) == classify(P, elements=elements)
    assert heights_of(W, elements) == heights_of(P, elements)


@pytest.mark.parametrize("n", range(1, 49))
def test_strictly_below_is_exact_on_zn(n):
    assert_finite_exact(zn_premonoid(n))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_strictly_below_is_exact_on_random_premonoids(seed):
    assert_finite_exact(random_premonoid(random.Random(seed), 6))


@pytest.mark.parametrize("spec, P", LOCAL, ids=[s for s, _ in LOCAL])
def test_strictly_below_is_exact_on_local_samples(spec, P):
    for x in P.monoid.sample_elements():
        below = P.strictly_below(x)
        assert len(set(below)) == len(below), x
        assert set(below) == local_strictly_below(P, x), x


@pytest.mark.parametrize("spec, P", LOCAL, ids=[s for s, _ in LOCAL])
def test_heights_of_matches_the_recursive_definition(spec, P):
    sample = P.nonunit_sample()
    assert P.heights_of(sample) == recursive_heights(P, sample)


def test_heights_of_walks_a_long_chain_without_recursing():
    # the hook lists candidates in descending order, so a recursive walk
    # would go 800 frames deep before the first height is known
    P = RuleOrderPremonoid(
        AdditiveNaturals(900),
        order=lambda a, b: a <= b,
        strict_lower=lambda a: range(a - 1, 0, -1),
    )
    assert P.heights_of([800]) == {800: 800}


def test_heights_of_reports_a_strict_cycle():
    # not a preorder: 1 < 2 < 3 < 1 with nothing else related but 0 below all
    cycle = {(1, 2), (2, 3), (3, 1)}
    P = RuleOrderPremonoid(
        AdditiveNaturals(5),
        order=lambda a, b: a == b or a == 0 or (a, b) in cycle,
        strict_lower=lambda a: (1, 2, 3),
    )
    with pytest.raises(NotComputableError):
        P.heights_of([1])
