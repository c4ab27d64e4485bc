"""The divisor-automaton engine against its predecessors.

The main oracle below is the engine as it was before the automaton: layers
as frozensets of elements, class vectors built level by level out to the
distinct-prefix bound (twice that for the census) with no pruning beyond
divisors of x, and minimal classes picked from all realized vectors by
pairwise comparison. It shares only the alphabets and ``class_reps`` with
the engine.

On a finite length set the engine reads the minimal classes off its one
class-vector census; the dominance-pruned minimal search that it ran there
before is kept below as a second oracle.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premonoids import (
    FiniteMonoid,
    LengthSet,
    Premonoid,
    divisibility_preorder,
    element_profile,
    is_atom,
    realizable_vectors,
)
from premonoids import factorization as fz
from premonoids.factorization import (
    DivisorAutomaton,
    ElementProfile,
    _class_vectors,
    _pairs,
    _witness,
    factorization_alphabet,
    minimal_factorization_classes,
    prefix_bound,
)
from premonoids.families import n2_premonoid, numerical_premonoid, powerset_premonoid, zn_premonoid
from premonoids.randgen import monoid_pool, random_premonoid
from premonoids.words import class_reps, vector_total

from brute_force import vector_leq


def vector_lt(u: tuple, v: tuple) -> bool:
    return vector_leq(u, v) and u != v


def oracle_length_set(P, x, alphabet) -> LengthSet:
    allowed = frozenset(P.divisors(x))
    alphabet = tuple(a for a in alphabet if a in allowed)
    if not alphabet:
        return LengthSet.empty()
    seen: dict = {}
    layers: list = [frozenset()]  # 1-indexed
    state = frozenset(alphabet)
    k = 1
    while state not in seen:
        seen[state] = k
        layers.append(state)
        state = frozenset(P.op(p, a) for p in state for a in alphabet) & allowed
        k += 1
    first = seen[state]
    period = k - first
    finite = [j for j in range(1, first) if x in layers[j]]
    residues = [r for r in range(period) if x in layers[first + r]]
    return LengthSet.make(finite, offset=first, period=period, residues=residues)


def _vector_add(vec: tuple, cls) -> tuple:
    d = dict(vec)
    d[cls] = d.get(cls, 0) + 1
    return tuple(sorted(d.items()))


def _vector_levels(P, x, alphabet, max_level: int, rep=None):
    """levels[k] maps each class vector of total k to the products of its
    words, pruned to divisors of x."""
    if rep is None:
        rep = class_reps(P.leq, alphabet)
    allowed = frozenset(P.divisors(x))
    levels = [{(): frozenset({P.identity})}]
    for _ in range(max_level):
        nxt: dict = {}
        for vec, prods in levels[-1].items():
            for a in alphabet:
                extended = frozenset(P.op(p, a) for p in prods) & allowed
                if not extended:
                    continue
                key = _vector_add(vec, rep[a])
                got = nxt.get(key)
                nxt[key] = extended if got is None else got | extended
        levels.append(nxt)
    return levels


def _realized(levels, x) -> set:
    return {vec for level in levels[1:] for vec, prods in level.items() if x in prods}


def oracle_realizable_vectors(P, x, alphabet):
    """(vectors of total at most the bound, infinite)."""
    alphabet = tuple(a for a in alphabet if a in set(P.divisors(x)))
    if not alphabet:
        return (), False
    bound = prefix_bound(P, x)
    levels = _vector_levels(P, x, alphabet, 2 * bound + 1)
    infinite = any(x in prods for level in levels[bound + 1:] for prods in level.values())
    return tuple(sorted(_realized(levels[: bound + 1], x))), infinite


def _witness_word(P, x, alphabet, rep, vec) -> tuple:
    dead: set = set()

    def dfs(p, rem_key, rem):
        if not rem:
            return () if p == x else None
        if (p, rem_key) in dead:
            return None
        for a in alphabet:
            c = rep[a]
            if rem.get(c, 0) > 0:
                rem[c] -= 1
                if rem[c] == 0:
                    del rem[c]
                tail = dfs(P.op(p, a), tuple(sorted(rem.items())), rem)
                rem[c] = rem.get(c, 0) + 1
                if tail is not None:
                    return (a,) + tail
        dead.add((p, rem_key))
        return None

    word = dfs(P.identity, vec, dict(vec))
    assert word is not None, "vector realized but no witness found"
    return word


def oracle_minimal_classes(P, x, alphabet):
    alphabet = tuple(sorted(a for a in alphabet if a in set(P.divisors(x))))
    if not alphabet:
        return ()
    rep = class_reps(P.leq, alphabet)
    realized = _realized(_vector_levels(P, x, alphabet, prefix_bound(P, x), rep=rep), x)
    minima = sorted(
        (vec for vec in realized if not any(vector_lt(w, vec) for w in realized)),
        key=lambda v: (vector_total(v), v),
    )
    return tuple((vec, _witness_word(P, x, alphabet, rep, vec)) for vec in minima)


def oracle_profile(P, x) -> ElementProfile:
    irr_alpha = factorization_alphabet(P, x, "irreducibles")
    atom_alpha = tuple(a for a in irr_alpha if is_atom(P, a))
    vectors, infinite = oracle_realizable_vectors(P, x, irr_alpha)
    avectors, ainfinite = oracle_realizable_vectors(P, x, atom_alpha)
    minimal = oracle_minimal_classes(P, x, irr_alpha)
    literal = []
    if minimal and atom_alpha:
        rep = class_reps(P.leq, irr_alpha)
        atom_levels = _vector_levels(P, x, atom_alpha, prefix_bound(P, x), rep=rep)
        atom_realizable = _realized(atom_levels, x)
        sorted_atoms = tuple(sorted(atom_alpha))
        literal = [
            (vec, _witness_word(P, x, sorted_atoms, rep, vec))
            for vec, _ in minimal
            if vec in atom_realizable
        ]
    return ElementProfile(
        element=x,
        irreducible_divisors=irr_alpha,
        atom_divisors=atom_alpha,
        lengths=oracle_length_set(P, x, irr_alpha),
        atomic_lengths=oracle_length_set(P, x, atom_alpha),
        class_count=None if infinite else len(vectors),
        atomic_class_count=None if ainfinite else len(avectors),
        minimal=minimal,
        minimal_atomic_within=oracle_minimal_classes(P, x, atom_alpha),
        minimal_atomic_literal=tuple(literal),
    )


def assert_matches_oracle(P):
    for x in P.nonunits():
        assert element_profile(P, x).to_json() == oracle_profile(P, x).to_json(), x
        for letters in ("irreducibles", "atoms"):
            alphabet = factorization_alphabet(P, x, letters)
            vectors, infinite = realizable_vectors(P, x, letters)
            old_vectors, old_infinite = oracle_realizable_vectors(P, x, alphabet)
            assert infinite == old_infinite, (x, letters)
            # an infinite census lists no vectors; a finite one lists them all
            assert vectors == (() if infinite else old_vectors), (x, letters)


def _divisibility_premonoid(table, identity) -> Premonoid:
    monoid = FiniteMonoid(table, identity)
    return Premonoid(monoid, divisibility_preorder(monoid))


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_monoid_pool_matches_oracle(index):
    assert_matches_oracle(_divisibility_premonoid(*monoid_pool()[index]))


@pytest.mark.parametrize("n", range(1, 41))
def test_zn_matches_oracle(n):
    assert_matches_oracle(zn_premonoid(n))


@pytest.mark.parametrize("points", [3, 4])
def test_union_power_set_matches_oracle(points):
    P, _ = powerset_premonoid(points)
    assert_matches_oracle(P)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_premonoids_match_oracle(seed):
    assert_matches_oracle(random_premonoid(random.Random(seed), 6))


# -- census minima against the pruned minimal search ---------------------------------


def pruned_minimal_classes(P, x, alphabet):
    """The minimal classes by the dominance-pruned search out to the largest
    length, on a finite length set: what ``minimal_factorization_classes``
    ran there before it read the minima off the census."""
    auto = DivisorAutomaton(P, x, alphabet)
    lengths = auto.length_set()
    assert lengths.is_finite
    if lengths.is_empty:
        return ()
    cls_of, reps = auto.numbering()
    vectors = _class_vectors(auto, cls_of, len(reps), lengths.finite[-1], minimal=True)
    classes = [(_pairs(v, reps), _witness(auto, cls_of, v)) for v in vectors]
    return tuple(sorted(classes, key=lambda vw: (vector_total(vw[0]), vw[0])))


def assert_census_minima_match(P, elements) -> tuple[int, int]:
    """Compare on every finite column of the elements; returns how many
    nonempty columns were compared and in how many the census also held
    vectors that are not minimal."""
    compared = dominated = 0
    for x in elements:
        for letters in ("irreducibles", "atoms"):
            alphabet = factorization_alphabet(P, x, letters)
            auto = DivisorAutomaton(P, x, alphabet)
            if not auto.length_set().is_finite:
                continue
            got = minimal_factorization_classes(P, x, automaton=auto)
            assert got == pruned_minimal_classes(P, x, alphabet), (x, letters)
            compared += bool(got)
            dominated += len(auto.census()) > len(got)
    return compared, dominated


def test_census_minima_match_pruned_search_on_the_pool():
    compared = sum(
        assert_census_minima_match(P, P.nonunits())[0]
        for P in (_divisibility_premonoid(*entry) for entry in monoid_pool())
    )
    assert compared > 0


@pytest.mark.parametrize("n", range(1, 49))
def test_census_minima_match_pruned_search_on_zn(n):
    P = zn_premonoid(n)
    assert_census_minima_match(P, P.nonunits())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_census_minima_match_pruned_search_on_random_premonoids(seed):
    P = random_premonoid(random.Random(seed), 6)
    assert_census_minima_match(P, P.nonunits())


@pytest.mark.parametrize(
    "P, extra",
    [(numerical_premonoid([3, 5, 7]), (104,)), (n2_premonoid(4), ())],
    ids=["numerical:3,5,7", "n2sub:4"],
)
def test_census_minima_match_pruned_search_on_families(P, extra):
    assert assert_census_minima_match(P, P.nonunit_sample() + extra)[0] > 0


# A commutative carrier whose finite census holds a vector above another
# realized one would pump it (x = x * w), so there every finite census is all
# minima; these non-commutative tables are ones whose finite census is not.
@pytest.mark.parametrize("seed", [350, 527, 744, 829, 848, 1049, 1275, 1322, 1633])
def test_census_minima_drop_dominated_vectors(seed):
    P = random_premonoid(random.Random(seed), 6)
    assert assert_census_minima_match(P, P.nonunits())[1] > 0


def test_one_class_vector_search_per_column(monkeypatch):
    calls = []
    real = fz._class_vectors

    def counted(*args, **kwargs):
        calls.append(kwargs.get("minimal", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(fz, "_class_vectors", counted)
    carriers = [(P, P.nonunits()) for P in map(zn_premonoid, (8, 12, 16, 30))]
    numerical = numerical_premonoid([3, 5, 7])
    carriers.append((numerical, numerical.nonunit_sample() + (104,)))
    finite_columns = 0
    for P, elements in carriers:
        for x in elements:
            irr = factorization_alphabet(P, x, "irreducibles")
            alphabets = {irr, tuple(a for a in irr if is_atom(P, a))}
            finite = [fz.length_set(P, x, automaton=DivisorAutomaton(P, x, a)).is_finite for a in alphabets]
            calls.clear()
            element_profile(P, x)
            assert len(calls) <= len(alphabets), (x, calls)
            # a finite column runs only its census; the pruned search serves infinite ones
            assert calls.count(True) == finite.count(False), (x, calls)
            finite_columns += sum(finite)
    assert finite_columns > 0
