"""The divisor-automaton engine against its predecessors.

The first oracle below is the engine as it was before the automaton: layers
as frozensets of elements, class vectors built level by level out to the
distinct-prefix bound (twice that for the census) with no pruning beyond
divisors of x, and minimal classes picked from all realized vectors by
pairwise comparison. It shares only the alphabets and ``class_reps`` with
the engine.

On a finite length set the engine reads the minimal classes off its one
class-vector census; the dominance-pruned minimal search that it ran there
before is kept below as a second oracle.

The census walk keys each level by an int vector and builds one step list
per distinct set of states; the walk it replaced, keyed by count tuples with
per-class successor masks of every state and one image dict per class, is
its oracle. That oracle has no cut: its minimal search extends every vector
that dominates no minimum, so it is also the oracle of the cut, which drops
a vector once every completion of it is dominated.

On a finite carrier the automaton numbers its states by element and reads
its successor masks off the carrier's letter rows; the divisor-indexed
construction, which any carrier without letter rows gets, is its oracle.
"""
import json
import random
import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from premonoids import (
    FiniteMonoid,
    LengthSet,
    Premonoid,
    atoms,
    classify,
    divisibility_preorder,
    element_profile,
    enumerate_factorizations,
    irreducibles,
    is_atom,
    realizable_vectors,
)
from premonoids import factorization as fz
from premonoids.factorization import (
    DivisorAutomaton,
    ElementProfile,
    _bitset,
    _class_vectors,
    _image,
    _pairs,
    _witness,
    factorization_alphabet,
    minimal_factorization_classes,
    prefix_bound,
)
from premonoids.families import n2_premonoid, numerical_premonoid, powerset_premonoid, zn_premonoid
from premonoids.cli import factorize_payload, load_instance
from premonoids.randgen import monoid_pool, random_premonoid
from premonoids.words import class_reps, vector_total

from brute_force import factorizations_by_paths, vector_leq
from protocol_only import ProtocolOnly


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


def pruned_minimal_classes(P, x, letters):
    """The minimal classes by the dominance-pruned search out to the largest
    length, on a finite length set: what ``minimal_factorization_classes``
    ran there before it read the minima off the census."""
    auto = DivisorAutomaton(P, x, letters)
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
            auto = DivisorAutomaton(P, x, letters)
            if not auto.length_set().is_finite:
                continue
            got = auto.minimal_classes()
            assert got == pruned_minimal_classes(P, x, letters), (x, letters)
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


# -- the profile asks each automaton directly --------------------------------------------

# the lazily presented families of the bench's ``families`` workload
BENCH_LOCAL_SPECS = (
    "numerical:3,5,7", "numerical:5,7,9,11", "n2sub:5", "b:c3:1,2", "b:c4:1,2,3", "b:dinf:", "powerN:8", "remarkN:20",
)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"element_profile called {name}")

    return refuse


def assert_profile_reads_automata(P, elements, monkeypatch) -> None:
    """``element_profile`` calls none of the public wrappers, and each
    automaton's class count is the size of the wrapper's census."""
    with monkeypatch.context() as m:
        for name in ("length_set", "realizable_vectors", "minimal_factorization_classes"):
            m.setattr(fz, name, _refuse(name))
        profiles = [element_profile(P, x) for x in elements]
    for x, prof in zip(elements, profiles):
        for letters, count in (("irreducibles", prof.class_count), ("atoms", prof.atomic_class_count)):
            vectors, infinite = realizable_vectors(P, x, letters)
            want = None if infinite else len(vectors)
            assert DivisorAutomaton(P, x, letters).class_count() == want == count, (x, letters)


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_profile_reads_automata_on_the_monoid_pool(index, monkeypatch):
    P = _divisibility_premonoid(*monoid_pool()[index])
    assert_profile_reads_automata(P, P.nonunits(), monkeypatch)


@pytest.mark.parametrize("n", range(1, 49))
def test_profile_reads_automata_on_zn(n, monkeypatch):
    P = zn_premonoid(n)
    assert_profile_reads_automata(P, P.nonunits(), monkeypatch)


@pytest.mark.parametrize("spec", BENCH_LOCAL_SPECS)
def test_profile_reads_automata_on_bench_families(spec, monkeypatch):
    P = load_instance(spec).payload
    assert_profile_reads_automata(P, P.nonunit_sample(), monkeypatch)


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
            same = factorization_alphabet(P, x, "irreducibles") == factorization_alphabet(P, x, "atoms")
            kinds = ("irreducibles",) if same else ("irreducibles", "atoms")
            finite = [fz.length_set(P, x, letters).is_finite for letters in kinds]
            calls.clear()
            element_profile(P, x)
            assert len(calls) <= len(kinds), (x, calls)
            # a finite column runs only its census; the pruned search serves infinite ones
            assert calls.count(True) == finite.count(False), (x, calls)
            finite_columns += sum(finite)
    assert finite_columns > 0


# -- the census walk against the tuple-keyed walk ------------------------------------


def old_class_succ(auto, cls_of, classes: int) -> list:
    """``out[c][i]``: the states reached from state i by a letter of class c,
    for every state."""
    if classes == 1:
        return [auto.succ]
    groups = [[j for j, c in enumerate(cls_of) if c == k] for k in range(classes)]
    ids = auto._ids
    rows = [auto.table[i] for i in ids]
    out = [[_bitset(row[j] for j in group) for row in rows] for group in groups]
    return out if isinstance(ids, range) else [dict(zip(ids, masks)) for masks in out]


def old_dominates(v: tuple, below) -> bool:
    """``below[c][k]``: the minima with count at most k in class c."""
    acc = -1
    for row, k in zip(below, v):
        acc &= row[k]
        if not acc:
            return False
    return True


def old_mark(below, v: tuple, bit: int) -> None:
    for row, k in zip(below, v):
        for j in range(k, len(row)):
            row[j] |= bit


def old_class_vectors(auto, cls_of, classes: int, cap: int, minimal: bool = False, masks=None) -> list:
    """The census walk keyed by count tuples, with one image dict per class;
    ``masks``, if given, collects the set of states of every vector it
    extends."""
    goal = 1 << auto.goal
    csucc = old_class_succ(auto, cls_of, classes)
    images: list[dict] = [{} for _ in range(classes)]
    below = [[0] * (cap + 1) for _ in range(classes)] if minimal else None
    found: list = []
    level = {(0,) * classes: 1 << auto.start}
    for _ in range(cap):
        nxt: dict = {}
        for vec, mask in level.items():
            if masks is not None:
                masks.add(mask)
            for c in range(classes):
                img = images[c].get(mask)
                if img is None:
                    img = images[c][mask] = _image(mask, csucc[c])
                if img:
                    v = vec[:c] + (vec[c] + 1,) + vec[c + 1:]
                    nxt[v] = nxt.get(v, 0) | img
        level = {}
        for v, mask in nxt.items():
            if minimal and found and old_dominates(v, below):
                continue
            if mask & goal:
                found.append(v)
                if minimal:
                    old_mark(below, v, 1 << (len(found) - 1))
                    continue
            level[v] = mask
        if not level:
            break
    return found


# a census cap for a column without a finite largest length: the plain walk
# out to the distinct-prefix bound is exponential in the classes
PLAIN_CAP = 5


def walk_caps(P, x, auto) -> tuple:
    """(cap, minimal) pairs to compare the walks at: the census out to the
    largest length, and the minimal search out to the distinct-prefix bound."""
    lengths = auto.length_set()
    plain = lengths.finite[-1] if lengths.is_finite and not lengths.is_empty else min(PLAIN_CAP, prefix_bound(P, x))
    return (plain, False), (prefix_bound(P, x), True)


def by_total(vectors) -> list:
    """The minimal walk's order: by total, then increasing."""
    return sorted(vectors, key=lambda v: (sum(v), v))


def assert_walks_agree(P, elements) -> int:
    """Compare both walks on both letter kinds of the elements; returns how
    many vectors they found.

    The census comes out in the tuple walk's order. The minimal search comes
    out in order of total and, within one total, in increasing order: the
    cut drops vectors that the tuple walk still extends, among them ones
    whose states cannot reach x, and a vector of the next total may have
    been met first through one of them (random_premonoid seed 100, x = 4).
    The tuple walk's minima are put in that order and compared as a list."""
    found = 0
    for x in elements:
        for letters in ("irreducibles", "atoms"):
            auto = DivisorAutomaton(P, x, letters)
            cls_of, reps = auto.numbering()
            for cap, minimal in walk_caps(P, x, auto):
                got = _class_vectors(auto, cls_of, len(reps), cap, minimal=minimal)
                want = old_class_vectors(auto, cls_of, len(reps), cap, minimal)
                assert got == (by_total(want) if minimal else want), (x, letters, cap, minimal)
                found += len(got)
    return found


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_walk_matches_tuple_walk_on_the_pool(index):
    P = _divisibility_premonoid(*monoid_pool()[index])
    assert_walks_agree(P, range(P.monoid.n))


@pytest.mark.parametrize("n", range(1, 49))
def test_walk_matches_tuple_walk_on_zn(n):
    P = zn_premonoid(n)
    assert_walks_agree(P, range(n))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
@example(100)  # the cut changes the order in which a vector of one total is first met
def test_walk_matches_tuple_walk_on_random_premonoids(seed):
    P = random_premonoid(random.Random(seed), 6)
    assert_walks_agree(P, range(P.monoid.n))


LOCAL_SPECS = (
    "numerical:3,5,7", "numerical:5,7,9,11", "n2sub:5", "b:c3:1,2", "b:c4:1,2,3", "b:dinf:", "powerN:8", "remarkN:20",
)


@pytest.mark.parametrize("spec", LOCAL_SPECS)
def test_walk_matches_tuple_walk_on_family_samples(spec):
    P = load_instance(spec).payload
    assert assert_walks_agree(P, P.nonunit_sample()) > 0


def _chain(kind: str, n: int) -> Premonoid:
    op = max if kind == "max" else lambda i, j: min(i + j, n - 1)
    return _divisibility_premonoid([[op(i, j) for j in range(n)] for i in range(n)], 0)


@pytest.mark.parametrize("n", [4, 8, 10, 12])
@pytest.mark.parametrize("kind", ["max", "capped"])
def test_walk_matches_tuple_walk_on_chains(kind, n):
    P = _chain(kind, n)
    assert assert_walks_agree(P, range(n)) > 0


def coreachable(auto) -> int:
    """The states with a path to x."""
    live = 1 << auto.goal
    while live | auto.preimage(live) != live:
        live |= auto.preimage(live)
    return live


def test_each_set_of_states_gets_its_steps_built_once(monkeypatch):
    """Per walk, the step lists built are one per distinct set of states the
    walk extends, and with several classes, class rows are worked out only
    for the states in them. The census walk extends the sets the tuple walk
    extends. The minimal walk builds its cut at most once; after that it
    extends only states that can reach x, and the build reads the rows of
    all of those but x."""
    built: list = []
    cuts: list = []
    real, real_cut = fz._steps, fz._cut

    def counted(mask, rows, weight):
        built.append((mask, rows))
        return real(mask, rows, weight)

    def counted_cut(auto, rows, weight):
        cuts.append(len(built))
        return real_cut(auto, rows, weight)

    monkeypatch.setattr(fz, "_steps", counted)
    monkeypatch.setattr(fz, "_cut", counted_cut)
    carriers = [(P, range(P.monoid.n)) for P in (zn_premonoid(48), _chain("max", 10), _chain("capped", 10))]
    carriers += [(P, P.nonunit_sample()) for P in (load_instance(s).payload for s in ("n2sub:5", "numerical:3,5,7"))]
    walks = cut_walks = 0
    for P, elements in carriers:
        for x in elements:
            for letters in ("irreducibles", "atoms"):
                auto = DivisorAutomaton(P, x, letters)
                cls_of, reps = auto.numbering()
                for cap, minimal in walk_caps(P, x, auto):
                    built.clear()
                    cuts.clear()
                    _class_vectors(auto, cls_of, len(reps), cap, minimal=minimal)
                    masks = Counter(mask for mask, _ in built)
                    assert set(masks.values()) <= {1}, (x, letters, cap)
                    states = _bitset(i for m in masks for i in range(m.bit_length()) if m >> i & 1)
                    if not minimal:
                        visited: set = set()
                        old_class_vectors(auto, cls_of, len(reps), cap, minimal, masks=visited)
                        assert set(masks) == visited, (x, letters, cap)
                    elif cuts:
                        assert len(cuts) == 1, (x, letters, cap)
                        cut_walks += 1
                        live = coreachable(auto)
                        assert all(mask & ~live == 0 for mask, _ in built[cuts[0]:]), (x, letters, cap)
                        states |= live & ~(1 << auto.goal)
                    rows = built[0][1] if built else None
                    if isinstance(rows, fz._Lazy):  # several classes: rows of those states only
                        walks += 1
                        assert _bitset(rows) == states, (x, letters, cap, minimal)
    assert walks > 0 and cut_walks > 0


def leaves_vectors(auto, cls_of, classes: int, total: int) -> bool:
    """Whether the words of ``total`` letters that stay among the divisors of
    x have a class vector that none of them realizes at x, by walking
    (vector, state) pairs."""
    level = {((0,) * classes, auto.start)}
    for _ in range(total):
        level = {
            (v[:c] + (v[c] + 1,) + v[c + 1 :], q)
            for v, p in level
            for c, q in zip(cls_of, auto.table[p])
            if q >= 0
        }
    met = {v for v, q in level if q == auto.goal}
    return any(v not in met for v, _ in level)


def test_the_cut_is_built_at_the_first_minimum(monkeypatch):
    """A minimal walk builds its cut once, at the total of its first minimum,
    whenever vectors of that total are left to extend and the bound is not
    reached yet; otherwise it builds none."""
    totals: list = []
    real = fz._cut

    def counted(auto, rows, weight):
        totals.append(sys._getframe(1).f_locals["total"])
        return real(auto, rows, weight)

    monkeypatch.setattr(fz, "_cut", counted)
    carriers = [zn_premonoid(48), powerset_premonoid(4)[0], _chain("max", 10), _chain("capped", 10)]
    builds = 0
    for P in carriers:
        for x in range(P.monoid.n):
            for letters in ("irreducibles", "atoms"):
                auto = DivisorAutomaton(P, x, letters)
                cls_of, reps = auto.numbering()
                cap = prefix_bound(P, x)
                totals.clear()
                found = _class_vectors(auto, cls_of, len(reps), cap, minimal=True)
                first = min(map(sum, found), default=None)
                if first is not None and first < cap and leaves_vectors(auto, cls_of, len(reps), first):
                    assert totals == [first], (x, letters)
                    builds += 1
                else:
                    assert totals == [], (x, letters)
    assert builds > 0


def oracle_class_counts(auto, cls_of, c) -> dict:
    """Each state with a path to x mapped to the least number of class-c
    letters on such a path, by relaxing every table edge until nothing
    changes."""
    dist = {auto.goal: 0}
    changed = True
    while changed:
        changed = False
        for p in auto._ids:
            for j, q in enumerate(auto.table[p]):
                if q in dist and dist[q] + (cls_of[j] == c) < dist.get(p, len(auto.states)):
                    dist[p] = dist[q] + (cls_of[j] == c)
                    changed = True
    return dist


def assert_cut_counts_agree(P, elements, rng) -> int:
    """The cut's entry for singletons, pairs and random sets of states
    against the least counts over their states with a path to x; returns
    how many automata with several classes were compared."""
    compared = 0
    for x in elements:
        for letters in ("irreducibles", "atoms"):
            auto = DivisorAutomaton(P, x, letters)
            cls_of, reps = auto.numbering()
            if len(reps) < 2:
                continue
            compared += 1
            weight = [len(auto.states) ** c for c in range(len(reps))]
            rows = fz._Lazy(lambda i: fz._class_row(auto.table[i], cls_of, len(reps)))
            cut = fz._cut(auto, rows, weight)
            dists = [oracle_class_counts(auto, cls_of, c) for c in range(len(reps))]
            ids = list(auto._ids)
            sets = [{i} for i in ids] + [set(pair) for pair in zip(ids, ids[1:] + ids[:1])]
            sets += [set(rng.sample(ids, rng.randint(1, len(ids)))) for _ in range(20)]
            for members in sets:
                live = [i for i in members if i in dists[0]]
                counts = [min(dist[i] for i in live) for dist in dists] if live else None
                want = live and (_bitset(live), sum(w * k for w, k in zip(weight, counts)), sum(counts))
                assert cut[_bitset(members)] == (want or None), (x, letters, sorted(members))
    return compared


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_cut_counts_match_edge_relaxation_on_the_pool(index):
    P = _divisibility_premonoid(*monoid_pool()[index])
    assert_cut_counts_agree(P, range(P.monoid.n), random.Random(index))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cut_counts_match_edge_relaxation_on_random_premonoids(seed):
    P = random_premonoid(random.Random(seed), 6)
    assert_cut_counts_agree(P, range(P.monoid.n), random.Random(seed))


@pytest.mark.parametrize("spec", ["zn:48", "zn:60", "n2sub:4", "numerical:3,5,7"])
def test_cut_counts_match_edge_relaxation_on_larger_carriers(spec):
    P = load_instance(spec).payload
    elements = P.nonunits() if isinstance(P, Premonoid) else P.nonunit_sample()
    assert assert_cut_counts_agree(P, elements, random.Random(0)) > 0


def test_the_cut_ends_the_max_chain_walk_at_total_one(monkeypatch):
    """On the max chain x's one minimal class is x, met at total 1. Every
    other letter y < x leaves the state y, from which x is reached only
    through a letter x, so y plus that letter dominates x and the cut drops
    y: only the start set of states is ever extended."""
    built: list = []
    real = fz._steps
    monkeypatch.setattr(fz, "_steps", lambda mask, rows, weight: built.append(mask) or real(mask, rows, weight))
    P = _chain("max", 12)
    for x in range(3, 12):
        auto = DivisorAutomaton(P, x)
        cls_of, reps = auto.numbering()
        built.clear()
        assert _class_vectors(auto, cls_of, len(reps), prefix_bound(P, x), minimal=True) == [(0,) * (x - 1) + (1,)]
        assert built == [1 << auto.start], x


@pytest.mark.parametrize("kind", ["max", "capped"])
def test_chains_have_their_closed_form_minimal_classes(kind):
    """Read off the chain, not the engine: on the max chain every non-unit x
    is irreducible and x = max(x, y) for y <= x, so x's one minimal class is
    x itself; under capped addition min(i + j, n - 1) the one irreducible is
    1, so k's one minimal class is k ones (at the top, the least of the
    lengths n - 1, n, ...). At 40 elements only the cut makes this fast."""
    n = 40
    report = classify(_chain(kind, n))
    for x in range(1, n):
        expected = (((x, 1),), (x,)) if kind == "max" else (((1, x),), (1,) * x)
        assert report.profiles[x].minimal == (expected,), x


def uncut_minimal_classes(P, x, letters) -> tuple:
    """The minimal classes by the tuple walk, which has no cut, out to the
    distinct-prefix bound, with the oracle's witness words, in output order."""
    alphabet = tuple(sorted(factorization_alphabet(P, x, letters)))
    auto = DivisorAutomaton(P, x, letters)
    if auto.length_set().is_empty:
        return ()
    cls_of, reps = auto.numbering()
    rep = class_reps(P.leq, alphabet)
    vectors = old_class_vectors(auto, cls_of, len(reps), prefix_bound(P, x), minimal=True)
    classes = [_pairs(v, reps) for v in vectors]
    return tuple((vec, _witness_word(P, x, alphabet, rep, vec)) for vec in sorted(classes, key=lambda vec: (vector_total(vec), vec)))


@pytest.mark.parametrize("spec", ["n2sub:4", "numerical:3,5,7"])
def test_minimal_classes_match_the_uncut_walk_on_families(spec, monkeypatch):
    """Classes, witnesses and order against the uncut tuple walk, from the
    engine and from the cut walk out to the largest length. Length sets are
    finite here, so the engine reads the minima off the census; the cut
    walk is the one that builds cuts, and it must build some."""
    cuts: list = []
    real = fz._cut
    monkeypatch.setattr(fz, "_cut", lambda auto, rows, weight: cuts.append(auto) or real(auto, rows, weight))
    P = load_instance(spec).payload
    compared = 0
    for x in P.nonunit_sample():
        for letters in ("irreducibles", "atoms"):
            want = uncut_minimal_classes(P, x, letters)
            assert minimal_factorization_classes(P, x, letters) == want, (x, letters)
            if want:
                assert pruned_minimal_classes(P, x, letters) == want, (x, letters)
                compared += 1
    assert compared > 0 and cuts


# -- level-wise enumeration against the depth-first walk ------------------------------


def assert_levels_match_paths(P, cap: int) -> int:
    """``enumerate_factorizations`` gives the words of the ``_paths`` walk,
    in its order, for every element, both letter kinds, both automaton
    constructions and every length cap up to ``cap``; returns the number of
    words compared."""
    compared = 0
    for x in range(P.monoid.n):
        for letters in ("irreducibles", "atoms"):
            for max_len in range(cap + 1):
                want = factorizations_by_paths(P, x, max_len, letters)
                assert list(enumerate_factorizations(P, x, max_len, letters)) == want, (x, letters, max_len)
                compared += len(want)
            assert list(enumerate_factorizations(ProtocolOnly(P), x, cap, letters)) == want, (x, letters)
    return compared


def test_level_wise_enumeration_on_the_monoid_pool():
    assert sum(assert_levels_match_paths(_divisibility_premonoid(*p), 5) for p in monoid_pool()) > 1000


@pytest.mark.parametrize("n", [12, 16, 24, 30])
def test_level_wise_enumeration_on_zn(n):
    assert assert_levels_match_paths(zn_premonoid(n), 4) > 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_level_wise_enumeration_on_random_premonoids(seed):
    assert_levels_match_paths(random_premonoid(random.Random(seed), 6), 5)


# -- the finite construction against the divisor-indexed one --------------------------
#
# ``ProtocolOnly`` hides the carrier's letter rows, so the same carrier behind
# it gets the divisor-indexed automaton, which multiplies each divisor of x by
# each letter.

STREAM_LEN, STREAM_WORDS = 5, 200


def _stream(P, x, letters) -> list:
    return list(islice(enumerate_factorizations(P, x, STREAM_LEN, letters), STREAM_WORDS))


def assert_constructions_agree(P):
    W = ProtocolOnly(P)
    for x in range(P.monoid.n):
        for letters in ("irreducibles", "atoms"):
            fast, slow = DivisorAutomaton(P, x, letters), DivisorAutomaton(W, x, letters)
            key = (x, letters)
            assert fz.layer_automaton(P, x, letters) == fz.layer_automaton(W, x, letters), key
            assert fast.length_set() == slow.length_set(), key
            assert fast.class_count() == slow.class_count(), key
            assert realizable_vectors(P, x, letters) == realizable_vectors(W, x, letters), key
            assert fast.minimal_classes() == slow.minimal_classes(), key
            assert _stream(P, x, letters) == _stream(W, x, letters), key
        assert element_profile(P, x) == element_profile(W, x), x


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_finite_construction_on_the_monoid_pool(index):
    assert_constructions_agree(_divisibility_premonoid(*monoid_pool()[index]))


@pytest.mark.parametrize("n", range(1, 49))
def test_finite_construction_on_zn(n):
    assert_constructions_agree(zn_premonoid(n))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_finite_construction_on_random_premonoids(seed):
    assert_constructions_agree(random_premonoid(random.Random(seed), 6))


@pytest.mark.parametrize("points", [3, 4])
def test_finite_construction_on_union_power_sets(points):
    P, _ = powerset_premonoid(points)
    assert_constructions_agree(P)


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("kind", ["max", "capped"])
def test_finite_construction_on_chains(kind, n):
    op = max if kind == "max" else lambda i, j: min(i + j, n - 1)
    assert_constructions_agree(_divisibility_premonoid([[op(i, j) for j in range(n)] for i in range(n)], 0))


@pytest.mark.parametrize("n", [12, 18, 24, 30])
def test_finite_construction_on_restricted_views(n):
    P = zn_premonoid(n)
    views = {}
    for y in range(n):
        for view in (P.divisor_closed_localization(y), P.germ_localization(y)):
            views.setdefault(view.to_parent, view)
    for view in views.values():
        assert_constructions_agree(view)


# -- letter rows are folded once, only for letters that are asked for ----------------


def assert_letter_rows(P, expected: dict):
    """The letters folded per kind are ``expected``, and each row is the OR
    of its products with them."""
    folded = {kind: entry[1] for kind, entry in P._letter_rows.items()}
    assert {k: v for k, v in folded.items() if v} == {k: v for k, v in expected.items() if v}
    table = P.monoid.table
    for rows, letters in P._letter_rows.values():
        # a sum of distinct bits is their OR
        assert rows == [sum({1 << table[p][a] for a in letters}) for p in range(P.monoid.n)]


def _atomic_columns(P) -> set:
    """The atom letters of the elements whose atomic column runs its own
    automaton: those with an irreducible divisor that is not an atom."""
    out: set = set()
    for x in P.nonunits():
        atom_alpha = factorization_alphabet(P, x, "atoms")
        if atom_alpha != factorization_alphabet(P, x, "irreducibles"):
            out.update(atom_alpha)
    return out


@pytest.mark.parametrize("spec", ["zn:128", "union4"])
def test_classify_folds_each_letter_once(spec):
    P = zn_premonoid(128) if spec == "zn:128" else powerset_premonoid(4)[0]
    fz.classify(P)
    assert_letter_rows(P, {"irreducibles": set(irreducibles(P)), "atoms": _atomic_columns(P)})


def test_classify_folds_the_atoms_of_random_premonoids():
    all_atoms = 0
    for seed in range(40):
        P = random_premonoid(random.Random(seed), 6)
        fz.classify(P)
        within = _atomic_columns(P)
        assert_letter_rows(P, {"irreducibles": set(irreducibles(P)), "atoms": within})
        all_atoms += within == set(atoms(P)) != set()
    assert all_atoms > 0


def test_a_small_element_of_a_long_chain_folds_only_its_letters(tmp_path):
    n = 200
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": n, "identity": 0, "table": [[max(i, j) for j in range(n)] for i in range(n)]}))
    instance = load_instance(str(path))
    factorize_payload(instance, "3", 6, "both", minimal_only=True)
    P = instance.payload
    assert P.divisors(3) == (0, 1, 2, 3)
    assert_letter_rows(P, {"irreducibles": {1, 2, 3}})
    assert sum(len(letters) for _, letters in P._letter_rows.values()) <= 3
