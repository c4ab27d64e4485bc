"""The bitset kernel of finite carriers against the set-based code it replaced.

The oracles below are the kernel as it was before ideal masks: principal
ideals as Python sets, divisors by scanning every ideal, the divisibility
preorder built bit by bit from those sets, the two-sided |pairs| x n^2 flags
scan over all pairs (the kernel scans only generating pairs), the
triple-loop associativity check, and the recursive heights and strict-order
DFS. They share nothing with the kernel but the table and the
preorder's ``leq``/``lt``.

``FiniteMonoid.shortest_words`` is the one walk over a generated submonoid;
the loops it replaced are kept as oracles: the two-sided closure rounds of
``generated_submonoid``, the layer loop of ``phi_preorder`` and the coverage
search of the generating set. So are the row-building ``restrict`` that the
pullback along the sorted inclusion replaced, and the ``equiv`` scan that
grouping by up-set row replaced in ``equivalence_classes``.

The random generator's own table builders are kept too: its triple-loop
associativity test, its Z_n and cyclic tables (now ``make_zn`` and
``cyclic_group``), and the relabel loop of the pullback-isomorphism check.
"""
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from premonoids import (
    BadIdentityError,
    FiniteMonoid,
    NonAssociativeError,
    Premonoid,
    PremonoidFlags,
    PreorderRel,
    ShapeError,
    divisibility_preorder,
)
from premonoids.bitrows import close, generating_pairs
from premonoids.families import powerset_premonoid, zn_premonoid
from premonoids.preorder import natural_order_rel, phi_preorder, pullback_preorder
from premonoids.monoid import _first_nonassociative
from premonoids.randgen import (
    _capped_add_table,
    _direct_product,
    _max_chain_table,
    monoid_pool,
    random_premonoid,
    relabel,
    tiny_monoid_tables,
)


def oracle_principal_ideal(m, x) -> frozenset:
    t = m.table
    ux = {row[x] for row in t}
    return frozenset(t[p][v] for p in ux for v in range(m.n))


def oracle_divisibility_rows(m) -> tuple:
    rows = []
    for x in range(m.n):
        bits = 0
        for y in oracle_principal_ideal(m, x):
            bits |= 1 << y
        rows.append(bits)
    return tuple(rows)


def oracle_flags(P) -> PremonoidFlags:
    n = P.monoid.n
    t = P.monoid.table
    leq, lt, e = P.preorder.leq, P.preorder.lt, P.identity
    leq_pairs = [(x, y) for x in range(n) for y in range(n) if leq(x, y) and x != y]
    preordered = all(
        leq(t[t[u][x]][v], t[t[u][y]][v]) for x, y in leq_pairs for u in range(n) for v in range(n)
    )
    strongly_preordered = preordered and all(
        lt(t[t[u][x]][v], t[t[u][y]][v])
        for x, y in leq_pairs
        if lt(x, y)
        for u in range(n)
        for v in range(n)
    )
    identity_below_all = all(leq(e, y) for y in range(n))
    units = [u for u in range(n) if P.preorder.equiv(u, e)]
    weakly_positive = all(
        leq(t[t[u][x]][v], x) for x in range(n) for u in units for v in units
    ) and all(leq(x, t[t[a][x]][b]) for x in range(n) for a in range(n) for b in range(n))
    return PremonoidFlags(
        preordered=preordered,
        strongly_preordered=strongly_preordered,
        positive=preordered and identity_below_all,
        strongly_positive=strongly_preordered and identity_below_all,
        weakly_positive=weakly_positive,
        artinian=True,
        strongly_artinian=True,
        method="exhaustive (finite carrier)",
    )


def oracle_heights(P) -> tuple:
    n = P.monoid.n
    units = P.units()
    memo: dict = {}

    def ht(x):
        if x in units:
            return 0
        if x not in memo:
            memo[x] = 1 + max(
                (ht(y) for y in range(n) if y not in units and P.lt(y, x)), default=0
            )
        return memo[x]

    return tuple(ht(x) for x in range(n))


def oracle_strict_is_acyclic(rel) -> bool:
    n = rel.n
    color = [0] * n

    def dfs(u):
        color[u] = 1
        for v in range(n):
            if rel.lt(u, v):
                if color[v] == 1:
                    return False
                if color[v] == 0 and not dfs(v):
                    return False
        color[u] = 2
        return True

    return all(color[u] == 2 or dfs(u) for u in range(n))


def oracle_close(n, rows) -> list:
    """Reflexive-transitive closure of bit rows: Warshall's loop, which
    ``PreorderRel.from_matrix`` and ``from_pairs`` ran before the SCC closure."""
    rows = list(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def oracle_first_nonassociative(table):
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def assert_premonoid_matches(P):
    """Flags, heights and the strict-order check of any finite premonoid."""
    assert P.flags() == oracle_flags(P)
    assert P.heights() == oracle_heights(P)
    assert P.preorder.strict_is_acyclic() == oracle_strict_is_acyclic(P.preorder)


def assert_kernel_matches(m):
    """Ideals, divisors and the divisibility preorder of a monoid, then the
    premonoid checks on its divisibility premonoid."""
    ideals = [oracle_principal_ideal(m, x) for x in range(m.n)]
    for x in range(m.n):
        assert m.principal_ideal(x) == ideals[x], x
        assert m.divisors(x) == tuple(d for d in range(m.n) if x in ideals[d]), x
        assert [m.divides(x, y) for y in range(m.n)] == [y in ideals[x] for y in range(m.n)], x
    rel = divisibility_preorder(m)
    assert rel.rows == oracle_divisibility_rows(m)
    assert_premonoid_matches(Premonoid(m, rel))


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_monoid_pool_kernel_matches_oracle(index):
    table, identity = monoid_pool()[index]
    assert_kernel_matches(FiniteMonoid(table, identity))


@pytest.mark.parametrize("n", range(1, 49))
def test_zn_kernel_matches_oracle(n):
    assert_kernel_matches(zn_premonoid(n).monoid)


@pytest.mark.parametrize("points", [3, 4])
def test_union_power_set_kernel_matches_oracle(points):
    P, _ = powerset_premonoid(points)
    assert_kernel_matches(P.monoid)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_premonoids_match_oracle(seed):
    P = random_premonoid(random.Random(seed), 6)
    assert_premonoid_matches(P)
    assert_kernel_matches(P.monoid)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_associativity_witness_matches_triple_loop(seed, n):
    rng = random.Random(seed)
    identity = rng.randrange(n)
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        table[identity][x] = table[x][identity] = x
    expected = oracle_first_nonassociative(table)
    if expected is None:
        FiniteMonoid(table, identity)
    else:
        with pytest.raises(NonAssociativeError) as info:
            FiniteMonoid(table, identity)
        assert info.value.witness == expected


def oracle_shape_fault(table):
    """The first fault of the row-by-row, entry-by-entry scan."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                return f"entry ({i}, {j}) = {v!r} is not an element index"
    return None


BAD_ENTRIES = st.sampled_from([-1, 6, 7, 1.0, 0.5, True, False, "1", None, [0], 2**70])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), BAD_ENTRIES), max_size=3),
    st.lists(st.integers(0, 5), max_size=2),
)
@settings(max_examples=300, deadline=None)
def test_table_faults_are_reported_as_the_entry_scan_finds_them(seed, n, bad, short):
    rng = random.Random(seed)
    table = [[max(a, b) for b in range(n)] for a in range(n)]
    for i, j, v in bad:
        if i < n and j < n:
            table[i][j] = v if v not in (6, 7) else v - 6 + n  # n and n + 1
    for i in short:
        if i < n:
            table[i] = table[i][: rng.randrange(n)]
    expected = oracle_shape_fault(table)
    if expected is None:
        try:  # faults the entry scan does not look for may remain
            FiniteMonoid(table, 0)
        except (BadIdentityError, NonAssociativeError):
            pass
    else:
        with pytest.raises(ShapeError) as info:
            FiniteMonoid(table, 0)
        assert str(info.value) == expected


def test_associativity_witness_is_the_first_of_several():
    # Z_4 under addition with 1 + 2 = 2 + 1 = 0: (1, 1, 2) is the
    # lexicographically first failing triple, (1, 2, 2) and (2, 1, 1) fail too
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    table[1][2] = table[2][1] = 0
    assert oracle_first_nonassociative(table) == (1, 1, 2)
    with pytest.raises(NonAssociativeError) as info:
        FiniteMonoid(table, 0)
    assert info.value.witness == (1, 1, 2)


def test_one_element_table_is_associative():
    m = FiniteMonoid([[0]], 0)
    assert m.principal_ideal(0) == frozenset({0})
    assert m.divisors(0) == (0,)


CHAIN = 1100


@pytest.fixture(scope="module")
def reversed_chain():
    """The chain under max whose order runs against the index order: element
    i stands for position CHAIN-1-i, so i * j = min(i, j) and the identity is
    CHAIN-1. The heights recursion used to go CHAIN-1 frames deep here."""
    table = [[min(i, j) for j in range(CHAIN)] for i in range(CHAIN)]
    monoid = FiniteMonoid(table, CHAIN - 1)
    return Premonoid(monoid, divisibility_preorder(monoid))


def test_reversed_chain_needs_no_recursion(reversed_chain):
    P = reversed_chain
    # x <= y iff y is an index of at most x; only the identity is a unit
    assert P.preorder.rows == tuple((1 << (x + 1)) - 1 for x in range(CHAIN))
    assert P.units() == frozenset({CHAIN - 1})
    assert P.heights() == tuple(CHAIN - 1 - x for x in range(CHAIN - 1)) + (0,)
    assert P.preorder.strict_is_acyclic()


def test_strict_cycle_is_found_without_recursion():
    """A relation whose rows are not transitively closed can have a strict
    cycle; the iterative DFS must still report it."""
    n = 5
    # 0 < 1 < 2 < 0 strictly, as raw rows that from_pairs would close
    rows = [1 << 0 | 1 << 1, 1 << 1 | 1 << 2, 1 << 2 | 1 << 0, 1 << 3, 1 << 4]
    rel = PreorderRel(n, rows)
    assert oracle_strict_is_acyclic(rel) is False
    assert rel.strict_is_acyclic() is False


def test_right_units_count_for_weak_positivity():
    """e = 0 and the idempotent v = 1 form the unit class of the chain
    {e, v} < x = 2 < y = 3. v fixes everything from the left but x * v = y,
    so (ux)v <= x fails on the right only."""
    table = [
        [0, 1, 2, 3],
        [1, 1, 2, 3],
        [2, 3, 3, 3],
        [3, 3, 3, 3],
    ]
    rel = PreorderRel.from_pairs(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    P = Premonoid(FiniteMonoid(table, 0), rel)
    assert P.units() == frozenset({0, 1})
    assert not oracle_flags(P).weakly_positive
    assert_premonoid_matches(P)


@pytest.mark.parametrize("n", [5, 256])
def test_associativity_witness_on_byte_rows(n):
    """Tables up to the check limit are compared as bytes and report the
    triple-loop witness."""
    table = [[a * b % n for b in range(n)] for a in range(n)]
    FiniteMonoid(table, 1)
    table[2][3] = (table[2][3] + 1) % n
    expected = oracle_first_nonassociative(table)
    with pytest.raises(NonAssociativeError) as info:
        FiniteMonoid(table, 1)
    assert info.value.witness == expected


# successor lists over 0..n-1 with repeats, self-loops and cycles
digraphs = st.integers(0, 12).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, max(n - 1, 0)), max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=300, deadline=None)
@given(digraphs)
@example([])
@example([[]])
@example([[0]])
@example([[1], [2], [0], [3]])
def test_scc_closure_matches_warshall(succ):
    n = len(succ)
    rows = [sum({1 << j for j in targets}) for targets in succ]
    expected = oracle_close(n, rows)
    assert close(succ) == expected
    pairs = [(i, j) for i, targets in enumerate(succ) for j in targets]
    assert list(PreorderRel.from_pairs(n, pairs).rows) == expected
    matrix = [[bool(row >> j & 1) for j in range(n)] for row in rows]
    assert list(PreorderRel.from_matrix(matrix).rows) == expected


def test_scc_closure_needs_no_recursion():
    """A path 0 -> 1 -> ... with a back edge: one component reached through
    a DFS path far deeper than the recursion limit."""
    n = 5000
    succ = [[i + 1] for i in range(n - 1)] + [[n // 2]]
    rows = close(succ)
    tail = ((1 << n) - 1) ^ ((1 << (n // 2)) - 1)
    assert rows[n // 2:] == [tail] * (n - n // 2)
    assert rows[0] == (1 << n) - 1


def chain_table(n: int, kind: str, reverse: bool) -> tuple:
    """The max chain or capped addition (min(i + j, n - 1)) on 0..n-1, with
    element i labeled i, or n - 1 - i when ``reverse``. Returns (table,
    identity)."""
    op = max if kind == "max" else lambda i, j: min(i + j, n - 1)
    label = [n - 1 - i for i in range(n)] if reverse else list(range(n))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[label[i]][label[j]] = label[op(i, j)]
    return table, label[0]


def chain_preorders(m):
    """Divisibility, the index order, and the index order on blocks of three
    (classes of up to three members, so the links are scanned too)."""
    n = m.n
    yield divisibility_preorder(m)
    yield natural_order_rel(n)
    yield pullback_preorder([i // 3 for i in range(n)], natural_order_rel((n + 2) // 3))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["max", "capped"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40])
def test_chain_flags_match_oracle(n, kind, reverse):
    m = FiniteMonoid(*chain_table(n, kind, reverse))
    for rel in chain_preorders(m):
        P = Premonoid(m, rel)
        assert P.flags() == oracle_flags(P), rel


def test_long_chain_flags(reversed_chain):
    """Too large for the oracle: the 1100-element chain has about 600k
    pairs but only 1099 covers and no links. Divisibility is compatible but
    not strictly (3 < 2, yet 1 * 3 = 1 * 2 = 1 in the index labels), and the
    identity is below everything."""
    f = reversed_chain.flags()
    assert (f.preordered, f.strongly_preordered, f.positive, f.weakly_positive) == (
        True,
        False,
        True,
        True,
    )


def oracle_strictly_between(up, c, d) -> bool:
    """Some e with c < e < d, by a scan over all of 0..k-1."""
    lt = lambda a, b: up[a] >> b & 1 and not up[b] >> a & 1  # noqa: E731
    return any(lt(c, e) and lt(e, d) for e in range(len(up)))


@settings(max_examples=300, deadline=None)
@given(digraphs)
@example([])
@example([[0]])
@example([[1], [0], [0, 1]])
@example([[1], [2], [3], []])
def test_generating_pairs_generate_the_preorder(succ):
    n = len(succ)
    up = oracle_close(n, [sum({1 << j for j in targets}) for targets in succ])
    links, covers = generating_pairs(up)
    generated: list[list[int]] = [[] for _ in range(n)]
    for a, b in links + covers:
        generated[a].append(b)
    assert close(generated) == up
    for a, b in links:  # both ways between equivalent elements
        assert up[a] >> b & 1 and up[b] >> a & 1 and (b, a) in links
    for c, d in covers:
        assert up[c] >> d & 1 and not up[d] >> c & 1
        assert not oracle_strictly_between(up, c, d)
    assert len(set(covers)) == len(covers)


@settings(max_examples=300, deadline=None)
@given(digraphs, st.booleans())
@example([[1], [2], [0]], True)
@example([[1], [2], []], True)
@example([[1], [0]], False)
def test_generating_pairs_refuse_relations_that_are_not_preorders(succ, reflexive):
    """Raw rows, closed or not: ``generating_pairs`` accepts exactly the
    reflexive and transitive ones."""
    n = len(succ)
    rows = [sum({1 << j for j in targets}) | (reflexive << i) for i, targets in enumerate(succ)]
    if oracle_close(n, rows) == rows:
        generating_pairs(rows)
    else:
        with pytest.raises(ValueError):
            generating_pairs(rows)


# -- the generated-submonoid walk, restriction and classes --------------------------


def old_generated_submonoid(m, seed) -> frozenset:
    """The two-sided closure rounds: everything closed so far times the last
    round's fresh elements, on both sides, until a round adds nothing."""
    closed = set(seed)
    closed.add(m.identity)
    frontier = set(closed)
    t = m.table
    while frontier:
        fresh = set()
        for x in closed:
            for y in frontier:
                fresh.add(t[x][y])
                fresh.add(t[y][x])
        frontier = fresh - closed
        closed |= frontier
    return frozenset(closed)


def old_phi(m, generators) -> tuple:
    """The layer loop: layer k holds every product of k generators, and an
    element gets the first k whose layer holds it (the identity gets 0)."""
    gens = frozenset(generators)
    phi = [0] * m.n
    assigned = {m.identity}
    layer = gens
    k = 1
    while True:
        fresh = layer - assigned
        if not fresh:
            break
        for x in fresh:
            phi[x] = k
        assigned |= fresh
        layer = frozenset(m.table[p][a] for p in layer for a in gens)
        k += 1
    return tuple(phi)


def old_coverage_witnesses(P, alphabet, targets):
    """The coverage search over ``P.op``: a breadth-first walk that keeps the
    first word reaching each element, then (witnesses, None) covering every
    target or (None, missing) with the first target not reached."""
    words = {P.identity: ()}
    frontier = [P.identity]
    while frontier:
        fresh = []
        for p in frontier:
            for a in alphabet:
                q = P.op(p, a)
                if q not in words:
                    words[q] = words[p] + (a,)
                    fresh.append(q)
        frontier = fresh
    for x in targets:
        if x not in words:
            return None, x
    return {x: words[x] for x in targets}, None


def old_restrict(rel, elements) -> tuple:
    """Rows and source of the restriction, built bit by bit over the sorted
    subset."""
    order = tuple(sorted(elements))
    rows = []
    for a in order:
        bits = 0
        for j, b in enumerate(order):
            if rel.leq(a, b):
                bits |= 1 << j
        rows.append(bits)
    return tuple(rows), {"restricted_from": rel.kind}


def old_equivalence_classes(rel) -> list:
    seen: set = set()
    classes = []
    for a in range(rel.n):
        if a in seen:
            continue
        block = tuple(b for b in range(rel.n) if rel.equiv(a, b))
        seen.update(block)
        classes.append(block)
    return classes


def walk_alphabets(m, rng) -> list:
    """Every single non-identity letter, the divisors of each element in
    sorted order, and random sets of letters in random order."""
    letters = [a for a in range(m.n) if a != m.identity]
    alphabets = [(a,) for a in letters] + [m.divisors(x) for x in range(m.n)]
    for _ in range(6):
        alphabets.append(tuple(rng.sample(letters, rng.randint(0, len(letters)))))
    return alphabets


def assert_walk_matches(P, seed: int = 0) -> None:
    """Generated submonoids, shortest words (against the old coverage
    search), phi, restriction and classes against the old loops, over
    ``walk_alphabets``."""
    m, rel, e = P.monoid, P.preorder, P.identity
    targets = list(P.nonunits())
    assert rel.equivalence_classes() == old_equivalence_classes(rel)
    for alphabet in walk_alphabets(m, random.Random(seed)):
        closed = old_generated_submonoid(m, alphabet)
        assert m.generated_submonoid(alphabet) == closed, alphabet
        words = m.shortest_words(alphabet)
        assert all(m.product(word) == x for x, word in words.items()), alphabet
        assert words == old_coverage_witnesses(m, alphabet, closed)[0], alphabet
        gens = [a for a in alphabet if a != e]
        phi_rel, phi = phi_preorder(m, gens)
        want = old_phi(m, gens)
        assert phi == want, gens
        assert (phi_rel.kind, phi_rel.source) == ("phi", {"A": sorted(set(gens)), "phi": want})
        assert phi_rel.rows == tuple(sum(1 << y for y in range(m.n) if want[x] <= want[y]) for x in range(m.n))
        assert phi_rel.equivalence_classes() == old_equivalence_classes(phi_rel)
        for subset in (closed, set(alphabet) | {e}):
            restricted = rel.restrict(subset)
            assert (restricted.rows, restricted.source) == old_restrict(rel, subset), subset
            assert restricted.equivalence_classes() == old_equivalence_classes(restricted)
    for x in range(m.n):
        assert m.germ_submonoid(x) == old_generated_submonoid(m, m.divisors(x)), x
    assert m.generated_submonoid(iter(targets)) == old_generated_submonoid(m, targets)


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_monoid_pool_walk_matches_oracle(index):
    m = FiniteMonoid(*monoid_pool()[index])
    assert_walk_matches(Premonoid(m, divisibility_preorder(m)), index)


def transformation_monoid(points: int) -> tuple:
    """Every map of 0..points-1 into itself, a map being the tuple of its
    images, under "f then g": a non-commutative monoid, where a walk that
    multiplied on the wrong side would record words of other elements.
    Returns (table, identity)."""
    maps = list(itertools.product(range(points), repeat=points))
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[tuple(g[y] for y in f)] for g in maps] for f in maps]
    return table, index[tuple(range(points))]


def test_transformation_monoid_walk_matches_oracle():
    m = FiniteMonoid(*transformation_monoid(3))
    assert not m.structure_flags().commutative
    assert_walk_matches(Premonoid(m, divisibility_preorder(m)))


@pytest.mark.parametrize("n", range(1, 49))
def test_zn_walk_matches_oracle(n):
    assert_walk_matches(zn_premonoid(n), n)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["max", "capped"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_chain_walk_matches_oracle(n, kind, reverse):
    m = FiniteMonoid(*chain_table(n, kind, reverse))
    for rel in chain_preorders(m):
        assert_walk_matches(Premonoid(m, rel), n)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_premonoid_walk_matches_oracle(seed):
    assert_walk_matches(random_premonoid(random.Random(seed), 6), seed)


def old_is_associative(table) -> bool:
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def old_zn_table(n: int) -> tuple:
    return tuple(tuple((i * j) % n for j in range(n)) for i in range(n))


def old_cyclic_table(n: int) -> tuple:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def old_relabel(table, identity, perm) -> tuple:
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[table[i][j]]
    return new, perm[identity]


def old_tiny_monoid_tables() -> tuple:
    found = [((0,),)]
    for (a,) in itertools.product(range(2), repeat=1):
        table = ((0, 1), (1, a))
        if old_is_associative(table):
            found.append(table)
    for a, b, c, d in itertools.product(range(3), repeat=4):
        table = ((0, 1, 2), (1, a, b), (2, c, d))
        if old_is_associative(table):
            found.append(table)
    return tuple(found)


def old_monoid_pool() -> tuple:
    pool = [(t, 0) for t in old_tiny_monoid_tables()]
    for n in (4, 5, 6, 8, 9):
        pool.append((old_zn_table(n), 1))
    for n in (4, 5, 6):
        pool.append((old_cyclic_table(n), 0))
        pool.append((_max_chain_table(n), 0))
        pool.append((_capped_add_table(n), 0))
    c2 = old_cyclic_table(2)
    chain2 = _max_chain_table(2)
    pool.append(_direct_product(c2, 0, c2, 0))
    pool.append(_direct_product(c2, 0, chain2, 0))
    pool.append(_direct_product(chain2, 0, _capped_add_table(3), 0))
    maps = list(itertools.product(range(2), repeat=2))
    index = {m: i for i, m in enumerate(maps)}
    table = tuple(tuple(index[tuple(f[g[x]] for x in range(2))] for g in maps) for f in maps)
    pool.append((table, index[(0, 1)]))
    return tuple(pool)


def test_pools_match_the_old_builders():
    assert tiny_monoid_tables() == old_tiny_monoid_tables()
    assert monoid_pool() == old_monoid_pool()


def test_associativity_matches_the_triple_loop_on_every_tiny_table():
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            table = tuple(entries[i * n : (i + 1) * n] for i in range(n))
            assert (_first_nonassociative(table) is None) == old_is_associative(table), table


def test_relabel_matches_the_old_loop():
    rng = random.Random(0)
    for table, identity in monoid_pool():
        for _ in range(20):
            perm = list(range(len(table)))
            rng.shuffle(perm)
            new, e = old_relabel(table, identity, perm)
            assert relabel(table, identity, perm) == (tuple(map(tuple, new)), e)


def old_pullback_rows(phi, codomain) -> tuple:
    """Rows of the pullback, one step per pair: bit y of row x when phi(x) is
    below phi(y) in the codomain."""
    return tuple(
        sum(1 << y for y, w in enumerate(phi) if codomain.leq(v, w)) for v in phi
    )


def assert_pullback_matches(phi, codomain) -> None:
    rel = pullback_preorder(phi, codomain)
    assert rel.rows == old_pullback_rows(phi, codomain), phi
    assert (rel.n, rel.kind, rel.source) == (len(phi), "pullback", {"phi": tuple(phi), "codomain": codomain})


def pullback_maps(n: int, rng) -> list:
    """The identity, a constant, the reverse, sorted subsets (restrictions)
    and random maps, into a carrier of size n."""
    maps = [tuple(range(n)), (0,) * n, tuple(range(n - 1, -1, -1)), ()]
    for _ in range(6):
        maps.append(tuple(sorted(rng.sample(range(n), rng.randint(0, n)))))
        maps.append(tuple(rng.randrange(n) for _ in range(rng.randint(0, 2 * n))))
    return maps


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_pullback_matches_the_pair_loop_on_the_pool(index):
    m = FiniteMonoid(*monoid_pool()[index])
    codomain = divisibility_preorder(m)
    for phi in pullback_maps(m.n, random.Random(index)):
        assert_pullback_matches(phi, codomain)


@pytest.mark.parametrize("n", [1, 2, 8, 12, 30, 64])
def test_pullback_matches_the_pair_loop_on_zn_restrictions(n):
    P = zn_premonoid(n)
    rel = P.preorder
    for x in range(n):
        for subset in (P.monoid.divisor_closed_closure(x), P.monoid.germ_submonoid(x)):
            assert_pullback_matches(tuple(sorted(subset)), rel)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pullback_matches_the_pair_loop_on_drawn_maps(data):
    n = data.draw(st.integers(1, 9))
    matrix = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n))
    codomain = PreorderRel.from_matrix(matrix)
    phi = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    assert_pullback_matches(phi, codomain)
