"""Finite-carrier scans over generating sets against the scans they replaced.

``FiniteMonoid.generating_set`` picks generators greedily. Three scans read
them instead of the whole carrier:

- ``Premonoid.flags`` reads the images of each element under left and right
  multiplication by G (generators of the monoid) and G_U (generators of the
  preorder units), not under all 2n multiplications;
- ``irreducibles._unit_images`` searches each orbit U*a*U by multiplying
  with G_U, when G_U generates U and nothing more;
- ``FiniteMonoid.structure_flags`` tests commutativity on pairs of G, the
  duo laws on row and column value masks, and unit-cancellativity and
  Dedekind-finiteness by row and column membership.

The predecessors are kept here as oracles: the 2n-map flags scan, the
multiplication of every member by every pair of units, and the pair-by-pair
structure scans.
"""
import hashlib
import random

import pytest

from premonoids import FiniteMonoid, Premonoid, PreorderRel, divisibility_preorder
from premonoids.cli import main
from premonoids.families import zn_premonoid
from premonoids.irreducibles import _unit_images, irreducibles
from premonoids.premonoid import scan_flags
from premonoids.preorder import natural_order_rel
from premonoids.randgen import _max_chain_table, monoid_pool, random_premonoid
from test_kernel_oracle import chain_table, oracle_flags


def all_maps_flags(P):
    """Compatibility flags over every left and right multiplication (column x
    and row x of the table), unit images at the units' positions."""
    n = P.monoid.n
    t = P.monoid.table
    rows = P.preorder.rows
    columns = tuple(zip(*t))
    ideals = P.monoid.ideal_masks()
    return scan_flags(
        range(n), rows, [columns[x] + t[x] for x in range(n)],
        lambda a, b: rows[a] >> b & 1,
        lambda a, b: rows[a] >> b & 1 and not rows[b] >> a & 1,
        P.identity, [k for u in P.units() for k in (u, n + u)],
        all(ideal & ~row == 0 for ideal, row in zip(ideals, rows)),
        lambda: "exhaustive (finite carrier)",
    )


def all_unit_images(P, members) -> dict:
    """Each member a mapped to the members among u*a*v, u and v preorder units."""
    units = sorted(P.units())
    t = P.monoid.table
    members = set(members)
    return {a: {t[t[u][a]][v] for u in units for v in units} & members for a in members}


def oracle_structure_flags(m) -> dict:
    """Every predicate by a scan of all pairs (or triples) of elements."""
    n, t, e = m.n, m.table, m.identity
    units = m.units()
    acyclic = not any(
        t[t[u][x]][v] == x
        for u in range(n)
        for v in range(n)
        if not (u in units and v in units)
        for x in range(n)
    )
    left_duo = all({t[a][h] for h in range(n)} <= {t[h][a] for h in range(n)} for a in range(n))
    right_duo = all({t[h][a] for h in range(n)} <= {t[a][h] for h in range(n)} for a in range(n))
    return {
        "commutative": all(t[x][y] == t[y][x] for x in range(n) for y in range(x + 1, n)),
        "dedekind_finite": all(t[y][x] == e for x in range(n) for y in range(n) if t[x][y] == e),
        "unit_cancellative": all(
            t[x][y] != x and t[y][x] != x for x in range(n) for y in range(n) if y not in units
        ),
        "acyclic": acyclic,
        "left_duo": left_duo,
        "right_duo": right_duo,
        "duo": left_duo and right_duo,
        "reduced": units == frozenset({e}),
    }


def assert_generating_set(m, members):
    """Greedy: each generator is a member that the earlier ones do not
    generate. Closed: the set returned is the submonoid they generate, and it
    holds every member."""
    members = list(members)
    gens, generated = m.generating_set(members)
    assert generated == m.generated_submonoid(gens) == m.generated_submonoid(members)
    chosen: list = []
    for a in members:
        if a not in m.generated_submonoid(chosen):
            chosen.append(a)
    assert gens == tuple(chosen)
    return gens, generated


def assert_scans_match(P, members=None):
    m = P.monoid
    assert m.structure_flags().to_json() == oracle_structure_flags(m)
    assert P.flags() == all_maps_flags(P)
    gens, generated = assert_generating_set(m, range(m.n))
    assert generated == frozenset(range(m.n)) and m.generators() == gens
    unit_gens, closed = P.unit_generators()
    assert (unit_gens, closed) == (
        assert_generating_set(m, sorted(P.units()))[0],
        m.generated_submonoid(P.units()) == P.units(),
    )
    members = P.nonunits() if members is None else members
    assert _unit_images(P, members) == all_unit_images(P, members)


@pytest.mark.parametrize("index", range(len(monoid_pool())))
def test_the_monoid_pool_matches_the_full_scans(index):
    m = FiniteMonoid(*monoid_pool()[index])
    for rel in (divisibility_preorder(m), natural_order_rel(m.n), PreorderRel.total(m.n)):
        assert_scans_match(Premonoid(m, rel))


@pytest.mark.parametrize("n", range(1, 49))
def test_zn_matches_the_full_scans(n):
    assert_scans_match(zn_premonoid(n))


def test_zn_256_matches_the_full_scans():
    P = zn_premonoid(256)
    assert_scans_match(P, irreducibles(P))
    # odd residues: the units, generated by 3 and 5 (3 alone reaches those
    # that are 1 or 3 mod 8)
    assert P.unit_generators() == ((3, 5), True)
    assert P.monoid.generators() == (0, 2, 3, 5)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["max", "capped"])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_chains_match_the_full_scans(n, kind, reverse):
    m = FiniteMonoid(*chain_table(n, kind, reverse))
    for rel in (divisibility_preorder(m), natural_order_rel(n)):
        assert_scans_match(Premonoid(m, rel))


def test_a_200_element_max_chain_has_every_non_identity_generator():
    """Nothing in a max chain is a product of other elements, so G is the
    whole carrier but the identity, as many maps as the full scan reads."""
    m = FiniteMonoid(_max_chain_table(200), 0)
    P = Premonoid(m, divisibility_preorder(m))
    assert m.generators() == tuple(range(1, 200))
    assert_scans_match(P)


def test_random_premonoids_match_on_both_sides_of_the_gate():
    gates = {True: 0, False: 0}
    for seed in range(400):
        P = random_premonoid(random.Random(seed), 6)
        gates[P.unit_generators()[1]] += 1
        assert_scans_match(P)
        assert P.flags() == oracle_flags(P), seed
    assert gates[True] and gates[False] >= 10, gates


def test_units_that_form_a_monoid_but_no_group():
    """The preorder units are e = 0 and the idempotent v = 1 of the chain
    {e, v} < x = 2 < y = 3. U = {e, v} is generated by v, which has no
    inverse. v*x = x but x*v = y, so U*x*U = {x, y} needs the right-hand
    products; in the opposite monoid (the transposed table) it needs the
    left-hand ones."""
    table = ((0, 1, 2, 3), (1, 1, 2, 3), (2, 3, 3, 3), (3, 3, 3, 3))
    rel = PreorderRel.from_pairs(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    for t in (table, tuple(zip(*table))):
        P = Premonoid(FiniteMonoid(t, 0), rel)
        assert P.units() == frozenset({0, 1})
        assert P.unit_generators() == ((1,), True)
        assert _unit_images(P, (2, 3)) == {2: {2, 3}, 3: {3}}
        assert not P.flags().weakly_positive
        assert_scans_match(P)
        assert P.flags() == oracle_flags(P)


def test_units_that_are_not_closed_keep_the_full_scan():
    """Z_4 under addition with the preorder {0, 1} < 2 < 3: the units 0 and 1
    are not closed, 1 + 1 = 2, and the search over <1> = Z_4 would put 3 and
    2 in one orbit, though 3 + u + v is never 2 for units u and v."""
    table = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    m = FiniteMonoid(table, 0)
    rel = PreorderRel.from_pairs(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    P = Premonoid(m, rel)
    assert P.units() == frozenset({0, 1})
    assert P.unit_generators() == ((1,), False)
    assert _unit_images(P, (2, 3)) == {2: {2, 3}, 3: {3}}
    assert_scans_match(P)


def test_commutativity_needs_every_pair_of_generators():
    """The full transformation monoid on two points with a zero adjoined at
    index 0: the zero is the first generator and commutes with everything,
    but the swap and a constant map do not commute."""
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]  # identity, swap, constants
    index = {f: i + 1 for i, f in enumerate(maps)}
    table = [[0] * 5 for _ in range(5)]
    for f in maps:
        for g in maps:
            table[index[f]][index[g]] = index[tuple(f[g[x]] for x in range(2))]
    m = FiniteMonoid(table, 1)
    assert m.generators() == (0, 2, 3)
    assert not m.structure_flags().commutative
    assert m.structure_flags().to_json() == oracle_structure_flags(m)


def test_structure_flags_read_the_row_masks_of_the_ideals(monkeypatch):
    """Once ``ideal_masks`` has masked the rows, ``structure_flags`` masks
    only the columns; without them it masks both."""
    calls = []
    image_masks = FiniteMonoid._image_masks

    def counted(self, lines):
        calls.append(len(lines))
        return image_masks(self, lines)

    monkeypatch.setattr(FiniteMonoid, "_image_masks", counted)
    for seed in range(20):
        fresh = random_premonoid(random.Random(seed), 6).monoid
        m, cold = FiniteMonoid(fresh.table, fresh.identity), FiniteMonoid(fresh.table, fresh.identity)
        m.ideal_masks()
        calls.clear()
        assert m.structure_flags().to_json() == oracle_structure_flags(m)
        assert len(calls) == 1
        calls.clear()
        assert cold.structure_flags() == m.structure_flags()
        assert len(calls) == 2


def test_generating_sets_of_chosen_members():
    P = zn_premonoid(48)
    m = P.monoid
    assert assert_generating_set(m, [])[0] == ()
    assert assert_generating_set(m, [1, 7, 49 % 48, 7])[0] == (7,)
    assert assert_generating_set(m, range(47, -1, -1))[0][:2] == (47, 46)
    for seed in range(50):
        rng = random.Random(seed)
        m = random_premonoid(rng, 6).monoid
        assert_generating_set(m, rng.sample(range(m.n), rng.randint(0, m.n)))


# stdout digests of ``describe zn:256`` and ``describe zn:512``, recorded
# before the scans above read generating sets
DESCRIBE_DIGESTS = {
    256: "d399ab9764918feb4ffc519bb7235b79863a41794b7455302d0d3637fb3f1bd2",
    512: "b57155a7bb42ac10d846965b00bbc46167ef38e03a133929fbb7d071a4904ba2",
}


@pytest.mark.parametrize("n", sorted(DESCRIBE_DIGESTS))
def test_describe_large_zn_is_byte_identical(n, capsys):
    assert main(["describe", f"zn:{n}"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DESCRIBE_DIGESTS[n]
