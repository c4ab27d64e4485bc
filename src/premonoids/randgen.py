"""Seeded generation of finite monoids and premonoids for fuzzing.

Associative tables are far too sparse among random tables at carrier sizes
beyond 3 for rejection sampling, so the generator mixes three sources, all
deterministic in the seed: a fixed pool of structured tables, transition
monoids closed from random self-maps, and rejection-filtered random tables at
size <= 3.  Every emitted table is validated from scratch.
"""
from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .families import cyclic_group, make_zn
from .monoid import FiniteMonoid, _first_nonassociative
from .premonoid import Premonoid
from .preorder import PreorderRel, divisibility_preorder, phi_preorder, pullback_preorder, natural_order_rel


@lru_cache(maxsize=1)
def tiny_monoid_tables() -> tuple:
    """Every monoid table of size <= 3 with identity 0, by brute force."""
    found = [((0,),)]
    for free in itertools.product(range(2), repeat=1):
        table = ((0, 1), (1, free[0]))
        if _first_nonassociative(table) is None:
            found.append(table)
    for free in itertools.product(range(3), repeat=4):
        a, b, c, d = free
        table = ((0, 1, 2), (1, a, b), (2, c, d))
        if _first_nonassociative(table) is None:
            found.append(table)
    return tuple(found)


def _max_chain_table(n: int) -> tuple:
    return tuple(tuple(max(i, j) for j in range(n)) for i in range(n))


def _capped_add_table(n: int) -> tuple:
    return tuple(tuple(min(i + j, n - 1) for j in range(n)) for i in range(n))


def _direct_product(t1, e1, t2, e2):
    pairs = [(a, b) for a in range(len(t1)) for b in range(len(t2))]
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(index[(t1[a1][b1], t2[a2][b2])] for (b1, b2) in pairs) for (a1, a2) in pairs
    )
    return table, index[(e1, e2)]


@lru_cache(maxsize=1)
def monoid_pool() -> tuple:
    """Deterministic pool of small monoids (table, identity)."""
    pool = [(t, 0) for t in tiny_monoid_tables()]
    for n in (4, 5, 6, 8, 9):
        pool.append((make_zn(n).table, 1))
    for n in (4, 5, 6):
        pool.append((cyclic_group(n).table, 0))
        pool.append((_max_chain_table(n), 0))
        pool.append((_capped_add_table(n), 0))
    c2 = cyclic_group(2).table
    chain2 = _max_chain_table(2)
    pool.append(_direct_product(c2, 0, c2, 0))
    pool.append(_direct_product(c2, 0, chain2, 0))
    pool.append(_direct_product(chain2, 0, _capped_add_table(3), 0))
    # full transformation monoid on two points
    maps = list(itertools.product(range(2), repeat=2))
    index = {m: i for i, m in enumerate(maps)}
    table = tuple(
        tuple(index[tuple(f[g[x]] for x in range(2))] for g in maps) for f in maps
    )
    pool.append((table, index[(0, 1)]))
    return tuple(pool)


def relabel(table, identity, perm) -> tuple:
    """The table and identity renamed by the permutation ``perm``."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[table[i][j]]
    return tuple(tuple(r) for r in new), perm[identity]


def _transition_monoid(rng: random.Random, max_size: int):
    """Transition monoid of random self-maps of a small set; always associative."""
    base = rng.randint(2, 4)
    gens = [tuple(rng.randrange(base) for _ in range(base)) for _ in range(rng.randint(1, 2))]
    ident = tuple(range(base))
    elements = {ident}
    frontier = [ident]
    while frontier and len(elements) <= max_size:
        f = frontier.pop()
        for g in gens:
            h = tuple(f[g[x]] for x in range(base))
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    if len(elements) > max_size:
        return None
    order = sorted(elements)
    index = {m: i for i, m in enumerate(order)}
    table = tuple(
        tuple(index[tuple(f[g[x]] for x in range(base))] for g in order) for f in order
    )
    return table, index[ident]


def _random_tiny_table(rng: random.Random):
    """Rejection sampling at size <= 3; associative tables are dense enough."""
    n = rng.randint(1, 3)
    for _ in range(400):
        rows = [[0] * n for _ in range(n)]
        e = rng.randrange(n)
        for i in range(n):
            rows[e][i] = i
            rows[i][e] = i
        for i in range(n):
            for j in range(n):
                if i != e and j != e:
                    rows[i][j] = rng.randrange(n)
        table = tuple(tuple(r) for r in rows)
        if _first_nonassociative(table) is None:
            return table, e
    return None


def random_monoid(rng: random.Random, max_size: int = 6) -> FiniteMonoid:
    style = rng.randrange(4)
    got = None
    if style == 0:
        got = _random_tiny_table(rng)
    elif style == 1:
        got = _transition_monoid(rng, max_size)
    if got is None:
        pool = [p for p in monoid_pool() if len(p[0]) <= max_size]
        got = pool[rng.randrange(len(pool))]
    table, identity = got
    perm = list(range(len(table)))
    rng.shuffle(perm)
    table, identity = relabel(table, identity, perm)
    return FiniteMonoid(table, identity)


def random_preorder(rng: random.Random, monoid: FiniteMonoid) -> PreorderRel:
    n = monoid.n
    style = rng.randrange(5)
    if style == 0:
        return divisibility_preorder(monoid)
    if style == 1:
        return PreorderRel.total(n)
    if style == 2:
        pair_count = rng.randint(0, 2 * n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(pair_count)]
        return PreorderRel.from_pairs(n, pairs)
    if style == 3:
        levels = rng.randint(1, max(1, n - 1))
        phi = [rng.randrange(levels) for _ in range(n)]
        return pullback_preorder(phi, natural_order_rel(levels))
    gens = [x for x in range(n) if x != monoid.identity and rng.random() < 0.5]
    rel, _ = phi_preorder(monoid, gens)
    return rel


def random_premonoid(rng: random.Random, max_size: int = 6) -> Premonoid:
    monoid = random_monoid(rng, max_size)
    return Premonoid(monoid, random_preorder(rng, monoid))

