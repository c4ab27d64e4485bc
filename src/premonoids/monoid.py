"""Finite monoids as dense multiplication tables.

Elements are the indices 0..n-1; the identity is an index, not forced to 0.
All queries are pure and the object is immutable after construction, so a
monoid can be shared freely between threads.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import chain
from operator import itemgetter, or_

from .bitrows import indices
from .errors import BadIdentityError, NonAssociativeError, ShapeError

# Above this carrier size the O(n^3) associativity sweep is skipped; tables
# that big come from generators already known to be associative. It is also
# the largest size whose indices fit in a byte, which the sweep relies on.
ASSOCIATIVITY_CHECK_LIMIT = 256


def _first_nonassociative(rows) -> tuple[int, int, int] | None:
    """The lexicographically first (x, y, z) with (xy)z != x(yz), or None, on
    a table of at most ``ASSOCIATIVITY_CHECK_LIMIT`` elements.

    Whole rows are compared at once: over all z, (xy)z is the row of xy and
    x(yz) is row y mapped through row x. The indices fit in a byte, so one
    translate maps the whole table through row x, and row y of the result is
    x(yz) over all z. Only an x with a mismatching row is rescanned for its
    first (y, z).
    """
    n = len(rows)
    packed = [bytes(row) for row in rows]
    table = b"".join(packed)
    pad = bytes(256 - n)

    def agrees(x: int) -> bool:
        rx = packed[x]
        return b"".join(map(packed.__getitem__, rx)) == table.translate(rx + pad)

    for x, rx in enumerate(rows):
        if agrees(x):
            continue
        for y, ry in enumerate(rows):
            rxy = rows[rx[y]]
            for z in range(n):
                if rxy[z] != rx[ry[z]]:
                    return (x, y, z)
    return None


@dataclass(frozen=True)
class StructureFlags:
    """Structural predicates of a monoid, each decided by a scan of its
    table (see :meth:`FiniteMonoid.structure_flags`)."""

    commutative: bool
    dedekind_finite: bool
    unit_cancellative: bool
    acyclic: bool
    left_duo: bool
    right_duo: bool
    duo: bool
    reduced: bool

    def to_json(self) -> dict:
        return asdict(self)


class FiniteMonoid:
    __slots__ = ("n", "identity", "table", "_row_masks", "_ideal_masks", "_ideals", "_units", "_divisors",
                 "_flags", "_generators")

    def __init__(self, table, identity: int, *, check_associativity: bool = True):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        if n == 0:
            raise ShapeError("empty multiplication table")
        if not (
            all(map(n.__eq__, map(len, rows)))
            and {int}.issuperset(map(type, chain.from_iterable(rows)))
            and set(range(n)).issuperset(chain.from_iterable(rows))
        ):
            # rescan entry by entry for the first fault
            for i, row in enumerate(rows):
                if len(row) != n:
                    raise ShapeError(f"row {i} has length {len(row)}, expected {n}")
                for j, v in enumerate(row):
                    if type(v) is not int or not 0 <= v < n:
                        raise ShapeError(f"entry ({i}, {j}) = {v!r} is not an element index")
        if type(identity) is not int or not 0 <= identity < n:
            raise ShapeError(f"identity {identity!r} is not an element index")
        for x in range(n):
            if rows[identity][x] != x or rows[x][identity] != x:
                raise BadIdentityError(x)
        if check_associativity and n <= ASSOCIATIVITY_CHECK_LIMIT:
            witness = _first_nonassociative(rows)
            if witness is not None:
                raise NonAssociativeError(witness)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "_row_masks", None)
        object.__setattr__(self, "_ideal_masks", None)
        object.__setattr__(self, "_ideals", {})
        object.__setattr__(self, "_units", None)
        object.__setattr__(self, "_divisors", {})
        object.__setattr__(self, "_flags", None)
        object.__setattr__(self, "_generators", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FiniteMonoid is immutable")

    def __repr__(self) -> str:
        return f"FiniteMonoid(n={self.n}, identity={self.identity})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMonoid)
            and self.table == other.table
            and self.identity == other.identity
        )

    def __hash__(self) -> int:
        return hash((self.table, self.identity))

    # -- basic queries ----------------------------------------------------

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def product(self, word) -> int:
        """Left-to-right product of a word of element indices; empty -> identity."""
        p = self.identity
        for a in word:
            p = self.table[p][a]
        return p

    def units(self) -> frozenset:
        """Elements u with uv = vu = identity for some v: the u whose row
        holds the identity. In a finite monoid uv = 1 makes y -> vy injective,
        hence onto, so vw = 1 for some w and u = u(vw) = w: a right inverse
        is two-sided."""
        if self._units is None:
            e = self.identity
            found = frozenset(u for u, row in enumerate(self.table) if e in row)
            object.__setattr__(self, "_units", found)
        return self._units

    def ideal_masks(self) -> tuple[int, ...]:
        """Bit masks of the principal ideals: bit y of entry x is set iff x | y.

        The ideal {u*x*v} is the union of the images {p*v : v} of the rows p
        in column x, so each row's image is masked once and OR-ed per column.
        """
        if self._ideal_masks is None:
            images = self._image_masks(self.table)
            object.__setattr__(self, "_row_masks", images)  # structure_flags reads them too
            masks = tuple(
                reduce(or_, map(images.__getitem__, set(column)), 0)
                for column in zip(*self.table)
            )
            object.__setattr__(self, "_ideal_masks", masks)
        return self._ideal_masks

    def _image_masks(self, lines) -> list[int]:
        """The set of values of each row or column in ``lines`` as a bit mask."""
        bit = [1 << i for i in range(self.n)]
        return [reduce(or_, map(bit.__getitem__, set(line)), 0) for line in lines]

    def principal_ideal(self, x: int) -> frozenset:
        """The two-sided ideal {u*x*v : u, v in the carrier}."""
        cached = self._ideals.get(x)
        if cached is None:
            cached = self._ideals[x] = frozenset(indices(self.ideal_masks()[x]))
        return cached

    def divides(self, x: int, y: int) -> bool:
        """Two-sided divisibility: x | y iff y lies in the ideal generated by x."""
        return bool(self.ideal_masks()[x] >> y & 1)

    def divisors(self, x: int) -> tuple:
        """All d with d | x, sorted: column x of the ideal masks."""
        cached = self._divisors.get(x)
        if cached is None:
            cached = tuple(d for d, mask in enumerate(self.ideal_masks()) if mask >> x & 1)
            self._divisors[x] = cached
        return cached

    # -- submonoids --------------------------------------------------------

    def set_product(self, a, b) -> frozenset:
        t = self.table
        return frozenset(t[x][y] for x in a for y in b)

    def shortest_words(self, alphabet) -> dict:
        """Each element of the submonoid generated by ``alphabet`` mapped to
        the first shortest word over it with that product: a breadth-first
        walk from the identity (the empty word) that extends words on the
        right, element by element as reached, letters in the order given."""
        alphabet = tuple(alphabet)  # read once per element, so any iterable
        t = self.table
        words = {self.identity: ()}
        queue = [self.identity]  # grows while it is read: a first-in first-out queue
        for p in queue:
            for a in alphabet:
                q = t[p][a]
                if q not in words:
                    words[q] = words[p] + (a,)
                    queue.append(q)
        return words

    def generating_set(self, members) -> tuple[tuple, frozenset]:
        """Greedy generators of the submonoid generated by ``members``, and
        that submonoid: the members are walked in the order given, and each
        one not generated by those chosen before it joins.

        The generated set is extended as each generator joins: every element
        reached so far is multiplied on the right by the new generator, and
        every element first reached is multiplied by all generators chosen,
        so each (element, generator) product is taken once, |set| * |gens| in
        all. The set stays closed under right multiplication by the
        generators and holds the identity, so it holds every product of
        them."""
        rows = self.table
        gens: list = []
        reached = {self.identity}
        for a in members:
            if a in reached:
                continue
            gens.append(a)
            fresh = set(map(itemgetter(a), map(rows.__getitem__, reached))) - reached
            while fresh:
                reached |= fresh
                step: set = set()
                for q in fresh:
                    step.update(map(rows[q].__getitem__, gens))
                fresh = step - reached
        return tuple(gens), frozenset(reached)

    def generators(self) -> tuple:
        """Greedy generators of the whole monoid: :meth:`generating_set` of
        0..n-1, kept once found."""
        if self._generators is None:
            object.__setattr__(self, "_generators", self.generating_set(range(self.n))[0])
        return self._generators

    def generated_submonoid(self, seed) -> frozenset:
        """Least subset containing seed and the identity, closed under
        products: the key set of :meth:`shortest_words`."""
        return frozenset(self.shortest_words(seed))

    def divisor_closed_closure(self, x: int) -> frozenset:
        """Least divisor-closed submonoid containing x.

        Alternates divisor closure and product closure until the set is a
        fixpoint of both; each y is among its own divisors.
        """
        current = frozenset({x})
        while True:
            closed = self.generated_submonoid(set().union(*map(self.divisors, current)))
            if closed == current:
                return closed
            current = closed

    def germ_submonoid(self, x: int) -> frozenset:
        """Submonoid generated by the divisors of x; contained in the
        divisor-closed closure of x."""
        return self.generated_submonoid(self.divisors(x))

    def submonoid(self, elements) -> tuple["FiniteMonoid", tuple]:
        """Restriction to a product-closed subset containing the identity.

        Returns the restricted monoid over reindexed elements together with
        the sorted tuple mapping new indices back to the parent's.
        """
        to_parent = tuple(sorted(elements))
        if self.identity not in elements:
            raise ShapeError("submonoid must contain the identity")
        index = {p: i for i, p in enumerate(to_parent)}
        t = self.table
        try:
            sub_table = [[index[t[a][b]] for b in to_parent] for a in to_parent]
        except KeyError as exc:
            raise ShapeError(f"subset not closed under products: {exc}") from exc
        sub = FiniteMonoid(sub_table, index[self.identity], check_associativity=False)
        return sub, to_parent

    # -- structural predicates ---------------------------------------------

    def structure_flags(self) -> StructureFlags:
        """Each predicate by a scan of the whole table, or of what decides it:

        - commutative: the pairs of :meth:`generators`; every element is a
          product of them, so generators that commute make a monoid that does;
        - Dedekind-finite (xy = 1 gives yx = 1): the identity lies in row x
          exactly when it lies in column x. That follows from the law, and
          gives it back: from xy = 1 and zx = 1, z = z(xy) = (zx)y = y;
        - unit-cancellative (xy = x or yx = x only for units y): x in neither
          row x nor column x at a non-unit's position;
        - left duo (aH within Ha) and right duo (Ha within aH): the values of
          row a against those of column a, as bit masks;
        - acyclic (uxv = x only for units u, v): every (u, v, x).
        """
        if self._flags is not None:
            return self._flags
        n, t, e = self.n, self.table, self.identity
        units = self.units()
        gens = self.generators()
        commutative = all(t[g][h] == t[h][g] for i, g in enumerate(gens) for h in gens[i + 1:])
        columns = tuple(zip(*t))
        dedekind_finite = all((e in row) == (e in column) for row, column in zip(t, columns))
        nonunits = [y for y in range(n) if y not in units]
        unit_cancellative = not any(
            x in map(row.__getitem__, nonunits) or x in map(column.__getitem__, nonunits)
            for x, (row, column) in enumerate(zip(t, columns))
        )
        acyclic = True
        for u in range(n):
            for v in range(n):
                if u in units and v in units:
                    continue
                for x in range(n):
                    if t[t[u][x]][v] == x:
                        acyclic = False
                        break
                if not acyclic:
                    break
            if not acyclic:
                break
        row_images = self._image_masks(t) if self._row_masks is None else self._row_masks
        column_images = self._image_masks(columns)
        left_duo = all(r & ~c == 0 for r, c in zip(row_images, column_images))
        right_duo = all(c & ~r == 0 for r, c in zip(row_images, column_images))
        flags = StructureFlags(
            commutative=commutative,
            dedekind_finite=dedekind_finite,
            unit_cancellative=unit_cancellative,
            acyclic=acyclic,
            left_duo=left_duo,
            right_duo=right_duo,
            duo=left_duo and right_duo,
            reduced=units == frozenset({e}),
        )
        object.__setattr__(self, "_flags", flags)
        return flags

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "identity": self.identity,
            "table": [list(row) for row in self.table],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteMonoid":
        try:
            n = data["n"]
            table = data["table"]
            identity = data["identity"]
        except (TypeError, KeyError) as exc:
            raise ShapeError(f"monoid JSON missing field: {exc}") from exc
        if type(n) is not int:
            raise ShapeError(f"declared n = {n!r} is not an integer")
        if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
            raise ShapeError("monoid JSON table must be a list of rows")
        if len(table) != n:
            raise ShapeError(f"declared n = {n} but table has {len(table)} rows")
        return cls(table, identity)

    @classmethod
    def from_file(cls, path) -> "FiniteMonoid":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
