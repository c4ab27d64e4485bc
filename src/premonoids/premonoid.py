"""A monoid paired with a preorder on its carrier.

No compatibility between the operation and the preorder is assumed; the
compatibility predicates live in :class:`PremonoidFlags`. :func:`scan_flags`
decides them all from the images a carrier builds, for finite carriers and
for the samples of lazily presented ones alike.

:class:`Carrier` is the query protocol that the irreducibility and
factorization engines are written against; :class:`Premonoid` implements it
for finite carriers, and lazily presented carriers plug into the same
machinery through :class:`premonoids.localfinite.LocalPremonoid`. On a
:class:`Premonoid`, and on no other carrier, the factorization engine reads
successor masks off :meth:`Premonoid.letter_rows` instead of multiplying,
and the irreducibility engine reads the factorizations of an element into
two factors off :meth:`Premonoid.inverse_row`.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from operator import itemgetter, lshift, or_
from typing import Protocol, runtime_checkable

from .bitrows import generating_pairs
from .errors import NotComputableError, ShapeError
from .monoid import FiniteMonoid
from .preorder import PreorderRel


@runtime_checkable
class Carrier(Protocol):
    """What the engines ask of a premonoid. The divisors of x and the
    non-units strictly below x are finite sets, and the quarks, irreducibles,
    heights and factorizations of x are decided from them alone.

    Every carrier also holds an ``_irrcache`` dict, empty when built, in
    which the irreducibility engine memoises its verdicts; it is engine
    state, not a query, so the protocol does not declare it."""

    identity: object

    def op(self, a, b): ...

    def divisors(self, x) -> tuple:
        """All two-sided divisors of x, sorted."""

    def leq(self, a, b) -> bool: ...

    def is_unit(self, a) -> bool: ...

    def strictly_below(self, x) -> tuple:
        """Exactly the non-units y with y < x."""


def heights_of(P: Carrier, elements) -> dict:
    """Longest strict non-unit chains descending from each element.

    A depth-first walk of ``strictly_below`` on an explicit stack of
    (element, strictly-below list, iterator) frames, so deep chains
    cannot hit the recursion limit; each element's list is computed once.
    An element is ``None`` in the memo while it is on the stack; units
    never enter it and get 0.
    """
    memo: dict = {}
    for root in elements:
        if root in memo or P.is_unit(root):
            continue
        memo[root] = None
        below = P.strictly_below(root)
        stack = [(root, below, iter(below))]
        while stack:
            x, below, todo = stack[-1]
            for y in todo:
                if y not in memo:
                    memo[y] = None
                    lower = P.strictly_below(y)
                    stack.append((y, lower, iter(lower)))
                    break
                if memo[y] is None:
                    raise NotComputableError(f"the strict order has a cycle through {y!r}")
            else:
                stack.pop()
                memo[x] = 1 + max((memo[y] for y in below), default=0)
    return {x: memo.get(x, 0) for x in elements}


@dataclass(frozen=True)
class PremonoidFlags:
    """Compatibility and chain-condition predicates of a premonoid.

    ``method`` records how the verdicts were obtained ("exhaustive" for a full
    carrier scan, "bounded(...)" for lazily presented families).
    """

    preordered: bool
    strongly_preordered: bool
    positive: bool
    strongly_positive: bool
    weakly_positive: bool
    artinian: bool
    strongly_artinian: bool
    method: str

    def to_json(self) -> dict:
        return asdict(self)


def scan_flags(elements, up, images, leq, lt, identity, unit_maps, below_sandwiches, method) -> PremonoidFlags:
    """All flags of ``elements`` under the preorder ``up`` (bit rows over
    their positions, row i has bit j when element i <= element j), from
    ``images[i]``, the images of element i under a family of maps, compared
    by ``leq``/``lt``; ``unit_maps`` are the positions of the maps by units,
    ``below_sandwiches`` is the verdict "x <= axb for all a, b", and
    ``method()``, asked after the scan, gives the label. The maps need not be
    all of them: a finite carrier hands over multiplication by generators
    only, and a law that holds for each generator holds for their products
    (see :meth:`Premonoid.flags`).

    Preordered: each map is monotone (i <= j gives m(i) <= m(j)); strongly
    preordered: strictly so on strict pairs. Only the pairs of
    :func:`bitrows.generating_pairs` are scanned: every pair i <= j is a chain
    of links and covers, so monotonicity carries over by transitivity; links
    are equivalent pairs, so once monotonicity holds a chain with one strict
    cover step is strict (a <= b < c and a < b <= c both give a < c), and
    strictness needs only the covers. The cost is |links + covers| times the
    number of maps. ``up`` must be reflexive and transitive; otherwise the
    scan raises :class:`NotComputableError` instead of giving a verdict.
    (Strongly) positive adds 1 <= every element; weakly positive is the unit
    images of x below x, and ``below_sandwiches``. Both artinian flags hold:
    finite chains cannot descend forever, a bounded label certifies its own."""
    try:
        links, covers = generating_pairs(up)
    except ValueError as exc:
        raise NotComputableError(
            f"the order is not reflexive and transitive on the scanned elements: {exc}"
        ) from exc
    pairs = links + covers
    preordered = all(all(map(leq, images[a], images[b])) for a, b in pairs)
    strongly_preordered = preordered and all(
        all(map(lt, images[a], images[b])) for a, b in covers
    )
    identity_below = all(leq(identity, x) for x in elements)
    return PremonoidFlags(
        preordered=preordered,
        strongly_preordered=strongly_preordered,
        positive=preordered and identity_below,
        strongly_positive=strongly_preordered and identity_below,
        weakly_positive=all(leq(image[k], x) for x, image in zip(elements, images) for k in unit_maps)
        and below_sandwiches,
        artinian=True,
        strongly_artinian=True,
        method=method(),
    )


class Premonoid:
    """Finite carrier: a FiniteMonoid together with a PreorderRel."""

    __slots__ = ("monoid", "preorder", "_units", "_unit_generators", "_nonunits", "_heights", "_flags",
                 "_irrcache", "_letter_rows", "_inverse_rows", "_views")

    def __init__(self, monoid: FiniteMonoid, preorder: PreorderRel):
        if monoid.n != preorder.n:
            raise ShapeError(
                f"carrier mismatch: monoid has {monoid.n} elements, relation {preorder.n}"
            )
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "preorder", preorder)
        object.__setattr__(self, "_units", None)
        object.__setattr__(self, "_unit_generators", None)
        object.__setattr__(self, "_nonunits", None)
        object.__setattr__(self, "_heights", None)
        object.__setattr__(self, "_flags", None)
        object.__setattr__(self, "_irrcache", {})  # irreducibles: is_irreducible/is_atom verdicts, unit images
        object.__setattr__(self, "_letter_rows", {})  # letter kind -> (rows, folded letters)
        object.__setattr__(self, "_inverse_rows", {})  # b -> inverse_row(b), per carrier
        object.__setattr__(self, "_views", {})  # frozenset of elements -> restrict(elements)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Premonoid is immutable")

    def __repr__(self) -> str:
        return f"Premonoid(n={self.monoid.n}, preorder={self.preorder.kind!r})"

    # -- Carrier protocol ----------------------------------------------------

    @property
    def identity(self) -> int:
        return self.monoid.identity

    def op(self, a: int, b: int) -> int:
        return self.monoid.table[a][b]

    def divisors(self, x: int) -> tuple:
        return self.monoid.divisors(x)

    def leq(self, a: int, b: int) -> bool:
        return self.preorder.leq(a, b)

    def lt(self, a: int, b: int) -> bool:
        return self.preorder.lt(a, b)

    def units(self) -> frozenset:
        """Elements mutually below/above the identity under the preorder."""
        if self._units is None:
            e = self.identity
            object.__setattr__(
                self,
                "_units",
                frozenset(u for u in range(self.monoid.n) if self.preorder.equiv(u, e)),
            )
        return self._units

    def is_unit(self, a: int) -> bool:
        return a in self.units()

    def unit_generators(self) -> tuple[tuple, bool]:
        """Greedy generators G_U of the submonoid generated by the preorder
        units U (:meth:`FiniteMonoid.generating_set` over U in index order),
        and whether they generate U itself: the closure gate, true exactly
        when U is closed under the product."""
        if self._unit_generators is None:
            units = self.units()
            gens, generated = self.monoid.generating_set(sorted(units))
            object.__setattr__(self, "_unit_generators", (gens, generated == units))
        return self._unit_generators

    def nonunits(self) -> tuple:
        if self._nonunits is None:
            units = self.units()
            object.__setattr__(
                self, "_nonunits", tuple(a for a in range(self.monoid.n) if a not in units)
            )
        return self._nonunits

    def strictly_below(self, x: int) -> tuple:
        """The non-units y < x: bit x of y's up-set row, and not bit y of x's."""
        rows = self.preorder.rows
        up = rows[x]
        return tuple(y for y in self.nonunits() if rows[y] >> x & 1 and not up >> y & 1)

    # -- finite paths of the engines, taken on a Premonoid only -------------------

    def letter_rows(self, letters: str, alphabet) -> list:
        """Row p holds the bits of p*a over the letters a of kind ``letters``
        folded so far; the letters of ``alphabet`` not yet folded are folded
        in first, one table column each.

        ``alphabet`` must hold letters of that kind only. A letter a with p*a
        dividing x divides x, so the row of p masked by the divisors of x
        lists exactly p's successors in x's automaton once x's own letters
        are folded, whatever else has been folded for other elements.
        """
        entry = self._letter_rows.get(letters)
        if entry is None:
            entry = self._letter_rows[letters] = ([0] * self.monoid.n, set())
        rows, folded = entry
        table = self.monoid.table
        for a in alphabet:
            if a not in folded:
                folded.add(a)
                rows[:] = map(or_, rows, map(lshift, repeat(1), map(itemgetter(a), table)))
        return rows

    def inverse_row(self, b: int) -> dict:
        """Each value v of table row b mapped to the mask of the columns c
        with b*c = v; built on first use, one pass over the row.

        The rows live on this carrier and die with it: a cache keyed by
        carrier identity would hand a short-lived carrier's rows to a later
        one that reuses its id."""
        row = self._inverse_rows.get(b)
        if row is None:
            row = self._inverse_rows[b] = {}
            for c, v in enumerate(self.monoid.table[b]):
                row[v] = row.get(v, 0) | 1 << c
        return row

    # -- derived data ----------------------------------------------------------

    def heights(self) -> tuple[int, ...]:
        """Longest strict chain of non-units starting at each element, in
        element order, by :func:`heights_of`."""
        if self._heights is None:
            heights = heights_of(self, range(self.monoid.n))
            object.__setattr__(self, "_heights", tuple(heights.values()))
        return self._heights

    def flags(self) -> PremonoidFlags:
        """Compatibility flags by :func:`scan_flags` over the images of each
        element under left and right multiplication by the members of G and
        of G_U: G the monoid's :meth:`FiniteMonoid.generators`, G_U the
        :meth:`unit_generators`. x <= axb is read off the ideal masks.

        Two-sided compatibility (x <= y implies uxv <= uyv for all u, v) holds
        iff both one-sided laws do (ux <= uy and xu <= yu): u = 1 or v = 1
        gives each side, and ux <= uy gives (ux)v <= (uy)v by the right-hand
        law. The strict laws and the unit part of weak positivity
        ((ux)v <= ux <= x) chain the same way. Each one-sided law needs only
        the generators: multiplication by u = g1...gk is the composite of
        the multiplications by the g's, and a composite of (strictly)
        monotone maps is (strictly) monotone. Weakly so for the units: every
        unit is a product of G_U, which lies in U, and g*y <= y for each g in
        G_U and every y gives u*x = g1*(g2...gk*x) <= g2...gk*x <= ... <= x.
        """
        if self._flags is not None:
            return self._flags
        n = self.monoid.n
        t = self.monoid.table
        rows = self.preorder.rows
        gens = self.monoid.generators()
        unit_gens, _ = self.unit_generators()
        maps = gens + unit_gens
        lefts = [t[g] for g in maps]  # x -> g*x
        rights = [tuple(map(itemgetter(g), t)) for g in maps]  # x -> x*g
        images = list(zip(*lefts, *rights))  # empty only for the one-element monoid: no pairs to scan
        k = len(maps)
        ideals = self.monoid.ideal_masks()
        flags = scan_flags(
            range(n), rows, images,
            lambda a, b: rows[a] >> b & 1,
            lambda a, b: rows[a] >> b & 1 and not rows[b] >> a & 1,
            self.identity, [i for j in range(len(gens), k) for i in (j, k + j)],  # g*x and x*g, g in G_U
            all(ideal & ~row == 0 for ideal, row in zip(ideals, rows)),
            lambda: "exhaustive (finite carrier)",
        )
        object.__setattr__(self, "_flags", flags)
        return flags

    # -- localization ------------------------------------------------------------

    def restrict(self, elements) -> "SubPremonoid":
        """Restriction to a product-closed subset containing the identity.

        One view per element set and carrier: a set restricted again returns
        the view built the first time, with whatever it has cached since. The
        key is the set itself, never its ``id``, which a dead set's successor
        may reuse; a set that raises is not kept, so it raises again."""
        key = frozenset(elements)
        view = self._views.get(key)
        if view is None:
            sub_monoid, to_parent = self.monoid.submonoid(key)
            view = SubPremonoid(sub_monoid, self.preorder.restrict(to_parent), to_parent)
            self._views[key] = view
        return view

    def divisor_closed_localization(self, x: int) -> "SubPremonoid":
        return self.restrict(self.monoid.divisor_closed_closure(x))

    def germ_localization(self, x: int) -> "SubPremonoid":
        return self.restrict(self.monoid.germ_submonoid(x))


class SubPremonoid(Premonoid):
    """A restricted premonoid with ``to_parent``, the map of its elements
    into its parent's."""

    __slots__ = ("to_parent",)

    def __init__(self, monoid, preorder, to_parent: tuple):
        super().__init__(monoid, preorder)
        object.__setattr__(self, "to_parent", to_parent)

    def from_parent(self, p) -> int:
        return self.to_parent.index(p)
