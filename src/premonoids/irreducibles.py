"""Quarks, irreducibles and atoms of any degree, and irreducible generating sets.

All per-element predicates are decided inside the divisor set of the element:
any factor of a product equal to x divides x, and so does every prefix of the
product, so restricting the layered product search to divisors loses nothing.
On a finite carrier degree 2 reads the carrier's inverse table rows instead.
Quarks and irreducibles take the non-units below x from ``strictly_below``, so
one code path is exact for finite and for lazily presented carriers alike.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DegreeTooSmallError,
    NotFactorableError,
    NotWeaklyPositiveError,
)
from .premonoid import Carrier, Premonoid


def _check_degree(s: int) -> None:
    if s < 2:
        raise DegreeTooSmallError(f"degree must be >= 2, got {s}")


def is_quark(P: Carrier, a) -> bool:
    """Non-unit with no non-unit strictly below it."""
    return not P.is_unit(a) and not P.strictly_below(a)


def _layered_product_hit(P: Carrier, a, candidates, s: int) -> bool:
    """True iff a is a product of k of the ``candidates`` for some 2 <= k <= s.

    Every factor and every prefix of a product equal to a divides a, so the
    candidates and the layers are cut to divisors of a without loss; a rule
    order's strict-lower hook may name candidates that do not divide a. Each
    layer multiplies every product by every factor, so a degree-2 test costs
    |factors|^2 products. :func:`_product_hit` sends degree 2 on a finite
    carrier to :func:`_pair_product_hit` instead; this search serves degrees
    3 and up and lazily presented carriers, and is the test oracle of the
    degree-2 path.
    """
    if not candidates:
        return False
    allowed = frozenset(P.divisors(a))
    factors = [d for d in candidates if d in allowed]
    op = P.op
    layer = factors
    for _ in range(2, s + 1):
        nxt = set()
        for p in layer:
            for d in factors:
                q = op(p, d)
                if q == a:
                    return True
                if q in allowed:
                    nxt.add(q)
        if not nxt:
            return False
        layer = nxt
    return False


def _pair_product_hit(P: Premonoid, a: int, candidates) -> bool:
    """True iff a = b*c for some ``candidates`` b and c, read off the inverse
    rows of a finite carrier: one mask test per candidate b.

    Both factors of a product equal to a divide a, so candidates that do not
    divide a need no filter; their rows simply hold no column for a.
    """
    mask = 0
    for d in candidates:
        mask |= 1 << d
    return any(P.inverse_row(b).get(a, 0) & mask for b in candidates)


def _product_hit(P: Carrier, a, candidates, s: int) -> bool:
    """True iff a is a product of k of the ``candidates`` for some 2 <= k <= s."""
    if s == 2 and isinstance(P, Premonoid):
        return _pair_product_hit(P, a, candidates)
    return _layered_product_hit(P, a, candidates, s)


def _per_premonoid(decide):
    """Memoise a verdict on (a, s) in the carrier's ``_irrcache`` dict, which
    every carrier holds (see :class:`premonoids.premonoid.Carrier`)."""

    @functools.wraps(decide)
    def cached(P, a, s: int = 2) -> bool:
        cache = P._irrcache
        key = (decide.__name__, a, s)
        got = cache.get(key)
        if got is None:
            got = cache[key] = decide(P, a, s)
        return got

    return cached


@_per_premonoid
def is_irreducible(P: Carrier, a, s: int = 2) -> bool:
    """Non-unit not equal to any product of 2..s strictly smaller non-units."""
    _check_degree(s)
    if P.is_unit(a):
        return False
    return not _product_hit(P, a, P.strictly_below(a), s)


@_per_premonoid
def is_atom(P: Carrier, a, s: int = 2) -> bool:
    """Non-unit not equal to any product of 2..s non-units.

    Strictly smaller non-units are non-units, so every atom is irreducible
    and only irreducibles need the search.
    """
    if not is_irreducible(P, a, s):
        return False
    factors = [d for d in P.divisors(a) if not P.is_unit(d)]
    return not _product_hit(P, a, factors, s)


def quarks(P: Premonoid) -> tuple:
    return tuple(a for a in P.nonunits() if is_quark(P, a))


def irreducibles(P: Premonoid, s: int = 2) -> tuple:
    _check_degree(s)
    return tuple(a for a in P.nonunits() if is_irreducible(P, a, s))


def atoms(P: Premonoid, s: int = 2) -> tuple:
    _check_degree(s)
    return tuple(a for a in P.nonunits() if is_atom(P, a, s))


def _unit_images(P: Premonoid, members) -> dict:
    """Each member a mapped to the set of members u*a*v over preorder units
    u, v.

    When the units U are closed under the product (the closure gate of
    :meth:`Premonoid.unit_generators`), U*a*U is the closure of {a} under
    left and right multiplication by the generators G_U: u*a*v is reached a
    generator at a time, and each step stays in U*a*U because U is closed.
    U need not be a group, so b in U*a*U does not make the two sets equal,
    and each member gets its own search, |U*a*U| * 2|G_U| products. When U
    is not closed, every u*a*v is multiplied out."""
    gens, closed = P.unit_generators()
    images = dict.fromkeys(members)
    if closed:
        t = P.monoid.table
        maps = [t[g] for g in gens] + [tuple(map(itemgetter(g), t)) for g in gens]  # x -> g*x, x -> x*g
        for a in images:
            orbit, fresh = {a}, {a}
            while fresh:
                step: set = set()
                for m in maps:
                    step.update(map(m.__getitem__, fresh))
                fresh = step - orbit
                orbit |= fresh
            images[a] = orbit & images.keys()
        return images
    units = sorted(P.units())
    op = P.op
    for a in images:
        lefts = {op(u, a) for u in units}
        images[a] = {b for b in {op(ua, v) for ua in lefts for v in units} if b in images}
    return images


def _irreducible_images(P: Premonoid) -> dict:
    """``_unit_images`` of the degree-2 irreducibles, kept in ``_irrcache``."""
    cache = P._irrcache
    if "unit_images" not in cache:
        cache["unit_images"] = _unit_images(P, irreducibles(P, 2))
    return cache["unit_images"]


def _orbits(images: dict) -> tuple[tuple, ...]:
    """Blocks of the equivalence generated by a ~ b for b in ``images[a]``,
    sorted and listed by smallest member; the smaller block joins the larger."""
    block = {a: {a} for a in images}
    for a, bs in images.items():
        for b in bs:
            if block[b] is not block[a]:
                small, large = sorted((block[a], block[b]), key=len)
                large |= small
                for c in small:
                    block[c] = large
    return tuple(sorted({tuple(sorted(s)) for s in block.values()}))


def unit_orbits(P: Premonoid, members) -> tuple[tuple, ...]:
    """Partition of ``members`` by the equivalence generated by a ~ u*a*v over
    preorder units u, v; blocks sorted and listed by smallest member."""
    return _orbits(_unit_images(P, members))


@dataclass(frozen=True)
class IrreducibleReport:
    quarks: tuple
    irreducibles_by_degree: dict
    atoms_by_degree: dict
    orbits: tuple

    def to_json(self) -> dict:
        return {
            "quarks": list(self.quarks),
            "irreducibles": {str(s): list(v) for s, v in sorted(self.irreducibles_by_degree.items())},
            "atoms": {str(s): list(v) for s, v in sorted(self.atoms_by_degree.items())},
            "orbits": [list(b) for b in self.orbits],
        }


def irreducible_report(P: Premonoid, degrees=(2,)) -> IrreducibleReport:
    degrees = sorted(set(degrees))
    for s in degrees:
        _check_degree(s)
    irr_by = {s: irreducibles(P, s) for s in degrees}
    atm_by = {s: atoms(P, s) for s in degrees}
    return IrreducibleReport(
        quarks=quarks(P),
        irreducibles_by_degree=irr_by,
        atoms_by_degree=atm_by,
        orbits=_orbits(_irreducible_images(P)),
    )


@dataclass(frozen=True)
class GeneratingSetCertificate:
    """Chosen orbit representatives plus a factorization witness per non-unit."""

    representatives: tuple
    alphabet: tuple
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "representatives": list(self.representatives),
            "alphabet": list(self.alphabet),
            "witnesses": {str(x): list(w) for x, w in sorted(self.witnesses.items())},
        }


def irreducible_generating_set(P: Premonoid) -> GeneratingSetCertificate:
    """One representative per needed unit-orbit of irreducibles such that every
    non-unit factors over the irreducibles lying in the chosen orbits.

    Requires weak positivity; raises NotFactorableError with the first
    non-unit that even the full orbit family cannot reach.

    The orbits are thinned by reverse-delete: each is dropped in turn, and the
    drop is kept when every non-unit stays reachable. The kept alphabet
    reaches every non-unit, so the trial alphabet does exactly when it reaches
    every letter of the dropped orbit: one walk of ``P.monoid.shortest_words``
    per trial, asked about those letters alone. The witnesses are the words
    of the last walk kept. A trial is decided without its walk when the
    dropped orbit's unit images hold an irreducible a whose preorder class is
    {a}, by this lemma: under weak positivity such an a lies in the submonoid
    generated by a set A' of irreducibles only if a is in A'. Sketch:
    divisors lie below what they divide, and a product with a non-unit factor
    is a non-unit. Take a shortest word over A' with product a; if it has
    k >= 2 letters, then a = p*c with p and c non-units and p, c <= a.
    Irreducibility forces p ~ a or c ~ a, so c = a, or else p = a comes from
    a shorter word. The orbits are disjoint, so a is in no other orbit's
    images and the trial fails. A failed trial changes neither the kept
    orbits nor the witnesses, so the certificate is the one of the full
    reverse-delete.
    """
    if not P.flags().weakly_positive:
        raise NotWeaklyPositiveError("instance is not weakly positive")
    images = _irreducible_images(P)

    def alphabet(reps) -> tuple:
        """The irreducibles in the orbits of ``reps``: their unit images."""
        return tuple(sorted(set().union(*map(images.__getitem__, reps))))

    reps = [block[0] for block in _orbits(images)]
    words = P.monoid.shortest_words(alphabet(reps))
    targets = P.nonunits()
    for x in targets:
        if x not in words:
            raise NotFactorableError(x)
    alone = {block[0] for block in P.preorder.equivalence_classes() if len(block) == 1}
    # reverse-delete: drop orbits whose letters the other kept orbits reach
    kept = list(reps)
    for rep in sorted(reps, reverse=True):
        if not alone.isdisjoint(images[rep]):
            continue  # the lemma: the trial cannot reach that a
        trial = [r for r in kept if r != rep]
        got = P.monoid.shortest_words(alphabet(trial))
        if all(a in got for a in images[rep]):
            kept = trial
            words = got
    return GeneratingSetCertificate(
        representatives=tuple(kept), alphabet=alphabet(kept), witnesses={x: words[x] for x in targets}
    )
