"""Quarks, irreducibles and atoms of any degree, and irreducible generating sets.

All per-element predicates are decided inside the divisor set of the element:
any factor of a product equal to x divides x, and so does every prefix of the
product, so restricting the layered product search to divisors loses nothing.
Quarks and irreducibles take the non-units below x from ``strictly_below``, so
one code path is exact for finite and for lazily presented carriers alike.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

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
    order's strict-lower hook may name candidates that do not divide a.
    """
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


def _per_premonoid(decide):
    """Memoise a verdict on (a, s) in the premonoid's ``_irrcache`` dict;
    premonoids without one decide afresh on every call."""

    @functools.wraps(decide)
    def cached(P, a, s: int = 2) -> bool:
        cache = getattr(P, "_irrcache", None)
        if cache is None:
            return decide(P, a, s)
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
    return not _layered_product_hit(P, a, P.strictly_below(a), s)


@_per_premonoid
def is_atom(P: Carrier, a, s: int = 2) -> bool:
    """Non-unit not equal to any product of 2..s non-units.

    Strictly smaller non-units are non-units, so every atom is irreducible
    and only irreducibles need the search.
    """
    if not is_irreducible(P, a, s):
        return False
    factors = [d for d in P.divisors(a) if not P.is_unit(d)]
    return not _layered_product_hit(P, a, factors, s)


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
    u, v."""
    units = sorted(P.units())
    op = P.op
    images = dict.fromkeys(members)
    for a in images:
        lefts = {op(u, a) for u in units}
        images[a] = {b for b in {op(ua, v) for ua in lefts for v in units} if b in images}
    return images


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
    base = irr_by.get(2, irreducibles(P, 2))
    return IrreducibleReport(
        quarks=quarks(P),
        irreducibles_by_degree=irr_by,
        atoms_by_degree=atm_by,
        orbits=unit_orbits(P, base),
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


def _coverage_witnesses(P: Premonoid, alphabet, targets):
    """BFS factorization witnesses over the alphabet.

    Returns (witnesses, None) covering every target, or (None, missing) with
    the first unreachable target.
    """
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


def irreducible_generating_set(P: Premonoid) -> GeneratingSetCertificate:
    """One representative per needed unit-orbit of irreducibles such that every
    non-unit factors over the irreducibles lying in the chosen orbits.

    Requires weak positivity; raises NotFactorableError (with a witness) if
    even the full orbit family cannot reach some non-unit.
    """
    if not P.flags().weakly_positive:
        raise NotWeaklyPositiveError("instance is not weakly positive")
    images = _unit_images(P, irreducibles(P, 2))
    targets = list(P.nonunits())

    def alphabet(reps) -> tuple:
        """The irreducibles in the orbits of ``reps``: their unit images."""
        return tuple(sorted(set().union(*map(images.__getitem__, reps))))

    reps = [block[0] for block in _orbits(images)]
    witnesses, missing = _coverage_witnesses(P, alphabet(reps), targets)
    if witnesses is None:
        raise NotFactorableError(missing)
    # reverse-delete: drop orbits whose removal keeps every non-unit reachable
    kept = list(reps)
    for rep in sorted(reps, reverse=True):
        trial = [r for r in kept if r != rep]
        got, _ = _coverage_witnesses(P, alphabet(trial), targets)
        if got is not None:
            kept = trial
            witnesses = got
    return GeneratingSetCertificate(
        representatives=tuple(kept), alphabet=alphabet(kept), witnesses=witnesses
    )
