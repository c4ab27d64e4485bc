"""Quarks, irreducibles and atoms of any degree, and irreducible generating sets.

All per-element predicates are decided inside the divisor set of the element:
any factor of a product equal to x divides x, and so does every prefix of the
product, so restricting the layered product search to divisors loses nothing.
This makes the same code path exact for finite carriers and for lazily
presented ones with certified divisor sets.
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


def _layered_product_hit(P: Carrier, a, factors, s: int) -> bool:
    """True iff a is a product of k elements of ``factors`` for some 2 <= k <= s.

    Layers are pruned to divisors of a: every prefix of a product equal to a
    divides a, so pruning is lossless for the membership question.
    """
    allowed = frozenset(P.divisors(a))
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
    factors = [d for d in P.divisors(a) if not P.is_unit(d) and P.lt(d, a)]
    if not factors:
        return True
    return not _layered_product_hit(P, a, factors, s)


@_per_premonoid
def is_atom(P: Carrier, a, s: int = 2) -> bool:
    """Non-unit not equal to any product of 2..s non-units.

    Strictly smaller non-units are non-units, so every atom is irreducible
    and only irreducibles need the search.
    """
    if not is_irreducible(P, a, s):
        return False
    factors = [d for d in P.divisors(a) if not P.is_unit(d)]
    if not factors:
        return True
    return not _layered_product_hit(P, a, factors, s)


def quarks(P: Premonoid) -> tuple:
    return tuple(a for a in P.nonunits() if is_quark(P, a))


def irreducibles(P: Premonoid, s: int = 2) -> tuple:
    _check_degree(s)
    return tuple(a for a in P.nonunits() if is_irreducible(P, a, s))


def atoms(P: Premonoid, s: int = 2) -> tuple:
    _check_degree(s)
    return tuple(a for a in P.nonunits() if is_atom(P, a, s))


def unit_orbits(P: Premonoid, members) -> tuple[tuple, ...]:
    """Partition of ``members`` by the equivalence generated by a ~ u*a*v over
    preorder units u, v; blocks sorted and listed by smallest member."""
    members = sorted(members)
    index = {a: i for i, a in enumerate(members)}
    parent = list(range(len(members)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    units = sorted(P.units())
    op = P.op
    for a in members:
        lefts = {op(u, a) for u in units}
        for b in {op(ua, v) for ua in lefts for v in units}:
            if b in index:
                union(index[a], index[b])
    blocks: dict[int, list] = {}
    for a in members:
        blocks.setdefault(find(index[a]), []).append(a)
    return tuple(tuple(sorted(b)) for _, b in sorted(blocks.items()))


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


def _orbit_alphabet(P: Premonoid, reps, irr_set) -> tuple:
    units = sorted(P.units())
    letters = set()
    for a in reps:
        for u in units:
            ua = P.op(u, a)
            for v in units:
                b = P.op(ua, v)
                if b in irr_set:
                    letters.add(b)
    return tuple(sorted(letters))


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
    irr = irreducibles(P, 2)
    irr_set = frozenset(irr)
    targets = list(P.nonunits())
    orbits = unit_orbits(P, irr)
    reps = [block[0] for block in orbits]
    full_alphabet = _orbit_alphabet(P, reps, irr_set)
    witnesses, missing = _coverage_witnesses(P, full_alphabet, targets)
    if witnesses is None:
        raise NotFactorableError(missing)
    # reverse-delete: drop orbits whose removal keeps every non-unit reachable
    kept = list(reps)
    for rep in sorted(reps, reverse=True):
        trial = [r for r in kept if r != rep]
        alphabet = _orbit_alphabet(P, trial, irr_set)
        got, _ = _coverage_witnesses(P, alphabet, targets)
        if got is not None:
            kept = trial
            witnesses = got
    alphabet = _orbit_alphabet(P, kept, irr_set)
    return GeneratingSetCertificate(
        representatives=tuple(kept), alphabet=alphabet, witnesses=witnesses
    )
