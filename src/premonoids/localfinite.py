"""Lazily presented monoids with certified finite divisor sets.

A locally finite monoid exposes opaque, hashable, naturally ordered element
labels, a binary operation, and ``divisors(x)``: the full, finite set of
two-sided divisors of x, certified by the family author (each subclass
documents the argument in its docstring).  Everything the engines ask of a
:class:`premonoids.premonoid.Carrier` is local to one element, so
:class:`LocalPremonoid` (under divisibility) and :class:`RuleOrderPremonoid`
(under a rule order) run these instances through the same code paths as
finite carriers.
"""
from __future__ import annotations

from .premonoid import heights_of, scan_flags


class LocallyFiniteMonoid:
    """Base class; subclasses fix ``identity``, ``op`` and ``divisors``."""

    identity = None

    def op(self, x, y):  # pragma: no cover - interface
        raise NotImplementedError

    def divisors(self, x) -> tuple:  # pragma: no cover - interface
        raise NotImplementedError

    def sample_elements(self) -> tuple:
        """Deterministic finite sample of the carrier for bounded, clearly
        labeled whole-instance scans."""
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def parse(self, text: str):
        """The element written ``text``; raises ``ValueError`` or a
        :class:`premonoids.errors.PremonoidsError` for anything else.  Here an
        integer member; families of other elements read their own text."""
        try:
            value = int(text)
        except ValueError:
            raise ValueError("expected an integer") from None
        if not self.contains(value):
            raise ValueError(f"{value} is not in the carrier")
        return value

    def check_divisor_laws(self, x) -> None:
        """Cross-validate the certified divisor set of one element.

        Checks identity/x membership, transitivity of the divisor sets, and
        that each claimed divisor is witnessed by an actual two-sided product
        within the divisor set (sound because cofactors of a divisor of x
        divide x themselves). A failed law raises ``AssertionError`` naming
        it, under ``python -O`` too.
        """
        divs = self.divisors(x)
        dset = set(divs)
        if self.identity not in dset:
            raise AssertionError(f"identity missing from divisors({x!r})")
        if x not in dset:
            raise AssertionError(f"{x!r} missing from its own divisors")
        for y in divs:
            for z in self.divisors(y):
                if z not in dset:
                    raise AssertionError(f"divisor transitivity fails: {z!r} | {y!r} | {x!r}")
        for y in divs:
            if not any(self.op(self.op(u, y), v) == x for u in divs for v in divs):
                raise AssertionError(f"no cofactor witness for {y!r} | {x!r}")


class LocalPremonoid:
    """A locally finite monoid under two-sided divisibility, compared through
    its certified divisor sets, as a :class:`premonoids.premonoid.Carrier`."""

    def __init__(self, monoid: LocallyFiniteMonoid):
        self.monoid = monoid
        self._divcache: dict = {}
        self._below: dict = {}  # x -> strictly_below(x)
        self._divsets: dict = {}  # x -> frozenset(divisors(x)), for leq
        self._irrcache: dict = {}  # irreducibles.is_irreducible/is_atom

    # -- Carrier protocol ---------------------------------------------------

    @property
    def identity(self):
        return self.monoid.identity

    def op(self, a, b):
        return self.monoid.op(a, b)

    def divisors(self, x) -> tuple:
        got = self._divcache.get(x)
        if got is None:
            got = tuple(sorted(self.monoid.divisors(x)))
            self._divcache[x] = got
        return got

    def leq(self, a, b) -> bool:
        divs = self._divsets.get(b)
        if divs is None:
            divs = self._divsets[b] = frozenset(self.divisors(b))
        return a in divs

    def lt(self, a, b) -> bool:
        return self.leq(a, b) and not self.leq(b, a)

    def is_unit(self, a) -> bool:
        return self.leq(a, self.identity)  # e divides every element, so e <= a holds

    def strictly_below(self, x) -> tuple:
        """The non-units y < x among the candidates of x; worked out once per
        element."""
        got = self._below.get(x)
        if got is None:
            got = self._below[x] = tuple(y for y in self._candidates(x) if not self.is_unit(y) and self.lt(y, x))
        return got

    def _candidates(self, x):
        """A certified finite superset of the non-units below x: its divisors."""
        return self.divisors(x)

    heights_of = heights_of  # the one walk of premonoid.heights_of, as a method

    def nonunit_sample(self) -> tuple:
        return tuple(x for x in self.monoid.sample_elements() if not self.is_unit(x))

    def bounded_flags(self, sample):
        """Compatibility flags decided by quantifier scans over a finite
        sample S of the carrier; the verdicts are labeled as bounded evidence,
        not certificates.  Each x in S has its |S|^2 sandwich products uxv
        (u, v in S) computed once and handed to :func:`premonoid.scan_flags`,
        which compares them over the generating pairs of the order restricted
        to S; that restriction must be reflexive and transitive, and a rule
        order that is not raises :class:`NotComputableError`.  The reduction
        to generating pairs also chains comparisons among the products,
        outside S: divisibility is transitive there, a rule order is trusted
        to be.  Chain conditions are certified by :meth:`_chain_note`."""
        sample = tuple(sample)
        leq = self.leq
        op = self.op
        up = [sum(1 << j for j, y in enumerate(sample) if leq(x, y)) for x in sample]
        images = [tuple(op(op(u, x), v) for u in sample for v in sample) for x in sample]
        units = [i for i, u in enumerate(sample) if self.is_unit(u)]
        return scan_flags(
            sample, up, images, leq, self.lt, self.identity,
            [i * len(sample) + j for i in units for j in units],  # uxv, u and v units
            all(leq(x, y) for x, image in zip(sample, images) for y in image),
            lambda: f"bounded(sample={len(sample)}); bounded scan; {self._chain_note(sample)}",
        )

    def _chain_note(self, sample) -> str:
        """Strictly descending divisibility chains from x live inside the
        finite set of divisors of x and cannot repeat."""
        return "chain conditions certified by finite divisor sets"


class RuleOrderPremonoid(LocalPremonoid):
    """A locally finite monoid under a binary rule ``order``, with a
    ``strict_lower`` hook giving, for each element, a certified finite
    superset of the non-units strictly below it."""

    def __init__(self, monoid: LocallyFiniteMonoid, order, strict_lower):
        super().__init__(monoid)
        self.order = order
        self._strict_lower = strict_lower

    def leq(self, a, b) -> bool:
        return self.order(a, b)

    def is_unit(self, a) -> bool:
        return self.order(a, self.identity) and self.order(self.identity, a)

    def _candidates(self, x):
        return self._strict_lower(x)

    def _chain_note(self, sample) -> str:
        # heights over the certified strict-lower domains terminate, which is
        # exactly strong artinianity on the sample
        self.heights_of(sample)
        return "heights certified by the strict-lower hook"
