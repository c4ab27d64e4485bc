"""A carrier that answers the ``Carrier`` queries and nothing else.

Wrapping a finite ``Premonoid`` hides its finite capability (``letter_rows``),
so the engines run their divisor-indexed constructions on it: that is the
oracle of the finite-carrier fast paths.
"""


class ProtocolOnly:
    """A carrier that answers the ``Carrier`` queries and nothing else: no
    caches, no element list, no other method of the carrier it wraps."""

    __slots__ = ("_carrier",)

    def __init__(self, carrier):
        self._carrier = carrier

    @property
    def identity(self):
        return self._carrier.identity

    def op(self, a, b):
        return self._carrier.op(a, b)

    def divisors(self, x) -> tuple:
        return self._carrier.divisors(x)

    def leq(self, a, b) -> bool:
        return self._carrier.leq(a, b)

    def is_unit(self, a) -> bool:
        return self._carrier.is_unit(a)

    def strictly_below(self, x) -> tuple:
        return self._carrier.strictly_below(x)
