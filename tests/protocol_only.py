"""A carrier that answers the ``Carrier`` queries and nothing else.

The engines take their finite paths by type, on a ``Premonoid`` only, so a
wrapper of a finite ``Premonoid`` is run through the divisor-indexed
automaton and the layered product search: those are the oracles of the
finite-carrier fast paths. Like every carrier, the wrapper holds its own
``_irrcache`` memo, empty when built, so no verdict of the wrapped carrier
is read back.
"""


class ProtocolOnly:
    """A carrier that answers the ``Carrier`` queries and nothing else: no
    element list and no other method of the carrier it wraps, and a memo of
    its own."""

    __slots__ = ("_carrier", "_irrcache")

    def __init__(self, carrier):
        self._carrier = carrier
        self._irrcache: dict = {}

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
