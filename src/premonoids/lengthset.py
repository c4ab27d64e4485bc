"""Exact eventually periodic subsets of the positive integers.

Stored as a finite part below an offset plus an optional periodic regime
(offset, period, residues).  Instances are canonicalized on construction so
that structural equality coincides with set equality: the period is minimal,
the offset is pulled back as far as the pattern allows, and an empty residue
set collapses to a purely finite set.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LengthSet:
    finite: tuple[int, ...]
    offset: int | None = None
    period: int | None = None
    residues: tuple[int, ...] = ()

    @classmethod
    def make(cls, finite, offset=None, period=None, residues=()) -> "LengthSet":
        fin = set(finite)
        res = set(residues)
        if offset is not None and not res:
            offset = period = None
        if offset is None:
            return cls(finite=tuple(sorted(fin)))
        if period is None or period < 1:
            raise ValueError("periodic part needs a period >= 1")
        res = {r % period for r in res}
        # slide the regime start past every explicit finite member, spelling
        # out the pattern values in between, so that finite and periodic parts
        # never overlap
        start = max(offset, max(fin) + 1 if fin else offset)
        for k in range(offset, start):
            if (k - offset) % period in res:
                fin.add(k)
        res = {(r - (start - offset)) % period for r in res}
        offset = start
        # minimize the period
        for d in range(1, period):
            if period % d == 0 and all(
                ((r in res) == ((r + d) % period in res)) for r in range(period)
            ):
                res = {r for r in res if r < d}
                period = d
                break
        # pull the offset back while the pattern keeps matching the finite part
        while offset > 1:
            predicted = (period - 1) in res
            if predicted != ((offset - 1) in fin):
                break
            offset -= 1
            fin.discard(offset)
            res = {(r + 1) % period for r in res}
        return cls(
            finite=tuple(sorted(fin)),
            offset=offset,
            period=period,
            residues=tuple(sorted(res)),
        )

    @classmethod
    def empty(cls) -> "LengthSet":
        return cls(finite=())

    @classmethod
    def of(cls, *members: int) -> "LengthSet":
        return cls.make(members)

    @classmethod
    def all_from(cls, start: int) -> "LengthSet":
        """The cofinite set {k : k >= start}."""
        return cls.make((), offset=start, period=1, residues=(0,))

    # -- queries ----------------------------------------------------------------

    def __contains__(self, k: int) -> bool:
        if self.offset is None or k < self.offset:
            return k in self.finite
        return (k - self.offset) % self.period in self.residues

    @property
    def is_empty(self) -> bool:
        return not self.finite and self.offset is None

    @property
    def is_finite(self) -> bool:
        return self.offset is None

    def min(self) -> int | None:
        if self.finite:
            return self.finite[0]
        if self.offset is not None:
            return self.offset + min(self.residues)
        return None

    def members_upto(self, limit: int) -> tuple[int, ...]:
        return tuple(k for k in range(1, limit + 1) if k in self)

    def singleton(self) -> bool:
        return self.offset is None and len(self.finite) == 1

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"finite": list(self.finite)}
        if self.offset is not None:
            out["offset"] = self.offset
            out["period"] = self.period
            out["residues"] = list(self.residues)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LengthSet":
        return cls.make(
            data.get("finite", ()),
            offset=data.get("offset"),
            period=data.get("period"),
            residues=data.get("residues", ()),
        )
