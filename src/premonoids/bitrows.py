"""Sets of indices 0..n-1 as int masks."""
from __future__ import annotations


def indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    s = bin(mask)[:1:-1]  # least significant bit first
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out
