"""Preorders over finite carriers, stored as dense bit-row matrices.

User-supplied relations are closed reflexively and transitively on load (the
original pairs are retained for provenance) rather than rejected.  Queries
after construction are O(1) bit tests.
"""
from __future__ import annotations

from .bitrows import indices
from .errors import ShapeError
from .monoid import FiniteMonoid


def _close(n: int, rows: list[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure of a bit-row relation (Warshall on bit rows)."""
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return tuple(rows)


class PreorderRel:
    """Reflexive-transitive boolean relation on indices 0..n-1."""

    __slots__ = ("n", "kind", "rows", "source")

    def __init__(self, n: int, rows, kind: str = "explicit", source=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "source", source)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PreorderRel is immutable")

    def __repr__(self) -> str:
        return f"PreorderRel(n={self.n}, kind={self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PreorderRel) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    # -- construction --------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, kind: str = "explicit", source=None) -> "PreorderRel":
        n = len(matrix)
        rows = []
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise ShapeError(f"relation row {i} has length {len(row)}, expected {n}")
            bits = 0
            for j, v in enumerate(row):
                if v:
                    bits |= 1 << j
            rows.append(bits)
        return cls(n, _close(n, rows), kind=kind, source=source)

    @classmethod
    def from_pairs(cls, n: int, pairs, kind: str = "explicit") -> "PreorderRel":
        rows = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ShapeError(f"pair ({a}, {b}) out of range")
            rows[a] |= 1 << b
        return cls(n, _close(n, rows), kind=kind, source={"pairs": sorted(set(map(tuple, pairs)))})

    @classmethod
    def total(cls, n: int) -> "PreorderRel":
        full = (1 << n) - 1
        return cls(n, (full,) * n, kind="explicit")

    # -- queries --------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def lt(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1) and not (self.rows[b] >> a & 1)

    def equiv(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1) and bool(self.rows[b] >> a & 1)

    def matrix(self) -> list[list[bool]]:
        return [[bool(r >> j & 1) for j in range(self.n)] for r in self.rows]

    def equivalence_classes(self, subset=None) -> list[tuple[int, ...]]:
        """Mutual-reachability classes, each sorted, listed by smallest member."""
        pool = sorted(subset) if subset is not None else list(range(self.n))
        seen: set[int] = set()
        classes = []
        for a in pool:
            if a in seen:
                continue
            cls_ = tuple(b for b in pool if self.equiv(a, b))
            seen.update(cls_)
            classes.append(cls_)
        return classes

    def restrict(self, elements) -> "PreorderRel":
        """Relation restricted to a sorted subset, reindexed densely."""
        order = tuple(sorted(elements))
        rows = []
        for a in order:
            bits = 0
            for j, b in enumerate(order):
                if self.leq(a, b):
                    bits |= 1 << j
            rows.append(bits)
        return PreorderRel(len(order), tuple(rows), kind="explicit", source={"restricted_from": self.kind})

    def strict_is_acyclic(self) -> bool:
        """The strict part of a preorder is transitive and irreflexive, hence
        acyclic; this re-derives it by DFS as a self-check. The DFS keeps its
        own stack, so deep chains cannot hit the recursion limit."""
        rows = self.rows

        def above(u: int):  # the v with u < v
            return (v for v in indices(rows[u]) if not rows[v] >> u & 1)

        color = [0] * self.n  # 0 unseen, 1 on the DFS path, 2 finished
        for root in range(self.n):
            if color[root]:
                continue
            color[root] = 1
            stack = [(root, above(root))]
            while stack:
                u, todo = stack[-1]
                for v in todo:
                    if color[v] == 1:
                        return False
                    if color[v] == 0:
                        color[v] = 1
                        stack.append((v, above(v)))
                        break
                else:
                    color[u] = 2
                    stack.pop()
        return True

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "divisibility":
            return {"kind": "divisibility"}
        if self.kind == "pullback" and isinstance(self.source, dict) and "phi" in self.source:
            return {
                "kind": "pullback",
                "phi": list(self.source["phi"]),
                "codomain": self.source["codomain"].to_json(),
            }
        if self.kind == "phi" and isinstance(self.source, dict) and "A" in self.source:
            return {"kind": "phi", "A": sorted(self.source["A"])}
        return {"kind": "matrix", "rel": self.matrix()}

    def condensation_dot(self, labels=None) -> str:
        """DOT digraph of the strict order between equivalence classes
        (transitive reduction)."""
        classes = self.equivalence_classes()
        reps = [c[0] for c in classes]
        k = len(classes)
        edge = [[self.lt(reps[i], reps[j]) for j in range(k)] for i in range(k)]
        fmt = labels if labels is not None else (lambda e: str(e))
        lines = ["digraph strict_order {"]
        for i, c in enumerate(classes):
            name = "{" + ",".join(fmt(e) for e in c) + "}"
            lines.append(f'  n{i} [label="{name}"];')
        for i in range(k):
            for j in range(k):
                if edge[i][j] and not any(edge[i][m] and edge[m][j] for m in range(k)):
                    lines.append(f"  n{j} -> n{i};")
        lines.append("}")
        return "\n".join(lines)


def divisibility_preorder(monoid: FiniteMonoid) -> PreorderRel:
    """x below y iff y lies in the two-sided ideal generated by x: the rows
    are the monoid's ideal masks."""
    # divisibility is reflexive and transitive by construction
    return PreorderRel(monoid.n, monoid.ideal_masks(), kind="divisibility")


def pullback_preorder(phi, codomain: PreorderRel, kind: str = "pullback") -> PreorderRel:
    """x below y iff phi(x) below phi(y) in the codomain."""
    phi = tuple(phi)
    for v in phi:
        if not 0 <= v < codomain.n:
            raise ShapeError(f"phi value {v} outside codomain carrier")
    n = len(phi)
    rows = []
    for a in range(n):
        bits = 0
        for b in range(n):
            if codomain.leq(phi[a], phi[b]):
                bits |= 1 << b
        rows.append(bits)
    return PreorderRel(n, tuple(rows), kind=kind, source={"phi": phi, "codomain": codomain})


def natural_order_rel(size: int) -> PreorderRel:
    """The usual total order 0 <= 1 <= ... over a chain carrier."""
    rows = []
    full = (1 << size) - 1
    for i in range(size):
        rows.append(full ^ ((1 << i) - 1))
    return PreorderRel(size, tuple(rows), kind="explicit")


def phi_preorder(monoid: FiniteMonoid, generators) -> tuple[PreorderRel, tuple[int, ...]]:
    """Pullback of the natural order through shortest-product length.

    phi(x) is the least k >= 1 such that x is a product of k elements of the
    generator set, for non-identity x reachable from the generators; every
    other element (the identity included) gets 0.  The resulting preorder is
    strongly artinian by construction.
    """
    gens = frozenset(generators)
    if monoid.identity in gens:
        raise ShapeError("generator set must not contain the identity")
    n = monoid.n
    phi = [0] * n
    assigned = {monoid.identity}
    layer = gens
    k = 1
    # once a layer introduces nothing new, no later layer can either
    while True:
        fresh = layer - assigned
        if not fresh:
            break
        for x in fresh:
            phi[x] = k
        assigned |= fresh
        layer = frozenset(monoid.table[p][a] for p in layer for a in gens)
        k += 1
    levels = max(phi) + 1
    rel = pullback_preorder(phi, natural_order_rel(levels), kind="phi")
    object.__setattr__(rel, "source", {"A": sorted(gens), "phi": tuple(phi)})
    return rel, tuple(phi)


def preorder_from_json(data: dict, monoid: FiniteMonoid | None = None) -> PreorderRel:
    kind = data.get("kind")
    if kind == "divisibility":
        if monoid is None:
            raise ShapeError("divisibility preorder needs a monoid")
        return divisibility_preorder(monoid)
    if kind == "matrix":
        return PreorderRel.from_matrix(data["rel"])
    if kind == "pullback":
        codomain = preorder_from_json(data["codomain"], monoid=None)
        return pullback_preorder(data["phi"], codomain)
    if kind == "phi":
        if monoid is None:
            raise ShapeError("phi preorder needs a monoid")
        rel, _ = phi_preorder(monoid, data["A"])
        return rel
    raise ShapeError(f"unknown preorder kind {kind!r}")
