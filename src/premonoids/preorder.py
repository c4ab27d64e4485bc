"""Preorders over finite carriers, stored as dense bit-row matrices.

User-supplied relations are closed reflexively and transitively on load (the
original pairs are retained for provenance) rather than rejected.  Queries
after construction are O(1) bit tests.
"""
from __future__ import annotations

from .bitrows import close, indices
from .errors import ShapeError
from .monoid import FiniteMonoid


def _close(succ: list[list[int]]) -> tuple[int, ...]:
    """Reflexive-transitive closure of a relation given as successor lists."""
    return tuple(close(succ))


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
    def from_matrix(cls, matrix) -> "PreorderRel":
        """A square list of rows of 0, 1, true or false."""
        if not isinstance(matrix, (list, tuple)):
            raise ShapeError("relation must be a list of rows")
        n = len(matrix)
        succ = []
        for i, row in enumerate(matrix):
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise ShapeError(f"relation row {i} is not a list of length {n}")
            if not ({bool, int}.issuperset(map(type, row)) and {0, 1}.issuperset(row)):
                raise ShapeError(f"relation row {i} has an entry other than 0, 1, true or false")
            succ.append([j for j, v in enumerate(row) if v])
        return cls(n, _close(succ))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "PreorderRel":
        succ: list[list[int]] = [[] for _ in range(n)]
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ShapeError(f"pair ({a}, {b}) out of range")
            succ[a].append(b)
        return cls(n, _close(succ), source={"pairs": sorted(set(map(tuple, pairs)))})

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

    def equivalence_classes(self) -> list[tuple[int, ...]]:
        """Mutual-reachability classes, each sorted, listed by smallest member:
        the elements with equal up-set rows, as a <= a puts a in its own row."""
        classes: dict[int, list[int]] = {}
        for a, row in enumerate(self.rows):
            classes.setdefault(row, []).append(a)
        return list(map(tuple, classes.values()))

    def restrict(self, elements) -> "PreorderRel":
        """Relation restricted to a subset, reindexed densely in sorted
        order: the pullback along the sorted inclusion."""
        rows = pullback_preorder(sorted(elements), self).rows
        return PreorderRel(len(rows), rows, kind="explicit", source={"restricted_from": self.kind})

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

    def condensation_dot(self) -> str:
        """DOT digraph of the strict order between equivalence classes
        (transitive reduction)."""
        classes = self.equivalence_classes()
        reps = [c[0] for c in classes]
        k = len(classes)
        edge = [[self.lt(reps[i], reps[j]) for j in range(k)] for i in range(k)]
        lines = ["digraph strict_order {"]
        for i, c in enumerate(classes):
            name = "{" + ",".join(map(str, c)) + "}"
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


def pullback_preorder(phi, codomain: PreorderRel) -> PreorderRel:
    """x below y iff phi(x) below phi(y) in the codomain: the row of x is the
    union of the fibres of phi over the codomain row of phi(x), worked out
    once per distinct value of phi."""
    phi = tuple(phi)
    fibres: dict[int, int] = {}  # codomain element -> mask of its preimage
    for y, v in enumerate(phi):
        if type(v) is not int or not 0 <= v < codomain.n:
            raise ShapeError(f"phi value {v!r} outside codomain carrier")
        fibres[v] = fibres.get(v, 0) | 1 << y
    row_of = {}
    for v in fibres:
        up, row = codomain.rows[v], 0
        for w, fibre in fibres.items():
            if up >> w & 1:
                row |= fibre
        row_of[v] = row
    rows = list(map(row_of.__getitem__, phi))
    return PreorderRel(len(phi), rows, kind="pullback", source={"phi": phi, "codomain": codomain})


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
    other element (the identity included) gets 0: the word lengths of
    ``monoid.shortest_words``. The resulting preorder is strongly artinian by
    construction.
    """
    gens = tuple(generators)
    for g in gens:
        if type(g) is not int or not 0 <= g < monoid.n:
            raise ShapeError(f"generator {g!r} is not an element index")
    gens = sorted(set(gens))
    if monoid.identity in gens:
        raise ShapeError("generator set must not contain the identity")
    phi = [0] * monoid.n
    for x, word in monoid.shortest_words(gens).items():
        phi[x] = len(word)
    phi = tuple(phi)
    rows = pullback_preorder(phi, natural_order_rel(max(phi) + 1)).rows
    return PreorderRel(monoid.n, rows, kind="phi", source={"A": gens, "phi": phi}), phi


def preorder_from_json(data: dict, monoid: FiniteMonoid | None = None) -> PreorderRel:
    if not isinstance(data, dict):
        raise ShapeError("preorder JSON must be an object")
    for key in ("phi", "A"):
        if not isinstance(data.get(key, []), list):
            raise ShapeError(f"preorder JSON {key} must be a list")
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
