"""Bounded exploration of finitely presented monoids.

All words over the alphabet up to a length bound are merged by applying the
rewriting rules in every context that fits inside the bound (a worklist keeps
the merges closed under appending letters on either side).  On the resulting
classes the explorer builds a bounded divisibility digraph and extracts two
kinds of evidence, both tagged as bounded evidence rather than certificates:

* cycles w ~ p*w*s with a context that is not trivially empty, refuting
  acyclicity;
* strictly descending divisibility chains containing a step whose minimal
  representative does not get shorter.  In a free monoid a proper divisor is
  always strictly shorter, so such a step can only come from the relations;
  an unbounded supply of them is exactly how the ascending chain condition on
  principal two-sided ideals fails.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bitrows import indices
from .errors import BoundTooSmallError, ShapeError


def parse_relation_word(text: str, alphabet: str) -> str:
    """Expand letter-with-repeat notation: "x2y" -> "xxy"."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c not in alphabet:
            raise ShapeError(f"letter {c!r} not in alphabet {alphabet!r}")
        i += 1
        digits = ""
        while i < len(text) and text[i].isdigit():
            digits += text[i]
            i += 1
        out.append(c * (int(digits) if digits else 1))
    return "".join(out)


@dataclass
class BoundedCongruence:
    """Union-find over all words of length <= bound, congruence-closed."""

    alphabet: str
    relations: tuple
    bound: int
    _parent: dict = field(default_factory=dict, repr=False)
    merge_log: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        longest = max((len(side) for rel in self.relations for side in rel), default=0)
        if self.bound < longest:
            raise BoundTooSmallError(
                f"bound {self.bound} below longest relation side {longest}"
            )
        self.words = tuple(
            "".join(w)
            for n in range(self.bound + 1)
            for w in itertools.product(self.alphabet, repeat=n)
        )
        for w in self.words:
            self._parent[w] = w
        queue = []
        for lhs, rhs in self.relations:
            if self._union(lhs, rhs, reason=("relation", lhs, rhs)):
                queue.append((lhs, rhs))
        # close under appending letters on either side: any congruence
        # consequence within the bound is a chain of such one-letter moves
        while queue:
            u, v = queue.pop()
            for a in self.alphabet:
                for pair in ((u + a, v + a), (a + u, a + v)):
                    if len(pair[0]) <= self.bound and len(pair[1]) <= self.bound:
                        if self._union(*pair, reason=("append", u, v, a)):
                            queue.append(pair)

    def _find(self, w: str) -> str:
        root = w
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[w] != root:
            self._parent[w], w = root, self._parent[w]
        return root

    def _union(self, u: str, v: str, reason=None) -> bool:
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            return False
        keep, drop = sorted((ru, rv), key=lambda w: (len(w), w))
        self._parent[drop] = keep
        self.merge_log.append((u, v, reason))
        return True

    def class_of(self, w: str) -> str:
        """Canonical (shortest, then lexicographically least) representative."""
        return self._find(w)

    def classes(self) -> dict:
        out: dict = {}
        for w in self.words:
            out.setdefault(self._find(w), []).append(w)
        return {rep: tuple(sorted(members)) for rep, members in sorted(out.items())}


@dataclass
class ExplorationReport:
    congruence: BoundedCongruence
    class_count: int
    sample_merges: tuple
    cycles: tuple
    longest_descending_chain: tuple
    accp_evidence_chain: tuple
    note: str = "bounded evidence, not a certificate"

    def to_json(self) -> dict:
        return {
            "alphabet": self.congruence.alphabet,
            "relations": [list(r) for r in self.congruence.relations],
            "bound": self.congruence.bound,
            "class_count": self.class_count,
            "sample_merges": [list(m) for m in self.sample_merges],
            "cycles": [
                {"word": w, "left": p, "right": s} for w, p, s in self.cycles
            ],
            "longest_descending_chain": list(self.longest_descending_chain),
            "accp_evidence_chain": list(self.accp_evidence_chain),
            "note": self.note,
        }


def _strict_children(reach: list) -> list:
    """For each class v, the classes strictly below it in ascending order.

    ``reach[c]`` has bit v when c divides v and must be transitively closed;
    c is strictly below v when c divides v but v does not divide c."""
    below = [0] * len(reach)  # the transposed rows: bit c when c divides v
    for c, row in enumerate(reach):
        bit = 1 << c
        for v in indices(row):
            below[v] |= bit
    return [indices(below[v] & ~reach[v]) for v in range(len(reach))]


def presentation_explore(alphabet: str, relations, bound: int) -> ExplorationReport:
    """Bounded congruence classes plus divisibility evidence for a monoid
    presentation; see the module docstring for what the evidence means."""
    rels = tuple(
        (parse_relation_word(l, alphabet), parse_relation_word(r, alphabet))
        for l, r in relations
    )
    cong = BoundedCongruence(alphabet=alphabet, relations=rels, bound=bound)

    reps = sorted(cong.classes(), key=lambda w: (len(w), w))
    rep_index = {rep: i for i, rep in enumerate(reps)}
    k = len(reps)

    # direct divisibility edges: every contiguous factor of every word divides
    # that word's class
    reach = [1 << i for i in range(k)]
    cycles = []
    for w in cong.words:
        cw = rep_index[cong.class_of(w)]
        n = len(w)
        for i in range(n + 1):
            for j in range(i, n + 1):
                mid = w[i:j]
                cu = rep_index[cong.class_of(mid)]
                reach[cu] |= 1 << cw
                if cu == cw and (i > 0 or j < n):
                    left, right = w[:i], w[j:]
                    if cong.class_of(left) != "" or cong.class_of(right) != "":
                        cycles.append((cong.class_of(mid), left, right))
    # divisibility is transitive in the monoid even when the composed witness
    # would not fit inside the bound, so close the bounded digraph
    for t in range(k):
        bit = 1 << t
        row = reach[t]
        for i in range(k):
            if reach[i] & bit:
                reach[i] |= row

    children = _strict_children(reach)

    # longest strictly descending chains; a step "qualifies" when the minimal
    # representative fails to get shorter, which no free monoid step can do
    plain: dict[int, tuple] = {}
    evid: dict[int, tuple] = {}

    def chain_plain(v: int) -> tuple:
        got = plain.get(v)
        if got is None:
            best = (v,)
            for c in children[v]:
                cand = (v,) + chain_plain(c)
                if len(cand) > len(best):
                    best = cand
            plain[v] = got = best
        return got

    def chain_evidence(v: int) -> tuple:
        """Longest descent from v containing at least one qualifying step;
        empty when none exists."""
        got = evid.get(v)
        if got is None:
            best: tuple = ()
            for c in children[v]:
                qualifies = len(reps[c]) >= len(reps[v])
                if qualifies:
                    cand = (v,) + chain_plain(c)
                    if len(cand) > len(best):
                        best = cand
                sub = chain_evidence(c)
                if sub and len(sub) + 1 > len(best):
                    best = (v,) + sub
            evid[v] = got = best
        return got

    best_plain: tuple = ()
    best_evidence: tuple = ()
    for v in range(k):
        cand = chain_plain(v)
        if len(cand) > len(best_plain):
            best_plain = cand
        cand = chain_evidence(v)
        if len(cand) > len(best_evidence):
            best_evidence = cand

    cycles = sorted(set(cycles), key=lambda c: (len(c[0]), c))[:20]
    sample = tuple(
        (u, v) for u, v, _ in cong.merge_log[:10]
    )
    return ExplorationReport(
        congruence=cong,
        class_count=len(reps),
        sample_merges=sample,
        cycles=tuple(cycles),
        longest_descending_chain=tuple(reps[i] for i in best_plain),
        accp_evidence_chain=tuple(reps[i] for i in best_evidence),
    )
