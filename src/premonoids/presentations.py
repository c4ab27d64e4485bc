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

The divisibility digraph has one-letter edges only, and one closure of the
reversed digraph gives each class the mask of its divisors; a divisor with
an equal mask divides back, so a class's strict children are one mask.
Chains come from one pass, in order of mask size, over level masks (the
classes whose chain has h classes): each class steps to the least class on
the highest level its children meet, at a cost of classes times levels
big-int ANDs rather than a step per divisibility pair.  The cycle scan stops
at the class that fills its quota.

The words are counted before any is built, and a bound whose words would
pass :data:`WORD_CAP` or :data:`LETTER_CAP` is refused.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bitrows import close
from .errors import BoundTooSmallError, CapExceededError, ShapeError

WORD_CAP = 2**15  # most words of length <= bound an exploration lists
LETTER_CAP = 2**19  # most letters those words may hold together


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


def _word_lengths(alphabet: str, bound: int) -> int:
    """The number of word lengths to list from 0: ``bound + 1``, or the
    first length with no words (1 over an empty alphabet, whose only word is
    empty).  Words are counted length by length, never built, and a bound
    past :data:`WORD_CAP` words or :data:`LETTER_CAP` letters raises
    :class:`CapExceededError` at the first length that passes it."""
    words = letters = 0
    for n in range(bound + 1):
        count = len(alphabet) ** n
        if not count:
            return n
        words += count
        letters += n * count
        if words > WORD_CAP:
            raise CapExceededError(f"bound {bound} over {alphabet!r} passes the cap of {WORD_CAP} words")
        if letters > LETTER_CAP:
            raise CapExceededError(f"bound {bound} over {alphabet!r} passes the cap of {LETTER_CAP} letters")
    return bound + 1


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
            for n in range(_word_lengths(self.alphabet, self.bound))
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


def _check_alphabet(alphabet: str) -> None:
    """Letters must be distinct (or words repeat) and not digits (which
    ``parse_relation_word`` reads as repeat counts)."""
    for i, c in enumerate(alphabet):
        if c.isdigit():
            raise ShapeError(f"letter {c!r} of alphabet {alphabet!r} is a digit")
        if c in alphabet[:i]:
            raise ShapeError(f"letter {c!r} repeats in alphabet {alphabet!r}")


def _cycles(reps: list, members: list, index: dict, limit: int) -> list:
    """The first ``limit`` cycles (rep, left, right) in key order: w = left *
    mid * right with mid ~ w, a proper context, and left or right outside the
    class of the empty word (class 0).  Such a class has words of two lengths;
    classes come in representative order, so the scan stops at the class that
    fills the quota."""
    found: list = []
    for c, words in enumerate(members):
        shortest = len(words[0])  # members come in order of length
        if shortest == len(words[-1]):
            continue
        hits = set()
        for w in words:
            n = len(w)
            for i in range(n - shortest + 1):
                for j in range(i + shortest, n + 1 if i else n):
                    if index[w[i:j]] == c and (index[w[:i]] or index[w[j:]]):
                        hits.add((w[:i], w[j:]))
        found += [(reps[c], left, right) for left, right in sorted(hits)]
        if len(found) >= limit:
            break
    return found[:limit]


def _divisibility(cong: BoundedCongruence) -> tuple:
    """Classes of the bounded congruence and their bounded divisibility.

    Returns ``(reps, members, index, below)``: representatives in (length,
    word) order, each class's words in order of length, the word -> class
    map, and ``below[v]`` with bit c when c divides v.  The digraph has
    one-letter edges only: a factor inside the bound grows into its word by
    one-letter appends inside the bound.  Divisibility is transitive even
    where the composed witness would not fit, so ``below`` is the closure of
    the reversed digraph."""
    roots = [cong.class_of(w) for w in cong.words]
    reps = sorted(set(roots), key=lambda w: (len(w), w))
    rep_index = {rep: i for i, rep in enumerate(reps)}
    index = {w: rep_index[r] for w, r in zip(cong.words, roots)}
    pred: list = [[] for _ in reps]
    members: list = [[] for _ in reps]
    for w in cong.words:
        c = index[w]
        members[c].append(w)
        if len(w) < cong.bound:
            for a in cong.alphabet:
                pred[index[w + a]].append(c)
                pred[index[a + w]].append(c)
    return reps, members, index, close(pred)


def _least(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _top(levels: list, mask: int, h: int) -> tuple:
    """The highest level at or below ``h`` that meets ``mask``, and the least
    class of ``mask`` there; ``(0, -1)`` when none does."""
    while h:
        hit = levels[h] & mask
        if hit:
            return h, _least(hit)
        h -= 1
    return 0, -1


def _put(levels: list, h: int, v: int) -> None:
    while len(levels) <= h:
        levels.append(0)
    levels[h] |= 1 << v


def _chains(below: list, reps: list) -> tuple:
    """The longest strictly descending chain and the longest evidence chain,
    as lists of classes (the evidence chain empty when there is none).

    c is a strict child of v when c divides v and v does not divide c: when c
    is in ``below[v]`` with a different row (equal rows are one strongly
    connected component).  A strict child's row is a proper subset, so
    ascending row sizes are a topological order; a class reads only its
    children's levels, so any such order gives the same chains.  A step
    "qualifies" when the representative fails to get shorter, which no free
    monoid step can do; an evidence chain has one.  ``plain[h]`` and
    ``evid[h]`` mask the classes done so far whose chain has h classes.  Each
    class steps to the least class on the highest level its children meet: the
    plain chain over all children, the evidence chain either by a plain step
    to a child whose representative is no shorter (reps come in order of
    length, so those children are a suffix mask) or by an evidence step, the
    longer chain winning, then the lesser class, then the plain step."""
    k = len(below)
    same: dict = {}  # row -> the classes with that row
    first: dict = {}  # length -> the first class whose representative has it
    for c, (rep, row) in enumerate(zip(reps, below)):
        same[row] = same.get(row, 0) | 1 << c
        first.setdefault(len(rep), c)
    plain: list = [0]
    evid: list = [0]
    plain_next = [-1] * k
    evid_next: list = [None] * k  # (child, whether the rest is plain)
    for v in sorted(range(k), key=[row.bit_count() for row in below].__getitem__):
        kids = below[v] & ~same[below[v]]
        h, plain_next[v] = _top(plain, kids, len(plain) - 1)
        f = first[len(reps[v])]
        a, by_plain = _top(plain, kids >> f << f, h)
        e, by_evid = _top(evid, kids, len(evid) - 1)
        if a > e or (a == e and a and by_plain <= by_evid):
            evid_next[v] = (by_plain, True)
            _put(evid, a + 1, v)
        elif e:
            evid_next[v] = (by_evid, False)
            _put(evid, e + 1, v)
        _put(plain, h + 1, v)

    def plain_chain(v: int) -> list:
        chain = [v]
        while plain_next[v] >= 0:
            v = plain_next[v]
            chain.append(v)
        return chain

    # the least class of the top level is the first of the longest
    best_evidence: list = []
    if len(evid) > 1:
        v = _least(evid[-1])
        while True:
            best_evidence.append(v)
            v, rest_plain = evid_next[v]
            if rest_plain:
                best_evidence += plain_chain(v)
                break
    return plain_chain(_least(plain[-1])), best_evidence


def presentation_explore(alphabet: str, relations, bound: int) -> ExplorationReport:
    """Bounded congruence classes plus divisibility evidence for a monoid
    presentation; see the module docstring for what the evidence means."""
    _check_alphabet(alphabet)
    rels = tuple(
        (parse_relation_word(l, alphabet), parse_relation_word(r, alphabet))
        for l, r in relations
    )
    cong = BoundedCongruence(alphabet=alphabet, relations=rels, bound=bound)
    reps, members, index, below = _divisibility(cong)
    best_plain, best_evidence = _chains(below, reps)
    cycles = _cycles(reps, members, index, 20)
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
