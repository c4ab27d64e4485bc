"""Bounded exploration of finitely presented monoids.

All words over the alphabet up to a length bound are merged by a worklist:
each relation's sides are united, and each pair a union merges is extended
by one letter on either side while both sides fit.  When every relation's
sides have equal length, this is the congruence restricted to the bound
(u ~ v is then joined through words of their own length, whose extensions
all fit).  Otherwise it can be finer: under ``bbz = z`` at bound 7, bbzzz
joins zzz's class only through words of length 7 such as bbzbbzz, whose
extensions do not fit, so bbzzzz and zzzz stay apart.  On the resulting
classes the explorer builds a bounded divisibility digraph and extracts two
kinds of evidence, both tagged as bounded evidence rather than certificates:

* cycles w ~ p*w*s with a context that is not trivially empty, refuting
  acyclicity;
* strictly descending divisibility chains containing a step whose minimal
  representative does not get shorter.  In a free monoid a proper divisor is
  always strictly shorter, so such a step can only come from the relations;
  an unbounded supply of them is exactly how the ascending chain condition on
  principal two-sided ideals fails.

The divisibility digraph has one-letter edges only.  A best chain step
never skips over a class, so a class's candidate steps are the members of
the strongly connected components with a one-letter edge into its own, and
both chains come from one pass over the components, children first, with
memory linear in the words: no closure is built.  The cycle scan stops at
the class that fills its quota.

The words are counted before any is built, and a bound whose words would
pass :data:`WORD_CAP` or :data:`LETTER_CAP` is refused.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .bitrows import components
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


class BoundedCongruence:
    """Union-find over the positions of all words of length <= bound.

    ``words`` lists them by length, then in code point order, and ``index``
    maps a word to its position.  A union hangs the larger root under the
    smaller, so a class's root is its least position: its shortest, then
    least, word."""

    def __init__(self, alphabet: str, relations: tuple, bound: int):
        self.alphabet, self.relations, self.bound = alphabet, relations, bound
        longest = max((len(side) for rel in relations for side in rel), default=0)
        if bound < longest:
            raise BoundTooSmallError(f"bound {bound} below longest relation side {longest}")
        self.words = tuple(
            "".join(w)
            for n in range(_word_lengths(alphabet, bound))
            for w in itertools.product(sorted(alphabet), repeat=n)
        )
        self.index = {w: i for i, w in enumerate(self.words)}
        self._parent = list(range(len(self.words)))
        self.merge_log: list = []
        queue = [rel for rel in relations if self._union(*rel)]
        # extend each merged pair by a letter on either side while both fit;
        # exact only when every relation keeps length (module docstring)
        while queue:
            u, v = queue.pop()
            if len(u) < bound and len(v) < bound:
                for a in alphabet:
                    for pair in ((u + a, v + a), (a + u, a + v)):
                        if self._union(*pair):
                            queue.append(pair)

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def _union(self, u: str, v: str) -> bool:
        ru, rv = self._find(self.index[u]), self._find(self.index[v])
        if ru == rv:
            return False
        self._parent[max(ru, rv)] = min(ru, rv)
        self.merge_log.append((u, v))
        return True

    def class_of(self, w: str) -> str:
        """Canonical (shortest, then lexicographically least) representative."""
        return self.words[self._find(self.index[w])]


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
    """Classes of the bounded congruence and their one-letter digraph.

    Returns ``(reps, members, index, pred)``: representatives in (length,
    word) order, each class's words in order of length, the word -> class
    map, and ``pred[v]``, the classes c (with repeats) that grow into v by
    appending one letter on either side.  A factor inside the bound grows
    into its word by such appends inside the bound, and divisibility is
    transitive even where the composed witness would not fit, so c divides
    v exactly when v is reachable from c; no closure is built."""
    # a root is its class's least position, so the first member met
    number: dict = {}
    index = {w: number.setdefault(cong._find(i), len(number)) for i, w in enumerate(cong.words)}
    reps = [cong.words[r] for r in number]
    pred: list = [[] for _ in reps]
    members: list = [[] for _ in reps]
    for w in cong.words:
        c = index[w]
        members[c].append(w)
        if len(w) < cong.bound:
            for a in cong.alphabet:
                pred[index[w + a]].append(c)
                pred[index[a + w]].append(c)
    return reps, members, index, pred


def _chains(pred: list, reps: list) -> tuple:
    """The longest strictly descending chain and the longest evidence chain,
    as lists of classes (the evidence chain empty when there is none).

    c is a strict child of v when c divides v and v does not divide c.  A
    step "qualifies" when the representative fails to get shorter, which no
    free monoid step can do; an evidence chain has one.  Each class steps to
    a child with the longest chain, then the least: the plain chain over all
    children, the evidence chain by a plain step to a child whose
    representative is no shorter or by an evidence step, the longer chain
    winning, then the lesser class, then the plain step.

    A best step never skips a class.  When c < m < v, v -> m -> c is a longer
    plain chain than v -> c; if rep c is no shorter than rep v, then v -> m
    or m -> c qualifies too, so the refined evidence chain is longer; and an
    evidence chain through c extends through m.  A class c with no class
    strictly between it and v grows into v along one-letter edges whose
    classes are each equivalent to c or v, so c's component has an edge into
    v's.  So one pass over the components of the one-letter digraph
    ``pred``, children first, gives both chains: the members of a component
    divide each other and share their plain chain, and each component with
    an edge into v's offers its first member, its first member whose
    representative is no shorter than v's, and its first member with the
    longest evidence chain."""
    k = len(pred)
    comp = [-1] * k
    groups: list = []  # each component's members, ascending
    # keys (-chain length, class), least first: the longest chain, then the
    # least class; ``none`` is no chain.  Per component: its plain chain and
    # first member, and its first member with the longest evidence chain
    none = (0, -1)
    plain_key: list = []
    evid_key: list = []
    plain_next = [-1] * k
    evid_next: list = [None] * k  # (child, whether the rest is plain)
    rep_length = [len(rep) for rep in reps].__getitem__
    for g, group in enumerate(components(pred)):
        group.sort()
        for v in group:
            comp[v] = g
        ids = {comp[c] for v in group for c in pred[v]}
        ids.discard(g)
        # the members of a component divide each other: one plain chain
        length, step = min(map(plain_key.__getitem__, ids), default=none)
        by_evid = min(map(evid_key.__getitem__, ids), default=none)
        best = none
        size = -1
        for v in group:  # in order of representative length
            plain_next[v] = step
            if rep_length(v) > size:
                size = rep_length(v)
                # each component's first member whose representative is no shorter
                firsts = ((h, bisect_left(groups[h], size, key=rep_length)) for h in ids)
                by_plain = min([(plain_key[h][0], groups[h][i]) for h, i in firsts if i < len(groups[h])], default=none)
            # the longer chain, then the lesser class, then the plain step
            rest_plain = by_plain != none and by_plain <= by_evid
            chain, child = by_plain if rest_plain else by_evid
            if chain:
                evid_next[v] = (child, rest_plain)
                best = min(best, (chain - 1, v))
        groups.append(group)
        plain_key.append((length - 1, group[0]))
        evid_key.append(best)

    def plain_chain(v: int) -> list:
        chain = [v]
        while plain_next[v] >= 0:
            v = plain_next[v]
            chain.append(v)
        return chain

    best_evidence: list = []
    v = min(evid_key)[1]
    while v >= 0:
        best_evidence.append(v)
        v, rest_plain = evid_next[v]
        if rest_plain:
            best_evidence += plain_chain(v)
            break
    return plain_chain(min(plain_key)[1]), best_evidence


def presentation_explore(alphabet: str, relations, bound: int) -> ExplorationReport:
    """Bounded congruence classes plus divisibility evidence for a monoid
    presentation; see the module docstring for what the evidence means."""
    _check_alphabet(alphabet)
    rels = tuple(
        (parse_relation_word(l, alphabet), parse_relation_word(r, alphabet))
        for l, r in relations
    )
    cong = BoundedCongruence(alphabet=alphabet, relations=rels, bound=bound)
    reps, members, index, pred = _divisibility(cong)
    best_plain, best_evidence = _chains(pred, reps)
    cycles = _cycles(reps, members, index, 20)
    return ExplorationReport(
        congruence=cong,
        class_count=len(reps),
        sample_merges=tuple(cong.merge_log[:10]),
        cycles=tuple(cycles),
        longest_descending_chain=tuple(reps[i] for i in best_plain),
        accp_evidence_chain=tuple(reps[i] for i in best_evidence),
    )
