"""Oracles for ``presentations.presentation_explore``.

``oracle_explore`` is the all-factor explorer: it visits every contiguous
factor of every word for the divisibility edges, closes them with Warshall's
loop, finds strict children pairwise, computes chains by memoized recursion
and sorts every cycle it finds.  It shares the congruence and the report type
with the program, not the evidence search.

``rewrite_classes`` is the congruence by definition: every relation applied
in every context that fits, joined by a union-find of its own.  It shares
nothing with ``BoundedCongruence``, which ``oracle_explore`` reuses.

``loop_chains`` is the chain pass the explorer ran before it read chains off
level masks: child lists built pair by pair from the closed rows, and one
loop over each class's children in a topological order.
"""
from __future__ import annotations

from premonoids.bitrows import indices
from premonoids.presentations import (
    BoundedCongruence,
    ExplorationReport,
    parse_relation_word,
)


def warshall(succ) -> list[int]:
    """Reflexive-transitive closure of successor lists, Warshall on bit rows."""
    n = len(succ)
    rows = [1 << i for i in range(n)]
    for i, targets in enumerate(succ):
        for j in targets:
            rows[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def rewrite_classes(alphabet: str, relations, bound: int) -> dict:
    """Each word of length <= bound mapped to the shortest, then least, word
    of its class under the moves p*l*s <-> p*r*s, for each relation (l, r)
    and each context p, s in which both sides fit the bound."""
    rels = [
        (parse_relation_word(l, alphabet), parse_relation_word(r, alphabet))
        for l, r in relations
    ]
    words = [""]
    for w in words:
        if len(w) < bound:
            words += [w + a for a in alphabet]
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    for w in words:
        for l, r in rels:
            for i in range(len(w) - len(l) + 1):
                if w[i:i + len(l)] == l and len(w) - len(l) + len(r) <= bound:
                    parent[find(w)] = find(w[:i] + r + w[i + len(l):])
    least = {}
    for w in sorted(words, key=lambda x: (len(x), x)):
        least.setdefault(find(w), w)
    return {w: least[find(w)] for w in words}


def oracle_explore(alphabet: str, relations, bound: int) -> ExplorationReport:
    rels = tuple(
        (parse_relation_word(l, alphabet), parse_relation_word(r, alphabet))
        for l, r in relations
    )
    cong = BoundedCongruence(alphabet=alphabet, relations=rels, bound=bound)

    reps = sorted({cong.class_of(w) for w in cong.words}, key=lambda w: (len(w), w))
    rep_index = {rep: i for i, rep in enumerate(reps)}
    k = len(reps)

    # every contiguous factor of every word divides that word's class
    succ = [set() for _ in range(k)]
    cycles = []
    for w in cong.words:
        cw = rep_index[cong.class_of(w)]
        n = len(w)
        for i in range(n + 1):
            for j in range(i, n + 1):
                mid = w[i:j]
                cu = rep_index[cong.class_of(mid)]
                succ[cu].add(cw)
                if cu == cw and (i > 0 or j < n):
                    left, right = w[:i], w[j:]
                    if cong.class_of(left) != "" or cong.class_of(right) != "":
                        cycles.append((cong.class_of(mid), left, right))
    reach = warshall(succ)

    def strictly_below(c, v):
        return bool(reach[c] >> v & 1) and not (reach[v] >> c & 1)

    children = [[c for c in range(k) if strictly_below(c, v)] for v in range(k)]

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
        got = evid.get(v)
        if got is None:
            best: tuple = ()
            for c in children[v]:
                if len(reps[c]) >= len(reps[v]):
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
    return ExplorationReport(
        congruence=cong,
        class_count=k,
        sample_merges=tuple((u, v) for u, v in cong.merge_log[:10]),
        cycles=tuple(cycles),
        longest_descending_chain=tuple(reps[i] for i in best_plain),
        accp_evidence_chain=tuple(reps[i] for i in best_evidence),
    )


def strict_children(reach: list) -> list:
    """For each class v, the classes strictly below it in ascending order.

    ``reach[c]`` has bit v when c divides v and must be transitively closed;
    c is strictly below v when c divides v but v does not divide c."""
    below = [0] * len(reach)  # the transposed rows: bit c when c divides v
    for c, row in enumerate(reach):
        bit = 1 << c
        for v in indices(row):
            below[v] |= bit
    return [indices(below[v] & ~reach[v]) for v in range(len(reach))]


def loop_chains(reach: list, reps: list) -> tuple[list, list]:
    """The longest strictly descending chain and the longest evidence chain
    (a step whose representative does not get shorter), as lists of classes;
    on ties the first strictly longer child wins."""
    k = len(reach)
    children = strict_children(reach)
    plain = [1] * k
    plain_next = [-1] * k
    evid = [0] * k
    evid_next: list = [None] * k  # (child, whether the rest is plain)
    # a child has fewer children than its parent: a topological order
    for v in sorted(range(k), key=lambda v: len(children[v])):
        best, best_evid = 1, 0
        length = len(reps[v])
        for c in children[v]:
            if plain[c] >= best:
                best = plain[c] + 1
                plain_next[v] = c
            if len(reps[c]) >= length and plain[c] >= best_evid:
                best_evid = plain[c] + 1
                evid_next[v] = (c, True)
            if evid[c] and evid[c] >= best_evid:
                best_evid = evid[c] + 1
                evid_next[v] = (c, False)
        plain[v], evid[v] = best, best_evid

    def plain_chain(v: int) -> list:
        chain = [v]
        while plain_next[v] >= 0:
            v = plain_next[v]
            chain.append(v)
        return chain

    best_plain = plain_chain(max(range(k), key=plain.__getitem__))
    best_evidence: list = []
    v = max(range(k), key=evid.__getitem__)
    if evid[v]:
        while True:
            best_evidence.append(v)
            v, rest_plain = evid_next[v]
            if rest_plain:
                best_evidence += plain_chain(v)
                break
    return best_plain, best_evidence
