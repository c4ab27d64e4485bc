"""Words over a carrier: products, shufflings, scattered subwords.

A word is a plain tuple of element labels.  The shuffling comparison between
two words asks for an injective assignment of the left word's letters to
letters of the right word that are mutually below/above them.  Mutual
comparability is an equivalence, so the comparison depends only on the
multisets of classes of the two words: the fast path ``shuffle_leq`` takes a
letter -> class map ``rep``, built once per carrier by ``class_reps``, and
tests multiset inclusion of the mapped letters.  The literal matching oracle
``shuffle_leq_matching`` is kept alongside as the definitional ground truth
and reads only the raw relation.

``class_reps`` stays the one builder of such maps.  It represents each class
by its least member, and the engine keys the class vectors it prints on those
representatives, one map per alphabet; ``word_vector`` reads a word through
the same map, so the verify checks compare vectors on the engine's keys.
"""
from __future__ import annotations

from collections import Counter


# -- class vectors -------------------------------------------------------------


def class_reps(leq, letters):
    """Map each letter to the least member of its mutual-comparability class.

    ``letters`` is any iterable of labels; ``leq`` compares two labels.
    """
    pool = sorted(set(letters))
    rep: dict = {}
    for a in pool:
        for b in pool:
            if leq(a, b) and leq(b, a):
                rep[a] = b
                break
    return rep


def word_vector(word, rep) -> tuple:
    """Multiset of class representatives, as a sorted tuple of (rep, count)."""
    counts = Counter(rep[a] for a in word)
    return tuple(sorted(counts.items()))


def vector_total(u: tuple) -> int:
    return sum(k for _, k in u)


def shuffle_leq(rep, u, v) -> bool:
    """Word comparison via class-multiset inclusion (the fast path).

    ``rep`` maps every letter of ``u`` and ``v`` to its class representative;
    any map that sends two letters to the same value exactly when they are
    mutually comparable gives the same answer.  A longer word is never below
    a shorter one; otherwise the classes of ``u`` are struck one by one from
    the classes of ``v``.
    """
    if len(u) > len(v):
        return False
    pool = [rep[b] for b in v]
    for a in u:
        c = rep[a]
        if c not in pool:
            return False
        pool.remove(c)
    return True


def shuffle_leq_matching(leq, u, v) -> bool:
    """Literal oracle: injective assignment with mutual comparability per letter.

    Kuhn's augmenting-path matching on the bipartite graph u-positions vs
    v-positions; exact, used to cross-check the class-multiset fast path.
    Positions of u holding the same letter share one adjacency list.
    """
    nu, nv = len(u), len(v)
    if nu > nv:
        return False
    if not u:
        return True
    partners = {a: [j for j, b in enumerate(v) if leq(a, b) and leq(b, a)] for a in set(u)}
    adj = list(map(partners.__getitem__, u))
    match_v = [-1] * nv

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_v[j] < 0 or augment(match_v[j], seen):
                    match_v[j] = i
                    return True
        return False

    return all(augment(i, [False] * nv) for i in range(nu))


# -- subword embeddings ----------------------------------------------------------


def embed_increasing(u, v, letter_leq):
    """Strictly increasing positions sigma with letter_leq(u[i], v[sigma(i)]).

    Greedy earliest-match is exact: any embedding can be shifted left
    position-by-position without invalidating later choices.
    """
    positions = []
    j = 0
    for a in u:
        while j < len(v) and not letter_leq(a, v[j]):
            j += 1
        if j == len(v):
            return None
        positions.append(j)
        j += 1
    return tuple(positions)


def erdos_rado_scan(words, letter_leq):
    """First pair i < j (lexicographically least (i, j), 0-indexed) such that
    words[i] embeds into words[j] by an increasing map with letters rising.

    Returns (i, j, positions) or None if the finite sequence is bad so far.
    """
    words = list(words)
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            emb = embed_increasing(words[i], words[j], letter_leq)
            if emb is not None:
                return (i, j, emb)
    return None

