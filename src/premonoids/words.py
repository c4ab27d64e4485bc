"""Words over a carrier: products, shufflings, scattered subwords.

A word is a plain tuple of element labels.  The shuffling comparison between
two words asks for an injective assignment of the left word's letters to
letters of the right word that are mutually below/above them.  Mutual
comparability is an equivalence, so the comparison depends only on the
multisets of classes of the two words: the fast path ``shuffle_leq`` takes a
letter -> class map ``rep``, built once per carrier by ``class_reps``, and
tests multiset inclusion of the mapped letters.  The literal matching oracle
``shuffle_leq_matching`` is kept alongside as the definitional ground truth.
It reads the rows of ``mutual_rows``, a table of the mutually comparable
pairs that one scan of the raw relation builds once per carrier and that
shares no code with ``class_reps``; it assumes no equivalence.

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


def mutual_rows(leq, n: int) -> tuple:
    """Row a has bit b when ``leq(a, b)`` and ``leq(b, a)``, for the labels
    0..n-1: the adjacency of ``shuffle_leq_matching``, one scan of every
    ordered pair of the raw relation."""
    return tuple(sum(1 << b for b in range(n) if leq(a, b) and leq(b, a)) for a in range(n))


def shuffle_leq_matching(mutual, u, v) -> bool:
    """Literal oracle: injective assignment with mutual comparability per letter.

    Kuhn's augmenting-path matching on the bipartite graph u-positions vs
    v-positions; exact, used to cross-check the class-multiset fast path.
    ``mutual`` is the table of ``mutual_rows``. Each letter of u gets the
    bitmask of the v-positions it may take, shared by the positions that
    hold it, and a search tries the free positions in increasing order.
    """
    nu, nv = len(u), len(v)
    if nu > nv:
        return False
    adj = {}
    for a in set(u):
        row, mask, bit = mutual[a], 0, 1
        for b in v:
            if row >> b & 1:
                mask |= bit
            bit <<= 1
        adj[a] = mask
    match_v = [-1] * nv
    seen = 0

    def augment(i: int) -> bool:
        nonlocal seen
        free = adj[u[i]] & ~seen
        while free:
            low = free & -free
            seen |= low
            j = low.bit_length() - 1
            if match_v[j] < 0 or augment(match_v[j]):
                match_v[j] = i
                return True
            free = adj[u[i]] & ~seen
        return False

    for i in range(nu):
        seen = 0
        if not augment(i):
            return False
    return True


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

