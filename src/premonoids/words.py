"""Words over a carrier: products, shufflings, scattered subwords.

A word is a plain tuple of element labels.  The shuffling comparison between
two words asks for an injective assignment of the left word's letters to
letters of the right word that are mutually below/above them; because mutual
comparability is an equivalence, the fast path reduces to multiset inclusion
of equivalence classes.  The literal matching oracle is kept alongside as the
definitional ground truth.
"""
from __future__ import annotations

from collections import Counter


# -- class vectors -------------------------------------------------------------


def class_reps(leq, letters, sort_key=None):
    """Map each letter to the least member of its mutual-comparability class.

    ``letters`` is any iterable of labels; ``leq`` compares two labels.
    """
    pool = sorted(set(letters), key=sort_key)
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


def vector_leq(u: tuple, v: tuple) -> bool:
    """Sub-multiset comparison of two class vectors."""
    other = dict(v)
    return all(other.get(c, 0) >= k for c, k in u)


def vector_lt(u: tuple, v: tuple) -> bool:
    return vector_leq(u, v) and u != v


def vector_total(u: tuple) -> int:
    return sum(k for _, k in u)


def shuffle_leq(P, u, v) -> bool:
    """Word comparison via class-multiset inclusion (the fast path)."""
    rep = class_reps(P.leq, tuple(u) + tuple(v), sort_key=P.element_sort_key)
    return vector_leq(word_vector(u, rep), word_vector(v, rep))


def shuffle_leq_matching(leq, u, v) -> bool:
    """Literal oracle: injective assignment with mutual comparability per letter.

    Kuhn's augmenting-path matching on the bipartite graph u-positions vs
    v-positions; exact, used to cross-check the class-multiset fast path.
    """
    nu, nv = len(u), len(v)
    if nu > nv:
        return False
    adj = [
        [j for j in range(nv) if leq(u[i], v[j]) and leq(v[j], u[i])]
        for i in range(nu)
    ]
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


def scattered_subword(u, v):
    """Strictly increasing positions embedding u into v letter-for-letter.

    Returns the 0-indexed position tuple, or None.  Greedy earliest-match is
    exact for plain letter equality.
    """
    return embed_increasing(u, v, lambda a, b: a == b)


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


def longest_bad_sequence(universe, first, letter_leq) -> int:
    """Length of the longest sequence starting at ``first``, drawn from
    ``universe``, in which no earlier word embeds into a later one.

    Exhaustive DFS; intended for tiny universes.
    """
    universe = list(universe)

    def extendable(prefix) -> int:
        best = len(prefix)
        for w in universe:
            if all(embed_increasing(p, w, letter_leq) is None for p in prefix):
                best = max(best, extendable(prefix + [w]))
        return best

    return extendable([first])
