"""Pairwise brute-force oracles for minimal factorizations, shared by the tests.

``letter_matching`` is the literal matching order as
``words.shuffle_leq_matching`` computed it before it read bitmask rows: it
calls ``leq`` for every letter of the left word and position of the right
one, and positions holding one letter share an adjacency list;
``position_matching`` is the same order with one adjacency list per position
of the left word, as it was built before that sharing;
``pairwise_minimal_words`` compares every pair of words with it, as
``verify.check_minimal_brute_force`` did before it grouped the words by
letter multiset and compared each multiset only against the minima;
``factorizations_by_paths`` enumerates the words of
``factorization.enumerate_factorizations`` by the depth-first ``_paths``
walk it made before it grew the words of each length a level at a time;
``vector_leq`` is the sub-multiset comparison
of two class vectors; ``longest_bad_sequence`` searches all bad sequences of
a tiny universe and ``random_left_duo_monoid`` draws random monoids until one
is left duo; ``product_one_by_orderings`` tries every ordering of a multiset
of group elements. No code of the library calls these.
"""
import itertools

from premonoids.factorization import DivisorAutomaton, _paths
from premonoids.randgen import random_monoid
from premonoids.words import embed_increasing


def brute_words(P, x, max_len, alphabet):
    """All words over ``alphabet`` of length 1..``max_len`` whose product is x,
    by length, then in ``itertools.product`` order: the sweep that
    ``verify.check_minimal_brute_force`` ran before ``words_with_product``."""
    out = []
    for length in range(1, max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            p = P.identity
            for a in w:
                p = P.op(p, a)
            if p == x:
                out.append(w)
    return out


def letter_matching(leq, u, v) -> bool:
    """Kuhn's augmenting-path matching of the positions of u into those of v
    under mutual comparability, with one adjacency list per letter of u."""
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


def position_matching(leq, u, v) -> bool:
    """Kuhn's augmenting-path matching of the positions of u into those of v,
    position i adjacent to position j when u[i] and v[j] are mutually
    comparable under ``leq``."""
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


def pairwise_minimal_words(leq, words, against=None):
    """The words of ``words`` that no word of ``against`` (default: ``words``)
    lies strictly below under the literal matching order."""
    against = words if against is None else against
    return [
        w
        for w in words
        if not any(
            position_matching(leq, v, w)
            and not position_matching(leq, w, v)
            for v in against
        )
    ]


def factorizations_by_paths(P, x, max_len: int, letters: str = "irreducibles") -> list:
    """The alphabet-words of length 1..max_len with product x, in (length,
    lexicographic) order, one ``_paths`` walk per length, each move kept
    when its state still reaches x in the letters left."""
    auto = DivisorAutomaton(P, x, letters)
    if not auto.alphabet or max_len < 1:
        return []
    finish = [1 << auto.goal]
    for _ in range(max_len):
        finish.append(auto.preimage(finish[-1]))

    def moves(p, left):
        need = finish[left - 1]
        return ((j, q) for j, q in enumerate(auto.table[p]) if q >= 0 and need >> q & 1)

    return [
        tuple(auto.alphabet[j] for j in path)
        for length in range(1, max_len + 1)
        if finish[length] >> auto.start & 1
        for path in _paths(auto.start, moves, length)
    ]


def vector_leq(u: tuple, v: tuple) -> bool:
    """Sub-multiset comparison of two class vectors."""
    other = dict(v)
    return all(other.get(c, 0) >= k for c, k in u)


def product_one_by_orderings(mul, identity, multiset) -> bool:
    """Whether some ordering of ``multiset`` multiplies, left to right under
    ``mul``, to ``identity``."""
    for order in set(itertools.permutations(multiset)):
        p = identity
        for g in order:
            p = mul(p, g)
        if p == identity:
            return True
    return False


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


def random_left_duo_monoid(rng, max_size: int = 6):
    for _ in range(200):
        m = random_monoid(rng, max_size)
        if m.structure_flags().left_duo:
            return m
    raise AssertionError("pool exhausted without a left duo instance")
