"""Cross-check both readings of minimal atomic classes against definitional
brute force.

The literal reading takes the minimal words among all irreducible
factorizations and keeps those that happen to use atoms only; the within
reading takes minimality inside the atom-word factorizations.  They can
disagree whenever some minimal class has no atom realization.
"""
import random

from premonoids import element_profile, is_atom
from premonoids.factorization import factorization_alphabet, prefix_bound
from premonoids.randgen import random_premonoid
from premonoids.words import class_reps, word_vector

from brute_force import brute_words, pairwise_minimal_words


def brute_minimal_vectors(P, x, words, all_words):
    """Vectors of the words of ``words`` that are minimal against ``all_words``
    under the literal matching order."""
    minimal = pairwise_minimal_words(P.leq, words, all_words)
    alphabet = factorization_alphabet(P, x)
    rep = class_reps(P.leq, alphabet)
    return {word_vector(w, rep) for w in minimal}


def capped_addition_zero_vs_positive(n: int):
    """Carrier 0..n-1 under min(a+b, n-1), ordered by: a below b iff a = 0 or
    both are positive.  All positive elements are irreducible (nothing sits
    strictly below them) but only 1 is an atom, so the one-letter word is the
    unique minimal factorization of any m >= 2 while the atom words all have
    length >= m: the two minimal-atomic readings separate."""
    from premonoids import FiniteMonoid, PreorderRel, Premonoid

    table = [[min(i + j, n - 1) for j in range(n)] for i in range(n)]
    monoid = FiniteMonoid(table, 0)
    rows = []
    for a in range(n):
        rows.append(1 if a == 0 else ((1 << n) - 2))
    full = (1 << n) - 1
    rows[0] = full  # 0 below everything
    rel = PreorderRel.from_matrix(
        [[bool(rows[a] >> b & 1) for b in range(n)] for a in range(n)]
    )
    return Premonoid(monoid, rel)


def _instances(rng):
    yield from (random_premonoid(rng, max_size=5) for _ in range(40))
    yield capped_addition_zero_vs_positive(4)
    yield capped_addition_zero_vs_positive(5)


def test_both_readings_match_brute_force_on_random_instances():
    rng = random.Random(71)
    disagreements_seen = 0
    for trial, P in enumerate(_instances(rng)):
        for x in P.nonunits():
            alphabet = factorization_alphabet(P, x)
            atom_letters = set(a for a in alphabet if is_atom(P, a))
            bound = prefix_bound(P, x)
            all_words = brute_words(P, x, bound + 1, alphabet)
            atom_words = [w for w in all_words if set(w) <= atom_letters]

            literal_brute = brute_minimal_vectors(P, x, atom_words, all_words)
            within_brute = brute_minimal_vectors(P, x, atom_words, atom_words)

            prof = element_profile(P, x)
            assert {v for v, _ in prof.minimal_atomic_literal} == literal_brute, (x, trial)
            assert {v for v, _ in prof.minimal_atomic_within} == within_brute, (x, trial)
            assert literal_brute <= within_brute
            if literal_brute != within_brute:
                disagreements_seen += 1
    # the pool is rich enough that the two readings actually separate
    assert disagreements_seen > 0


def test_nested_localization_composes_labels():
    rng = random.Random(17)
    for _ in range(10):
        P = random_premonoid(rng, max_size=6)
        for x in P.nonunits()[:2]:
            view = P.divisor_closed_localization(x)
            lx = view.from_parent(x)
            inner = view.germ_localization(lx)
            ix = inner.from_parent(lx)
            # the inner view's elements, named in P by composing the two maps
            name = lambda a: view.to_parent[inner.to_parent[a]]
            assert name(ix) == x
            outer_prof = element_profile(P, x)
            inner_prof = element_profile(inner, ix)
            renamed = tuple(
                (tuple((name(c), m) for c, m in vec), tuple(map(name, word)))
                for vec, word in inner_prof.minimal
            )
            assert renamed == outer_prof.minimal
            assert inner_prof.lengths == outer_prof.lengths
            assert tuple(map(name, inner_prof.irreducible_divisors)) == outer_prof.irreducible_divisors
