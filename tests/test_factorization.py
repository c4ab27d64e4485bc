import random

from premonoids import (
    LengthSet,
    classify,
    element_profile,
    enumerate_factorizations,
    factorization_alphabet,
    length_set,
    minimal_factorization_classes,
    realizable_vectors,
)
from premonoids.factorization import prefix_bound
from premonoids.families import (
    make_remark_premonoid,
    powerset_premonoid,
    zn_premonoid,
)
from premonoids.words import class_reps, word_vector

from brute_force import brute_words, pairwise_minimal_words


def test_enumeration_matches_brute_force_and_order():
    rng = random.Random(17)
    from premonoids.randgen import random_premonoid

    for _ in range(20):
        P = random_premonoid(rng, max_size=5)
        for x in P.nonunits():
            alphabet = factorization_alphabet(P, x)
            got = list(enumerate_factorizations(P, x, 4))
            assert got == sorted(set(brute_words(P, x, 4, alphabet)), key=lambda w: (len(w), w))


def test_enumeration_examples():
    P = zn_premonoid(4)
    assert list(enumerate_factorizations(P, 2, 3)) == [(2,)]
    words = list(enumerate_factorizations(P, 0, 4))
    assert words == [(2, 2), (2, 2, 2), (2, 2, 2, 2)]
    assert list(enumerate_factorizations(P, 3, 5)) == []  # preorder unit


def test_length_sets_zn():
    P = zn_premonoid(4)
    assert length_set(P, 0) == LengthSet.all_from(2)
    assert length_set(P, 2) == LengthSet.of(1)
    P8 = zn_premonoid(8)
    assert length_set(P8, 0) == LengthSet.all_from(3)
    assert length_set(P8, 4) == LengthSet.of(2)
    P9 = zn_premonoid(9)
    assert length_set(P9, 0) == LengthSet.all_from(2)


def test_length_set_remark_premonoid():
    P = make_remark_premonoid(12)
    for m in (1, 2, 5, 7):
        assert length_set(P, m) == LengthSet.make(range(1, m + 1))


def test_minimal_classes_zn8():
    P = zn_premonoid(8)
    classes = minimal_factorization_classes(P, 0)
    assert len(classes) == 1
    vec, word = classes[0]
    assert vec == ((2, 3),)  # three letters from the class of 2
    assert word == (2, 2, 2)
    assert P.monoid.product(word) == 0


def test_minimal_classes_empty_when_no_factorization():
    # a preorder unit has no factorizations in these instances
    P = zn_premonoid(4)
    assert minimal_factorization_classes(P, 1) == ()


def test_minimal_classes_remark():
    P = make_remark_premonoid(10)
    for m in (1, 4, 7):
        classes = minimal_factorization_classes(P, m)
        assert len(classes) == 1
        vec, word = classes[0]
        assert vec == ((1, 1),)
        assert sum(word) == m and len(word) == 1


def test_realizable_vectors_finite_vs_infinite():
    P = zn_premonoid(4)
    vectors, infinite = realizable_vectors(P, 0)
    assert infinite  # words of every length >= 2 hit zero
    vectors, infinite = realizable_vectors(P, 2)
    assert not infinite and vectors == (((2, 1),),)


def test_classification_zn_examples():
    for n, expect_min_len in ((4, 2), (8, 3), (9, 2)):
        report = classify(zn_premonoid(n))
        assert report["UmF-atomic-within"], n
        assert report["UmF-atomic-literal"], n
        assert not report["BF-atomic"], n
        assert not report["BF-factorable"], n
        assert report["factorable"] and report["atomic"], n
        assert report.diagram_violations() == ()
        witness = report.witnesses["BF-atomic"]
        assert witness["atomic_lengths"]["offset"] == expect_min_len


def test_classification_powerset():
    report = classify(powerset_premonoid(3)[0])
    assert report["factorable"]
    assert report["UmF-factorable"] and report["FmF-factorable"] and report["BmF-factorable"]
    assert not report["atomic"]
    assert not report["BF-factorable"] and not report["FF-factorable"]
    assert report.diagram_violations() == ()


def test_classification_vacuous_on_groups():
    from premonoids.families import cyclic_group
    from premonoids import Premonoid, divisibility_preorder

    g = cyclic_group(5)
    report = classify(Premonoid(g, divisibility_preorder(g)))
    assert report.vacuous
    assert all(report.flags.values())


def test_remark_premonoid_separates_the_two_minimal_atomic_readings():
    P = make_remark_premonoid(8)
    sample = [x for x in range(1, 9)]
    report = classify(P, elements=sample)
    # one atom (the unit step), so atomic factorizations are unique
    assert report["UF-atomic"] and report["FF-atomic"] and report["BF-atomic"]
    assert report["UmF-atomic-within"]
    # the literal reading intersects minimal irreducible factorizations with
    # atom words: for targets >= 2 the only minimal class is the one-letter
    # word, which is not an atom word, so the literal sets are empty
    assert not report["BmF-atomic-literal"]
    assert report["FF-factorable"] and not report["UF-factorable"]
    assert report.diagram_violations() == ()


def test_profile_minimal_atomic_literal_on_zn():
    # in these instances every irreducible is an atom, so the readings agree
    for n in (4, 8, 9):
        P = zn_premonoid(n)
        for x in P.nonunits():
            prof = element_profile(P, x)
            assert prof.minimal_atomic_literal == prof.minimal_atomic_within == prof.minimal


def test_minimal_certification_against_deep_brute_force():
    rng = random.Random(31)
    from premonoids.randgen import random_premonoid

    for _ in range(15):
        P = random_premonoid(rng, max_size=5)
        for x in P.nonunits():
            alphabet = factorization_alphabet(P, x)
            bound = prefix_bound(P, x)
            words = brute_words(P, x, bound + 2, alphabet)
            minimal_words = pairwise_minimal_words(P.leq, words)
            assert all(len(w) <= bound for w in minimal_words)
            rep = class_reps(P.leq, alphabet)
            brute = {word_vector(w, rep) for w in minimal_words}
            engine = {vec for vec, _ in minimal_factorization_classes(P, x)}
            assert brute == engine


def test_localization_invariance_of_profiles():
    rng = random.Random(41)
    from premonoids.randgen import random_premonoid
    from premonoids.verify import check_localization_invariance

    for _ in range(25):
        P = random_premonoid(rng, max_size=6)
        res = check_localization_invariance(P)
        assert res.passed, res.details


def test_searches_on_deep_words_do_not_recurse():
    # capped addition min(i + j, n - 1): the only irreducible is 1, so the
    # element 1098 has a single factorization, 1098 letters long
    from premonoids import FiniteMonoid, Premonoid, divisibility_preorder

    n = 1100
    monoid = FiniteMonoid([[min(i + j, n - 1) for j in range(n)] for i in range(n)], 0)
    P = Premonoid(monoid, divisibility_preorder(monoid))
    prof = element_profile(P, 1098)
    assert prof.lengths == LengthSet.of(1098)
    assert prof.minimal == ((((1, 1098),), (1,) * 1098),)
    assert list(enumerate_factorizations(P, 1098, 1098)) == [(1,) * 1098]
