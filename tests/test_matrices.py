import random

import pytest

from premonoids import LengthSet, ShapeError, SingularMatrixError
from premonoids.matrices import (
    diag,
    factor_multiset,
    identity_matrix,
    mat,
    mat_det,
    mat_mul,
    matrix_divisor_classes,
    matrix_is_irreducible,
    matrix_length_set,
    snf,
)
from premonoids.errors import DetTooLargeError

from matrix_oracles import associate_equivalent, associate_equivalent_search


def test_det_examples():
    assert mat_det(diag(2, 3)) == 6
    assert mat_det(((1, 2), (3, 4))) == -2
    assert mat_det(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0
    rng = random.Random(0)
    # cross-check Bareiss against cofactor expansion
    def cofactor_det(a):
        n = len(a)
        if n == 1:
            return a[0][0]
        total = 0
        for j in range(n):
            minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
            total += (-1) ** j * a[0][j] * cofactor_det(minor)
        return total

    for _ in range(60):
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert mat_det(a) == cofactor_det(a)


def test_snf_examples():
    assert snf(diag(2, 3)).diagonal == (1, 6)
    assert snf(identity_matrix(3)).diagonal == (1, 1, 1)
    assert snf(diag(2, 2)).diagonal == (2, 2)
    assert snf(((4,),)).diagonal == (4,)


def test_snf_rejects_singular():
    with pytest.raises(SingularMatrixError):
        snf(((1, 1), (1, 1)))


def test_snf_invariants_on_random_matrices():
    rng = random.Random(6)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(n))
        if mat_det(a) == 0:
            continue
        result = snf(a)  # the constructor re-verifies U*A*V = D and the chain
        assert mat_mul(mat_mul(result.U, mat(a)), result.V) == result.D
        assert abs(mat_det(result.U)) == 1 and abs(mat_det(result.V)) == 1
        d = result.diagonal
        assert all(v > 0 for v in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(n - 1))
        done += 1


def test_snf_deterministic():
    a = ((6, 4), (2, 8))
    assert snf(a) == snf(a)


def test_factor_multiset():
    assert factor_multiset(6) == (2, 3)
    assert factor_multiset(-12) == (2, 2, 3)
    assert factor_multiset(1) == ()
    with pytest.raises(DetTooLargeError):
        factor_multiset(10**13)


def test_divisor_classes_diag23():
    dc = matrix_divisor_classes(diag(2, 3))
    assert len(dc.candidates) == 9
    assert dc.representatives == ((1, 1), (1, 2), (1, 3), (1, 6))
    # every candidate is associate to exactly one representative
    for cand in dc.candidates:
        assert snf(diag(*cand)).diagonal in dc.representatives


def test_divisor_classes_unimodular():
    dc = matrix_divisor_classes(((1, 1), (0, 1)))
    assert dc.candidates == ((1, 1),)
    assert dc.representatives == ((1, 1),)


def test_divisor_classes_repeated_primes():
    dc = matrix_divisor_classes(diag(2, 2))
    # multiplicity-aware splits of {2, 2} over two slots
    assert set(dc.candidates) == {(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (4, 1)}


def test_divisor_class_representatives_are_the_smith_forms_of_the_candidates():
    """The representatives are read off each candidate's prime splits; the
    Smith form of each candidate diagonal is the oracle."""
    rng = random.Random(6)
    matrices = [diag(1, 4), diag(1, 1, 2**9), diag(2, 4, 8, 2**5)]
    matrices += [((4, 2), (6, 21)), ((2, 1, 0), (0, 2, 1), (1, 0, 6))]  # the bench bases
    while len(matrices) < 40:
        n = rng.randint(1, 3)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if mat_det(a):
            matrices.append(a)
    for a in matrices:
        dc = matrix_divisor_classes(a)
        assert dc.representatives == tuple(sorted({snf(diag(*c)).diagonal for c in dc.candidates})), a


def test_divisor_classes_cover_actual_divisors():
    # sample left/right factor pairs of A and confirm each factor is associate
    # to a candidate diagonal
    a = diag(2, 3)
    dc = matrix_divisor_classes(a)
    reps = set(dc.representatives)
    rng = random.Random(3)
    for _ in range(40):
        u = ((1, rng.randint(-2, 2)), (0, 1))
        v = ((1, 0), (rng.randint(-2, 2), 1))
        b = mat_mul(mat_mul(u, diag(*dc.candidates[rng.randrange(len(dc.candidates))])), v)
        assert snf(b).diagonal in reps


def test_associate_equivalence_routes_agree():
    pairs = [
        (diag(2, 3), diag(1, 6), True),
        (diag(3, 2), diag(2, 3), True),
        (diag(1, 2), diag(1, 3), False),
        (diag(2, 2), diag(1, 4), False),
    ]
    for b, c, expected in pairs:
        assert associate_equivalent(b, c) == expected
        # the bounded search can only confirm, never refute; at bound 3 it
        # reaches every witness these pairs need
        assert associate_equivalent_search(b, c, bound=3) == expected


def test_matrix_irreducibility_matches_prime_determinant():
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 2)
        a = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        d = abs(mat_det(a))
        if d == 0 or d > 30:
            continue
        is_prime = d >= 2 and all(d % k for k in range(2, d))
        assert matrix_is_irreducible(a) == is_prime, (a, d)
        checked += 1
    assert matrix_is_irreducible(diag(1, 10007))  # a prime far past the samples
    with pytest.raises(DetTooLargeError):
        matrix_is_irreducible(diag(1, 10**12 + 1))


def test_matrix_length_sets():
    assert matrix_length_set(diag(2, 3)) == LengthSet.of(2)  # two prime factors
    assert matrix_length_set(diag(1, 5)) == LengthSet.of(1)
    assert matrix_length_set(identity_matrix(2)) == LengthSet.of(0)
    assert matrix_length_set(diag(2, 3, 5)) == LengthSet.of(3)
    assert matrix_length_set(((4,),)) == LengthSet.of(2)
    assert matrix_length_set(diag(2, 2)) == LengthSet.of(2)
    assert matrix_length_set(diag(1, 10007)) == LengthSet.of(1)
    with pytest.raises(DetTooLargeError):
        matrix_length_set(diag(1, 10**12 + 39))


def test_matrix_length_set_matches_prime_count():
    rng = random.Random(4)
    checked = 0
    while checked < 12:
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
        d = abs(mat_det(a))
        if d == 0 or d > 12:
            continue
        omega = len(factor_multiset(d))
        expect = LengthSet.of(omega) if omega else LengthSet.of(0)
        assert matrix_length_set(a) == expect, (a, d)
        checked += 1


def test_mat_accepts_only_int_entries():
    assert mat([[1, 0], [0, 2]]) == ((1, 0), (0, 2))
    for rows, where in (
        ([[1.5, 0], [0, 2]], "row 0, column 0"),
        ([[1, 0], [0, True]], "row 1, column 1"),
        ([[1, "2"], [0, 2]], "row 0, column 1"),
        ([[1, 0], [None, 2]], "row 1, column 0"),
    ):
        with pytest.raises(ShapeError, match=where):
            mat(rows)
    for rows in (5, "ab", [], [[]], [1, 2], [[1, 2], [3]], {"a": [1]}):
        with pytest.raises(ShapeError):
            mat(rows)
