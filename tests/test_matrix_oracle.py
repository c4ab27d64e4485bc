"""Matrix irreducibility and length sets from the determinant against a
brute-force search that does not assume the prime-determinant theorem.

The oracles enumerate every canonical lower-triangular form of every divisor
determinant, decide its irreducibility before it is known to divide, and
divide through ``matrix_oracles.solve_left`` (the adjugate, then exact
division by the determinant). Divisors come from a scan of
``range(1, value + 1)``. They share nothing with the program but ``mat``,
``mat_det``, ``solve_left`` and ``factor_multiset`` (for ``DET_BOUND``).
The oracle costs about |det|^2 forms on 3x3 matrices, so the 3x3 sweep stops
at |det| <= 64.
"""
import itertools
import sys
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from premonoids import LengthSet, SingularMatrixError
from premonoids.matrices import (
    factor_multiset,
    mat,
    mat_det,
    matrix_is_irreducible,
    matrix_length_set,
)

from matrix_oracles import solve_left

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import MATRIX_BASES  # noqa: E402


def oracle_ordered_factorizations(value: int, slots: int):
    """All tuples of positive ints of the given length with the given product."""
    if slots == 1:
        yield (value,)
        return
    for d in range(1, value + 1):
        if value % d == 0:
            for rest in oracle_ordered_factorizations(value // d, slots - 1):
                yield (d,) + rest


def oracle_lower_triangular_forms(n: int, det: int):
    """Lower-triangular matrices with positive diagonal of the given product
    and below-diagonal entries reduced modulo the row's diagonal entry.

    Every right-associate class of a nonsingular integer matrix contains
    exactly one such form, so scanning them scans all left divisors up to
    right association."""
    for diagonal in oracle_ordered_factorizations(det, n):
        below_positions = [(i, j) for i in range(n) for j in range(i)]
        ranges = [range(diagonal[i]) for i, _ in below_positions]
        for values in itertools.product(*ranges):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diagonal[i]
            for (i, j), val in zip(below_positions, values):
                rows[i][j] = val
            yield tuple(tuple(r) for r in rows)


def oracle_positive_divisors(value: int) -> tuple:
    return tuple(d for d in range(1, value + 1) if value % d == 0)


def oracle_matrix_is_irreducible(b) -> bool:
    """No splitting B = C*D with both determinants of absolute value >= 2."""
    b = mat(b)
    det = abs(mat_det(b))
    if det <= 1:
        return False
    n = len(b)
    for d in oracle_positive_divisors(det):
        if d < 2 or d > det // 2:
            continue
        for t in oracle_lower_triangular_forms(n, d):
            if solve_left(t, b) is not None:
                return False
    return True


def oracle_matrix_length_set(a) -> LengthSet:
    """Exact set of lengths of factorizations of A into irreducible matrices.

    Peels irreducible left divisors in canonical lower-triangular form and
    recurses on the exact quotient; any factorization can be rotated into
    this shape step by step without changing its length."""
    a = mat(a)
    det = mat_det(a)
    if det == 0:
        raise SingularMatrixError("matrix must have nonzero determinant")
    factor_multiset(det)  # enforce the bound before recursing
    n = len(a)
    memo: dict = {}

    def rec(m) -> frozenset:
        got = memo.get(m)
        if got is not None:
            return got
        dm = abs(mat_det(m))
        if dm == 1:
            memo[m] = frozenset({0})
            return memo[m]
        out = set()
        for d in oracle_positive_divisors(dm):
            if d < 2:
                continue
            for t in oracle_lower_triangular_forms(n, d):
                if not oracle_matrix_is_irreducible(t):
                    continue
                q = solve_left(t, m)
                if q is not None:
                    out |= {1 + l for l in rec(q)}
        memo[m] = frozenset(out)
        return memo[m]

    return LengthSet.make(rec(a))


def square_matrices(n: int, low: int, high: int):
    row = st.tuples(*[st.integers(low, high)] * n)
    return st.tuples(*[row] * n)


def assert_engine_matches_oracle(a) -> None:
    assert matrix_is_irreducible(a) == oracle_matrix_is_irreducible(a), a
    assert matrix_length_set(a) == oracle_matrix_length_set(a), a


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: square_matrices(n, -9, 9)))
def test_search_matches_oracle_up_to_2x2(a):
    assume(0 < abs(mat_det(a)) <= 64)
    assert_engine_matches_oracle(a)


@settings(max_examples=15, deadline=None)
@given(square_matrices(3, -3, 3))
def test_search_matches_oracle_on_3x3(a):
    assume(0 < abs(mat_det(a)) <= 64)
    assert_engine_matches_oracle(a)


def test_search_matches_oracle_on_benchmark_matrices():
    for base in MATRIX_BASES.values():
        assert_engine_matches_oracle(base)
