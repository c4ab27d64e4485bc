"""Exact integer-matrix arithmetic: Smith normal form, divisor classes up to
associates, and factorization length sets for nonsingular matrices.

Matrices are tuples of tuples of Python ints, so nothing here can overflow.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DetTooLargeError, ShapeError, SingularMatrixError
from .lengthset import LengthSet

Matrix = tuple


def mat(rows) -> Matrix:
    """A square, non-empty matrix of ints (not bools) as a tuple of tuples;
    anything else is a ``ShapeError`` rather than a silent conversion."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ShapeError("matrix must be a list of rows")
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ShapeError("matrix must be square and non-empty")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if type(v) is not int:
                raise ShapeError(f"matrix entry at row {i}, column {j} is not an integer: {v!r}")
    return tuple(tuple(row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def diag(*entries: int) -> Matrix:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def mat_det(a: Matrix) -> int:
    """Fraction-free Bareiss elimination; exact for integer matrices."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: Matrix) -> bool:
    return abs(mat_det(a)) == 1


# -- Smith normal form ------------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """U*A*V = D with U, V unimodular and D = diag(d1..dn), di >= 0, di | di+1.

    The constructor re-verifies every invariant, so a returned result is a
    certificate."""

    U: Matrix
    D: Matrix
    V: Matrix
    A: Matrix

    def __post_init__(self):
        n = len(self.A)
        if mat_mul(mat_mul(self.U, self.A), self.V) != self.D:
            raise AssertionError("U*A*V != D")
        if not is_unimodular(self.U) or not is_unimodular(self.V):
            raise AssertionError("transforms are not unimodular")
        for i in range(n):
            for j in range(n):
                if i != j and self.D[i][j] != 0:
                    raise AssertionError("D is not diagonal")
            if self.D[i][i] < 0:
                raise AssertionError("negative invariant factor")
        for i in range(n - 1):
            d, e = self.D[i][i], self.D[i + 1][i + 1]
            if d == 0 and e != 0:
                raise AssertionError("divisibility chain broken by a zero")
            if d != 0 and e % d != 0:
                raise AssertionError("divisibility chain broken")

    @property
    def diagonal(self) -> tuple:
        return tuple(self.D[i][i] for i in range(len(self.D)))

    def to_json(self) -> dict:
        return {
            "U": [list(r) for r in self.U],
            "D": [list(r) for r in self.D],
            "V": [list(r) for r in self.V],
        }


def snf(a: Matrix) -> SnfResult:
    """Smith normal form over the integers with tracked transforms.

    Pivot rule: smallest nonzero absolute value in the working block, ties
    broken row-major."""
    a = mat(a)
    if mat_det(a) == 0:
        raise SingularMatrixError("matrix must have nonzero determinant")
    n = len(a)
    m = [list(row) for row in a]
    u = [list(row) for row in identity_matrix(n)]
    v = [list(row) for row in identity_matrix(n)]

    def row_op(i: int, k: int, q: int) -> None:  # row_i -= q * row_k
        for j in range(n):
            m[i][j] -= q * m[k][j]
            u[i][j] -= q * u[k][j]

    def col_op(j: int, k: int, q: int) -> None:  # col_j -= q * col_k
        for i in range(n):
            m[i][j] -= q * m[i][k]
            v[i][j] -= q * v[i][k]

    for t in range(n):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    val = abs(m[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            pi, pj = pivot
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            if m[t][t] < 0:
                for j in range(n):
                    m[t][j] = -m[t][j]
                    u[t][j] = -u[t][j]
            dirty = False
            for i in range(t + 1, n):
                if m[i][t]:
                    row_op(i, t, m[i][t] // m[t][t])
                    dirty = dirty or m[i][t] != 0
            for j in range(t + 1, n):
                if m[t][j]:
                    col_op(j, t, m[t][j] // m[t][t])
                    dirty = dirty or m[t][j] != 0
            if dirty:
                continue
            # cross is clear; enforce divisibility of the rest of the block
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % m[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):  # fold the offending row in, then re-eliminate
                m[t][j] += m[offender][j]
                u[t][j] += u[offender][j]
    return SnfResult(
        U=tuple(tuple(r) for r in u),
        D=tuple(tuple(r) for r in m),
        V=tuple(tuple(r) for r in v),
        A=a,
    )


# -- prime bookkeeping ----------------------------------------------------------------

# Trial division runs to sqrt|det|; a larger |det| raises DetTooLargeError.
DET_BOUND = 10**12


def factor_multiset(value: int) -> tuple:
    """Prime factors of |value| with multiplicity, via trial division."""
    value = abs(value)
    if value > DET_BOUND:
        raise DetTooLargeError(f"|det| = {value} exceeds bound {DET_BOUND}")
    primes = []
    d = 2
    while d * d <= value:
        while value % d == 0:
            primes.append(d)
            value //= d
        d += 1 if d == 2 else 2
    if value > 1:
        primes.append(value)
    return tuple(primes)


# -- divisor classes up to associates -----------------------------------------------------


@dataclass(frozen=True)
class MatrixDivisorClasses:
    """Diagonal candidates covering every divisor of A up to associates.

    Candidates are the diagonals diag(p1..pn) built from pairwise disjoint
    sub-multisets of the prime multiset of det A; every divisor of A is a
    two-sided associate of one of them.  ``representatives`` lists one
    invariant-factor tuple per associate class among the candidates."""

    candidates: tuple
    representatives: tuple

    def to_json(self) -> dict:
        return {
            "candidates": [list(c) for c in self.candidates],
            "representatives": [list(r) for r in self.representatives],
        }


def matrix_divisor_classes(a: Matrix) -> MatrixDivisorClasses:
    a = mat(a)
    det = mat_det(a)
    if det == 0:
        raise SingularMatrixError("matrix must have nonzero determinant")
    n = len(a)
    primes = factor_multiset(det)
    distinct = sorted(set(primes))
    splits_per_prime = []
    for p in distinct:
        mult = primes.count(p)
        splits_per_prime.append(
            [
                split
                for split in itertools.product(range(mult + 1), repeat=n)
                if sum(split) <= mult
            ]
        )
    # the Smith form of a diagonal matrix takes, prime by prime, the i-th
    # smallest exponent into its i-th invariant factor
    candidates = set()
    reps = set()
    for choice in itertools.product(*splits_per_prime):
        entries = [1] * n
        factors = [1] * n
        for p, split in zip(distinct, choice):
            for i, (k, j) in enumerate(zip(split, sorted(split))):
                entries[i] *= p**k
                factors[i] *= p**j
        candidates.add(tuple(entries))
        reps.add(tuple(factors))
    return MatrixDivisorClasses(
        candidates=tuple(sorted(candidates)), representatives=tuple(sorted(reps))
    )


# -- factorization lengths ------------------------------------------------------------------
#
# det is a transfer homomorphism from the nonsingular integer matrices onto
# (N>0, *): a matrix splits into two non-units exactly when |det| is composite
# (split its Smith form), so every factorization of A into irreducibles has
# Omega(|det A|) factors (Geroldinger and Halter-Koch, Non-Unique
# Factorizations, 2006, section 3.2).


def matrix_is_irreducible(b: Matrix) -> bool:
    """No splitting B = C*D with both determinants of absolute value >= 2:
    exactly when |det B| is prime."""
    return len(factor_multiset(mat_det(mat(b)))) == 1


def matrix_length_set(a: Matrix) -> LengthSet:
    """Exact set of lengths of factorizations of A into irreducible matrices:
    {Omega(|det A|)}, and {0} for a unit."""
    a = mat(a)
    det = mat_det(a)
    if det == 0:
        raise SingularMatrixError("matrix must have nonzero determinant")
    return LengthSet.of(len(factor_multiset(det)))
