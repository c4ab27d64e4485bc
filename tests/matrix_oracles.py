"""Adjugate-based matrix oracles shared by the matrix tests.

``solve_left`` divides by the adjugate and then exactly by the determinant;
the associate search exhausts small unimodular left factors with it. No code
of the library calls these: the divisor search solves by forward
substitution, and the associate test compares Smith normal forms.
"""
import itertools

from premonoids import SingularMatrixError
from premonoids.matrices import Matrix, is_unimodular, mat_det, mat_mul, snf


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    return tuple(
        tuple(v for jj, v in enumerate(row) if jj != j)
        for ii, row in enumerate(a)
        if ii != i
    )


def adjugate(a: Matrix) -> Matrix:
    n = len(a)
    if n == 1:
        return ((1,),)
    cof = [
        [(-1) ** (i + j) * mat_det(_minor(a, i, j)) for j in range(n)] for i in range(n)
    ]
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


def exact_divide(a: Matrix, scalar: int) -> Matrix | None:
    out = []
    for row in a:
        new = []
        for v in row:
            if v % scalar:
                return None
            new.append(v // scalar)
        out.append(tuple(new))
    return tuple(out)


def solve_left(b: Matrix, a: Matrix) -> Matrix | None:
    """The integer matrix X with B*X = A, or None (B nonsingular)."""
    d = mat_det(b)
    if d == 0:
        raise SingularMatrixError("left factor is singular")
    return exact_divide(mat_mul(adjugate(b), a), d)


def associate_equivalent(b: Matrix, c: Matrix) -> bool:
    """Two-sided associate test: B = U*C*V for unimodular U, V iff the Smith
    normal forms agree."""
    return snf(b).diagonal == snf(c).diagonal


def associate_equivalent_search(b: Matrix, c: Matrix, bound: int = 2) -> bool:
    """Oracle for the associate test: exhaust unimodular U with entries in
    [-bound, bound] and solve for V exactly.  Tiny sizes only."""
    n = len(b)
    if abs(mat_det(b)) != abs(mat_det(c)):
        return False
    for entries in itertools.product(range(-bound, bound + 1), repeat=n * n):
        u = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
        if abs(mat_det(u)) != 1:
            continue
        ub = mat_mul(u, b)
        v = solve_left(ub, c)
        if v is not None and is_unimodular(v):
            return True
    return False
