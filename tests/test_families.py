import itertools
import random

import pytest

from premonoids import (
    CapExceededError,
    NotProductOneError,
    ShapeError,
    classify,
    is_atom,
    is_irreducible,
    is_quark,
    length_set,
    quarks,
)
from premonoids import irreducibles as irreducibles_of
from premonoids.families import (
    AdditiveNaturals,
    NumericalMonoid,
    PlaneSubmonoid,
    PowerMonoid,
    ReducedPowerN,
    cyclic_group,
    dihedral_mul,
    make_product_one,
    make_product_one_dihedral,
    make_remark_premonoid,
    make_zn,
    n2_premonoid,
    numerical_premonoid,
    power_premonoid,
    power_premonoid_finite,
    zn_premonoid,
)
from premonoids.localfinite import LocalPremonoid
from premonoids.monoid import FiniteMonoid

from brute_force import product_one_by_orderings


def test_make_zn_identity_convention():
    assert make_zn(1).identity == 0
    assert make_zn(5).identity == 1
    with pytest.raises(ShapeError):
        make_zn(0)


def test_zn_family_examples():
    assert sorted(make_zn(4).units()) == [1, 3]
    assert make_zn(1).n == 1
    P9 = zn_premonoid(9)
    assert sorted(a for a in range(9) if is_atom(P9, a)) == [3, 6]


# -- power monoid of a finite base ---------------------------------------------------


def test_power_monoid_c2():
    pm = PowerMonoid(cyclic_group(2))
    assert pm.sample_elements() == ((0,), (0, 1))
    assert pm.op((0, 1), (0, 1)) == (0, 1)
    assert pm.divisors((0, 1)) == ((0,), (0, 1))


def test_power_monoid_divisor_bound():
    for base in (cyclic_group(2), cyclic_group(3), make_zn(3)):
        pm = PowerMonoid(base)
        for x in pm.sample_elements():
            assert len(pm.divisors(x)) <= 2 ** (len(x) - 1)


def test_power_monoid_divisor_certificates():
    for base in (cyclic_group(3), make_zn(3)):
        pm = PowerMonoid(base)
        for x in pm.sample_elements():
            pm.check_divisor_laws(x)


def test_power_monoid_quark_not_atom():
    lp = power_premonoid(cyclic_group(2))
    full = (0, 1)
    assert is_quark(lp, full)
    assert not is_atom(lp, full)  # idempotent splits as its own square
    assert is_irreducible(lp, full)


def test_power_premonoid_finite_agrees_with_local():
    base = cyclic_group(3)
    P, labels = power_premonoid_finite(base)
    lp = power_premonoid(base)
    for idx, lab in enumerate(labels):
        assert P.is_unit(idx) == lp.is_unit(lab)
        assert is_irreducible(P, idx) == is_irreducible(lp, lab)
        assert is_atom(P, idx) == is_atom(lp, lab)
        mapped_divs = tuple(sorted(labels[d] for d in P.divisors(idx)))
        assert mapped_divs == lp.divisors(lab)


def test_power_premonoid_irreducibles_are_quarks():
    for base in (cyclic_group(2), cyclic_group(3), make_zn(3)):
        P, _ = power_premonoid_finite(base)
        assert set(irreducibles_of(P, 2)) == set(quarks(P))


def test_power_premonoid_classification():
    for base in (cyclic_group(2), cyclic_group(3)):
        report = classify(power_premonoid_finite(base)[0])
        assert report["FmF-factorable"]
        assert report.diagram_violations() == ()


def test_power_premonoid_structure_flags():
    for base in (cyclic_group(2), cyclic_group(3), make_zn(3)):
        P, _ = power_premonoid_finite(base)
        flags = P.monoid.structure_flags()
        assert flags.dedekind_finite and flags.reduced
        assert P.flags().weakly_positive


# -- reduced power monoid of the naturals --------------------------------------------


def test_reduced_power_N_setwise_sum():
    pn = ReducedPowerN(6)
    assert pn.op((0, 1), (0, 1)) == (0, 1, 2)
    assert pn.op((0, 5), (0, 4)) == (0, 4, 5, 9)
    with pytest.raises(CapExceededError):
        pn.element((0, 9))
    with pytest.raises(CapExceededError):
        ReducedPowerN(0)


def test_reduced_power_N_double_cover_identity():
    # X + [0, max X] equals (2*max X) copies of {0,1}
    pn = ReducedPowerN(20)
    rng = random.Random(2)
    for _ in range(15):
        members = {0} | {rng.randint(1, 5) for _ in range(rng.randint(0, 4))}
        x = pn.element(members)
        m = max(x)
        if m == 0:
            continue
        interval = pn.element(range(m + 1))
        lhs = pn.op(x, interval)
        step = pn.element((0, 1))
        rhs = pn.identity
        for _ in range(2 * m):
            rhs = pn.op(rhs, step)
        assert lhs == rhs


def test_reduced_power_N_pair_sets_are_atoms():
    lp = LocalPremonoid(ReducedPowerN(12))
    for a in range(1, 7):
        assert is_atom(lp, (0, a))
    assert not is_atom(lp, (0, 1, 2))  # {0,1} + {0,1}
    for x in ((0, 1), (0, 1, 2), (0, 3), (0, 2, 4)):
        lp.monoid.check_divisor_laws(x)


def test_reduced_power_N_divisor_bound():
    pn = ReducedPowerN(10)
    for x in ((0, 1), (0, 1, 2), (0, 2, 3), (0, 1, 2, 3)):
        assert len(pn.divisors(x)) <= 2 ** (len(x) - 1)


# -- product-one sequences ------------------------------------------------------------


def test_product_one_c2():
    b = make_product_one(cyclic_group(2), (1,))
    lp = LocalPremonoid(b)
    atoms_found = [x for x in b.sample_elements(max_size=4) if x and is_atom(lp, x)]
    assert atoms_found == [(1, 1)]


def test_product_one_c3_atoms():
    b = make_product_one(cyclic_group(3), (1, 2))
    lp = LocalPremonoid(b)
    atoms_found = [x for x in b.sample_elements(max_size=6) if x and is_atom(lp, x)]
    assert atoms_found == [(1, 1, 1), (1, 2), (2, 2, 2)]


def test_product_one_rejects_non_product_one():
    b = make_product_one(cyclic_group(3), (1, 2))
    with pytest.raises(NotProductOneError):
        b.element((1,))
    assert b.element((1, 2)) == (1, 2)
    with pytest.raises(ShapeError):
        make_product_one(make_zn(4), (2,))  # not a group


def test_product_one_divisors_are_product_one_complement_pairs():
    b = make_product_one(cyclic_group(3), (1, 2))
    x = (1, 1, 1, 2, 2, 2)
    divs = b.divisors(x)
    # brute-force check over all sub-multisets
    from collections import Counter

    counts = Counter(x)

    def product_one(ms):
        return product_one_by_orderings(lambda a, b: (a + b) % 3, 0, ms)

    expect = []
    for i in range(counts[1] + 1):
        for j in range(counts[2] + 1):
            sub = (1,) * i + (2,) * j
            rest = (1,) * (counts[1] - i) + (2,) * (counts[2] - j)
            if product_one(sub) and product_one(rest):
                expect.append(sub)
    assert sorted(divs) == sorted(expect)
    b.check_divisor_laws(x)


def test_product_one_c3_scrambled_divisor_example():
    b = make_product_one(cyclic_group(3), (1, 2))
    lp = LocalPremonoid(b)
    x = (1, 1, 1, 2, 2, 2)
    atom_divs = [d for d in b.divisors(x) if d and is_atom(lp, d)]
    assert atom_divs == [(1, 1, 1), (1, 2), (2, 2, 2)]


def test_dihedral_group_law():
    # (r^k s^e)(r^m s^f): s r = r^-1 s
    assert dihedral_mul((1, 0), (1, 0)) == (2, 0)
    assert dihedral_mul((0, 1), (1, 0)) == (-1, 1)
    assert dihedral_mul((0, 1), (0, 1)) == (0, 0)
    a = (3, 1)
    inv = dihedral_mul((0, 0), a)
    # every reflection squares to the identity
    assert dihedral_mul(a, a) == (0, 0)


def test_dihedral_product_one_atoms_and_division():
    b = make_product_one_dihedral()
    lp = LocalPremonoid(b)
    alpha, tau = (1, 0), (0, 1)
    u1 = b.element((alpha, alpha, tau, tau))
    for n in range(1, 5):
        un = tuple(sorted((alpha,) * (2 * n) + (tau, tau)))
        assert b.is_product_one(un)
        assert is_atom(lp, un)
        power = ()
        for _ in range(n):
            power = b.op(power, u1)
        assert un in b.divisors(power)


_S3 = list(itertools.permutations(range(3)))  # the identity first
_S3_INDEX = {p: i for i, p in enumerate(_S3)}


def _s3_mul(a: int, b: int) -> int:
    """Composition in S3 on permutation indices: first b, then a."""
    return _S3_INDEX[tuple(_S3[a][_S3[b][i]] for i in range(3))]


def _product_one_cases():
    """(name, monoid, the oracle's own group law, group identity)."""
    s3 = FiniteMonoid([[_s3_mul(a, b) for b in range(6)] for a in range(6)], 0)
    transposition, three_cycle = _S3_INDEX[(0, 2, 1)], _S3_INDEX[(1, 2, 0)]

    def dihedral(a, b):  # r^k s^e * r^m s^f = r^(k +- m) s^(e + f)
        return (a[0] + (-b[0] if a[1] else b[0]), (a[1] + b[1]) % 2)

    return [
        ("C3", make_product_one(cyclic_group(3), (1, 2)), lambda a, b: (a + b) % 3, 0),
        ("C4", make_product_one(cyclic_group(4), (1, 2, 3)), lambda a, b: (a + b) % 4, 0),
        ("Dinf", make_product_one_dihedral(), dihedral, (0, 0)),
        ("S3", make_product_one(s3, (transposition, three_cycle)), _s3_mul, 0),
    ]


@pytest.mark.parametrize("case", _product_one_cases(), ids=lambda c: c[0])
def test_product_one_table_matches_all_orderings(case):
    """Every multiset of at most five support letters: product-one, its
    divisors (sub-multisets splitting it into two product-one parts) and the
    sample, all against trying every ordering."""
    _, monoid, mul, one = case
    oracle = {}

    def product_one(ms):
        if ms not in oracle:
            oracle[ms] = product_one_by_orderings(mul, one, ms)
        return oracle[ms]

    members = []
    for size in range(6):
        for ms in itertools.combinations_with_replacement(monoid.support, size):
            assert monoid.is_product_one(ms) == product_one(ms), ms
            if product_one(ms):
                members.append(ms)
    assert monoid.sample_elements(max_size=5) == tuple(sorted(members))
    for x in members:
        expect = set()
        for r in range(len(x) + 1):
            for d in itertools.combinations(x, r):
                rest = list(x)
                for g in d:
                    rest.remove(g)
                if product_one(d) and product_one(tuple(rest)):
                    expect.add(d)
        assert monoid.divisors(x) == tuple(sorted(expect)), x


def test_product_one_needs_every_last_letter():
    """In S3 the transposition t and the 3-cycle c give t*c*t*c = 1 but
    c*c*t*t = c^2: product-one depends on the order, not only the counts."""
    _, monoid, mul, one = _product_one_cases()[-1]
    t, c = monoid.support
    assert monoid.is_product_one((t, t, c, c))
    assert mul(mul(mul(c, c), t), t) != one


# -- the zero-versus-positive order on the naturals ------------------------------------


def test_remark_premonoid_classification_flags():
    P = make_remark_premonoid(9)
    assert P.is_unit(0) and not P.is_unit(1)
    assert [m for m in range(1, 10) if is_quark(P, m)] == list(range(1, 10))
    assert [m for m in range(1, 10) if is_atom(P, m)] == [1]
    report = classify(P, elements=range(1, 8))
    assert report["FF-factorable"] and not report["UF-factorable"]
    assert report["UF-atomic"]
    assert report.diagram_violations() == ()


def test_additive_naturals_divisors():
    nat = AdditiveNaturals(10)
    assert nat.divisors(4) == (0, 1, 2, 3, 4)
    nat.check_divisor_laws(5)


# -- plane submonoid -------------------------------------------------------------------


def test_n2_membership_oracle():
    n2 = PlaneSubmonoid(5)
    assert n2.contains((0, 0))
    assert n2.contains((1, 1)) and n2.contains((1, 5))
    assert not n2.contains((1, 0)) and not n2.contains((0, 1))
    assert n2.contains((2, 2))  # (1,1) + (1,1)


def test_n2_diagonal_identity():
    # every multiple of (1,1) splits into a pair of extreme generators, so the
    # divisor-closed closure of (1,1) keeps swallowing new generators
    n2 = PlaneSubmonoid(6)
    for m in range(2, 8):
        total = (0, 0)
        for _ in range(m):
            total = n2.op(total, (1, 1))
        assert total == n2.op((1, m - 1), (m - 1, 1))
        assert (1, m - 1) in n2.divisors(total)


def test_n2_atom_count_growth():
    n2 = PlaneSubmonoid(6)
    lp = n2_premonoid(6)

    def atoms_dividing(v):
        return [d for d in n2.divisors(v) if d != (0, 0) and is_atom(lp, d)]

    counts = [len(atoms_dividing((n, n))) for n in (1, 2, 3, 4)]
    assert counts == sorted(counts) and counts[-1] > counts[0]
    n2.check_divisor_laws((2, 2))


def test_n2_atoms_are_the_generators():
    lp = n2_premonoid(4)
    n2 = lp.monoid
    for g in n2.generators:
        assert is_atom(lp, g)
    assert not is_atom(lp, (2, 2))


# -- numerical monoids ------------------------------------------------------------------


def test_numerical_23():
    nm = NumericalMonoid((2, 3))
    lp = numerical_premonoid((2, 3))
    assert [x for x in nm.sample_elements() if 0 < x <= 12 and is_atom(lp, x)] == [2, 3]
    assert length_set(lp, 7) == __import__("premonoids").LengthSet.of(3)
    assert nm.divisors(0) == (0,)
    assert lp.is_unit(0)
    nm.check_divisor_laws(7)


def test_numerical_classification_ff_atomic():
    lp = numerical_premonoid((2, 3), cap=24)
    sample = tuple(x for x in lp.nonunit_sample() if x <= 20)
    report = classify(lp, elements=sample)
    assert report["FF-atomic"] and report["FF-factorable"]
    assert report["BF-atomic"]
    assert report.diagram_violations() == ()


def test_numerical_structure_is_acyclic_like():
    # unit-cancellative + commutative: irreducibles, atoms and quarks coincide
    lp = numerical_premonoid((3, 5))
    for x in lp.monoid.sample_elements():
        if 0 < x <= 20:
            assert is_atom(lp, x) == is_irreducible(lp, x) == is_quark(lp, x)


# -- membership against the literal recursive definition --------------------------------


def recursive_member(generators, x, memo) -> bool:
    """x is the identity, or x minus some generator is a member; points are
    ints or pairs, compared coordinatewise."""
    if x not in memo:
        coords = x if isinstance(x, tuple) else (x,)
        memo[x] = not any(coords) or any(
            recursive_member(generators, _minus(x, g), memo)
            for g in generators
            if all(c >= d for c, d in zip(coords, g if isinstance(g, tuple) else (g,)))
        )
    return memo[x]


def _minus(x, g):
    return tuple(c - d for c, d in zip(x, g)) if isinstance(x, tuple) else x - g


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (4, 6), (1,), (6, 10, 15), (5, 8), (7,)])
def test_numerical_membership_matches_the_recursive_definition(gens):
    memo: dict = {}
    fresh = NumericalMonoid(gens)
    for x in range(-3, 90):
        expected = x >= 0 and recursive_member(gens, x, memo)
        assert fresh.contains(x) == expected, x
    # the memo is filled bottom-up, so asking the largest first agrees too
    descending = NumericalMonoid(gens)
    assert [descending.contains(x) for x in range(89, -4, -1)] == [
        fresh.contains(x) for x in range(89, -4, -1)
    ]


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_n2_membership_matches_the_recursive_definition(bound):
    n2 = PlaneSubmonoid(bound)
    memo: dict = {}
    for a, b in itertools.product(range(-2, 22), repeat=2):
        expected = a >= 0 and b >= 0 and recursive_member(n2.generators, (a, b), memo)
        assert n2.contains((a, b)) == expected, (a, b)


def test_membership_of_far_elements_does_not_recurse():
    assert NumericalMonoid((2, 3)).contains(100000)
    assert not NumericalMonoid((4, 6)).contains(100001)
    assert PlaneSubmonoid(3).contains((400, 400))
    assert not PlaneSubmonoid(3).contains((400, 1300))
