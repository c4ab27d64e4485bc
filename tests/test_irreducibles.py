import itertools
import random

import pytest

from premonoids import (
    DegreeTooSmallError,
    NotWeaklyPositiveError,
    PreorderRel,
    Premonoid,
    atoms,
    element_profile,
    irreducible_generating_set,
    irreducible_report,
    irreducibles,
    is_atom,
    is_irreducible,
    quarks,
    unit_orbits,
)
from premonoids.families import (
    make_remark_premonoid,
    make_zn,
    powerset_premonoid,
    zn_premonoid,
)


def brute_force_irreducible(P, a, s, strict):
    """Definitional oracle: scan all k-tuples of carrier elements."""
    if P.is_unit(a):
        return False
    n = P.monoid.n
    for k in range(2, s + 1):
        for combo in itertools.product(range(n), repeat=k):
            if any(P.is_unit(x) for x in combo):
                continue
            if strict and not all(P.lt(x, a) for x in combo):
                continue
            if P.monoid.product(combo) == a:
                return False
    return True


def test_quarks_examples():
    assert quarks(zn_premonoid(4)) == (2,)
    P, labels = powerset_premonoid(3)
    assert [labels[q] for q in quarks(P)] == [(0,), (1,), (2,)]
    total = Premonoid(make_zn(4), PreorderRel.total(4))
    assert quarks(total) == ()


def test_irreducibles_examples():
    assert irreducibles(zn_premonoid(4), 2) == (2,)
    P, labels = powerset_premonoid(2)
    assert [labels[a] for a in irreducibles(P, 2)] == [(0,), (1,)]
    rp = make_remark_premonoid(10)
    assert all(is_irreducible(rp, m) for m in range(1, 11))
    assert all(not is_atom(rp, m) for m in range(2, 11))
    assert is_atom(rp, 1)


def test_atoms_examples():
    assert atoms(zn_premonoid(4), 2) == (2,)
    P, _ = powerset_premonoid(3)
    assert atoms(P, 2) == ()
    assert sorted(atoms(zn_premonoid(9), 2)) == [3, 6]


def test_degree_validation():
    P = zn_premonoid(4)
    with pytest.raises(DegreeTooSmallError):
        irreducibles(P, 1)
    with pytest.raises(DegreeTooSmallError):
        atoms(P, 0)


def test_degree_monotonicity_and_oracle_agreement():
    rng = random.Random(21)
    from premonoids.randgen import random_premonoid

    for _ in range(25):
        P = random_premonoid(rng, max_size=5)
        for s in (2, 3):
            irr_s = set(irreducibles(P, s))
            atm_s = set(atoms(P, s))
            assert atm_s <= irr_s
            assert set(quarks(P)) <= irr_s
            for a in P.nonunits():
                assert (a in irr_s) == brute_force_irreducible(P, a, s, strict=True)
                assert (a in atm_s) == brute_force_irreducible(P, a, s, strict=False)
        assert set(irreducibles(P, 3)) <= set(irreducibles(P, 2))
        assert set(atoms(P, 3)) <= set(atoms(P, 2))


def test_strongly_positive_collapse():
    # total relation is strongly positive; irreducibles must equal atoms
    rng = random.Random(5)
    from premonoids.randgen import random_monoid

    for _ in range(20):
        m = random_monoid(rng, max_size=5)
        P = Premonoid(m, PreorderRel.total(m.n))
        if P.flags().strongly_positive:
            assert set(irreducibles(P, 2)) == set(atoms(P, 2))


def irreducible_divisors(P, x) -> tuple:
    """Irreducible divisors and atom divisors of x, as its profile gives them."""
    prof = element_profile(P, x)
    return prof.irreducible_divisors, prof.atom_divisors


def test_irreducible_divisors_zn8():
    P = zn_premonoid(8)
    irr_divs, atom_divs = irreducible_divisors(P, 0)
    assert sorted(irr_divs) == [2, 6]
    assert sorted(atom_divs) == [2, 6]
    # preorder units have no irreducible divisors in these instances
    irr_divs, atom_divs = irreducible_divisors(P, 1)
    assert irr_divs == () and atom_divs == ()


def test_irreducible_divisors_divisor_closed_invariance():
    rng = random.Random(8)
    from premonoids.randgen import random_premonoid

    for _ in range(20):
        P = random_premonoid(rng, max_size=6)
        for x in P.nonunits():
            whole = irreducible_divisors(P, x)
            view = P.divisor_closed_localization(x)
            lx = view.from_parent(x)
            local = irreducible_divisors(view, lx)
            mapped = tuple(
                tuple(view.to_parent[a] for a in part) for part in local
            )
            assert mapped == whole
            germ = P.germ_localization(x)
            gx = germ.from_parent(x)
            glocal = irreducible_divisors(germ, gx)
            gmapped = tuple(tuple(germ.to_parent[a] for a in part) for part in glocal)
            assert gmapped == whole


def test_unit_orbits_zn9():
    P = zn_premonoid(9)
    orbits = unit_orbits(P, irreducibles(P, 2))
    assert orbits == ((3, 6),)


def test_unit_orbits_need_two_sided_products():
    """3*0*3 = 1 joins the irreducibles 0 and 1, but 3*0 = 0*3 = 3 is not
    irreducible, so the equivalence generated by one-sided unit products
    a ~ u*a, a ~ a*v alone would keep them apart."""
    from premonoids import FiniteMonoid

    table = ((2, 1, 0, 3), (1, 1, 1, 1), (0, 1, 2, 3), (3, 1, 3, 1))
    P = Premonoid(FiniteMonoid(table, 2), PreorderRel(4, (3, 3, 15, 15), kind="explicit"))
    units, irr = sorted(P.units()), irreducibles(P, 2)
    assert units == [2, 3] and irr == (0, 1)
    assert P.op(P.op(3, 0), 3) == 1
    one_sided = {P.op(u, 0) for u in units} | {P.op(0, u) for u in units}
    assert one_sided & set(irr) == {0}
    assert irreducible_report(P).to_json()["orbits"] == [[0, 1]]


def test_irreducible_report_json():
    report = irreducible_report(zn_premonoid(9), degrees=(2, 3))
    data = report.to_json()
    assert data["quarks"] == [3, 6]
    assert data["irreducibles"]["2"] == [3, 6]
    assert data["atoms"]["2"] == [3, 6]
    assert data["orbits"] == [[3, 6]]
    assert set(data["irreducibles"]) == {"2", "3"}


def test_generating_set_examples():
    cert = irreducible_generating_set(zn_premonoid(4))
    assert cert.representatives == (2,)
    assert set(cert.witnesses) == {0, 2}
    for x, word in cert.witnesses.items():
        assert zn_premonoid(4).monoid.product(word) == x

    trivial = zn_premonoid(1)
    assert irreducible_generating_set(trivial).representatives == ()

    cert9 = irreducible_generating_set(zn_premonoid(9))
    assert cert9.representatives == (3,)
    assert set(cert9.alphabet) == {3, 6}


def test_generating_set_requires_weak_positivity():
    # an order with a non-unit above nothing it can be built from
    m = make_zn(4)
    rel = PreorderRel.from_pairs(4, [(1, 0), (1, 2), (1, 3)])
    P = Premonoid(m, rel)
    assert not P.flags().weakly_positive
    with pytest.raises(NotWeaklyPositiveError):
        irreducible_generating_set(P)
