import random

import pytest

from premonoids import NotComputableError, Premonoid, divisibility_preorder, is_atom, is_irreducible
from premonoids.cli import load_instance
from premonoids.families import (
    NumericalMonoid,
    ReducedPowerN,
    cyclic_group,
    make_product_one,
    make_remark_premonoid,
    power_premonoid,
    zn_premonoid,
)
from premonoids.localfinite import LocallyFiniteMonoid, LocalPremonoid, RuleOrderPremonoid
from premonoids.monoid import FiniteMonoid
from premonoids.randgen import monoid_pool, random_premonoid


def all_local_premonoids():
    return [
        power_premonoid(cyclic_group(2)),
        power_premonoid(cyclic_group(3)),
        LocalPremonoid(ReducedPowerN(9)),
        LocalPremonoid(NumericalMonoid((2, 3))),
        LocalPremonoid(make_product_one(cyclic_group(3), (1, 2))),
        make_remark_premonoid(8),
    ]


def test_divisor_certificates_across_families():
    for lp in all_local_premonoids():
        for x in lp.monoid.sample_elements()[:10]:
            lp.monoid.check_divisor_laws(x)


def test_identity_and_self_membership():
    for lp in all_local_premonoids():
        for x in lp.monoid.sample_elements()[:10]:
            divs = lp.divisors(x)
            assert lp.identity in divs and x in divs


def test_prefix_products_of_factorizations_divide_the_target():
    # random words over non-unit divisors: whenever the full product comes
    # back to x, every prefix must be a divisor of x
    rng = random.Random(13)
    for lp in all_local_premonoids():
        for x in lp.monoid.sample_elements()[:8]:
            divs = [d for d in lp.divisors(x) if not lp.is_unit(d)]
            if not divs:
                continue
            for _ in range(40):
                word = [rng.choice(divs) for _ in range(rng.randint(1, 3))]
                prefixes = []
                p = lp.identity
                for a in word:
                    p = lp.op(p, a)
                    prefixes.append(p)
                if p == x:
                    assert all(q in set(lp.divisors(x)) for q in prefixes)


def test_units_are_detected_locally():
    lp = LocalPremonoid(NumericalMonoid((2, 3)))
    assert lp.is_unit(0) and not lp.is_unit(2)
    rp = make_remark_premonoid(5)
    assert rp.is_unit(0) and not rp.is_unit(1)


def test_local_divisibility_leq_matches_divisor_sets():
    lp = power_premonoid(cyclic_group(2))
    full, unit = (0, 1), (0,)
    assert lp.leq(unit, full) and not lp.leq(full, unit)
    assert lp.leq(full, full)


def test_bounded_flags_on_divisibility_families():
    lp = LocalPremonoid(NumericalMonoid((2, 3)))
    flags = lp.bounded_flags([x for x in lp.monoid.sample_elements() if x <= 8])
    assert flags.preordered and flags.positive and flags.weakly_positive
    assert flags.strongly_positive  # commutative + cancellative + reduced
    assert flags.artinian and flags.strongly_artinian
    assert flags.method.startswith("bounded")


def test_degree_predicates_work_locally():
    lp = LocalPremonoid(NumericalMonoid((2, 3)))
    assert is_atom(lp, 2) and is_atom(lp, 3)
    assert not is_atom(lp, 4)
    assert is_irreducible(lp, 2, 3) and not is_irreducible(lp, 6, 3)


COMPATIBILITY = ("preordered", "strongly_preordered", "positive", "strongly_positive", "weakly_positive")


def oracle_bounded_flags(lp, sample) -> dict:
    """The compatibility verdicts of ``LocalPremonoid.bounded_flags`` as it
    computed them before generating pairs: every pair x <= y of the sample
    against every sandwich u * _ * v, and weak positivity over products
    computed afresh."""
    sample = tuple(sample)
    leq, lt, op, e = lp.leq, lp.lt, lp.op, lp.identity
    pairs = [(x, y) for x in sample for y in sample if leq(x, y) and x != y]
    preordered = all(
        leq(op(op(u, x), v), op(op(u, y), v)) for x, y in pairs for u in sample for v in sample
    )
    strongly_preordered = preordered and all(
        lt(op(op(u, x), v), op(op(u, y), v))
        for x, y in pairs
        if lt(x, y)
        for u in sample
        for v in sample
    )
    identity_below = all(leq(e, y) for y in sample)
    units = [u for u in sample if lp.is_unit(u)]
    weakly_positive = all(
        leq(op(op(u, x), v), x) for x in sample for u in units for v in units
    ) and all(leq(x, op(op(a, x), b)) for x in sample for a in sample for b in sample)
    return {
        "preordered": preordered,
        "strongly_preordered": strongly_preordered,
        "positive": preordered and identity_below,
        "strongly_positive": strongly_preordered and identity_below,
        "weakly_positive": weakly_positive,
    }


# every lazily presented family that the benchmark's job lists load
BENCH_LOCAL_SPECS = (
    "numerical:3,5,7",
    "numerical:5,7,9,11",
    "n2sub:4",
    "n2sub:5",
    "b:c3:1,2",
    "b:c4:1,2,3",
    "b:dinf:",
    "powerN:8",
    "remarkN:20",
)


@pytest.mark.parametrize("spec", BENCH_LOCAL_SPECS)
def test_bounded_flags_match_all_pairs_oracle(spec):
    instance = load_instance(spec)
    assert instance.kind == "local"
    sample = instance.payload.monoid.sample_elements()
    for size in range(4, 13):
        # fresh carriers, so the two share no divisor cache
        flags = load_instance(spec).payload.bounded_flags(sample[:size]).to_json()
        expected = oracle_bounded_flags(load_instance(spec).payload, sample[:size])
        assert {k: flags[k] for k in COMPATIBILITY} == expected, size


class TableMonoid(LocallyFiniteMonoid):
    """A finite table presented lazily: products and divisors read off it."""

    def __init__(self, monoid: FiniteMonoid):
        self.finite = monoid
        self.identity = monoid.identity

    def op(self, x, y):
        return self.finite.table[x][y]

    def divisors(self, x) -> tuple:
        return self.finite.divisors(x)


def sandwich_carriers() -> list:
    carriers = [Premonoid(FiniteMonoid(t, e), divisibility_preorder(FiniteMonoid(t, e))) for t, e in monoid_pool()]
    carriers += [zn_premonoid(n) for n in (8, 9, 12)]
    rng = random.Random(5)
    return carriers + [random_premonoid(rng) for _ in range(300)]


def test_one_sided_flags_match_a_whole_carrier_sandwich_scan():
    """``Premonoid.flags`` scans left and right multiplications only; the
    bounded scan of the same table, sampled whole, scans every sandwich
    u * _ * v. The two must give the same five verdicts."""
    for i, P in enumerate(sandwich_carriers()):
        lazy = RuleOrderPremonoid(TableMonoid(P.monoid), order=P.leq, strict_lower=P.strictly_below)
        bounded = lazy.bounded_flags(range(P.monoid.n)).to_json()
        finite = P.flags().to_json()
        assert {k: bounded[k] for k in COMPATIBILITY} == {k: finite[k] for k in COMPATIBILITY}, i


def test_non_transitive_rule_order_is_refused():
    """Within distance 2 is reflexive but not transitive (0 ~ 2 ~ 4, not
    0 ~ 4): the generating pairs cannot stand for it, so the scan refuses
    instead of giving a verdict."""
    lp = RuleOrderPremonoid(
        NumericalMonoid((2, 3)),
        order=lambda a, b: abs(a - b) <= 2,
        strict_lower=lambda x: (),
    )
    with pytest.raises(NotComputableError, match="not reflexive and transitive"):
        lp.bounded_flags((0, 2, 4))
    assert lp.bounded_flags((0, 2)).method.startswith("bounded")


def test_non_reflexive_rule_order_is_refused():
    lp = RuleOrderPremonoid(
        NumericalMonoid((2, 3)), order=lambda a, b: a < b, strict_lower=lambda x: ()
    )
    with pytest.raises(NotComputableError, match="not reflexive and transitive"):
        lp.bounded_flags((0, 2, 3))
