import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premonoids import Premonoid, divisibility_preorder
from premonoids.factorization import factorization_alphabet, prefix_bound
from premonoids.families import powerset_premonoid, zn_premonoid
from premonoids.monoid import FiniteMonoid
from premonoids.randgen import (
    monoid_pool,
    random_monoid,
    random_premonoid,
    tiny_monoid_tables,
)
from premonoids.verify import minimal_words_by_multiset, verify_suite
from premonoids.words import mutual_rows

from brute_force import (
    brute_words,
    letter_matching,
    pairwise_minimal_words,
    random_left_duo_monoid,
)


def test_tiny_monoid_enumeration_is_exhaustive():
    tables = tiny_monoid_tables()
    assert ((0,),) in tables
    sizes = {len(t) for t in tables}
    assert sizes == {1, 2, 3}
    # brute-force recount of associative order-3 tables with identity 0
    import itertools

    count3 = 0
    for free in itertools.product(range(3), repeat=4):
        a, b, c, d = free
        t = ((0, 1, 2), (1, a, b), (2, c, d))
        if all(
            t[t[x][y]][z] == t[x][t[y][z]]
            for x in range(3)
            for y in range(3)
            for z in range(3)
        ):
            count3 += 1
    assert sum(1 for t in tables if len(t) == 3) == count3


def test_pool_members_are_valid_monoids():
    from premonoids.monoid import FiniteMonoid

    for table, identity in monoid_pool():
        FiniteMonoid(table, identity)  # validates laws


def test_random_generation_is_deterministic():
    a = [random_premonoid(random.Random(99)) for _ in range(5)]
    b = [random_premonoid(random.Random(99)) for _ in range(5)]
    for p, q in zip(a, b):
        assert p.monoid == q.monoid
        assert p.preorder == q.preorder


def test_random_monoids_validate():
    rng = random.Random(3)
    for _ in range(50):
        m = random_monoid(rng)
        assert m.n <= 6


def test_left_duo_generator():
    rng = random.Random(5)
    for _ in range(10):
        m = random_left_duo_monoid(rng)
        assert m.structure_flags().left_duo


def test_suite_green_on_builtins():
    for P in (
        zn_premonoid(1),
        zn_premonoid(4),
        zn_premonoid(8),
        zn_premonoid(9),
        powerset_premonoid(2)[0],
        powerset_premonoid(3)[0],
    ):
        results = verify_suite(P, seed=1)
        bad = [r for r in results if r.applicable and not r.passed]
        assert not bad, bad


def test_suite_green_on_seeded_random_instances():
    rng = random.Random(123)
    for i in range(12):
        P = random_premonoid(rng)
        results = verify_suite(P, seed=i)
        bad = [r for r in results if r.applicable and not r.passed]
        assert not bad, (i, bad)


def test_suite_results_serialize():
    results = verify_suite(zn_premonoid(4), seed=0)
    names = {r.name for r in results}
    assert "classification-diagram" in names
    assert "abstract-bound" in names
    assert "localization-invariance" in names
    assert "divisibility-premonoid-laws" in names
    assert "weak-positivity-consequences" in names
    for r in results:
        data = r.to_json()
        assert set(data) == {"name", "applicable", "passed", "details"}


def test_bf_iff_ff_does_not_trust_the_engine_length_sets(monkeypatch):
    """The FF side is swept independently, so a wrong length set in the
    engine makes the check fail instead of agreeing with itself."""
    import premonoids.factorization as fz
    from premonoids import LengthSet, classify
    from premonoids.verify import check_bf_iff_ff

    P = zn_premonoid(8)
    assert check_bf_iff_ff(P, classify(P)).passed
    # the powers of 2 in Z_8 have unboundedly long factorizations; claim otherwise
    monkeypatch.setattr(fz.DivisorAutomaton, "length_set", lambda self: LengthSet.of(1))
    result = check_bf_iff_ff(P, classify(P))
    assert not result.passed
    assert result.details["side"] == "factorable"


def test_suite_classifies_each_carrier_once(monkeypatch):
    """The suite classifies P once and hands the report to every check that
    reads it; a non-divisibility preorder adds no classification of the
    divisibility premonoid."""
    import premonoids.verify as vf

    real = vf.classify
    calls = []
    monkeypatch.setattr(vf, "classify", lambda P, *args: calls.append(P) or real(P, *args))
    rng = random.Random(11)
    carriers = [zn_premonoid(8)] + [random_premonoid(rng) for _ in range(12)]
    assert any(P.preorder.kind != "divisibility" for P in carriers)
    for P in carriers:
        calls.clear()
        verify_suite(P, seed=0)
        assert calls == [P]


def test_dedekind_bf_acyclic_reads_the_length_sets(monkeypatch):
    """BF is read off the divisibility length sets, so length sets that
    claim every non-unit of Z_8 is a single letter make the check fail: Z_8
    is not acyclic."""
    import premonoids.verify as vf
    from premonoids import LengthSet

    P = zn_premonoid(8)
    assert not P.monoid.structure_flags().acyclic
    assert vf.check_dedekind_bf_acyclic(P, P).passed
    monkeypatch.setattr(vf, "length_set", lambda P, x, **kw: LengthSet.of(1))
    result = vf.check_dedekind_bf_acyclic(P, P)
    assert not result.passed
    assert set(result.details["lengths"]) == set(P.nonunits())


def test_divisibility_laws_do_not_trust_the_kernel_ideal_masks(monkeypatch):
    """Weak positivity is scanned over the table, so wrong ideal masks in the
    kernel make the check fail with its own verdict. Premonoid.flags, which
    reads the same masks as the preorder's rows, finds them not transitive
    (2 <= 4 <= 0 but not 2 <= 0) and refuses to give any."""
    from premonoids import NotComputableError, Premonoid, divisibility_preorder
    from premonoids.monoid import FiniteMonoid
    from premonoids.verify import check_divisibility_premonoid_laws

    P = zn_premonoid(8)
    assert check_divisibility_premonoid_laws(P, P).passed
    # drop 0 = 0 * 2 * 1 from the ideal of 2; the units stay as they are
    wrong = tuple(m & ~1 if x == 2 else m for x, m in enumerate(P.monoid.ideal_masks()))
    monkeypatch.setattr(FiniteMonoid, "ideal_masks", lambda self: wrong)
    with pytest.raises(NotComputableError, match="not reflexive and transitive"):
        Premonoid(P.monoid, divisibility_preorder(P.monoid)).flags()
    result = check_divisibility_premonoid_laws(P, Premonoid(P.monoid, divisibility_preorder(P.monoid)))
    assert not result.passed
    assert result.details == {"weakly_positive": False}


def test_divisibility_laws_do_not_use_the_generating_pair_scan(monkeypatch):
    """The check scans every pair itself: with the kernel's generating-pair
    scan made to raise, it still passes on commutative (duo), cancellative
    and non-commutative carriers."""
    import premonoids.bitrows
    import premonoids.premonoid
    from premonoids.verify import check_divisibility_premonoid_laws

    carriers = [zn_premonoid(12), powerset_premonoid(3)[0]]
    carriers += [Premonoid(FiniteMonoid(t, e), divisibility_preorder(FiniteMonoid(t, e))) for t, e in monoid_pool()]

    def refuse(*args):
        raise AssertionError("verify called the kernel's flags scan")

    for module in (premonoids.bitrows, premonoids.premonoid):
        monkeypatch.setattr(module, "generating_pairs", refuse)
    monkeypatch.setattr(premonoids.premonoid, "scan_flags", refuse)
    for P in carriers:
        assert check_divisibility_premonoid_laws(P, Premonoid(P.monoid, divisibility_preorder(P.monoid))).passed


def test_localization_check_renames_through_to_parent(monkeypatch):
    """A view's data are renamed into the carrier through ``to_parent``, so a
    view whose map is permuted makes the check fail instead of comparing the
    view's own numbering with itself."""
    from premonoids.verify import check_localization_invariance

    P = zn_premonoid(12)
    assert check_localization_invariance(P).passed
    restrict = Premonoid.restrict

    def permuted(self, elements):
        view = restrict(self, elements)
        object.__setattr__(view, "to_parent", view.to_parent[1:] + view.to_parent[:1])
        return view

    monkeypatch.setattr(Premonoid, "restrict", permuted)
    result = check_localization_invariance(P)
    assert not result.passed
    assert result.details["view"] == "divisor-closed"


def _assert_grouping_matches_pairwise(P):
    """Same minimal words, in the same order, on each word list that
    ``check_minimal_brute_force`` searches."""
    for x in P.nonunits():
        alphabet = factorization_alphabet(P, x, "irreducibles")
        words = brute_words(P, x, prefix_bound(P, x) + 2, alphabet)
        mutual = mutual_rows(P.leq, P.monoid.n)
        assert minimal_words_by_multiset(mutual, words) == pairwise_minimal_words(P.leq, words)


def test_brute_force_walk_is_the_product_sweep(monkeypatch):
    """``check_minimal_brute_force`` walks, for every non-unit x in turn, the
    words over x's irreducibles up to two letters past the bound, and the
    walk gives the words of the ``itertools.product`` sweep, in its order."""
    import premonoids.verify as vf

    walk = vf.words_with_product
    calls = []
    monkeypatch.setattr(
        vf, "words_with_product", lambda *args: calls.append((args, walk(*args))) or calls[-1][1]
    )
    rng = random.Random(31)
    carriers = list(_pool_premonoids()) + [random_premonoid(rng) for _ in range(100)]
    swept = 0
    for P in carriers:
        calls.clear()
        result = vf.check_minimal_brute_force(P)
        if P.monoid.n > 6:
            assert not result.applicable
            continue
        assert result.passed
        assert [args[2] for args, _ in calls] == list(P.nonunits())
        for (m, alphabet, x, max_len), words in calls:
            assert m is P.monoid and alphabet == factorization_alphabet(P, x, "irreducibles")
            assert max_len == prefix_bound(P, x) + 2
            assert words == brute_words(P, x, max_len, alphabet), (P, x)
            swept += 1
    assert swept > 150


def test_brute_force_walk_at_every_length_cap():
    """The walk matches the sweep for caps 1 to 4, over every letter of the
    carrier as well as over x's irreducibles."""
    from premonoids.verify import words_with_product

    rng = random.Random(32)
    for P in list(_pool_premonoids())[:20] + [random_premonoid(rng, 6) for _ in range(20)]:
        for x in range(P.monoid.n):
            for alphabet in (tuple(range(P.monoid.n)), factorization_alphabet(P, x, "irreducibles")):
                for max_len in range(1, 5):
                    want = brute_words(P, x, max_len, alphabet)
                    assert words_with_product(P.monoid, alphabet, x, max_len) == want


def test_multiset_grouping_matches_pairwise_oracle_on_the_pool():
    tables = [(t, i) for t, i in monoid_pool() if len(t) <= 6]
    assert len(tables) > 10
    for table, identity in tables:
        m = FiniteMonoid(table, identity)
        _assert_grouping_matches_pairwise(Premonoid(m, divisibility_preorder(m)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_multiset_grouping_matches_pairwise_oracle_on_random_premonoids(seed):
    _assert_grouping_matches_pairwise(random_premonoid(random.Random(seed), 6))


def test_shuffle_oracle_does_not_trust_the_fast_path(monkeypatch):
    """The matching oracle reads the raw relation, so a fast path that
    compares letters instead of classes makes the check fail."""
    from collections import Counter

    import premonoids.words as wd
    from premonoids.verify import check_shuffle_oracle

    P = zn_premonoid(8)
    assert check_shuffle_oracle(P, random.Random(0)).passed
    # 2 and 6 are mutually divisible in Z_8, so the letters differ but the classes agree
    monkeypatch.setattr(wd, "shuffle_leq", lambda rep, u, v: not Counter(u) - Counter(v))
    result = check_shuffle_oracle(P, random.Random(0))
    assert not result.passed
    assert result.details["fast"] is False and result.details["slow"] is True


def test_minimal_brute_force_does_not_trust_the_engine(monkeypatch):
    """The minimal words are found by the literal matching over all words up
    to two past the bound, so an engine that loses a class makes the check
    fail."""
    import premonoids.verify as vf

    P = zn_premonoid(6)
    assert vf.check_minimal_brute_force(P).passed
    engine = vf.minimal_factorization_classes
    monkeypatch.setattr(vf, "minimal_factorization_classes", lambda P, x: engine(P, x)[1:])
    result = vf.check_minimal_brute_force(P)
    assert not result.passed
    assert len(result.details["brute"]) == len(result.details["engine"]) + 1


def test_minimal_brute_force_does_not_trust_the_cut(monkeypatch):
    """The check finds the minimal words itself, so a cut whose counts
    overstate one class, and so drops vectors that still lead to minimal
    ones, makes it fail on some small random carrier. (On the monoid pool
    every walk that builds its cut has found its only minimum before.)"""
    import premonoids.factorization as fz
    import premonoids.verify as vf

    carriers = [random_premonoid(random.Random(seed), 6) for seed in range(50)]
    assert all(vf.check_minimal_brute_force(P).passed for P in carriers)
    real = fz._cut

    def overstated(auto, rows, weight):
        cut = real(auto, rows, weight)
        return fz._Lazy(lambda mask: cut[mask] and (cut[mask][0], cut[mask][1] + weight[0], cut[mask][2] + 1))

    monkeypatch.setattr(fz, "_cut", overstated)
    assert not all(vf.check_minimal_brute_force(P).passed for P in carriers)


# sha256 of the stdout of ``premonoids verify`` for these arguments; the
# checks share one RNG per instance, so any change in the order or number of
# draws of any check changes these bytes
_VERIFY_DIGESTS = {
    ("verify", "--random", "12", "--seed", "3"):
        "e5432c50c42a45be72bfc02eb387e56f8aa37fdca059bf9b9f2b6a3fb427ee3d",
    ("verify", "--random", "30", "--seed", "0"):
        "a6dcf838a9fcaae8dc017968f42a6472504c1e8a5260b75d00d17b4ea9a06d70",
    ("verify", "--random", "30", "--seed", "1"):
        "86e762e62599c59bf04cc37c37f1a5fe181e91a13e8a9aab9d0ef33028fbc5d3",
    ("verify", "--random", "30", "--seed", "2"):
        "a681ada15a5baa83f0090728c9ba11acb13857e7b64acd1195665b97ac1f339a",
    ("verify", "zn:8", "zn:9", "zn:12", "--seed", "1"):
        "3ce6955f81b603549cd9d2145374e0321756b83c40272efa06c40247478e6abe",
}


@pytest.mark.parametrize("argv", sorted(_VERIFY_DIGESTS))
def test_verify_stdout_is_pinned(argv, capsys):
    from premonoids.cli import main

    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[argv]


@pytest.mark.parametrize(
    "owner, flag",
    [("premonoid", f) for f in ("preordered", "strongly_preordered", "positive", "strongly_positive", "weakly_positive")]
    + [("monoid", f) for f in ("left_duo", "right_duo")],
)
def test_flag_implications_scan_each_flag_itself(owner, flag, monkeypatch):
    """Each compatibility and duo flag is compared with the check's own scan
    of its definition, so flipping any one of them alone fails the check on
    that flag's rule, whichever way it is flipped."""
    import dataclasses

    from premonoids.verify import check_flag_implications

    for P in (zn_premonoid(8), random_premonoid(random.Random(5), 6)):
        assert check_flag_implications(P).passed
        cls, method = (Premonoid, "flags") if owner == "premonoid" else (FiniteMonoid, "structure_flags")
        real = getattr(P if owner == "premonoid" else P.monoid, method)()
        wrong = dataclasses.replace(real, **{flag: not getattr(real, flag)})
        monkeypatch.setattr(cls, method, lambda self: wrong)
        result = check_flag_implications(P)
        monkeypatch.undo()
        assert not result.passed
        assert f"{flag}-scan" in result.details["violated"]


def old_check_shuffle_oracle(P, rng):
    """``check_shuffle_oracle`` as it drew its words through ``randint`` and
    ``randrange`` and tested every pair, repeats included, against the
    matching that calls ``leq`` per letter and position."""
    import premonoids.words as wd
    from premonoids.verify import CheckResult

    name = "shuffle-oracle"
    n = P.monoid.n
    leq = P.preorder.leq
    rep = wd.class_reps(leq, range(n))
    for _ in range(300):
        u = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
        fast = wd.shuffle_leq(rep, u, v)
        slow = letter_matching(leq, u, v)
        if fast != slow:
            return CheckResult(name, True, False, {"u": u, "v": v, "fast": fast, "slow": slow})
        if fast and wd.shuffle_leq(rep, v, u) is False and not len(u) < len(v):
            return CheckResult(name, True, False, {"strict_length": (u, v)})
    return CheckResult(name, True, True, {})


def _pool_premonoids():
    for table, identity in monoid_pool():
        m = FiniteMonoid(table, identity)
        yield Premonoid(m, divisibility_preorder(m))


def _shuffle_carriers():
    rng = random.Random(23)
    return list(_pool_premonoids()) + [random_premonoid(rng) for _ in range(200)]


def test_randbelow_is_the_draw_of_randrange_and_randint():
    """``Random._randbelow``, the draw that ``check_shuffle_oracle`` writes
    out inline, gives the numbers, and leaves the state, of the public
    calls."""
    for seed in range(5):
        a, b = random.Random(seed), random.Random(seed)
        for n in range(1, 65):
            assert [a._randbelow(n) for _ in range(20)] == [b.randrange(n) for _ in range(20)]
            assert a._randbelow(6) == b.randint(0, 5)
        assert a.getstate() == b.getstate()


def test_shuffle_oracle_keeps_the_stream_and_the_verdicts():
    """Same result and same generator state after the check as with the old
    draws and no skipped pairs, on the pool and on 200 random carriers; a
    check that skipped a repeat before drawing all of it would leave another
    state, and so would change every later check of the suite."""
    from premonoids.verify import check_shuffle_oracle

    # n = 1, a power of two and its neighbours besides the pool's small n
    carriers = _shuffle_carriers() + [zn_premonoid(n) for n in (1, 12, 16, 17)]
    for index, P in enumerate(carriers):
        new_rng, old_rng = random.Random(index), random.Random(index)
        assert check_shuffle_oracle(P, new_rng) == old_check_shuffle_oracle(P, old_rng), index
        assert new_rng.getstate() == old_rng.getstate(), index


def test_shuffle_oracle_draws_the_words_of_randbelow(monkeypatch):
    """The inline ``getrandbits`` draw gives the pairs, in order, and the
    final generator state of 300 pairs drawn through ``Random._randbelow``,
    a repeated pair tested once, for every n up to 17."""
    import premonoids.words as wd
    from premonoids.verify import check_shuffle_oracle

    tested = []
    monkeypatch.setattr(wd, "shuffle_leq_matching", lambda leq, u, v: tested.append((u, v)) or True)
    monkeypatch.setattr(wd, "shuffle_leq", lambda rep, u, v: True)
    for n in range(1, 18):
        P = zn_premonoid(n)
        for seed in range(10):
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            below = want_rng._randbelow
            pairs = [
                (tuple(map(below, [n] * below(6))), tuple(map(below, [n] * below(6))))
                for _ in range(300)
            ]
            tested.clear()
            assert check_shuffle_oracle(P, got_rng).passed
            assert tested == list(dict.fromkeys(pairs)), (n, seed)
            assert got_rng.getstate() == want_rng.getstate(), (n, seed)


def test_shuffle_oracle_reports_the_first_failing_pair_as_before(monkeypatch):
    """With a fast path that compares letters instead of classes both checks
    fail on the same pair."""
    from collections import Counter

    import premonoids.words as wd
    from premonoids.verify import check_shuffle_oracle

    monkeypatch.setattr(wd, "shuffle_leq", lambda rep, u, v: not Counter(u) - Counter(v))
    failed = 0
    for index, P in enumerate(_shuffle_carriers()[:60]):
        new = check_shuffle_oracle(P, random.Random(index))
        assert new == old_check_shuffle_oracle(P, random.Random(index)), index
        failed += not new.passed
    assert failed > 5


def test_localization_check_reads_the_report_profiles():
    """The whole carrier's profiles read from ``classify(P)`` give the result
    that computing them afresh gives."""
    from premonoids import classify
    from premonoids.verify import check_localization_invariance

    for P in _pool_premonoids():
        report = classify(P)
        assert check_localization_invariance(P, report=report) == check_localization_invariance(P)


def test_profile_signature_atom_words_are_the_enumerated_atom_words():
    """When the two alphabets agree the signature reuses the words for the
    atom words; they must be the words that enumeration over atoms gives."""
    from premonoids.factorization import element_profile, enumerate_factorizations
    from premonoids.verify import _profile_signature

    kinds = set()
    carriers = list(_pool_premonoids()) + [random_premonoid(random.Random(s)) for s in range(40)]
    for P in carriers:
        for x in P.nonunits():
            prof = element_profile(P, x)
            horizon = min(prefix_bound(P, x), 5)
            atom_words = tuple(enumerate_factorizations(P, x, horizon, letters="atoms"))
            assert _profile_signature(P, prof)["atom_words"] == atom_words, (P, x)
            kinds.add(prof.atom_divisors == prof.irreducible_divisors)
    assert kinds == {True, False}


def test_localization_check_fails_on_a_wrong_view_profile(monkeypatch):
    """A view profile that differs from the whole carrier's fails the check,
    whether the whole carrier's profiles come from the report or not."""
    import dataclasses

    import premonoids.verify as vf
    from premonoids import LengthSet, classify
    from premonoids.premonoid import SubPremonoid

    P = zn_premonoid(12)
    report = classify(P)
    real = vf.element_profile

    def wrong(C, x):
        prof = real(C, x)
        return dataclasses.replace(prof, lengths=LengthSet.of(99)) if isinstance(C, SubPremonoid) else prof

    monkeypatch.setattr(vf, "element_profile", wrong)
    for result in (vf.check_localization_invariance(P, report=report), vf.check_localization_invariance(P)):
        assert not result.passed
        assert (result.details["view"], result.details["field"]) == ("divisor-closed", "lengths")
