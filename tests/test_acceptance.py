"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is either pinned from a worked example or
recomputed here by an independent oracle.
"""
import itertools
import random
import time

import pytest

from premonoids import (
    LengthSet,
    PreorderRel,
    Premonoid,
    classify,
    divisibility_preorder,
    is_atom,
    is_irreducible,
    length_set,
    minimal_factorization_classes,
)
from premonoids import atoms as atoms_of
from premonoids import irreducibles as irreducibles_of
from premonoids import quarks as quarks_of
from premonoids.factorization import factorization_alphabet, prefix_bound
from premonoids.families import (
    NumericalMonoid,
    ReducedPowerN,
    cyclic_group,
    make_product_one,
    make_remark_premonoid,
    make_zn,
    n2_premonoid,
    numerical_premonoid,
    power_premonoid_finite,
    powerset_premonoid,
    reduced_power_N_premonoid,
    zn_premonoid,
)
from premonoids.localfinite import LocalPremonoid
from premonoids.matrices import (
    diag,
    factor_multiset,
    mat,
    mat_det,
    mat_mul,
    matrix_length_set,
    snf,
)
from premonoids.monoid import FiniteMonoid
from premonoids.presentations import presentation_explore
from premonoids.randgen import random_premonoid, tiny_monoid_tables
from premonoids.verify import (
    check_abstract_bound,
    check_localization_invariance,
)
from premonoids.words import (
    class_reps,
    erdos_rado_scan,
    mutual_rows,
    shuffle_leq,
    shuffle_leq_matching,
    word_vector,
)

from brute_force import (
    brute_words,
    longest_bad_sequence,
    pairwise_minimal_words,
    product_one_by_orderings,
    random_left_duo_monoid,
    vector_leq,
)


def _passline(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {message}")


def finite_builtins():
    out = [
        ("zn:1", zn_premonoid(1)),
        ("zn:4", zn_premonoid(4)),
        ("zn:8", zn_premonoid(8)),
        ("zn:9", zn_premonoid(9)),
        ("zn:27", zn_premonoid(27)),
        ("powerset:0", powerset_premonoid(0)[0]),
        ("powerset:2", powerset_premonoid(2)[0]),
        ("powerset:3", powerset_premonoid(3)[0]),
        ("power(C2)", power_premonoid_finite(cyclic_group(2))[0]),
        ("power(C3)", power_premonoid_finite(cyclic_group(3))[0]),
    ]
    return out


def local_builtins():
    return [
        ("remarkN:8", make_remark_premonoid(8)),
        ("numerical:2,3", numerical_premonoid((2, 3), cap=20)),
        ("powerN:9", reduced_power_N_premonoid(9)),
        ("b:c2:1", LocalPremonoid(make_product_one(cyclic_group(2), (1,)))),
        ("b:c3:1,2", LocalPremonoid(make_product_one(cyclic_group(3), (1, 2)))),
        ("n2sub:4", n2_premonoid(4)),
    ]


def test_acceptance_01_prime_power_residue_suite():
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        start = time.monotonic()
        modulus = p**n
        P = zn_premonoid(modulus)
        units = P.monoid.units()
        assert len(units) == p ** (n - 1) * (p - 1), (p, n)
        expected_atoms = {(p * u) % modulus for u in units}
        assert set(atoms_of(P, 2)) == expected_atoms, (p, n)
        assert set(irreducibles_of(P, 2)) == expected_atoms, (p, n)
        assert length_set(P, 0) == LengthSet.all_from(n), (p, n)
        classes = minimal_factorization_classes(P, 0)
        assert len(classes) == 1
        vec, word = classes[0]
        assert len(word) == n and sum(m for _, m in vec) == n
        report = classify(P)
        assert report["UmF-atomic-within"] and report["UmF-atomic-literal"]
        assert not report["BF-atomic"]
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, (p, n, elapsed)
    _passline(1, "Z/p^n units, atoms, L(0), minimal classes, UmF/not-BF, each < 1 s")


def test_acceptance_02_shuffle_oracle_equivalence():
    rng = random.Random(2024)
    start = time.monotonic()
    carrier = 6
    checked = 0
    while checked < 10_000:
        matrix = [[rng.random() < 0.4 for _ in range(carrier)] for _ in range(carrier)]
        rel = PreorderRel.from_matrix(matrix)
        mutual = mutual_rows(rel.leq, carrier)
        for _ in range(50):
            u = tuple(rng.randrange(carrier) for _ in range(rng.randint(0, 7)))
            v = tuple(rng.randrange(carrier) for _ in range(rng.randint(0, 7)))
            rep = class_reps(rel.leq, u + v)
            fast = vector_leq(word_vector(u, rep), word_vector(v, rep))
            assert fast == shuffle_leq_matching(mutual, u, v), (matrix, u, v)
            assert shuffle_leq(rep, u, v) == fast, (matrix, u, v)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    _passline(2, f"fast path == matching oracle on {checked} random pairs in {elapsed:.2f} s")


def _hundred_random_premonoids():
    rng = random.Random(20240809)
    return [random_premonoid(rng, max_size=6) for _ in range(100)]


def test_acceptance_03_diagram_fuzzing():
    start = time.monotonic()
    reports = []
    for i, P in enumerate(_hundred_random_premonoids()):
        report = classify(P)
        assert report.diagram_violations() == (), (i, report.witnesses)
        reports.append(report)
    for name, P in finite_builtins():
        report = classify(P)
        assert report.diagram_violations() == (), name
    for name, LP in local_builtins():
        sample = LP.nonunit_sample()
        report = classify(LP, elements=sample)
        assert report.diagram_violations() == (), name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    _passline(3, f"zero diagram violations on 100 random + built-ins in {elapsed:.1f} s")


def test_acceptance_04_abstract_factorization_bound():
    failures = []
    for i, P in enumerate(_hundred_random_premonoids()):
        res = check_abstract_bound(P)
        if not res.passed:
            failures.append((f"random[{i}]", res.details))
    for name, P in finite_builtins():
        res = check_abstract_bound(P)
        if not res.passed:
            failures.append((name, res.details))
    for name, LP in local_builtins():
        heights = LP.heights_of(LP.nonunit_sample())
        for x, ht in heights.items():
            divs = set(LP.divisors(x))
            for s in (2, 3):
                alphabet = [a for a in LP.divisors(x) if is_irreducible(LP, a, s)]
                cap = min(s ** (ht - 1), prefix_bound(LP, x))
                layer = {LP.identity}
                hit = None
                for k in range(1, cap + 1):
                    layer = {LP.op(p, a) for p in layer for a in alphabet} & divs
                    if x in layer:
                        hit = k
                        break
                if hit is None:
                    failures.append((name, x, s))
    assert not failures, failures[:3]
    _passline(4, "every non-unit factors within the degree-height bound, zero failures")


def test_acceptance_05_localization_invariance():
    rng = random.Random(55)
    pairs = 0
    while pairs < 50:
        P = random_premonoid(rng, max_size=6)
        nonunits = P.nonunits()
        if not nonunits:
            continue
        x = nonunits[rng.randrange(len(nonunits))]
        res = check_localization_invariance(P, sample=(x,))
        assert res.passed, res.details
        pairs += 1
    _passline(5, "Z/Zm/L/Lm and irreducible-divisor sets invariant on 50 localized pairs")


def test_acceptance_06_minimal_length_certification():
    rng = random.Random(66)
    instances = [P for _, P in finite_builtins() if P.monoid.n <= 6]
    while len(instances) < 25:
        P = random_premonoid(rng, max_size=6)
        if P.monoid.n <= 6:
            instances.append(P)
    for P in instances:
        n = P.monoid.n
        for x in P.nonunits():
            alphabet = factorization_alphabet(P, x)
            words = brute_words(P, x, n + 2, alphabet)
            minimal_words = pairwise_minimal_words(P.leq, words)
            assert all(len(w) <= n - 1 for w in minimal_words), (x, minimal_words)
            rep = class_reps(P.leq, alphabet)
            brute = {word_vector(w, rep) for w in minimal_words}
            engine = {vec for vec, _ in minimal_factorization_classes(P, x)}
            assert brute == engine, (x, brute, engine)
    _passline(6, "brute force to |H|+2 confirms the certified minimal classes and bound")


def test_acceptance_07_bf_iff_ff_on_finite_carriers():
    for i, P in enumerate(_hundred_random_premonoids()):
        report = classify(P)
        assert report["BF-factorable"] == report["FF-factorable"], i
        assert report["BF-atomic"] == report["FF-atomic"], i
    for name, P in finite_builtins():
        report = classify(P)
        assert report["BF-factorable"] == report["FF-factorable"], name
        assert report["BF-atomic"] == report["FF-atomic"], name
    _passline(7, "length-automaton and vector-census finiteness verdicts agree everywhere")


def test_acceptance_08_duo_lemma():
    rng = random.Random(88)
    instances = 0
    while instances < 20:
        m = random_left_duo_monoid(rng)
        n = m.n
        for _ in range(6):
            k = rng.randint(1, 4)
            xs = [rng.randrange(n) for _ in range(k)]
            prod_ideals = frozenset({m.identity})
            for x in xs:
                prod_ideals = m.set_product(prod_ideals, m.principal_ideal(x))
            for r in range(1, k + 1):
                for sigma in itertools.combinations(range(k), r):
                    sub = m.product(tuple(xs[i] for i in sigma))
                    left_ideal = frozenset(m.table[h][sub] for h in range(n))
                    assert prod_ideals <= left_ideal, (m.table, xs, sigma)
        instances += 1
    _passline(8, "ideal-product inclusion holds on 20 left-duo instances, all increasing maps")


def test_acceptance_09_snf():
    rng = random.Random(99)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(n))
        if mat_det(a) == 0:
            continue
        result = snf(a)  # constructor re-checks every invariant
        assert mat_mul(mat_mul(result.U, mat(a)), result.V) == result.D
        assert abs(mat_det(result.U)) == 1 and abs(mat_det(result.V)) == 1
        d = result.diagonal
        assert all(d[i + 1] % d[i] == 0 for i in range(n - 1))
        done += 1
    assert snf(diag(2, 3)).diagonal == (1, 6)
    assert matrix_length_set(diag(2, 3)) == LengthSet.of(2)
    assert len(factor_multiset(6)) == 2
    _passline(9, "100 random SNFs verified; diag(2,3) -> diag(1,6); L(diag(2,3)) = {2}")


def test_acceptance_10_power_monoid():
    from premonoids.families import PowerMonoid

    bases = [FiniteMonoid(t, 0) for t in tiny_monoid_tables()]
    assert any(len(t) == 3 for t in tiny_monoid_tables())
    for base in bases:
        pm = PowerMonoid(base)
        for x in pm.sample_elements():
            assert len(pm.divisors(x)) <= 2 ** (len(x) - 1), (base.table, x)
        P, labels = power_premonoid_finite(base)
        report = classify(P)
        assert report["FmF-factorable"], base.table
        assert report.diagram_violations() == (), base.table
        assert set(irreducibles_of(P, 2)) == set(quarks_of(P)), base.table
    _passline(
        10,
        f"power premonoids of all {len(bases)} bases of size <= 3: divisor bound, FmF, irr = quarks",
    )


def test_acceptance_11_product_one_c3():
    monoid = make_product_one(cyclic_group(3), (1, 2))
    lp = LocalPremonoid(monoid)

    def product_one(ms):
        return product_one_by_orderings(lambda a, b: (a + b) % 3, 0, ms)

    # brute-force oracle: scan every multiset of support letters up to size 6
    brute_atoms = []
    for size in range(1, 7):
        for combo in itertools.combinations_with_replacement((1, 2), size):
            ms = tuple(sorted(combo))
            if not product_one(ms):
                continue
            proper_splits = False
            for k in range(1, size):
                for sub in set(itertools.combinations(ms, k)):
                    rest = list(ms)
                    for g in sub:
                        rest.remove(g)
                    if product_one(sub) and product_one(tuple(rest)):
                        proper_splits = True
            if not proper_splits:
                brute_atoms.append(ms)
    assert sorted(brute_atoms) == [(1, 1, 1), (1, 2), (2, 2, 2)]
    engine_atoms = [
        x for x in monoid.sample_elements(max_size=6) if x and is_atom(lp, x)
    ]
    assert engine_atoms == [(1, 1, 1), (1, 2), (2, 2, 2)]
    sample = monoid.sample_elements(max_size=4)
    for x in sample:
        for y in sample:
            assert monoid.op(x, y) == monoid.op(y, x)  # commutative
            for z in sample:
                if monoid.op(x, z) == monoid.op(y, z):
                    assert x == y or monoid.op(x, z) != monoid.op(y, z)
    # cancellative: multiset union cancels componentwise
    for x in sample:
        for y in sample:
            for z in sample:
                if monoid.op(x, z) == monoid.op(y, z):
                    assert x == y
    assert [u for u in sample if lp.is_unit(u)] == [()]  # reduced
    _passline(11, "product-one atoms over C3 match the brute-force oracle; flags hold")


def test_acceptance_12_higman_utilities():
    universe = [("a",) * k for k in range(4)]
    assert longest_bad_sequence(universe, ("a", "a", "a"), lambda a, b: a == b) == 4
    rng = random.Random(120)
    for trial in range(10):
        words = [
            tuple(rng.randrange(3) for _ in range(rng.randint(0, 7)))
            for _ in range(200)
        ]
        hit = erdos_rado_scan(words, lambda a, b: a == b)
        assert hit is not None, trial
        i, j, emb = hit
        assert i < j and len(emb) == len(words[i])
    _passline(12, "unary maximal bad sequence = 4; embeddings found in all 200-term runs")


def test_acceptance_13_presentation_explorer():
    report = presentation_explore("xy", [("x2", "yx2y")], 10)
    cong = report.congruence
    assert cong.class_of("xx") == cong.class_of("yxxy")
    chain = report.accp_evidence_chain
    assert len(chain) >= 3, chain
    assert report.note == "bounded evidence, not a certificate"
    _passline(13, f"x^2 merges with y x^2 y; descending evidence chain of length {len(chain)}")
