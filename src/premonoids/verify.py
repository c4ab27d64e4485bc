"""Executable checks of the structural theorems on concrete instances.

Each check runs an independent computation of both sides of a theorem
statement and compares; a failure means an implementation bug (never a
tolerable outcome) and carries a counterexample payload. ``verify_suite``
runs the checks of a finite premonoid; ``verify_local``, ``verify_matrix``
and ``verify_presentation`` those of the other instance kinds.
"""
from __future__ import annotations

import itertools as it
import random
from dataclasses import dataclass, field

from . import matrices as mx
from . import words as wd
from .errors import PremonoidsError
from .irreducibles import (
    atoms as atoms_of,
    irreducibles as irreducibles_of,
    is_irreducible,
    quarks as quarks_of,
)
from .factorization import (
    classify,
    element_profile,
    enumerate_factorizations,
    factorization_alphabet,
    length_set,
    minimal_factorization_classes,
    prefix_bound,
)
from .monoid import FiniteMonoid
from .premonoid import Premonoid
from .preorder import PreorderRel, divisibility_preorder, phi_preorder
from .presentations import presentation_explore
from .randgen import relabel


@dataclass
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "details": self.details,
        }


def _ok(name: str, **details) -> CheckResult:
    return CheckResult(name, True, True, details)


def _fail(name: str, **details) -> CheckResult:
    return CheckResult(name, True, False, details)


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, False, True, {"skipped": why})


def check_preorder_laws(P: Premonoid) -> CheckResult:
    name = "preorder-laws"
    rel = P.preorder
    n = rel.n
    for a in range(n):
        if not rel.leq(a, a):
            return _fail(name, reflexivity=a)
    for a in range(n):
        for b in range(n):
            if rel.leq(a, b):
                for c in range(n):
                    if rel.leq(b, c) and not rel.leq(a, c):
                        return _fail(name, transitivity=(a, b, c))
    if not rel.strict_is_acyclic():
        return _fail(name, strict_cycle=True)
    heights = P.heights()
    units = P.units()
    for x in range(n):
        for y in range(n):
            if x not in units and y not in units and rel.lt(y, x):
                if not heights[y] < heights[x]:
                    return _fail(name, height_monotonicity=(y, x))
    return _ok(name)


def check_flag_implications(P: Premonoid) -> CheckResult:
    """The compatibility and duo flags against this module's scans of their
    definitions, then implications between flags that are computed apart."""
    name = "flag-implications"
    f = P.flags()
    m, rel, carrier = P.monoid, P.preorder, range(P.monoid.n)
    s = m.structure_flags()
    preordered = _scan_compatible(m, rel, strict=False)
    strongly = preordered and _scan_compatible(m, rel, strict=True)
    bottom = all(rel.leq(m.identity, x) for x in carrier)  # 1 <= x
    left = [m.set_product(carrier, (a,)) for a in carrier]  # the ideals Sa
    right = [m.set_product((a,), carrier) for a in carrier]  # and aS
    rules = [
        ("preordered-scan", f.preordered == preordered),
        ("strongly_preordered-scan", f.strongly_preordered == strongly),
        ("positive-scan", f.positive == (preordered and bottom)),
        ("strongly_positive-scan", f.strongly_positive == (strongly and bottom)),
        ("weakly_positive-scan", f.weakly_positive == _scan_weakly_positive(m, rel)),
        ("left_duo-scan", s.left_duo == all(map(frozenset.issubset, right, left))),
        ("right_duo-scan", s.right_duo == all(map(frozenset.issubset, left, right))),
        ("strongly_positive->weakly_positive", not f.strongly_positive or f.weakly_positive),
        ("positive->weakly_positive", not f.positive or f.weakly_positive),
        ("acyclic->unit_cancellative", not s.acyclic or s.unit_cancellative),
        ("unit_cancellative->dedekind", not s.unit_cancellative or s.dedekind_finite),
        ("left_duo->dedekind", not s.left_duo or s.dedekind_finite),
        ("finite->dedekind", s.dedekind_finite),
    ]
    bad = [label for label, holds in rules if not holds]
    return _ok(name) if not bad else _fail(name, violated=bad)


def _scan_weakly_positive(m, rel) -> bool:
    """Weak positivity by its defining two-sided scan over the table:
    (ux)v <= x for preorder units u, v, and x <= (ax)b for all a, b. Shares
    no code with ``Premonoid.flags``, which reads the monoid's ideal masks,
    the very rows of the divisibility preorder."""
    t, leq, n = m.table, rel.leq, m.n
    units = [u for u in range(n) if rel.equiv(u, m.identity)]
    return all(
        leq(t[t[u][x]][v], x) for x in range(n) for u in units for v in units
    ) and all(leq(x, t[t[a][x]][b]) for x in range(n) for a in range(n) for b in range(n))


def _scan_quarks_and_irreducibles(m, rel) -> tuple[set, set]:
    """The quarks (non-units with no non-unit strictly below them) and the
    degree-2 irreducibles (non-units that are no product yz of non-units y, z
    strictly below yz), by their defining scans over the relation and the
    table. Shares no code with ``irreducibles.py``, which reads the carrier's
    ``strictly_below``."""
    t, lt = m.table, rel.lt
    nonunits = [x for x in range(m.n) if not rel.equiv(x, m.identity)]
    quarks = {x for x in nonunits if not any(lt(y, x) for y in nonunits)}
    products = {t[y][z] for y in nonunits for z in nonunits if lt(y, t[y][z]) and lt(z, t[y][z])}
    return quarks, set(nonunits) - products


def _scan_compatible(m, rel, strict: bool) -> bool:
    """ux <= uy and xu <= yu over all u and every pair x <= y, or ux < uy and
    xu < yu over every x < y when ``strict``. Shares no code with
    ``Premonoid.flags``, which scans only a generating set of pairs."""
    t, rows, n = m.table, rel.rows, m.n
    columns = tuple(zip(*t))

    def holds(a, b) -> bool:
        return rows[a] >> b & 1 and not (strict and rows[b] >> a & 1)

    return all(
        all(map(holds, t[x], t[y])) and all(map(holds, columns[x], columns[y]))
        for x in range(n)
        for y in range(n)
        if x != y and holds(x, y)
    )


def check_divisibility_premonoid_laws(P: Premonoid, dp: Premonoid) -> CheckResult:
    """Laws tying the monoid structure to its divisibility premonoid: on a
    finite carrier the monoid is Dedekind-finite, so divisibility units are
    the ordinary units and weak positivity always holds; a one-sided duo law
    upgrades that to positivity, and commutativity plus unit-cancellativity
    to strong positivity."""
    name = "divisibility-premonoid-laws"
    m = P.monoid
    if dp.units() != m.units():
        return _fail(name, div_units=sorted(dp.units()), units=sorted(m.units()))
    if not _scan_weakly_positive(m, dp.preorder):
        return _fail(name, weakly_positive=False)
    # the identity divides everything, so positive means preordered here;
    # a commutative monoid is duo, so the strict scan follows the plain one
    s = m.structure_flags()
    if (s.left_duo or s.right_duo) and not _scan_compatible(m, dp.preorder, strict=False):
        return _fail(name, duo_but_not_positive=True)
    if s.commutative and s.unit_cancellative and not _scan_compatible(m, dp.preorder, strict=True):
        return _fail(name, commutative_unit_cancellative_but_not_strongly_positive=True)
    return _ok(name)


def check_weak_positivity_consequences(P: Premonoid, rng: random.Random) -> CheckResult:
    """When the instance is weakly positive: preorder units multiply to
    preorder units, non-units absorb two-sided products, and restrictions to
    generated submonoids stay weakly positive."""
    name = "weak-positivity-consequences"
    if not P.flags().weakly_positive:
        return _skip(name, "instance is not weakly positive")
    m = P.monoid
    units = P.units()
    for u in units:
        for v in units:
            if m.table[u][v] not in units:
                return _fail(name, units_not_closed=(u, v))
    for x in range(m.n):
        if x in units:
            continue
        for a in range(m.n):
            for b in range(m.n):
                if m.table[m.table[a][x]][b] in units:
                    return _fail(name, nonunit_ideal=(a, x, b))
    for _ in range(5):
        seed = [y for y in range(m.n) if rng.random() < 0.4]
        view = P.restrict(m.generated_submonoid(seed))
        if not view.flags().weakly_positive:
            return _fail(name, restriction=sorted(view.to_parent))
    return _ok(name)


def check_irreducible_structure(P: Premonoid) -> CheckResult:
    name = "irreducible-structure"
    qs, irr2 = _scan_quarks_and_irreducibles(P.monoid, P.preorder)
    prev_irr = prev_atoms = None
    for s in (2, 3, 4):
        irs = set(irreducibles_of(P, s))
        ats = set(atoms_of(P, s))
        if s == 2 and irs != irr2:
            return _fail(name, irreducibles_not_by_definition=sorted(irs ^ irr2))
        if not ats <= irs:
            return _fail(name, atoms_not_irreducible=(s, sorted(ats - irs)))
        if not qs <= irs:
            return _fail(name, quarks_not_irreducible=(s, sorted(qs - irs)))
        if prev_irr is not None and not irs <= prev_irr:
            return _fail(name, irreducible_monotonicity=s)
        if prev_atoms is not None and not ats <= prev_atoms:
            return _fail(name, atom_monotonicity=s)
        prev_irr, prev_atoms = irs, ats
    if P.flags().strongly_positive:
        if set(irreducibles_of(P, 2)) != set(atoms_of(P, 2)):
            return _fail(name, strongly_positive_collapse=False)
    return _ok(name)


def check_classification_diagram(P: Premonoid, report) -> CheckResult:
    name = "classification-diagram"
    violations = report.diagram_violations()
    if violations:
        return _fail(name, violations=list(violations), witnesses=report.witnesses)
    return _ok(name)


def _sweep_class_count(P, x, alphabet) -> int | None:
    """Number of class vectors realized by factorizations of x over the
    alphabet, or None when infinitely many are, by a direct sweep of vector
    levels that shares no code with the engine's census.

    A factorization longer than the distinct-prefix bound exists iff one
    exists with length in (bound, 2*bound + 1]: repeatedly excising a
    repeated-prefix segment (of length at most bound + 1) from any long
    factorization must at some point step from above the bound to at most it.
    """
    rep = wd.class_reps(P.leq, alphabet)
    allowed = frozenset(P.divisors(x))
    bound = prefix_bound(P, x)
    level = {(): frozenset({P.identity})}
    realized = set()
    for k in range(1, 2 * bound + 2):
        nxt: dict = {}
        for vec, prods in level.items():
            for a in alphabet:
                extended = frozenset(P.op(p, a) for p in prods) & allowed
                if extended:
                    counts = dict(vec)
                    counts[rep[a]] = counts.get(rep[a], 0) + 1
                    key = tuple(sorted(counts.items()))
                    nxt[key] = nxt.get(key, frozenset()) | extended
        for vec, prods in nxt.items():
            if x in prods:
                if k > bound:
                    return None
                realized.add(vec)
        level = nxt
    return len(realized)


def check_bf_iff_ff(P: Premonoid, report) -> CheckResult:
    """On a finite carrier the two finiteness readings must agree: the BF
    flags come from the engine's length sets, the FF side from a direct sweep
    of class vectors out to twice the distinct-prefix bound."""
    name = "bf-iff-ff"
    for side, letters in (("factorable", "irreducibles"), ("atomic", "atoms")):
        # per element, FF means finitely many classes and at least one
        swept_ff = all(
            _sweep_class_count(P, x, factorization_alphabet(P, x, letters))
            for x in P.nonunits()
        )
        if report[f"BF-{side}"] != swept_ff:
            return _fail(name, side=side, flags=dict(report.flags))
    return _ok(name)


def check_abstract_bound(P: Premonoid) -> CheckResult:
    """Every non-unit factors into at most s^(height-1) irreducibles of
    degree s, found by bounded layered search."""
    name = "abstract-bound"
    heights = P.heights()
    for x in P.nonunits():
        divs = set(P.divisors(x))
        for s in (2, 3):
            alphabet = tuple(a for a in P.divisors(x) if is_irreducible(P, a, s))
            bound = s ** (heights[x] - 1)
            cap = min(bound, prefix_bound(P, x))
            layer = {P.identity}
            found = None
            for k in range(1, cap + 1):
                layer = {P.op(p, a) for p in layer for a in alphabet} & divs
                if x in layer:
                    found = k
                    break
            if found is None:
                return _fail(name, element=x, degree=s, bound=bound)
    return _ok(name)


def _profile_signature(P, prof, name=lambda a: a):
    """The factorization data of ``prof.element`` in P, read off its profile
    ``prof``, with every element renamed by ``name``. When every irreducible
    divisor is an atom the two alphabets give one automaton, so the atom
    words are the words; two carriers whose alphabets differ already differ
    at ``irr_divs`` or ``atom_divs``, which come first."""
    x = prof.element
    horizon = min(prefix_bound(P, x), 5)
    word = lambda w: tuple(map(name, w))
    classes = lambda cs: tuple((tuple((name(c), m) for c, m in v), word(w)) for v, w in cs)
    words = tuple(map(word, enumerate_factorizations(P, x, horizon)))
    if prof.atom_divisors != prof.irreducible_divisors:
        atom_words = tuple(map(word, enumerate_factorizations(P, x, horizon, letters="atoms")))
    else:
        atom_words = words
    return {
        "irr_divs": word(prof.irreducible_divisors),
        "atom_divs": word(prof.atom_divisors),
        "lengths": prof.lengths,
        "atomic_lengths": prof.atomic_lengths,
        "minimal": classes(prof.minimal),
        "minimal_within": classes(prof.minimal_atomic_within),
        "minimal_literal": classes(prof.minimal_atomic_literal),
        "words": words,
        "atom_words": atom_words,
    }


def check_localization_invariance(P: Premonoid, sample=None, report=None) -> CheckResult:
    """Factorization data of x agrees whether computed in the whole carrier,
    in the divisor-closed closure of x, or in the submonoid generated by the
    divisors of x. A view's data are renamed into the carrier through
    ``view.to_parent``; that map is increasing, so every order the engine
    reports (sorted divisors, vectors and classes, least witnesses) carries
    over. ``report``, when given, is ``classify(P)``, and the whole carrier's
    profiles are read from it. ``Premonoid.restrict`` keeps one view per
    element set, so when the two submonoids are equal the germ is the very
    view already checked, and it is skipped."""
    name = "localization-invariance"
    sample = sample if sample is not None else P.nonunits()
    for x in sample:
        if P.is_unit(x):
            continue
        base = _profile_signature(P, report.profiles[x] if report is not None else element_profile(P, x))
        views = [("divisor-closed", P.divisor_closed_localization(x))]
        germ = P.germ_localization(x)
        if germ is not views[0][1]:
            views.append(("germ", germ))
        for view_name, view in views:
            prof = element_profile(view, view.from_parent(x))
            local = _profile_signature(view, prof, view.to_parent.__getitem__)
            for key in base:
                if base[key] != local[key]:
                    return _fail(
                        name,
                        element=x,
                        view=view_name,
                        field=key,
                        whole=str(base[key]),
                        localized=str(local[key]),
                    )
    return _ok(name)


def check_unit_removal(P: Premonoid, rng: random.Random) -> CheckResult:
    """For product-closed Q and any A, the submonoid generated by Q*A*Q sits
    inside Q together with the submonoid generated by Q*(A minus Q)*Q."""
    name = "unit-removal-closure"
    m = P.monoid
    n = m.n
    for _ in range(10):
        seed = [x for x in range(n) if rng.random() < 0.4]
        q = m.generated_submonoid(seed)
        a = frozenset(x for x in range(n) if rng.random() < 0.5)
        qaq = m.set_product(m.set_product(q, a), q)
        lhs = m.generated_submonoid(qaq)
        rest = m.set_product(m.set_product(q, a - q), q)
        rhs = q | m.generated_submonoid(rest)
        if not lhs <= rhs:
            return _fail(name, Q=sorted(q), A=sorted(a), missing=sorted(lhs - rhs))
    return _ok(name)


def check_duo_inclusion(P: Premonoid, rng: random.Random) -> CheckResult:
    """Left duo law: a product of principal two-sided ideals lands in the
    left ideal of any increasing subproduct."""
    name = "duo-pseudo-commutativity"
    m = P.monoid
    if not m.structure_flags().left_duo:
        return _skip(name, "instance is not left duo")
    n = m.n
    carrier = frozenset(range(n))
    for _ in range(8):
        k = rng.randint(1, 4)
        xs = [rng.randrange(n) for _ in range(k)]
        product_of_ideals = frozenset({m.identity})
        for x in xs:
            product_of_ideals = m.set_product(product_of_ideals, m.principal_ideal(x))
        for r in range(1, k + 1):
            for sigma in it.combinations(range(k), r):
                sub = m.product(tuple(xs[i] for i in sigma))
                left_ideal = frozenset(m.table[h][sub] for h in carrier)
                if not product_of_ideals <= left_ideal:
                    return _fail(
                        name,
                        tuple_=xs,
                        sigma=list(sigma),
                        missing=sorted(product_of_ideals - left_ideal),
                    )
    return _ok(name)


def check_restriction_units(P: Premonoid, rng: random.Random) -> CheckResult:
    """Units of a restricted premonoid are the restricted units."""
    name = "restriction-units"
    m = P.monoid
    n = m.n
    masks = []
    for _ in range(6):
        seed = [x for x in range(n) if rng.random() < 0.4]
        masks.append(m.generated_submonoid(seed))
        masks.append(m.divisor_closed_closure(rng.randrange(n)))
    for mask in masks:
        view = P.restrict(mask)
        expect = {x for x in mask if x in P.units()}
        got = {view.to_parent[u] for u in view.units()}
        if got != expect:
            return _fail(name, mask=sorted(mask), got=sorted(got), expected=sorted(expect))
    return _ok(name)


def check_divisor_closed_restriction(P: Premonoid, rng: random.Random) -> CheckResult:
    """Restriction to a divisor-closed submonoid preserves the irreducible and
    atom sets, and restricting a divisibility relation is again divisibility."""
    name = "divisor-closed-restriction"
    m = P.monoid
    irr, atoms = set(irreducibles_of(P, 2)), set(atoms_of(P, 2))
    for _ in range(5):
        x = rng.randrange(m.n)
        mask = m.divisor_closed_closure(x)
        view = P.restrict(mask)
        want_irr = {a for a in mask if a in irr}
        got_irr = {view.to_parent[a] for a in irreducibles_of(view, 2)}
        if got_irr != want_irr:
            return _fail(name, element=x, got=sorted(got_irr), expected=sorted(want_irr))
        want_atoms = {a for a in mask if a in atoms}
        got_atoms = {view.to_parent[a] for a in atoms_of(view, 2)}
        if got_atoms != want_atoms:
            return _fail(name, element=x, got_atoms=sorted(got_atoms), expected=sorted(want_atoms))
        if P.preorder.kind == "divisibility":
            native = divisibility_preorder(view.monoid)
            if native.rows != view.preorder.rows:
                return _fail(name, element=x, divisibility_restriction="mismatch")
    return _ok(name)


def check_acyclic_collapse(P: Premonoid, dp: Premonoid) -> CheckResult:
    """In an acyclic monoid, divisibility-irreducibles, -atoms and -quarks
    all coincide."""
    name = "acyclic-collapse"
    if not P.monoid.structure_flags().acyclic:
        return _skip(name, "monoid is not acyclic")
    a = set(atoms_of(dp, 2))
    i = set(irreducibles_of(dp, 2))
    q = set(quarks_of(dp))
    if not (a == i == q):
        return _fail(name, atoms=sorted(a), irreducibles=sorted(i), quarks=sorted(q))
    return _ok(name)


def check_dedekind_bf_acyclic(P: Premonoid, dp: Premonoid) -> CheckResult:
    """A finite (hence Dedekind-finite) monoid with finite divisibility length
    sets everywhere must be acyclic. BF is read off the length sets of the
    non-units of the divisibility premonoid ``dp``: each nonempty and finite."""
    name = "dedekind-bf-acyclic"
    if P.monoid.structure_flags().acyclic:
        return _ok(name)
    lengths = {x: length_set(dp, x) for x in dp.nonunits()}
    if all(not ls.is_empty and ls.is_finite for ls in lengths.values()):
        return _fail(name, lengths={x: ls.to_json() for x, ls in lengths.items()})
    return _ok(name)


def check_factorable_on_finite(P: Premonoid, report) -> CheckResult:
    """Finite carriers always admit factorizations for every non-unit."""
    name = "factorable-on-finite"
    if not report["factorable"]:
        return _fail(name, witness=report.witnesses.get("factorable"))
    return _ok(name)


def check_strongly_positive_ff_atomic(P: Premonoid, report) -> CheckResult:
    name = "strongly-positive-ff-atomic"
    if not P.flags().strongly_positive:
        return _skip(name, "instance is not strongly positive")
    if not report["FF-atomic"]:
        return _fail(name, witness=report.witnesses.get("FF-atomic"))
    return _ok(name)


def check_phi_roundtrip(P: Premonoid, rng: random.Random, dp: Premonoid) -> CheckResult:
    """Generators become exactly the quarks and the irreducibles of the
    shortest-product-length pullback order, and everything they generate is a
    non-unit for it."""
    name = "phi-roundtrip"
    m = P.monoid
    candidates = [set(atoms_of(dp, 2))]
    for _ in range(4):
        candidates.append(
            {x for x in range(m.n) if x != m.identity and rng.random() < 0.5}
        )
    for a in candidates:
        a = frozenset(a)
        rel, phi = phi_preorder(m, a)
        view = Premonoid(m, rel)
        reachable = {x for x in range(m.n) if phi[x] >= 1}
        if any(view.is_unit(x) for x in reachable):
            return _fail(name, A=sorted(a), unit_in_span=True)
        got_irr = set(irreducibles_of(view, 2))
        got_quarks = set(quarks_of(view))
        if got_irr != set(a) or got_quarks != set(a):
            return _fail(
                name, A=sorted(a), irreducibles=sorted(got_irr), quarks=sorted(got_quarks)
            )
    return _ok(name)


def check_shuffle_oracle(P: Premonoid, rng: random.Random) -> CheckResult:
    """Class-multiset fast path against the literal injective-matching oracle.

    A word is a length below 6 and that many letters below n. Each number
    below N is ``getrandbits(N.bit_length())``, drawn again while it is N or
    more: that is how ``randint(0, 5)`` and ``randrange(n)`` draw it, call
    for call, so the words and the generator state after them are theirs,
    without a Python frame per number. Both sides are deterministic, so a
    pair drawn again is not tested again; its words are still drawn, which
    keeps the stream of the later checks."""
    name = "shuffle-oracle"
    n = P.monoid.n
    leq = P.preorder.leq
    rep = wd.class_reps(leq, range(n))
    mutual = wd.mutual_rows(leq, n)
    getrandbits = rng.getrandbits
    k = n.bit_length()
    tested = set()
    for _ in range(300):
        words = [], []
        for word in words:
            m = getrandbits(3)
            while m >= 6:
                m = getrandbits(3)
            for _ in range(m):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                word.append(r)
        u, v = map(tuple, words)
        if (u, v) in tested:
            continue
        tested.add((u, v))
        fast = wd.shuffle_leq(rep, u, v)
        slow = wd.shuffle_leq_matching(mutual, u, v)
        if fast != slow:
            return _fail(name, u=u, v=v, fast=fast, slow=slow)
        if fast and wd.shuffle_leq(rep, v, u) is False and not len(u) < len(v):
            return _fail(name, strict_length=(u, v))
    return _ok(name)


def check_pullback_isomorphism(P: Premonoid, rng: random.Random) -> CheckResult:
    """Relabeling by a monoid isomorphism maps quark/irreducible/atom sets to
    their images."""
    name = "pullback-isomorphism"
    m = P.monoid
    n = m.n
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        m2 = FiniteMonoid(*relabel(m.table, m.identity, perm))
        rows = [0] * n
        for a in range(n):
            for b in range(n):
                if P.leq(a, b):
                    rows[perm[a]] |= 1 << perm[b]
        p2 = Premonoid(m2, PreorderRel(n, tuple(rows), kind="explicit"))
        for fn in (quarks_of, irreducibles_of, atoms_of):
            want = {perm[a] for a in fn(P)}
            got = set(fn(p2))
            if want != got:
                return _fail(name, function=fn.__name__, expected=sorted(want), got=sorted(got))
    return _ok(name)


def minimal_words_by_multiset(mutual, words) -> list:
    """The words of ``words`` that no word of ``words`` lies strictly below
    under the literal matching order, in their given order. ``mutual`` is
    the table of ``words.mutual_rows``.

    A matching between two words does not see the order of their letters, so
    the words are grouped by letter multiset. A longer word is never below a
    shorter one, and a matching between two words of equal length is a
    bijection, so it also runs backwards: one multiset lies strictly below
    another exactly when it is shorter and the matching runs. The multisets
    are walked by length, and each is matched only against the minima of
    the shorter lengths. That is exact when the relation is transitive,
    which ``check_preorder_laws`` checks on its own: mutual comparability is
    then transitive, so matchings compose and the order on multisets is
    transitive. If some m lies strictly below k, follow strictly smaller
    multisets down from m; lengths fall, so the chain ends at a minimum,
    which is shorter than k and, by transitivity, below it.
    """
    keys = [tuple(sorted(w)) for w in words]
    by_length: dict = {}
    for k in dict.fromkeys(keys):
        by_length.setdefault(len(k), []).append(k)
    minima: list = []
    for length in sorted(by_length):
        minima += [
            k for k in by_length[length] if not any(wd.shuffle_leq_matching(mutual, m, k) for m in minima)
        ]
    minimal = set(minima)
    return [w for w, k in zip(words, keys) if k in minimal]


def words_with_product(m: FiniteMonoid, alphabet: tuple, x: int, max_len: int) -> list:
    """Every word over ``alphabet`` of length 1 to ``max_len`` (at least 1)
    whose product in ``m`` is x: shorter words first, words of one length in
    the lexicographic order of ``alphabet``.

    A depth-first walk over every word carries each prefix's product, so a
    word costs one table lookup; the words of one length come out of it in
    lexicographic order and are kept by length. It prunes nothing: every
    word up to ``max_len`` is a node of the walk, and only the words whose
    product is x are kept."""
    table = m.table
    by_length = [[] for _ in range(max_len + 1)]
    stack = [((), m.identity)]
    backwards = alphabet[::-1]
    while stack:
        prefix, p = stack.pop()
        row = table[p]
        length = len(prefix) + 1
        if length < max_len:
            for a in backwards:
                stack.append((prefix + (a,), row[a]))
        if x in row:
            words = by_length[length]
            for a in alphabet:
                if row[a] == x:
                    words.append(prefix + (a,))
    return [w for words in by_length for w in words]


def check_minimal_brute_force(P: Premonoid) -> CheckResult:
    """Brute-force enumeration beyond the certified bound: every word over
    the irreducible divisors of x up to two letters past the bound
    (``words_with_product``), then the same minimal classes as the engine,
    none longer than the bound."""
    name = "minimal-brute-force"
    n = P.monoid.n
    if n > 6:
        return _skip(name, f"carrier {n} above brute-force limit 6")
    mutual = wd.mutual_rows(P.preorder.leq, n)
    for x in P.nonunits():
        alphabet = factorization_alphabet(P, x, "irreducibles")
        bound = prefix_bound(P, x)
        all_words = words_with_product(P.monoid, alphabet, x, bound + 2)
        minimal_words = minimal_words_by_multiset(mutual, all_words)
        if any(len(w) > bound for w in minimal_words):
            return _fail(name, element=x, overlong=[w for w in minimal_words if len(w) > bound])
        rep = wd.class_reps(P.leq, alphabet)
        brute_classes = {wd.word_vector(w, rep) for w in minimal_words}
        engine = {vec for vec, _ in minimal_factorization_classes(P, x)}
        if brute_classes != engine:
            return _fail(
                name,
                element=x,
                brute=sorted(brute_classes),
                engine=sorted(engine),
            )
    return _ok(name)


def check_length_set_agreement(P: Premonoid) -> CheckResult:
    """LengthSet membership against plain layer reachability, past one full
    period beyond the preperiod."""
    name = "length-set-agreement"
    for x in P.nonunits():
        ls = length_set(P, x)
        alphabet = factorization_alphabet(P, x, "irreducibles")
        horizon = (ls.offset or len(P.divisors(x))) + 2 * (ls.period or 1) + 2
        layer = {P.identity}
        for k in range(1, horizon + 1):
            layer = {P.op(p, a) for p in layer for a in alphabet}
            if (x in layer) != (k in ls):
                return _fail(name, element=x, length=k, direct=x in layer, stored=k in ls)
    return _ok(name)


def check_higman_probe(P: Premonoid, rng: random.Random) -> CheckResult:
    """Long random word sequences over a small alphabet always contain an
    increasing embedding pair."""
    name = "higman-probe"
    n = P.monoid.n
    letters = tuple(range(min(n, 3)))
    seq = [
        tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))) for _ in range(60)
    ]
    hit = wd.erdos_rado_scan(seq, lambda a, b: a == b)
    if hit is None:
        return _fail(name, sequence_length=len(seq))
    return _ok(name, pair=hit[:2])


def verify_suite(P: Premonoid, seed: int = 0) -> list[CheckResult]:
    """Run every applicable check on one finite premonoid."""
    rng = random.Random(seed)
    dp = P if P.preorder.kind == "divisibility" else Premonoid(P.monoid, divisibility_preorder(P.monoid))
    report = classify(P)
    results = [
        check_preorder_laws(P),
        check_flag_implications(P),
        check_divisibility_premonoid_laws(P, dp),
        check_weak_positivity_consequences(P, rng),
        check_irreducible_structure(P),
        check_classification_diagram(P, report),
        check_bf_iff_ff(P, report),
        check_abstract_bound(P),
        check_localization_invariance(P, report=report),
        check_unit_removal(P, rng),
        check_duo_inclusion(P, rng),
        check_restriction_units(P, rng),
        check_divisor_closed_restriction(P, rng),
        check_acyclic_collapse(P, dp),
        check_dedekind_bf_acyclic(P, dp),
        check_factorable_on_finite(P, report),
        check_strongly_positive_ff_atomic(P, report),
        check_phi_roundtrip(P, rng, dp),
        check_shuffle_oracle(P, rng),
        check_pullback_isomorphism(P, rng),
        check_minimal_brute_force(P),
        check_length_set_agreement(P),
        check_higman_probe(P, rng),
    ]
    return results


def verify_local(P) -> list[CheckResult]:
    """Checks on a lazily presented carrier, over its deterministic sample:
    the certified divisor sets of the first eight sample elements, and the
    classification diagram over the sampled non-units."""
    try:
        for x in P.monoid.sample_elements()[:8]:
            P.monoid.check_divisor_laws(x)
        certificates = _ok("divisor-certificates")
    except AssertionError as exc:
        certificates = _fail("divisor-certificates", error=str(exc))
    violations = classify(P, elements=P.nonunit_sample()).diagram_violations()
    diagram = _fail if violations else _ok
    return [certificates, diagram("classification-diagram", violations=[list(v) for v in violations])]


def _snf_self_check(name: str, a) -> tuple:
    """The check and, when it passed, the self-checked Smith form of ``a``."""
    try:
        result = mx.snf(a)
    except (AssertionError, PremonoidsError) as exc:
        return _fail(name, error=str(exc)), None
    return _ok(name), result


def _prime_count(values) -> int:
    """Prime factors of the given positive ints with multiplicity, by trial
    division of its own: the check below shares no code with the engine."""
    count = 0
    for v in values:
        p = 2
        while p * p <= v:
            while v % p == 0:
                count += 1
                v //= p
            p += 1
        count += v > 1
    return count


def verify_matrix(a, seed: int) -> list[CheckResult]:
    """Checks on a nonsingular integer matrix: its self-checked Smith form,
    its length set against the prime count of the invariant factors, and the
    Smith forms of ten seeded random probes. Raises the engine's error on a
    singular or too large matrix."""
    rng = random.Random(seed)
    ls = mx.matrix_length_set(a)
    invariants, certificate = _snf_self_check("snf-invariants", a)
    # U*A*V = D with U, V unimodular, so the invariant factors multiply to |det A|
    omega = _prime_count(certificate.diagonal) if certificate else None
    expected = {omega} if omega else set()
    got = set(ls.members_upto((omega or 0) + 2))
    length_check = (_ok if certificate is not None and got == expected else _fail)(
        "length-set-vs-prime-count", lengths=sorted(got), prime_count=omega
    )
    probes = _ok("snf-random-probes")
    n = len(a)
    for _ in range(10):
        b = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if mx.mat_det(b) == 0:
            continue
        probes, _ = _snf_self_check("snf-random-probes", b)
        if not probes.passed:
            probes.details["matrix"] = [list(row) for row in b]
            break
    return [invariants, length_check, probes]


def verify_presentation(alphabet: str, relations, bound: int) -> list[CheckResult]:
    """The bounded exploration of a presentation, reported as evidence: it
    certifies nothing, so it always passes."""
    report = presentation_explore(alphabet, relations, bound)
    return [_ok("bounded-exploration", **report.to_json())]
