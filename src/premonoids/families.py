"""Built-in monoid and premonoid families.

Finite families are realized as dense tables; the rest are lazily presented
carriers whose divisor sets are certified by the arguments documented on each
class.
"""
from __future__ import annotations

import itertools
import math

from .errors import CapExceededError, NotProductOneError, ShapeError
from .localfinite import LocallyFiniteMonoid, LocalPremonoid, RuleOrderPremonoid
from .monoid import FiniteMonoid
from .premonoid import Premonoid
from .preorder import divisibility_preorder


# -- element text ----------------------------------------------------------------------
#
# Comma-separated parts, optionally wrapped in brackets: {1,2}, (5,2), 0.1,0.1.
# Each family's ``parse`` reads its own elements with these.


def _parse_parts(text: str) -> list:
    cleaned = text.strip().strip("{}()[]")
    return cleaned.split(",") if cleaned else []


def _parse_int(part: str) -> int:
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"expected an integer, got {part.strip()!r}") from None


def _parse_ints(text: str) -> tuple:
    """Comma-separated integers in the order given."""
    return tuple(map(_parse_int, _parse_parts(text)))


def parse_set_text(text: str) -> tuple:
    return tuple(sorted(_parse_ints(text)))


def _dihedral_letter(part: str) -> tuple:
    """The dihedral element r^k s^e written k.e, with e 0 or 1."""
    k, dot, e = part.partition(".")
    if not dot:
        raise ShapeError(f"dihedral elements are written k.e, got {part.strip()!r}")
    try:
        letter = (int(k), int(e))
    except ValueError:
        raise ShapeError(
            f"dihedral elements are written k.e with integers k and e, got {part.strip()!r}"
        ) from None
    if letter[1] not in (0, 1):
        raise ShapeError(f"the exponent of s is 0 or 1, got {part.strip()!r}")
    return letter


def parse_multiset_text(text: str) -> tuple:
    """Dihedral elements written k.e, sorted."""
    return tuple(sorted(map(_dihedral_letter, _parse_parts(text))))


# -- modular multiplication -------------------------------------------------------

# The largest n of an n x n table family. Time and memory grow as n^2: the
# table alone took about 0.5 s and 160 MB of peak memory at n = 2048 on a
# 2-core Xeon. A larger n is refused before anything is allocated.
TABLE_CAP = 2048


def _check_table_size(n: int, what: str) -> None:
    if n < 1:
        raise ShapeError(f"{what} must be >= 1")
    if n > TABLE_CAP:
        raise ShapeError(f"{what} {n} exceeds the table cap of {TABLE_CAP} elements")


def make_zn(n: int) -> FiniteMonoid:
    """Multiplicative monoid of the integers modulo n."""
    _check_table_size(n, "modulus")
    table = [[(i * j) % n for j in range(n)] for i in range(n)]
    return FiniteMonoid(table, 1 % n, check_associativity=False)


def zn_premonoid(n: int) -> Premonoid:
    m = make_zn(n)
    return Premonoid(m, divisibility_preorder(m))


def cyclic_group(n: int) -> FiniteMonoid:
    """Additive cyclic group of order n (element k plays the role of g^k)."""
    _check_table_size(n, "order")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteMonoid(table, 0, check_associativity=False)


def powerset_premonoid(ground_size: int) -> tuple[Premonoid, tuple]:
    """All subsets of a ground set under union, ordered by inclusion.

    Inclusion coincides with two-sided divisibility here (Y = U | X | V
    forces X inside Y, and X | Y = Y whenever X is inside Y), so the
    divisibility preorder realizes the inclusion order directly.  Labels map
    carrier indices to subset tuples.
    """
    if ground_size < 0:
        raise ShapeError("ground size must be >= 0")
    labels = []
    for bits in range(1 << ground_size):
        labels.append(tuple(i for i in range(ground_size) if bits >> i & 1))
    labels.sort(key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(labels)}
    table = [
        [index[tuple(sorted(set(a) | set(b)))] for b in labels] for a in labels
    ]
    monoid = FiniteMonoid(table, index[()], check_associativity=False)
    return Premonoid(monoid, divisibility_preorder(monoid)), tuple(labels)


# -- reduced power monoid of a finite base --------------------------------------------


class PowerMonoid(LocallyFiniteMonoid):
    """Identity-containing subsets of a finite base monoid under setwise product.

    Divisor certificate: if X = U*Y*V then Y = 1*Y*1 is contained in U*Y*V = X,
    and likewise U and V are contained in X; so the divisors of X are among
    the identity-containing subsets of X (at most 2^(|X|-1) of them) and the
    cofactor search may also range over those subsets only.
    """

    def __init__(self, base: FiniteMonoid):
        self.base = base
        self.identity = (base.identity,)

    def element(self, members) -> tuple:
        out = tuple(sorted(set(members) | {self.base.identity}))
        for m in out:
            if not 0 <= m < self.base.n:
                raise ShapeError(f"{m} is not an element of the base monoid")
        return out

    def op(self, x, y) -> tuple:
        t = self.base.table
        return tuple(sorted({t[a][b] for a in x for b in y}))

    def _id_subsets(self, x) -> list:
        rest = [m for m in x if m != self.base.identity]
        out = []
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                out.append(tuple(sorted((self.base.identity,) + combo)))
        return sorted(set(out))

    def divisors(self, x) -> tuple:
        subs = self._id_subsets(x)
        xs = tuple(sorted(x))
        found = []
        for y in subs:
            if any(self.op(self.op(u, y), v) == xs for u in subs for v in subs):
                found.append(y)
        return tuple(found)

    def sample_elements(self) -> tuple:
        return tuple(self._id_subsets(tuple(range(self.base.n))))

    def parse(self, text: str) -> tuple:
        """A set of base elements written like {1,2}; the identity is added."""
        return self.element(parse_set_text(text))


def power_premonoid(base: FiniteMonoid) -> LocalPremonoid:
    return LocalPremonoid(PowerMonoid(base))


def power_premonoid_finite(base: FiniteMonoid) -> tuple[Premonoid, tuple]:
    """The same power monoid as a dense finite carrier (it is finite whenever
    the base is); labels map indices back to subset tuples."""
    pm = PowerMonoid(base)
    labels = pm.sample_elements()
    index = {x: i for i, x in enumerate(labels)}
    table = [[index[pm.op(a, b)] for b in labels] for a in labels]
    monoid = FiniteMonoid(table, index[pm.identity], check_associativity=False)
    return Premonoid(monoid, divisibility_preorder(monoid)), labels


# -- reduced power monoid of the additive naturals --------------------------------------


class ReducedPowerN(LocallyFiniteMonoid):
    """Finite 0-containing sets of naturals under setwise addition, capped.

    The cap bounds the elements the family accepts (``element``, ``parse`` and
    the sample), not products: a sum past the cap exceeds max X, so it
    never divides an accepted X and the divisor search may form it freely.

    Divisor certificate: X = Y + W forces Y and W inside [0, max X] and both
    0-containing; for a candidate Y contained in X, the largest possible
    cofactor is W* = {z <= max X : z + Y is contained in X}, and Y divides X
    exactly when Y + W* = X (any valid W sits inside W*, so Y + W would then
    be a proper subset of X otherwise).
    """

    def __init__(self, cap: int):
        if cap < 1:
            raise CapExceededError("cap must be >= 1")
        self.cap = cap
        self.identity = (0,)
        # bounded flag scans take triple products of sample elements; a sample
        # below a third of the cap keeps those products within it
        self.sample_max = min(3, cap // 3)

    def element(self, members) -> tuple:
        out = tuple(sorted(set(members) | {0}))
        if any(m < 0 for m in out):
            raise ShapeError("members must be non-negative")
        if out[-1] > self.cap:
            raise CapExceededError(f"max {out[-1]} exceeds cap {self.cap}")
        return out

    def op(self, x, y) -> tuple:
        return tuple(sorted({a + b for a in x for b in y}))

    def divisors(self, x) -> tuple:
        xs = set(x)
        m = max(x)
        rest = [v for v in x if v != 0]
        found = []
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                y = set(combo) | {0}
                wstar = {z for z in range(m + 1) if all(z + v in xs for v in y)}
                if {a + b for a in y for b in wstar} == xs:
                    found.append(tuple(sorted(y)))
        return tuple(sorted(set(found)))

    def sample_elements(self) -> tuple:
        pool = range(1, self.sample_max + 1)
        return tuple(sorted((0, *c) for r in range(len(pool) + 1) for c in itertools.combinations(pool, r)))

    parse = PowerMonoid.parse  # a set written like {0,1}; 0 is added


def reduced_power_N_premonoid(cap: int) -> LocalPremonoid:
    return LocalPremonoid(ReducedPowerN(cap))


# -- product-one sequences over a group -------------------------------------------------


class ProductOneMonoid(LocallyFiniteMonoid):
    """Multisets over a group subset admitting an ordering with product one,
    under multiset union.

    Divisor certificate: the monoid is commutative (multiset union), so
    Y | X means X = Y + W; both parts are sub-multisets of X, and there are
    finitely many of those.

    Product-one certification reads one table kept on the monoid: for each
    multiset m, written as its count vector over the sorted support, the set
    P(m) of products of all orderings of m.  P(empty) = {1}, and since every
    ordering ends in some letter, P(m) is the union over the distinct letters
    g of m of P(m - g) * g, exact for non-abelian groups too.  The table is
    filled bottom-up, a whole box of sub-multisets at a time, so it stays
    closed under taking sub-multisets: m is product-one when 1 is in P(m),
    and the divisors of x are the sub-multisets d with 1 in P(d) and in
    P(x - d).  The box below counts k_1, ..., k_s has (k_1 + 1)...(k_s + 1)
    entries, each a set of group elements; no ordering is searched.

    ``read_letter`` reads one group element from its text, for ``parse``.
    """

    def __init__(self, mul, group_identity, support, read_letter):
        self.mul = mul
        self.group_identity = group_identity
        self.read_letter = read_letter
        self.support = tuple(sorted(support))
        self.identity = ()
        self._slot = {g: i for i, g in enumerate(self.support)}
        self._products: dict = {(0,) * len(self.support): frozenset((group_identity,))}

    def _counts(self, multiset) -> tuple:
        counts = [0] * len(self.support)
        for g in multiset:
            slot = self._slot.get(g)
            if slot is None:
                raise ShapeError(f"{g!r} is outside the support")
            counts[slot] += 1
        return tuple(counts)

    def _letters(self, counts) -> tuple:
        return tuple(itertools.chain.from_iterable(map(itertools.repeat, self.support, counts)))

    def _fill(self, vectors) -> None:
        """Enter every count vector of ``vectors`` into the table; each one's
        vectors with a letter less must be in it or come earlier."""
        table, mul, support = self._products, self.mul, self.support
        for v in vectors:
            if v in table:
                continue
            prods = set()
            for i, k in enumerate(v):
                if k:
                    g = support[i]
                    prods.update(mul(p, g) for p in table[v[:i] + (k - 1,) + v[i + 1 :]])
            table[v] = frozenset(prods)

    def _entry(self, counts) -> frozenset:
        """P(counts), filling the box of vectors below ``counts`` if needed."""
        got = self._products.get(counts)
        if got is None:
            self._fill(itertools.product(*(range(k + 1) for k in counts)))
            got = self._products[counts]
        return got

    def is_product_one(self, multiset) -> bool:
        return self.group_identity in self._entry(self._counts(multiset))

    def element(self, members) -> tuple:
        ms = tuple(sorted(members))
        if not self.is_product_one(ms):
            raise NotProductOneError(f"no ordering of {ms!r} multiplies to one")
        return ms

    def op(self, x, y) -> tuple:
        return tuple(sorted(x + y))

    def divisors(self, x) -> tuple:
        # lexicographic order, so the complements come in the reverse order
        box = list(itertools.product(*(range(k + 1) for k in self._counts(x))))
        self._fill(box)
        table, one = self._products, self.group_identity
        found = [
            self._letters(d)
            for d, rest in zip(box, reversed(box))
            if one in table[d] and one in table[rest]
        ]
        return tuple(sorted(found))

    def sample_elements(self, max_size: int = 4) -> tuple:
        vectors = [
            v
            for v in itertools.product(range(max_size + 1), repeat=len(self.support))
            if sum(v) <= max_size
        ]
        self._fill(vectors)
        one = self.group_identity
        return tuple(sorted(self._letters(v) for v in vectors if one in self._products[v]))

    def parse(self, text: str) -> tuple:
        """A multiset of group elements, comma-separated, in any order."""
        return self.element(map(self.read_letter, _parse_parts(text)))


def make_product_one(group: FiniteMonoid, support) -> ProductOneMonoid:
    """Product-one multisets over a subset of a finite group given by table."""
    units = group.units()
    if units != frozenset(range(group.n)):
        raise ShapeError("the base table must be a group")
    support = tuple(sorted(set(support)))
    for g in support:
        if not 0 <= g < group.n:
            raise ShapeError(f"support letter {g} is not an element 0..{group.n - 1} of the group")
    return ProductOneMonoid(
        mul=lambda a, b: group.table[a][b],
        group_identity=group.identity,
        support=support,
        read_letter=_parse_int,
    )


def dihedral_mul(a: tuple, b: tuple) -> tuple:
    """Infinite dihedral group on pairs (k, e) standing for r^k * s^e with
    s*r = r^(-1)*s."""
    k, e = a
    m, f = b
    return (k + m if e == 0 else k - m, e ^ f)


def make_product_one_dihedral(support=((0, 1), (1, 0))) -> ProductOneMonoid:
    """Product-one multisets over the infinite dihedral group."""
    return ProductOneMonoid(
        mul=dihedral_mul,
        group_identity=(0, 0),
        support=tuple(sorted(set(support))),
        read_letter=_dihedral_letter,
    )


# -- the naturals with the zero-versus-positive preorder ----------------------------------


class AdditiveNaturals(LocallyFiniteMonoid):
    """The additive naturals; divisors of x are exactly 0..x."""

    def __init__(self, cap: int):
        if cap < 1:
            raise CapExceededError("cap must be >= 1")
        self.cap = cap
        self.identity = 0

    def op(self, x: int, y: int) -> int:
        return x + y

    def divisors(self, x: int) -> tuple:
        return tuple(range(x + 1))

    def sample_elements(self) -> tuple:
        return tuple(range(self.cap + 1))

    def contains(self, x) -> bool:
        return isinstance(x, int) and x >= 0


def make_remark_premonoid(cap: int) -> RuleOrderPremonoid:
    """The additive naturals ordered by: a below b iff a = 0 or both are
    positive.  All positive integers are mutually equivalent, so the only
    non-unit strictly above anything is blocked; the strict-lower hook (0,)
    is a certified superset of the (empty) set of non-units strictly below
    any element."""
    return RuleOrderPremonoid(
        AdditiveNaturals(cap),
        order=lambda a, b: a == 0 or (a > 0 and b > 0),
        strict_lower=lambda a: (0,),
    )


# -- additive submonoids of N^2 and N ---------------------------------------------------


class PlaneSubmonoid(LocallyFiniteMonoid):
    """Additive submonoid of pairs generated by {(1, k), (k, 1) : k <= bound}.

    Divisor certificate: the monoid is commutative and cancellative, and a
    divisor of x is componentwise at most x, so the divisors are the members
    y of the componentwise box with x - y a member too.
    """

    def __init__(self, gen_bound: int):
        if gen_bound < 2:
            raise ShapeError("generator bound must be >= 2")
        self.gen_bound = gen_bound
        self.generators = tuple(
            sorted(
                {(1, k) for k in range(1, gen_bound + 1)}
                | {(k, 1) for k in range(1, gen_bound + 1)}
            )
        )
        self.identity = (0, 0)

    def parse(self, text: str) -> tuple:
        """A pair written like (5,2)."""
        pair = _parse_ints(text)
        if len(pair) != 2:
            raise ValueError(f"expected a pair of integers like (5,2), got {len(pair)} of them")
        a, b = pair
        if not self.contains((a, b)):
            raise ValueError(f"({a}, {b}) is not in the carrier")
        return (a, b)

    def contains(self, v) -> bool:
        """Membership in closed form. With B the generator bound, a sum of p
        generators (1, k) and q generators (k, 1) is (n + s, n + t) with
        n = p + q, and every 0 <= s <= q(B - 1), 0 <= t <= p(B - 1) occurs.
        So (a, b) is a member iff some n <= min(a, b) has
        ceil((a - n)/(B - 1)) + ceil((b - n)/(B - 1)) <= n; the left side
        minus n falls as n grows, so n = min(a, b) decides."""
        a, b = v
        n = min(a, b)
        if n < 0:
            return False
        k = self.gen_bound - 1
        return -((n - a) // k) - ((n - b) // k) <= n

    def op(self, x, y) -> tuple:
        return (x[0] + y[0], x[1] + y[1])

    def divisors(self, x) -> tuple:
        a, b = x
        out = []
        for i in range(a + 1):
            for j in range(b + 1):
                if self.contains((i, j)) and self.contains((a - i, b - j)):
                    out.append((i, j))
        return tuple(out)

    def sample_elements(self) -> tuple:
        hi = 2 * self.gen_bound
        return tuple(sorted(v for v in itertools.product(range(hi + 1), repeat=2) if self.contains(v)))


def n2_premonoid(gen_bound: int) -> LocalPremonoid:
    return LocalPremonoid(PlaneSubmonoid(gen_bound))


class NumericalMonoid(LocallyFiniteMonoid):
    """Additive submonoid of the naturals generated by the given integers.

    Divisor certificate: commutative and cancellative; y | x iff both y and
    x - y are members, and members dividing x are at most x.
    """

    def __init__(self, generators, cap: int = 60):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] < 1:
            raise ShapeError("generators must be positive integers")
        self.generators = tuple(gens)
        self.cap = cap
        self.identity = 0
        self._step = math.gcd(*gens)
        self._scaled = tuple(g // self._step for g in gens)
        self._member = [True]  # _member[k]: k * step is a member
        self._run = 1  # members in a row at the end of _member

    def contains(self, x) -> bool:
        """Membership, filled bottom-up over the multiples k * d of the gcd d
        of the generators. Once g/d multiples in a row are members, g the
        least generator, so is every larger multiple (add g), and the fill
        stops there."""
        if x < 0 or x % self._step:
            return False
        k = x // self._step
        member, scaled = self._member, self._scaled
        while k >= len(member) and self._run < scaled[0]:
            j = len(member)
            got = any(member[j - h] for h in scaled if h <= j)
            member.append(got)
            self._run = self._run + 1 if got else 0
        return k >= len(member) or member[k]

    def op(self, x: int, y: int) -> int:
        return x + y

    def divisors(self, x: int) -> tuple:
        return tuple(y for y in range(x + 1) if self.contains(y) and self.contains(x - y))

    def sample_elements(self) -> tuple:
        return tuple(x for x in range(self.cap + 1) if self.contains(x))


def numerical_premonoid(generators, cap: int = 60) -> LocalPremonoid:
    return LocalPremonoid(NumericalMonoid(generators, cap))
