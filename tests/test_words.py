import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from premonoids import (
    PreorderRel,
    Premonoid,
    erdos_rado_scan,
    mutual_rows,
    shuffle_leq,
    shuffle_leq_matching,
)
from premonoids.families import make_zn, zn_premonoid
from premonoids.monoid import FiniteMonoid
from premonoids.preorder import divisibility_preorder
from premonoids.randgen import monoid_pool, random_premonoid
from premonoids.words import class_reps, embed_increasing

from brute_force import letter_matching, longest_bad_sequence, position_matching


def test_pi_examples():
    m = make_zn(4)
    assert m.product(()) == 1
    assert m.product((2, 2)) == 0
    rng = random.Random(0)
    for _ in range(50):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
        expect = 1
        for a in word:
            expect = (expect * a) % 4
        assert m.product(word) == expect


def test_shuffle_examples():
    P = zn_premonoid(8)
    rep = class_reps(P.leq, range(8))
    assert shuffle_leq(rep, (), (5, 1))  # empty word below everything
    assert shuffle_leq(rep, (2,), (6, 2))  # 2 and 6 are mutually divisible
    assert not shuffle_leq(rep, (2, 2), (2,))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_shuffle_fast_path_matches_matching_oracle(data):
    n = data.draw(st.integers(2, 6))
    matrix = data.draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    rel = PreorderRel.from_matrix(matrix)
    letters = st.integers(0, n - 1)
    u = tuple(data.draw(st.lists(letters, max_size=7)))
    v = tuple(data.draw(st.lists(letters, max_size=7)))

    # a map over the whole carrier and one over the two words' letters only
    # induce the same classes on those letters
    fast = shuffle_leq(class_reps(rel.leq, range(n)), u, v)
    assert shuffle_leq(class_reps(rel.leq, u + v), u, v) == fast
    assert fast == shuffle_leq_matching(mutual_rows(rel.leq, n), u, v)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_matching_per_letter_matches_matching_per_position(data):
    """Positions holding one letter share an adjacency list; the answer is
    the one of a list per position, on words with repeated letters."""
    P = random_premonoid(random.Random(data.draw(st.integers(0, 2**32 - 1))), 6)
    letters = st.integers(0, P.monoid.n - 1)
    u = tuple(data.draw(st.lists(letters, max_size=6)))
    v = tuple(data.draw(st.lists(letters, max_size=6)))
    leq = P.preorder.leq
    mutual = mutual_rows(leq, P.monoid.n)
    assert shuffle_leq_matching(mutual, u, v) == position_matching(leq, u, v)
    assert shuffle_leq_matching(mutual, v, u) == position_matching(leq, v, u)


def test_matching_needs_both_directions_on_a_chain():
    """On the max chain divisibility is the total order 0 <= 1 <= ... and no
    two letters are mutually comparable, so a matching that tested only
    leq(a, b) would put (0,) below (1,)."""
    n = 5
    m = FiniteMonoid([[max(a, b) for b in range(n)] for a in range(n)], 0)
    leq = divisibility_preorder(m).leq
    assert leq(0, 1) and not leq(1, 0)
    mutual = mutual_rows(leq, n)
    assert mutual == (1, 2, 4, 8, 16)
    assert not shuffle_leq_matching(mutual, (0,), (1,))
    assert not shuffle_leq_matching(mutual, (0, 0), (1, 0))
    assert shuffle_leq_matching(mutual, (0, 3), (3, 1, 0))
    assert shuffle_leq_matching(mutual, (), ())
    words = [w for k in range(4) for w in itertools.product(range(n), repeat=k)]
    for u in words:
        for v in words:
            assert shuffle_leq_matching(mutual, u, v) == position_matching(leq, u, v), (u, v)


def _word_pairs(n: int):
    """Every pair of words up to length 4 over 0..n-1 when n <= 2; above
    that, every pair of sorted words up to length 4 (length 3 past four
    letters), the right one also reversed, and the left one no longer."""
    if n <= 2:
        words = [w for k in range(5) for w in itertools.product(range(n), repeat=k)]
        return [(u, v) for u in words for v in words]
    top = 4 if n <= 4 else 3
    words = [w for k in range(top + 1) for w in itertools.combinations_with_replacement(range(n), k)]
    return [(u, w) for u in words for v in words if len(u) <= len(v) for w in (v, v[::-1])]


def _matching_carriers():
    """The pool's carriers up to six elements under divisibility and under a
    seeded explicit preorder, and random premonoids of every preorder style."""
    rng = random.Random(41)
    for table, identity in monoid_pool():
        if len(table) > 6:
            continue
        m = FiniteMonoid(table, identity)
        n = m.n
        yield divisibility_preorder(m)
        yield PreorderRel.from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(n)])
    for _ in range(20):
        yield random_premonoid(rng, 6).preorder


def test_bitmask_matching_is_the_leq_matching_on_every_short_pair():
    """The matching on ``mutual_rows`` bitmasks gives the answer of the
    matching that calls ``leq`` per letter and position, on every pair of
    short words; explicit orders that are not symmetric on comparable
    letters are among them, so a one-sided row would show."""
    asymmetric = 0
    for rel in _matching_carriers():
        leq = rel.leq
        mutual = mutual_rows(leq, rel.n)
        asymmetric += any(leq(a, b) != leq(b, a) for a in range(rel.n) for b in range(rel.n))
        for u, v in _word_pairs(rel.n):
            assert shuffle_leq_matching(mutual, u, v) == letter_matching(leq, u, v), (rel.rows, u, v)
    assert asymmetric > 30


def test_strict_shuffle_implies_shorter():
    P = zn_premonoid(8)
    rep = class_reps(P.leq, range(8))
    rng = random.Random(3)
    for _ in range(400):
        u = tuple(rng.randrange(8) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.randrange(8) for _ in range(rng.randint(0, 5)))
        if shuffle_leq(rep, u, v) and not shuffle_leq(rep, v, u):
            assert len(u) < len(v)
        if shuffle_leq(rep, u, v) and len(u) == len(v):
            assert shuffle_leq(rep, v, u)


def test_scattered_subword():
    def equal(a, b):
        return a == b

    assert embed_increasing((), ("a", "b"), equal) == ()
    assert embed_increasing(("a", "b"), ("a", "c", "b"), equal) == (0, 2)
    assert embed_increasing(("b", "a"), ("a", "c", "b"), equal) is None
    assert embed_increasing(("a", "a"), ("a",), equal) is None


def test_embed_increasing_greedy_is_complete():
    # brute-force comparison on small random instances
    rng = random.Random(9)
    for _ in range(300):
        u = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randrange(3) for _ in range(rng.randint(0, 5)))
        got = embed_increasing(u, v, lambda a, b: a <= b)
        import itertools

        brute = any(
            all(u[i] <= v[p] for i, p in enumerate(positions))
            for positions in itertools.combinations(range(len(v)), len(u))
        )
        assert (got is not None) == brute


def test_erdos_rado_scan_constant_sequence():
    hit = erdos_rado_scan([("a",), ("a",), ("a",)], lambda a, b: a == b)
    assert hit is not None and hit[:2] == (0, 1)


def test_erdos_rado_scan_strictly_decreasing_unary_is_bad():
    words = [("a",) * k for k in (4, 3, 2, 1, 0)]
    assert erdos_rado_scan(words, lambda a, b: a == b) is None


def test_longest_unary_bad_sequence_from_length_three():
    universe = [("a",) * k for k in range(4)]  # lengths 0..3
    best = longest_bad_sequence(universe, ("a", "a", "a"), lambda a, b: a == b)
    assert best == 4  # aaa, aa, a, empty


def test_long_random_sequences_always_embed():
    rng = random.Random(12)
    for trial in range(5):
        words = [
            tuple(rng.randrange(3) for _ in range(rng.randint(0, 7))) for _ in range(200)
        ]
        assert erdos_rado_scan(words, lambda a, b: a == b) is not None


def test_erdos_rado_scan_with_a_genuine_letter_preorder():
    # letters ordered 0 <= 1 <= 2: rising embeddings are easier than equality,
    # so any pair found under equality is also found here, and the reported
    # embedding must respect the order letterwise
    rel = PreorderRel.from_pairs(3, [(0, 1), (1, 2)])
    words = [(2, 0), (1, 1), (0, 2, 1)]
    hit = erdos_rado_scan(words, rel.leq)
    assert hit is not None
    i, j, emb = hit
    assert (i, j) == (0, 2)  # (2,0) rises into positions (2,1) of (0,2,1)
    for pos, p in enumerate(emb):
        assert rel.leq(words[i][pos], words[j][p])
    # a strictly falling chain under the order is bad
    falling = [(2,), (1,), (0,)]
    assert erdos_rado_scan(falling, rel.leq) is None
    # but rising values embed immediately
    rising = [(0,), (2,)]
    assert erdos_rado_scan(rising, rel.leq) == (0, 1, (0,))
