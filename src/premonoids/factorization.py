"""Factorization enumeration, exact length sets, minimal classes, classification.

Everything here is written against the
:class:`premonoids.premonoid.Carrier` protocol and is exact thanks to two
pruning facts about a factorization of x:

* every letter and every prefix product divides x, so searches may be confined
  to the divisor set of x;
* a factorization whose prefix products repeat excises to a strictly smaller
  one, so no minimal factorization is longer than ``len(divisors(x)) - 1``,
  and if any factorization exceeds that bound then factorizations of
  unbounded length exist (pump the excised segment instead of dropping it).

Every search runs on one :class:`DivisorAutomaton` per element and letter
kind: the divisors of x as states, sets of them as int bitmasks, and the
successor mask of each state. On a finite carrier the states are numbered by
element and the successor masks are the carrier's letter rows, folded once
per letter and kind, masked by the divisors of x; any other carrier numbers
the divisors 0..d-1 and multiplies each by each letter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import and_, or_

from .errors import NotComputableError, ShapeError
from .irreducibles import is_atom, is_irreducible
from .lengthset import LengthSet
from .premonoid import Carrier, Premonoid
from .words import class_reps, vector_total


def prefix_bound(P: Carrier, x) -> int:
    """Max length of a factorization of x with pairwise distinct prefix
    products: a word of length k has k + 1 prefix products (the empty one is
    the identity), all divisors of x. By the excision argument above, no
    minimal factorization is longer."""
    return len(P.divisors(x)) - 1


def factorization_alphabet(P: Carrier, x, letters: str = "irreducibles") -> tuple:
    """The letters that can appear in a factorization of x: irreducible (or
    atom) divisors of x of degree 2, sorted. Every atom is irreducible, so
    only irreducibles are asked whether they are atoms."""
    if letters not in ("irreducibles", "atoms"):
        raise ShapeError(f"unknown alphabet choice {letters!r}")
    irr = tuple(a for a in P.divisors(x) if is_irreducible(P, a))
    return irr if letters == "irreducibles" else tuple(a for a in irr if is_atom(P, a))


# -- the divisor automaton -----------------------------------------------------------


def _image(mask: int, succ) -> int:
    """Union of ``succ[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ[low.bit_length() - 1]
        mask ^= low
    return out


def _bitset(indices) -> int:
    out = 0
    for i in indices:
        if i >= 0:
            out |= 1 << i
    return out


class _Lazy(dict):
    """A dict that works out a missing value by ``make(key)`` on first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class DivisorAutomaton:
    """The automaton of x over the letters of one kind, ``"irreducibles"`` or
    ``"atoms"``: its states are the divisors of x, and sets of states are int
    bitmasks.

    A finite carrier (a :class:`premonoids.premonoid.Premonoid`) numbers each
    state by its element, and the successors of p are the carrier's letter
    row of p masked by the divisors of x, so no product is taken to build the
    automaton. Any other carrier numbers the divisors 0..d-1 and multiplies
    each by each letter once; that construction is also the test oracle of
    the first.

    ``succ[i]`` is the mask of the successors of state i. ``table[i][j]``
    numbers the product of state i with ``alphabet[j]``, or is -1 when that
    product does not divide x, and then no extension of it is x either; the
    finite construction works a row out only when it is looked up. The
    alphabet is sorted, so a search that tries letters in table order meets
    the lexicographically least word first. The length set, the class
    numbering and the class-vector census are computed once, on first use.
    """

    __slots__ = ("states", "alphabet", "table", "succ", "start", "goal", "leq", "_ids",
                 "_lengths", "_rep", "_classes", "_census")

    def __init__(self, P: Carrier, x, letters: str = "irreducibles"):
        states = P.divisors(x)
        alphabet = factorization_alphabet(P, x, letters)
        self.states = states
        self.alphabet = alphabet
        self.leq = P.leq
        op = P.op
        if isinstance(P, Premonoid):
            rows = P.letter_rows(letters, alphabet)
            mask = _bitset(states)
            self._ids = states
            self.table = _Lazy(lambda p: [q if mask >> q & 1 else -1 for q in map(op, repeat(p), alphabet)])
            self.succ = dict(zip(states, map(and_, map(rows.__getitem__, states), repeat(mask))))
            self.start = P.identity
            self.goal = x
        else:
            index = {p: i for i, p in enumerate(states)}
            self._ids = range(len(states))
            self.table = [[index.get(op(p, a), -1) for a in alphabet] for p in states]
            self.succ = [_bitset(row) for row in self.table]
            self.start = index[P.identity]
            self.goal = index[x]
        self._lengths = None
        self._rep = None
        self._classes = None
        self._census = None

    def elements(self, mask: int) -> frozenset:
        """The divisors of x in ``mask``."""
        return frozenset(p for i, p in zip(self._ids, self.states) if mask >> i & 1)

    def preimage(self, mask: int) -> int:
        """States with a letter leading into ``mask``."""
        succ = self.succ
        return _bitset(i for i in self._ids if succ[i] & mask)

    def layers(self) -> tuple[list, int]:
        """Masks of the layers L_1, L_2, ... (L_k: the products of k letters)
        up to the first repeat, and the index at which the cycle starts."""
        seen: dict[int, int] = {}
        layers: list[int] = []
        state = self.succ[self.start]
        while state not in seen:
            seen[state] = len(layers)
            layers.append(state)
            state = _image(state, self.succ)
        return layers, seen[state]

    def length_set(self) -> LengthSet:
        """The lengths k with x in L_k; the layer sequence over a finite
        domain is eventually periodic, so its first repeat gives the exact
        preperiod and period."""
        if self._lengths is None:
            layers, first = self.layers()
            period = len(layers) - first
            hit = [m >> self.goal & 1 for m in layers]
            self._lengths = LengthSet.make(
                [k + 1 for k in range(first) if hit[k]],
                offset=first + 1,
                period=period,
                residues=[r for r in range(period) if hit[first + r]],
            )
        return self._lengths

    def class_map(self) -> dict:
        """Each letter's class representative, by ``words.class_reps``."""
        if self._rep is None:
            self._rep = class_reps(self.leq, self.alphabet)
        return self._rep

    def numbering(self) -> tuple[list, list]:
        """The class number of each letter and the class representatives in
        number order, for the classes of the alphabet."""
        if self._classes is None:
            self._classes = _numbering(self, self.class_map())
        return self._classes

    def census(self) -> list:
        """Every class vector realized by a word with product x, as count
        tuples in order of total; the length set must be finite, so no such
        word is longer than its largest length."""
        if self._census is None:
            lengths = self.length_set()
            if not lengths.is_finite:
                raise NotComputableError("an infinite length set has no finite census")
            self._census = []
            if not lengths.is_empty:
                cls_of, reps = self.numbering()
                self._census = _class_vectors(self, cls_of, len(reps), lengths.finite[-1])
        return self._census

    def class_count(self) -> int | None:
        """The size of the census; None when the length set is infinite."""
        return len(self.census()) if self.length_set().is_finite else None

    def minimal_classes(self) -> tuple:
        """All minimal factorization classes of x: class vectors minimal under
        sub-multiset order among realizable ones, each with its
        lexicographically least representative word.

        A finite length set has a complete census, and the minima are read
        off it. Otherwise the search is complete by the distinct-prefix
        bound: any longer factorization excises to a strictly smaller one, so
        every minimal vector has total within ``len(states) - 1``.
        """
        lengths = self.length_set()
        if lengths.is_empty:
            return ()
        cls_of, reps = self.numbering()
        if lengths.is_finite:
            vectors = _census_minima(self.census())
        else:
            vectors = _class_vectors(self, cls_of, len(reps), len(self.states) - 1, minimal=True)
        classes = [(_pairs(v, reps), _witness(self, cls_of, v)) for v in vectors]
        return tuple(sorted(classes, key=lambda vw: (vector_total(vw[0]), vw[0])))


# -- streaming enumeration -------------------------------------------------------


def enumerate_factorizations(P: Carrier, x, max_len: int, letters: str = "irreducibles"):
    """All alphabet-words of length 1..max_len with product x, in (length,
    lexicographic) order.

    The words of one length are grown a level at a time: each level holds
    the prefixes, in lexicographic order, whose state still reaches x in the
    letters left, and extends each by its letters in alphabet order, so the
    last level is the words in lexicographic order. No prefix is a dead end,
    so no level is longer than the words of that length.

    The unit targets of well-behaved instances yield nothing: a nonempty
    product of irreducibles cannot be a preorder unit when non-units form an
    ideal, and the empty word is excluded by contract.
    """
    auto = DivisorAutomaton(P, x, letters)
    if not auto.alphabet or max_len < 1:
        return
    # finish[j] = states that reach x in exactly j more letters
    finish = [1 << auto.goal]
    for _ in range(max_len):
        finish.append(auto.preimage(finish[-1]))
    table, alphabet = auto.table, auto.alphabet
    for length in range(1, max_len + 1):
        if finish[length] >> auto.start & 1:
            level = [((), auto.start)]
            for left in range(length - 1, -1, -1):
                need = finish[left]
                level = [
                    (word + (a,), q)
                    for word, p in level
                    for a, q in zip(alphabet, table[p])
                    if q >= 0 and need >> q & 1
                ]
            for word, _ in level:
                yield word


def _paths(root, moves, length: int):
    """Depth first, the paths of ``length`` >= 1 steps from ``root`` as tuples
    of letter indices. ``moves(node, left)`` gives the (letter index, next
    node) steps out of a node with ``left`` steps to go, in the order to try
    them; with one step left, every step it gives ends a path. The stack of
    move iterators stands in for recursion, so long words cannot reach the
    recursion limit.
    """
    word: list = []
    stack = [moves(root, length)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if word:
                word.pop()
        elif len(word) + 1 == length:
            yield (*word, step[0])
        else:
            word.append(step[0])
            stack.append(moves(step[1], length - len(word)))


# -- exact length sets -------------------------------------------------------------


def length_set(P: Carrier, x, letters: str = "irreducibles") -> LengthSet:
    """Exact set of word lengths over the alphabet with product x."""
    return DivisorAutomaton(P, x, letters).length_set()


def layer_automaton(P: Carrier, x, letters: str = "irreducibles"):
    """The layer-subset sequence with its (preperiod, period); for DOT export
    and diagnostics."""
    auto = DivisorAutomaton(P, x, letters)
    if not auto.alphabet:
        return [], 0, 1
    layers, first = auto.layers()
    return [auto.elements(m) for m in layers], first, len(layers) - first


def layer_automaton_dot(P: Carrier, x, letters: str = "irreducibles") -> str:
    layers, first, period = layer_automaton(P, x, letters)
    lines = ["digraph layers {", "  rankdir=LR;"]
    fmt = lambda s: "{" + ",".join(str(e) for e in sorted(s)) + "}"
    for i, s in enumerate(layers):
        shape = "doublecircle" if x in s else "circle"
        lines.append(f'  s{i} [label="L{i + 1}={fmt(s)}", shape={shape}];')
    for i in range(len(layers) - 1):
        lines.append(f"  s{i} -> s{i + 1};")
    if layers:
        lines.append(f"  s{len(layers) - 1} -> s{first} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


# -- class vectors -------------------------------------------------------------------
#
# Inside the engine a class vector is a count tuple over class numbers; the
# classes are numbered in the order of their representatives, so the public
# form, sorted (representative, count) pairs, is read off in order.


def _numbering(auto: DivisorAutomaton, rep) -> tuple[list, list]:
    """The class number of each letter of the automaton's alphabet and the
    representatives in number order; ``rep`` maps each letter to its class
    representative."""
    reps = sorted(set(rep.values()))
    number = {r: c for c, r in enumerate(reps)}
    return [number[rep[a]] for a in auto.alphabet], reps


def _pairs(counts: tuple, reps) -> tuple:
    return tuple((reps[c], k) for c, k in enumerate(counts) if k)


def _class_vectors(auto: DivisorAutomaton, cls_of, classes: int, cap: int, minimal: bool = False) -> list:
    """Class vectors of total at most ``cap`` realized by words with product x,
    in order of total (with ``minimal``, the vectors of one total in
    increasing order).

    Level k maps each vector of total k to the set of products of its words,
    all divisors of x. With ``minimal`` only the minimal vectors come out: a
    vector that dominates a realized one is dropped and a realized vector is
    not extended, so every realized survivor is minimal (by Dickson's lemma
    only the minimal generators of a monoid ideal matter).

    The minimal walk also cuts, once it has a minimum. After a level's
    realized vectors are recorded, each other vector v of it loses the states
    that cannot reach x, and is dropped when none are left, or when v plus
    the least count of each class on a path to x from the states left (see
    :func:`_cut`) has total above ``cap`` or dominates a minimum. This is
    exact: every realized extension of v continues from one of those states,
    so it is at least that vector. The cut is built once per walk, at the
    level of its first minimum; a walk that is about to end never builds it.

    Inside the walk a vector is one int whose digit c in base ``cap + 1`` is
    the count of class c, so a letter of class c adds ``weight[c]``; its
    counts are read off only where it is recorded or tested for dominance.
    Each distinct set of states gets its step list once.
    """
    base = cap + 1
    weight = [base**c for c in range(classes)]
    # with one class a state's row is its successor mask; otherwise the class
    # rows of the states the walk visits are worked out on first lookup
    rows = auto.succ if classes == 1 else _Lazy(lambda i: _class_row(auto.table[i], cls_of, classes))
    steps: dict = {}
    goal = 1 << auto.goal
    above = _above([cap] * classes) if minimal else None
    cut = None
    found: list = []
    level = {0: 1 << auto.start}
    for total in range(1, cap + 1):
        nxt: dict = {}
        for vec, mask in level.items():
            step = steps.get(mask)
            if step is None:
                step = steps[mask] = _steps(mask, rows, weight)
            for w, img in step:
                v = vec + w
                nxt[v] = nxt.get(v, 0) | img
        level = {}
        met = []
        full = (1 << len(found)) - 1
        for v, mask in nxt.items():
            if minimal and found and _dominates(_digits(v, weight, base), above, full):
                continue
            if mask & goal:
                met.append(tuple(_digits(v, weight, base)))
                if minimal:
                    continue
            level[v] = mask
        if minimal:
            # the cut changes which vector of a total is met first, so the
            # minima of one total come out in increasing order; two distinct
            # vectors of one total never dominate each other, so they are
            # marked once the level is done
            met.sort()
            for m in met:
                _mark(above, m, full + 1)
                full += full + 1
        found += met
        # a one-class walk ends at its first minimum, so only several classes
        # build the cut
        if minimal and found and level and cut is None and total < cap:
            cut = _cut(auto, rows, weight)
        if cut is not None:
            kept = {}
            for v, mask in level.items():
                entry = cut[mask]
                if entry is not None:
                    live, inc, extra = entry
                    if total + extra <= cap and not (extra and _dominates(_digits(v + inc, weight, base), above, full)):
                        kept[v] = live
            level = kept
        if not level:
            break
    return found


def _class_row(row, cls_of, classes: int) -> list:
    """For each class in order, the mask of the states that its letters lead
    to from the state with table row ``row``."""
    out = [0] * classes
    for c, q in zip(cls_of, row):
        if q >= 0:
            out[c] |= 1 << q
    return out


def _steps(mask: int, rows, weight) -> list:
    """The (weight, image) step of each class whose letters lead somewhere
    out of the states in ``mask`` (never empty), in class order."""
    if len(weight) == 1:
        image = _image(mask, rows)
        return [(1, image)] if image else []
    acc = None
    while mask:
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        acc = row if acc is None else list(map(or_, acc, row))
        mask ^= low
    return [(w, img) for w, img in zip(weight, acc) if img]


def _digits(v: int, weight, base: int):
    """The counts of a vector written as an int, lazily in class order."""
    return map(base.__rmod__, map(v.__floordiv__, weight))


def _cut(auto: DivisorAutomaton, rows, weight) -> _Lazy:
    """For each set of states, looked up on first use: None when none of them
    can reach x, else (live, inc, extra) with ``live`` the states that can,
    ``inc`` the least number of class-c letters on a path from ``live`` to x
    at digit c, and ``extra`` the total of ``inc``.

    Built once per walk, by sweeps over the states that can reach x: first
    those states themselves, over the successor masks; then, per class c, a
    0-1 breadth-first search back from x in which a class-c letter costs 1
    and any other letter 0, giving ``layers[j]``, the states with a path to
    x through at most j letters of class c. A class whose first layer holds
    every such state never adds to ``inc`` and is left out.
    """
    goal = auto.goal
    live, _ = _close([i for i in auto._ids if i != goal], auto.succ, 1 << goal)
    states = [i for i in auto._ids if live >> i & 1 and i != goal]
    # multi[s]: the states that letters of two classes or more lead to from s;
    # a letter of a class other than c then leads from s to those of
    # ``succ[s] & ~own[s] | own[s] & multi[s]``, own[s] being its class-c row
    multi = {}
    for s in states:
        seen = both = 0
        for img in rows[s]:
            both |= seen & img
            seen |= img
        multi[s] = both
    counted = []
    for c, w in enumerate(weight):
        own = {s: rows[s][c] for s in states}
        free = {s: auto.succ[s] & ~own[s] | own[s] & multi[s] for s in states}
        reached, pending = _close(states, free, 1 << goal)
        layers = [reached]
        while pending:
            reached |= _bitset(s for s in pending if own[s] & reached)
            reached, pending = _close(pending, free, reached)
            layers.append(reached)
        if len(layers) > 1:
            counted.append((w, layers))

    def entry(mask):
        mask &= live
        if not mask:
            return None
        inc = extra = 0
        for w, layers in counted:
            j = 0
            while not mask & layers[j]:
                j += 1
            inc += w * j
            extra += j
        return mask, inc, extra

    return _Lazy(entry)


def _close(pending: list, step, reached: int) -> tuple:
    """``reached`` grown by each of the ``pending`` states with a path into
    it along the ``step`` masks, and the pending states left out."""
    while True:
        left = len(pending)
        for s in pending:
            if step[s] & reached:
                reached |= 1 << s
        pending = [s for s in pending if not reached >> s & 1]
        if len(pending) == left:
            return reached, pending


# Dominance against a growing list of minima: ``above[c][k]`` is the bitmask
# of the minima with count above k in class c, and row c runs up to the
# largest count of class c that is ever tested. A vector dominates a minimum
# exactly when that minimum is in none of the rows at its counts, so marking a
# minimum costs its total.


def _above(tops) -> list:
    return [[0] * (top + 1) for top in tops]


def _mark(above, v: tuple, bit: int) -> None:
    for row, k in zip(above, v):
        for j in range(k):
            row[j] |= bit


def _dominates(v, above, full: int) -> bool:
    """Whether v dominates one of the minima whose bits make up ``full``."""
    acc = 0
    for row, k in zip(above, v):
        acc |= row[k]
        if acc == full:
            return False
    return True


def _census_minima(vectors) -> list:
    """The minimal vectors of a census listed in order of total. A vector
    below another has a smaller total, and two distinct vectors of equal
    total are never ordered, so each vector is tested only against the
    minima before it."""
    above = _above(map(max, zip(*vectors)))
    out: list = []
    for v in vectors:
        if not _dominates(v, above, (1 << len(out)) - 1):
            _mark(above, v, 1 << len(out))
            out.append(v)
    return out


def _witness(auto: DivisorAutomaton, cls_of, counts: tuple):
    """Lexicographically least alphabet word with the given class counts and
    product x, or None."""
    table, goal = auto.table, auto.goal
    dead: set = set()

    def moves(node, left):
        p, rem = node
        for j, q in enumerate(table[p]):
            c = cls_of[j]
            if q >= 0 and rem[c] and (left > 1 or q == goal):
                after = (q, rem[:c] + (rem[c] - 1,) + rem[c + 1:])
                if after not in dead:
                    yield j, after
        dead.add(node)  # reached only when no move led to a witness

    path = next(_paths((auto.start, counts), moves, sum(counts)), None)
    return None if path is None else tuple(auto.alphabet[j] for j in path)


def realizable_vectors(P: Carrier, x, letters: str = "irreducibles"):
    """Exact census of the class vectors realized by factorizations of x.

    Returns (vectors, infinite). A finite alphabet has finitely many vectors
    of each total, so infinitely many are realized exactly when the length
    set is infinite; the census then returns ``((), True)`` without listing
    any. Otherwise no factorization is longer than the largest length, and
    every realized vector is listed.
    """
    auto = DivisorAutomaton(P, x, letters)
    lengths = auto.length_set()
    if not lengths.is_finite:
        return (), True
    if lengths.is_empty:
        return (), False
    reps = auto.numbering()[1]
    return tuple(sorted(_pairs(v, reps) for v in auto.census())), False


def minimal_factorization_classes(P: Carrier, x, letters: str = "irreducibles"):
    """All minimal factorization classes of x, each with its least word."""
    return DivisorAutomaton(P, x, letters).minimal_classes()


def _literal_classes(atom: DivisorAutomaton, rep, minimal) -> tuple:
    """The minimal irreducible classes that atom words realize, each with its
    least atom word; the witness search visits only sub-vectors of them."""
    cls_of, reps = _numbering(atom, rep)
    out = []
    for vec, _ in minimal:
        counts = dict(vec)
        word = _witness(atom, cls_of, tuple(counts.get(r, 0) for r in reps))
        if word is not None:
            out.append((vec, word))
    return tuple(out)


# -- per-element profile ---------------------------------------------------------------


@dataclass
class ElementProfile:
    """Exact factorization data of one element."""

    element: object
    irreducible_divisors: tuple
    atom_divisors: tuple
    lengths: LengthSet
    atomic_lengths: LengthSet
    class_count: int | None  # None = infinitely many
    atomic_class_count: int | None
    minimal: tuple  # ((vector, word), ...)
    minimal_atomic_within: tuple
    minimal_atomic_literal: tuple

    def _readings(self) -> dict:
        """The minimal-class readings by object id: a reading that several
        fields hold (all three whenever every irreducible divisor is an atom)
        is one entry."""
        return {id(r): r for r in (self.minimal, self.minimal_atomic_within, self.minimal_atomic_literal)}

    def to_json(self) -> dict:
        # one list per reading object, so that the writer writes it once
        lists = {key: _class_list(r) for key, r in self._readings().items()}
        return {
            "element": self.element,
            "irreducible_divisors": list(self.irreducible_divisors),
            "atom_divisors": list(self.atom_divisors),
            "lengths": self.lengths.to_json(),
            "atomic_lengths": self.atomic_lengths.to_json(),
            "class_count": self.class_count,
            "atomic_class_count": self.atomic_class_count,
            "minimal": lists[id(self.minimal)],
            "minimal_atomic_within": lists[id(self.minimal_atomic_within)],
            "minimal_atomic_literal": lists[id(self.minimal_atomic_literal)],
        }


def _class_list(classes) -> list:
    return [[list(map(list, v)), list(w)] for v, w in classes]


def element_profile(P: Carrier, x) -> ElementProfile:
    irr = DivisorAutomaton(P, x, "irreducibles")
    lengths, class_count, minimal = irr.length_set(), irr.class_count(), irr.minimal_classes()
    irr_alpha = irr.alphabet
    atom_alpha = tuple(a for a in irr_alpha if is_atom(P, a))
    if atom_alpha == irr_alpha:
        # every irreducible divisor is an atom, so the atomic data coincide
        atomic_lengths, atomic_class_count, within, literal = lengths, class_count, minimal, minimal
    else:
        atom = DivisorAutomaton(P, x, "atoms")
        atomic_lengths, atomic_class_count, within = atom.length_set(), atom.class_count(), atom.minimal_classes()
        # literal reading of minimal atomic classes: minimal among all
        # irreducible factorizations, then intersect with atom words
        literal = _literal_classes(atom, irr.class_map(), minimal)
    return ElementProfile(
        element=x,
        irreducible_divisors=irr_alpha,
        atom_divisors=atom_alpha,
        lengths=lengths,
        atomic_lengths=atomic_lengths,
        class_count=class_count,
        atomic_class_count=atomic_class_count,
        minimal=minimal,
        minimal_atomic_within=within,
        minimal_atomic_literal=literal,
    )


# -- the classification lattice ---------------------------------------------------------
#
# One column per kind of factorization. A column's length set and class count
# give its own flag and BF/FF/HF/UF; each of its minimal-class readings gives
# BmF/FmF/HmF/UmF. The flag names, each element's flags, the witness payloads
# and the diagram arrows are all read off this table.


@dataclass(frozen=True)
class _Column:
    name: str
    lengths: str  # the profile fields the column reads
    class_count: str
    minimal: tuple  # ((flag suffix, profile field), ...); the diagram uses the first


_COLUMNS = (
    _Column("factorable", "lengths", "class_count", (("factorable", "minimal"),)),
    _Column("atomic", "atomic_lengths", "atomic_class_count",
            (("atomic-within", "minimal_atomic_within"), ("atomic-literal", "minimal_atomic_literal"))),
)

# conditions on a column's length set and class count; None is the column's
# own flag, "x has such a factorization"
_PLAIN = {
    None: lambda lengths, count: not lengths.is_empty,
    "BF": lambda lengths, count: not lengths.is_empty and lengths.is_finite,
    "FF": lambda lengths, count: count is not None and count > 0,
    "HF": lambda lengths, count: lengths.singleton(),
    "UF": lambda lengths, count: count == 1,
}
# conditions on a minimal-class reading ((vector, word), ...), given its
# number of classes and its number of distinct totals
_MINIMAL = {
    "BmF": lambda classes, totals: totals > 0,
    "FmF": lambda classes, totals: classes > 0,
    "HmF": lambda classes, totals: totals == 1,
    "UmF": lambda classes, totals: classes == 1,
}


def _flag_name(k, suffix: str) -> str:
    return suffix if k is None else f"{k}-{suffix}"


def _flag_table() -> dict:
    """Flag name -> (column, minimal-class field or None, condition)."""
    table = {}
    for col in _COLUMNS:
        for k, test in _PLAIN.items():
            table[_flag_name(k, col.name)] = (col, None, test)
        for suffix, attr in col.minimal:
            for k, test in _MINIMAL.items():
                table[_flag_name(k, suffix)] = (col, attr, test)
    return table


_FLAGS = _flag_table()
FLAG_NAMES = tuple(_FLAGS)

# implication arrows within one column, its minimal flags on its first reading
_LADDER = (
    ("UF", "FF"), ("UF", "HF"), ("UF", "UmF"), ("FF", "FmF"), ("FF", "BF"),
    ("HF", "HmF"), ("HF", "BF"), ("BF", "BmF"), ("UmF", "FmF"), ("UmF", "HmF"),
    ("FmF", "BmF"), ("HmF", "BmF"), ("BmF", None),
)


def _ladder(col: _Column) -> tuple:
    suffix = {k: col.minimal[0][0] for k in _MINIMAL}
    return tuple(tuple(_flag_name(k, suffix.get(k, col.name)) for k in arrow) for arrow in _LADDER)


# the two ladders joined by atomic -> factorable; the minimal-atomic column
# uses the within-Z(x;A) reading
DIAGRAM_EDGES = _ladder(_COLUMNS[0]) + ((_COLUMNS[1].name, _COLUMNS[0].name),) + _ladder(_COLUMNS[1])


@dataclass
class Classification:
    scope: str
    vacuous: bool
    flags: dict
    witnesses: dict
    profiles: dict = field(default_factory=dict)

    def __getitem__(self, key: str) -> bool:
        return self.flags[key]

    def to_json(self, include_profiles: bool = False) -> dict:
        out = {
            "scope": self.scope,
            "vacuous": self.vacuous,
            "flags": dict(sorted(self.flags.items())),
            "witnesses": {k: v for k, v in sorted(self.witnesses.items())},
        }
        if include_profiles:
            out["profiles"] = {
                str(x): p.to_json() for x, p in sorted(self.profiles.items(), key=lambda kv: str(kv[0]))
            }
        return out

    def diagram_violations(self) -> tuple:
        return tuple(
            (a, b) for a, b in DIAGRAM_EDGES if self.flags[a] and not self.flags[b]
        )


def _element_flags(p: ElementProfile) -> dict:
    # (classes, distinct totals) of each reading object
    sizes = {key: (len(r), len({vector_total(v) for v, _ in r})) for key, r in p._readings().items()}
    return {
        name: test(*sizes[id(getattr(p, attr))]) if attr
        else test(getattr(p, col.lengths), getattr(p, col.class_count))
        for name, (col, attr, test) in _FLAGS.items()
    }


def classify(P: Carrier, elements=None) -> Classification:
    """Classification over the given non-units (default: every non-unit of a
    finite carrier).  Vacuously all-true when there are none."""
    if elements is None:
        elements = P.nonunits()
        scope = f"all {len(elements)} non-units (exhaustive)"
    else:
        elements = tuple(x for x in elements if not P.is_unit(x))
        scope = f"{len(elements)} sampled non-units"
    flags = {name: True for name in FLAG_NAMES}
    witnesses: dict = {}
    profiles: dict = {}
    for x in elements:
        prof = element_profile(P, x)
        profiles[x] = prof
        for name, value in _element_flags(prof).items():
            if not value and flags[name]:
                flags[name] = False
                witnesses[name] = _witness_payload(name, prof)
    return Classification(
        scope=scope,
        vacuous=not elements,
        flags=flags,
        witnesses=witnesses,
        profiles=profiles,
    )


def _witness_payload(name: str, p: ElementProfile) -> dict:
    """The element with the fields the flag reads."""
    col, attr, _ = _FLAGS[name]
    payload = {
        "element": p.element,
        col.lengths: getattr(p, col.lengths).to_json(),
        col.class_count: getattr(p, col.class_count),
    }
    if attr:
        payload["minimal_classes"] = [list(map(list, v)) for v, _ in getattr(p, attr)]
    return payload
