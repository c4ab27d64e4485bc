"""The classification lattice read off its column table, against the lattice
written out by hand.

The literals and the two oracles below are the flag names, the diagram
arrows, the element flags and the witness payloads as they were spelled out
flag by flag before the table; the derived ones must agree with them.
"""
import pytest

from premonoids import FiniteMonoid, Premonoid, divisibility_preorder, element_profile
from premonoids.factorization import DIAGRAM_EDGES, FLAG_NAMES, _element_flags, _witness_payload
from premonoids.families import zn_premonoid
from premonoids.randgen import monoid_pool
from premonoids.words import vector_total
from test_minimal_atomic_readings import capped_addition_zero_vs_positive

OLD_FLAG_NAMES = {
    "factorable",
    "atomic",
    "BF-factorable",
    "FF-factorable",
    "HF-factorable",
    "UF-factorable",
    "BmF-factorable",
    "FmF-factorable",
    "HmF-factorable",
    "UmF-factorable",
    "BF-atomic",
    "FF-atomic",
    "HF-atomic",
    "UF-atomic",
    "BmF-atomic-within",
    "FmF-atomic-within",
    "HmF-atomic-within",
    "UmF-atomic-within",
    "BmF-atomic-literal",
    "FmF-atomic-literal",
    "HmF-atomic-literal",
    "UmF-atomic-literal",
}

OLD_DIAGRAM_EDGES = (
    ("UF-factorable", "FF-factorable"),
    ("UF-factorable", "HF-factorable"),
    ("UF-factorable", "UmF-factorable"),
    ("FF-factorable", "FmF-factorable"),
    ("FF-factorable", "BF-factorable"),
    ("HF-factorable", "HmF-factorable"),
    ("HF-factorable", "BF-factorable"),
    ("BF-factorable", "BmF-factorable"),
    ("UmF-factorable", "FmF-factorable"),
    ("UmF-factorable", "HmF-factorable"),
    ("FmF-factorable", "BmF-factorable"),
    ("HmF-factorable", "BmF-factorable"),
    ("BmF-factorable", "factorable"),
    ("atomic", "factorable"),
    ("UF-atomic", "FF-atomic"),
    ("UF-atomic", "HF-atomic"),
    ("UF-atomic", "UmF-atomic-within"),
    ("FF-atomic", "FmF-atomic-within"),
    ("FF-atomic", "BF-atomic"),
    ("HF-atomic", "HmF-atomic-within"),
    ("HF-atomic", "BF-atomic"),
    ("BF-atomic", "BmF-atomic-within"),
    ("UmF-atomic-within", "FmF-atomic-within"),
    ("UmF-atomic-within", "HmF-atomic-within"),
    ("FmF-atomic-within", "BmF-atomic-within"),
    ("HmF-atomic-within", "BmF-atomic-within"),
    ("BmF-atomic-within", "atomic"),
)


def old_element_flags(p) -> dict:
    lengths_nonempty = not p.lengths.is_empty
    atomic_nonempty = not p.atomic_lengths.is_empty

    def totals(classes):
        return {vector_total(v) for v, _ in classes}

    min_lengths = totals(p.minimal)
    min_within = totals(p.minimal_atomic_within)
    min_literal = totals(p.minimal_atomic_literal)
    return {
        "factorable": lengths_nonempty,
        "atomic": atomic_nonempty,
        "BF-factorable": lengths_nonempty and p.lengths.is_finite,
        "FF-factorable": p.class_count is not None and p.class_count > 0,
        "HF-factorable": p.lengths.singleton(),
        "UF-factorable": p.class_count == 1,
        "BmF-factorable": len(min_lengths) > 0,
        "FmF-factorable": len(p.minimal) > 0,
        "HmF-factorable": len(min_lengths) == 1,
        "UmF-factorable": len(p.minimal) == 1,
        "BF-atomic": atomic_nonempty and p.atomic_lengths.is_finite,
        "FF-atomic": p.atomic_class_count is not None and p.atomic_class_count > 0,
        "HF-atomic": p.atomic_lengths.singleton(),
        "UF-atomic": p.atomic_class_count == 1,
        "BmF-atomic-within": len(min_within) > 0,
        "FmF-atomic-within": len(p.minimal_atomic_within) > 0,
        "HmF-atomic-within": len(min_within) == 1,
        "UmF-atomic-within": len(p.minimal_atomic_within) == 1,
        "BmF-atomic-literal": len(min_literal) > 0,
        "FmF-atomic-literal": len(p.minimal_atomic_literal) > 0,
        "HmF-atomic-literal": len(min_literal) == 1,
        "UmF-atomic-literal": len(p.minimal_atomic_literal) == 1,
    }


def old_witness_payload(name: str, p) -> dict:
    payload = {"element": p.element}
    if "atomic" in name:
        payload["atomic_lengths"] = p.atomic_lengths.to_json()
        payload["atomic_class_count"] = p.atomic_class_count
    else:
        payload["lengths"] = p.lengths.to_json()
        payload["class_count"] = p.class_count
    if name.startswith(("BmF", "FmF", "HmF", "UmF")):
        if name.endswith("literal"):
            payload["minimal_classes"] = [list(map(list, v)) for v, _ in p.minimal_atomic_literal]
        elif name.endswith("within"):
            payload["minimal_classes"] = [list(map(list, v)) for v, _ in p.minimal_atomic_within]
        else:
            payload["minimal_classes"] = [list(map(list, v)) for v, _ in p.minimal]
    return payload


def _divisibility_premonoid(table, identity) -> Premonoid:
    monoid = FiniteMonoid(table, identity)
    return Premonoid(monoid, divisibility_preorder(monoid))


def _profiles() -> list:
    instances = [_divisibility_premonoid(*entry) for entry in monoid_pool()]
    instances += [zn_premonoid(n) for n in range(1, 25)]
    # the two minimal-atomic readings differ here, so each payload must pick
    # its own reading
    instances += [capped_addition_zero_vs_positive(n) for n in (4, 5)]
    return [element_profile(P, x) for P in instances for x in P.nonunits()]


PROFILES = _profiles()


def test_flag_names_and_arrows_are_the_written_out_lattice():
    assert len(FLAG_NAMES) == len(set(FLAG_NAMES)) == 22
    assert set(FLAG_NAMES) == OLD_FLAG_NAMES
    assert DIAGRAM_EDGES == OLD_DIAGRAM_EDGES


def test_profiles_separate_the_readings():
    assert any(p.atom_divisors != p.irreducible_divisors for p in PROFILES)
    assert any(p.minimal_atomic_within != p.minimal_atomic_literal for p in PROFILES)


@pytest.mark.parametrize("name", sorted(OLD_FLAG_NAMES))
def test_witness_payload_matches_oracle(name):
    for p in PROFILES:
        assert _witness_payload(name, p) == old_witness_payload(name, p), (name, p.element)


def test_element_flags_match_oracle():
    for p in PROFILES:
        assert _element_flags(p) == old_element_flags(p), p.element
