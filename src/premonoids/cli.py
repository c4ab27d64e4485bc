"""Batch command-line front door.

Subcommands: describe, factorize, classify, verify.  Instances come from
family specifier strings (zn:4, powerN:3, b:c3:1,2, numerical:2,3, n2sub:4,
remarkN:20, power:FILE, matrix:FILE, present:xy:x2=yx2y:10) or from a monoid
JSON file plus an optional preorder JSON.  Identical configuration and seed
produce byte-identical JSON output.

Exit codes: 0 success, 2 input error, 3 unknown element, 4 verification
failure.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import families as fam
from . import matrices as mx
from .errors import PremonoidsError, ShapeError
from .factorization import (
    classify,
    element_profile,
    enumerate_factorizations,
    layer_automaton_dot,
    length_set,
    minimal_factorization_classes,
)
from .irreducibles import (
    atoms,
    irreducible_generating_set,
    irreducible_report,
    irreducibles,
    is_atom,
    is_irreducible,
    is_quark,
    quarks,
)
from .localfinite import LocalPremonoid
from .monoid import FiniteMonoid
from .premonoid import Premonoid
from .preorder import divisibility_preorder, preorder_from_json
from .presentations import presentation_explore
from .randgen import random_premonoid
from .verify import CheckResult, verify_suite


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- instance construction ----------------------------------------------------------


class Instance:
    """A parsed instance: finite premonoid, local premonoid, matrix, or
    presentation."""

    def __init__(self, spec: str, kind: str, payload, labels=None):
        self.spec = spec
        self.kind = kind  # "finite" | "local" | "matrix" | "presentation"
        self.payload = payload
        self.labels = labels

    def parse_element(self, text: str):
        try:
            if self.kind == "finite":
                if self.labels is not None:
                    value = _parse_set_text(text)
                    return self.labels.index(value)
                x = int(text)
                if not 0 <= x < self.payload.monoid.n:
                    raise ValueError(f"{x} is outside the carrier")
                return x
            if self.kind == "local":
                monoid = self.payload.monoid
                if isinstance(monoid, (fam.PowerMonoid, fam.ReducedPowerN)):
                    return monoid.element(_parse_set_text(text))
                if isinstance(monoid, fam.ProductOneMonoid):
                    return monoid.element(_parse_multiset_text(text, monoid))
                if isinstance(monoid, fam.PlaneSubmonoid):
                    a, b = _parse_set_text(text)
                    if not monoid.contains((a, b)):
                        raise ValueError(f"({a}, {b}) is not in the carrier")
                    return (a, b)
                value = int(text)
                if not monoid.contains(value):
                    raise ValueError(f"{value} is not in the carrier")
                return value
        except PremonoidsError as exc:
            raise CliError(str(exc), 3) from exc
        except (ValueError, IndexError) as exc:
            raise CliError(f"cannot parse element {text!r}: {exc}", 3) from exc
        raise CliError(f"instances of kind {self.kind} take no elements", 3)


def _parse_set_text(text: str) -> tuple:
    cleaned = text.strip().strip("{}()[]")
    if not cleaned:
        return ()
    return tuple(sorted(int(part) for part in cleaned.split(",")))


def _parse_multiset_text(text: str, monoid) -> tuple:
    cleaned = text.strip().strip("{}()[]")
    if not cleaned:
        return ()
    parts = cleaned.split(",")
    out = []
    for part in parts:
        part = part.strip()
        if "." in part:
            k, e = part.split(".")
            out.append((int(k), int(e)))
        else:
            out.append(int(part))
    return tuple(sorted(out))


def load_instance(spec: str, preorder_spec: str | None = None) -> Instance:
    try:
        return _load_instance(spec, preorder_spec)
    except PremonoidsError as exc:
        raise CliError(str(exc), 2) from exc
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot load instance {spec!r}: {exc}", 2) from exc


def _finite_with_preorder(monoid: FiniteMonoid, preorder_spec, spec, labels=None) -> Instance:
    if preorder_spec in (None, "divisibility"):
        rel = divisibility_preorder(monoid)
    else:
        with open(preorder_spec, "r", encoding="utf-8") as fh:
            rel = preorder_from_json(json.load(fh), monoid=monoid)
    return Instance(spec, "finite", Premonoid(monoid, rel), labels=labels)


def _load_instance(spec: str, preorder_spec: str | None) -> Instance:
    head, _, rest = spec.partition(":")
    if head == "zn":
        return _finite_with_preorder(fam.make_zn(int(rest)), preorder_spec, spec)
    if head == "power":
        base = FiniteMonoid.from_file(rest)
        if base.n <= 4:
            P, labels = fam.power_premonoid_finite(base)
            if preorder_spec not in (None, "divisibility"):
                raise ShapeError("power instances fix the divisibility preorder")
            return Instance(spec, "finite", P, labels=labels)
        return Instance(spec, "local", fam.power_premonoid(base))
    if head == "powerN":
        return Instance(spec, "local", fam.reduced_power_N_premonoid(int(rest)))
    if head == "b":
        group_spec, _, support_text = rest.partition(":")
        if group_spec == "dinf":
            support = _parse_multiset_text(support_text, None) or ((0, 1), (1, 0))
            monoid = fam.make_product_one_dihedral(support)
        elif group_spec.startswith("c"):
            order = int(group_spec[1:])
            exponents = _parse_set_text(support_text) or tuple(range(1, order))
            monoid = fam.make_product_one(fam.cyclic_group(order), exponents)
        else:
            raise ShapeError(f"unknown group spec {group_spec!r}")
        return Instance(spec, "local", fam.product_one_premonoid(monoid))
    if head == "numerical":
        gens = [int(g) for g in rest.split(",")]
        return Instance(spec, "local", fam.numerical_premonoid(gens))
    if head == "n2sub":
        return Instance(spec, "local", fam.n2_premonoid(int(rest)))
    if head == "remarkN":
        return Instance(spec, "local", fam.make_remark_premonoid(int(rest)))
    if head == "matrix":
        with open(rest, "r", encoding="utf-8") as fh:
            a = mx.mat(json.load(fh))
        return Instance(spec, "matrix", a)
    if head == "present":
        alphabet, _, tail = rest.partition(":")
        relations_text, _, bound_text = tail.rpartition(":")
        relations = []
        if relations_text:
            for chunk in relations_text.split(","):
                lhs, _, rhs = chunk.partition("=")
                relations.append((lhs, rhs))
        return Instance(
            spec, "presentation", (alphabet, tuple(relations), int(bound_text))
        )
    # otherwise: a monoid JSON file
    return _finite_with_preorder(FiniteMonoid.from_file(spec), preorder_spec, spec)


# -- subcommand payload builders ------------------------------------------------------


def _fmt_label(instance: Instance, raw):
    if instance.labels is not None:
        return list(instance.labels[raw])
    if isinstance(raw, tuple):
        return list(raw)
    return raw


def _fmt_labels(instance: Instance, values) -> list:
    return [_fmt_label(instance, v) for v in values]


def _fmt_classes(instance: Instance, classes) -> list:
    return [
        {"vector": [[_fmt_label(instance, c), m] for c, m in vec],
         "representative": _fmt_labels(instance, word)}
        for vec, word in classes
    ]


def describe_payload(instance: Instance, degrees) -> dict:
    if instance.kind == "matrix":
        a = instance.payload
        result = mx.snf(a)
        divisor_classes = mx.matrix_divisor_classes(a)
        return {
            "instance": instance.spec,
            "kind": "matrix",
            "matrix": [list(r) for r in a],
            "det": mx.mat_det(a),
            "snf": result.to_json(),
            "invariant_factors": list(result.diagonal),
            "divisor_classes": divisor_classes.to_json(),
            "irreducible": mx.matrix_is_irreducible(a),
            "length_set": mx.matrix_length_set(a).to_json(),
        }
    if instance.kind == "presentation":
        alphabet, relations, bound = instance.payload
        return {
            "instance": instance.spec,
            "kind": "presentation",
            **presentation_explore(alphabet, relations, bound).to_json(),
        }
    P = instance.payload
    if instance.kind == "finite":
        report = irreducible_report(P, degrees)
        gen_set = None
        if P.flags().weakly_positive:
            gen_set = irreducible_generating_set(P).to_json()
        return {
            "instance": instance.spec,
            "kind": "finite",
            "n": P.monoid.n,
            "identity": P.monoid.identity,
            "element_labels": [
                _fmt_label(instance, x) for x in range(P.monoid.n)
            ]
            if instance.labels is not None
            else None,
            "monoid_units": sorted(P.monoid.units()),
            "structure_flags": P.monoid.structure_flags().to_json(),
            "preorder_units": sorted(P.units()),
            "premonoid_flags": P.flags().to_json(),
            "heights": list(P.heights()),
            "irreducible_report": report.to_json(),
            "irreducible_generating_set": gen_set,
        }
    sample = P.monoid.sample_elements()
    nonunits = [x for x in sample if not P.is_unit(x)]
    payload = {
        "instance": instance.spec,
        "kind": "locally-finite",
        "scope": f"sample of {len(sample)} elements",
        "sample_units": _fmt_labels(instance, [x for x in sample if P.is_unit(x)]),
        "premonoid_flags": P.bounded_flags(sample[: min(len(sample), 12)]).to_json(),
        "quarks": _fmt_labels(instance, [x for x in nonunits if is_quark(P, x)]),
        "heights": {
            str(_fmt_label(instance, x)): h for x, h in sorted(P.heights_of(nonunits).items())
        },
    }
    for s in degrees:
        payload[f"irreducibles_{s}"] = _fmt_labels(
            instance, [x for x in nonunits if is_irreducible(P, x, s)]
        )
        payload[f"atoms_{s}"] = _fmt_labels(
            instance, [x for x in nonunits if is_atom(P, x, s)]
        )
    return payload


def factorize_payload(
    instance: Instance,
    element_text: str,
    max_len: int,
    atomic_mode: str,
    minimal_only: bool = False,
) -> dict:
    if instance.kind not in ("finite", "local"):
        raise CliError(f"factorize does not apply to {instance.kind} instances", 2)
    P = instance.payload
    x = instance.parse_element(element_text)
    prof = element_profile(P, x)
    payload = {
        "instance": instance.spec,
        "element": _fmt_label(instance, x),
        "max_len": max_len,
        "lengths": prof.lengths.to_json(),
        "atomic_lengths": prof.atomic_lengths.to_json(),
        "minimal": {
            "certified_complete": True,
            "search_bound": P.prefix_bound(x),
            "classes": _fmt_classes(instance, prof.minimal),
        },
    }
    if not minimal_only:
        payload["words"] = [
            _fmt_labels(instance, w) for w in enumerate_factorizations(P, x, max_len)
        ]
    if atomic_mode in ("within", "both"):
        payload["minimal_atomic_within"] = _fmt_classes(instance, prof.minimal_atomic_within)
    if atomic_mode in ("paper", "both"):
        payload["minimal_atomic_literal"] = _fmt_classes(instance, prof.minimal_atomic_literal)
    return payload


def classify_payload(instance: Instance, element_text: str | None, with_profiles: bool) -> dict:
    if instance.kind not in ("finite", "local"):
        raise CliError(f"classify does not apply to {instance.kind} instances", 2)
    P = instance.payload
    if element_text is not None:
        x = instance.parse_element(element_text)
        prof = element_profile(P, x)
        return {
            "instance": instance.spec,
            "element": _fmt_label(instance, x),
            "profile": prof.to_json(),
        }
    if instance.kind == "finite":
        report = classify(P)
    else:
        sample = P.nonunit_sample()
        report = classify(P, elements=sample, scope=f"{len(sample)} sampled non-units")
    out = {"instance": instance.spec, **report.to_json(include_profiles=with_profiles)}
    out["diagram_violations"] = [list(v) for v in report.diagram_violations()]
    return out


def _verify_local(instance: Instance) -> list[CheckResult]:
    P = instance.payload
    sample = P.monoid.sample_elements()
    try:
        for x in sample[: min(len(sample), 8)]:
            P.monoid.check_divisor_laws(x)
        certificates = CheckResult("divisor-certificates", True, True)
    except AssertionError as exc:
        certificates = CheckResult("divisor-certificates", True, False, {"error": str(exc)})
    nonunits = P.nonunit_sample()
    violations = classify(P, elements=nonunits, scope="sample").diagram_violations()
    return [
        certificates,
        CheckResult(
            "classification-diagram",
            True,
            not violations,
            {"violations": [list(v) for v in violations]},
        ),
    ]


def _snf_self_check(name: str, a) -> CheckResult:
    try:
        mx.snf(a)  # self-checking
    except (AssertionError, PremonoidsError) as exc:
        return CheckResult(name, True, False, {"error": str(exc)})
    return CheckResult(name, True, True)


def _verify_matrix(instance: Instance, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    a = instance.payload
    checks = [_snf_self_check("snf-invariants", a)]
    ls = mx.matrix_length_set(a)
    omega = len(mx.factor_multiset(mx.mat_det(a)))
    expected = {omega} if omega else set()
    got = set(ls.members_upto(omega + 2))
    checks.append(
        CheckResult(
            "length-set-vs-prime-count",
            True,
            got == expected,
            {"lengths": sorted(got), "prime_count": omega},
        )
    )
    probes = CheckResult("snf-random-probes", True, True)
    for _ in range(10):
        n = len(a)
        b = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if mx.mat_det(b) == 0:
            continue
        probes = _snf_self_check("snf-random-probes", b)
        if not probes.passed:
            probes.details["matrix"] = [list(row) for row in b]
            break
    checks.append(probes)
    return checks


def _verify_presentation(instance: Instance) -> list[CheckResult]:
    alphabet, relations, bound = instance.payload
    report = presentation_explore(alphabet, relations, bound)
    return [CheckResult("bounded-exploration", True, True, report.to_json())]


def verify_payload(instances, random_count: int, seed: int) -> tuple[dict, bool]:
    reports = []
    for spec in instances:
        instance = load_instance(spec)
        if instance.kind == "finite":
            results = verify_suite(instance.payload, seed=seed)
        elif instance.kind == "local":
            results = _verify_local(instance)
        elif instance.kind == "matrix":
            results = _verify_matrix(instance, seed)
        else:
            results = _verify_presentation(instance)
        reports.append((spec, results))
    rng = random.Random(seed)
    for idx in range(random_count):
        reports.append((f"random[{idx}]", verify_suite(random_premonoid(rng), seed=seed + idx)))
    all_passed = all(r.passed or not r.applicable for _, results in reports for r in results)
    payload = {
        "seed": seed,
        "reports": [
            {"instance": name, "checks": [r.to_json() for r in results]}
            for name, results in reports
        ],
        "all_passed": all_passed,
    }
    return payload, all_passed


# -- rendering ---------------------------------------------------------------------


def _emit(payload, args) -> None:
    if args.format == "dot":
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    elif args.format == "text":
        text = _as_text(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _as_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_as_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(f"{pad}- {json.dumps(v, sort_keys=True)}" for v in payload)
    return f"{pad}{payload}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="premonoids",
        description="factorization arithmetic of finite and locally finite monoids under a preorder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preorder", default=None, help="preorder JSON file, or 'divisibility'")
        p.add_argument("--format", choices=("json", "text", "dot"), default="json")
        p.add_argument("--out", default=None)

    p_desc = sub.add_parser("describe", help="flags, units, quarks/irreducibles/atoms")
    p_desc.add_argument("instance")
    p_desc.add_argument("--degree", default="2", help="comma-separated degrees, each >= 2")
    common(p_desc)

    p_fact = sub.add_parser("factorize", help="factorizations, length set, minimal classes")
    p_fact.add_argument("instance")
    p_fact.add_argument("element")
    p_fact.add_argument("--max-len", type=int, default=6)
    p_fact.add_argument(
        "--minimal", action="store_true", help="report only the minimal classes, no word stream"
    )
    p_fact.add_argument(
        "--atomic-mode",
        choices=("paper", "within", "both"),
        default="both",
        help="minimal atomic classes: minimal overall then restricted to atom "
        "words ('paper'), minimal among atom words ('within'), or both",
    )
    common(p_fact)

    p_cls = sub.add_parser("classify", help="full classification lattice with witnesses")
    p_cls.add_argument("instance")
    p_cls.add_argument("--element", default=None)
    p_cls.add_argument("--profiles", action="store_true")
    common(p_cls)

    p_ver = sub.add_parser("verify", help="run the theorem checks")
    p_ver.add_argument("instances", nargs="*")
    p_ver.add_argument("--random", type=int, default=0, dest="random_count")
    p_ver.add_argument("--seed", type=int, default=0)
    common(p_ver)

    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            try:
                degrees = tuple(int(d) for d in args.degree.split(","))
            except ValueError:
                raise CliError(f"--degree takes comma-separated integers, got {args.degree!r}", 2) from None
            instance = load_instance(args.instance, args.preorder)
            if args.format == "dot":
                if instance.kind != "finite":
                    raise CliError("dot output needs a finite carrier", 2)
                _emit(instance.payload.preorder.condensation_dot(), args)
                return 0
            _emit(describe_payload(instance, degrees), args)
            return 0
        if args.command == "factorize":
            instance = load_instance(args.instance, args.preorder)
            if args.format == "dot":
                if instance.kind != "finite":
                    raise CliError("dot output needs a finite carrier", 2)
                x = instance.parse_element(args.element)
                _emit(layer_automaton_dot(instance.payload, x), args)
                return 0
            _emit(
                factorize_payload(
                    instance, args.element, args.max_len, args.atomic_mode, args.minimal
                ),
                args,
            )
            return 0
        if args.command == "classify":
            instance = load_instance(args.instance, args.preorder)
            _emit(classify_payload(instance, args.element, args.profiles), args)
            return 0
        if args.command == "verify":
            payload, ok = verify_payload(args.instances, args.random_count, args.seed)
            _emit(payload, args)
            return 0 if ok else 4
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PremonoidsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
