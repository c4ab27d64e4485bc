"""Batch command-line front door.

Subcommands: describe, factorize, classify, verify.  Instances come from
family specifier strings (zn:4, powerN:3, b:c3:1,2, numerical:2,3, n2sub:4,
remarkN:20, power:FILE, matrix:FILE, present:xy:x2=yx2y:10) or from a monoid
JSON file plus an optional preorder JSON.  Identical configuration and seed
produce byte-identical JSON output.

Elements of a table are indices, or identity-containing sets such as {0,1}
for power:FILE over a base of at most 4 elements.  A lazily presented family
reads its own element text (``LocallyFiniteMonoid.parse``): 7, (5,2), {1,2},
0.1,0.1 for the dihedral group, or {1} for the powerN set {0,1}.

Exit codes: 0 success, 2 input error, 3 unknown element, 4 verification
failure, 5 stdout closed before the output was written.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
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
    prefix_bound,
)
from .irreducibles import (
    irreducible_generating_set,
    irreducible_report,
    is_atom,
    is_irreducible,
    is_quark,
)
from .localfinite import LocalPremonoid
from .monoid import FiniteMonoid
from .premonoid import Premonoid
from .preorder import divisibility_preorder, preorder_from_json
from .presentations import presentation_explore
from .randgen import random_premonoid
from .verify import verify_local, verify_matrix, verify_presentation, verify_suite


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- instance construction ----------------------------------------------------------


class Instance:
    """A parsed instance: finite premonoid, local premonoid, matrix, or
    presentation."""

    def __init__(self, spec: str, kind: str, payload, labels=None, parse_label=None):
        self.spec = spec
        self.kind = kind  # "finite" | "local" | "matrix" | "presentation"
        self.payload = payload
        self.labels = labels  # a labelled finite carrier: index -> label
        self.parse_label = parse_label  # and element text -> label

    def parse_element(self, text: str):
        try:
            if self.kind == "finite":
                if self.labels is not None:
                    return self.labels.index(self.parse_label(text))
                n = self.payload.monoid.n
                try:
                    x = int(text)
                except ValueError:
                    raise ValueError(f"expected an integer from 0 to {n - 1}") from None
                if not 0 <= x < n:
                    raise ValueError(f"{x} is outside the carrier")
                return x
            if self.kind == "local":
                return self.payload.monoid.parse(text)
        except PremonoidsError as exc:
            raise CliError(str(exc), 3) from exc
        except (ValueError, IndexError) as exc:
            raise CliError(f"cannot parse element {text!r}: {exc}", 3) from exc
        raise CliError(f"instances of kind {self.kind} take no elements", 3)


def load_instance(spec: str, preorder_spec: str | None = None) -> Instance:
    try:
        return _load_instance(spec, preorder_spec)
    except PremonoidsError as exc:
        raise CliError(str(exc), 2) from exc
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise CliError(f"cannot load instance {spec!r}: {exc}", 2) from exc


def _finite_with_preorder(monoid: FiniteMonoid, preorder_spec, spec) -> Instance:
    if preorder_spec in (None, "divisibility"):
        rel = divisibility_preorder(monoid)
    else:
        try:
            with open(preorder_spec, "r", encoding="utf-8") as fh:
                rel = preorder_from_json(json.load(fh), monoid=monoid)
        except (PremonoidsError, OSError, ValueError, KeyError, RecursionError) as exc:
            raise CliError(f"cannot load preorder file {preorder_spec!r}: {exc}", 2) from exc
    return Instance(spec, "finite", Premonoid(monoid, rel))


# families ordered by divisibility; they and remarkN fix their preorder, and
# only zn: and monoid files take --preorder
_DIVISIBILITY_FAMILIES = ("power", "powerN", "b", "numerical", "n2sub", "matrix", "present")


def _integer(text: str, form: str) -> int:
    """``text`` read as an int; ``form`` says where the specifier expects it."""
    try:
        return int(text)
    except ValueError:
        raise ShapeError(f"{form}, got {text!r}") from None


def _load_instance(spec: str, preorder_spec: str | None) -> Instance:
    head, _, rest = spec.partition(":")
    if head in _DIVISIBILITY_FAMILIES and preorder_spec not in (None, "divisibility"):
        raise ShapeError(f"{head} instances fix the divisibility preorder")
    if head == "remarkN" and preorder_spec is not None:
        raise ShapeError("remarkN instances fix their rule preorder")
    if head == "zn":
        n = _integer(rest, "zn:N takes an integer N")
        return _finite_with_preorder(fam.make_zn(n), preorder_spec, spec)
    if head == "power":
        base = FiniteMonoid.from_file(rest)
        if base.n <= 4:
            P, labels = fam.power_premonoid_finite(base)
            return Instance(spec, "finite", P, labels=labels, parse_label=fam.PowerMonoid(base).parse)
        return Instance(spec, "local", fam.power_premonoid(base))
    if head == "powerN":
        n = _integer(rest, "powerN:N takes an integer N")
        return Instance(spec, "local", fam.reduced_power_N_premonoid(n))
    if head == "b":
        group_spec, _, support_text = rest.partition(":")
        if group_spec == "dinf":
            support = fam.parse_multiset_text(support_text)
            monoid = fam.make_product_one_dihedral(support) if support else fam.make_product_one_dihedral()
        elif group_spec.startswith("c"):
            order = _integer(group_spec[1:], "b:cN takes an integer group order N")
            exponents = fam.parse_set_text(support_text) or tuple(range(1, order))
            monoid = fam.make_product_one(fam.cyclic_group(order), exponents)
        else:
            raise ShapeError(f"unknown group spec {group_spec!r}")
        return Instance(spec, "local", LocalPremonoid(monoid))
    if head == "numerical":
        gens = [_integer(g, "numerical:A,B,... takes comma-separated integers") for g in rest.split(",")]
        return Instance(spec, "local", fam.numerical_premonoid(gens))
    if head == "n2sub":
        bound = _integer(rest, "n2sub:B takes an integer bound B")
        return Instance(spec, "local", fam.n2_premonoid(bound))
    if head == "remarkN":
        n = _integer(rest, "remarkN:N takes an integer N")
        return Instance(spec, "local", fam.make_remark_premonoid(n))
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
                lhs, eq, rhs = chunk.partition("=")
                if not eq:
                    raise ShapeError(f"present:ALPHABET:RELATIONS:BOUND takes relations LHS=RHS, got {chunk!r}")
                relations.append((lhs, rhs))
        bound = _integer(bound_text, "present:ALPHABET:RELATIONS:BOUND takes an integer BOUND")
        return Instance(spec, "presentation", (alphabet, tuple(relations), bound))
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
    nonunits = P.nonunit_sample()
    payload = {
        "instance": instance.spec,
        "kind": "locally-finite",
        "scope": f"sample of {len(sample)} elements",
        "sample_units": _fmt_labels(instance, [x for x in sample if P.is_unit(x)]),
        "premonoid_flags": P.bounded_flags(sample[:12]).to_json(),
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
            "search_bound": prefix_bound(P, x),
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
        report = classify(P, elements=sample)
    out = {"instance": instance.spec, **report.to_json(include_profiles=with_profiles)}
    out["diagram_violations"] = [list(v) for v in report.diagram_violations()]
    return out


def verify_payload(instances, random_count: int, seed: int) -> tuple[dict, bool]:
    reports = []
    for spec in instances:
        instance = load_instance(spec)
        if instance.kind == "finite":
            results = verify_suite(instance.payload, seed=seed)
        elif instance.kind == "local":
            results = verify_local(instance.payload)
        elif instance.kind == "matrix":
            results = verify_matrix(instance.payload, seed)
        else:
            results = verify_presentation(*instance.payload)
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
        text = payload  # describe and factorize hand dot output over as text
    elif args.format == "text":
        text = _as_text(payload)
    else:
        text = _dumps(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc.strerror}", 2) from exc
    else:
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, inside main, and not at exit


_LEAF = json.JSONEncoder(sort_keys=True).encode
_INT = {int}


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` set, ``json`` falls back to its pure-Python generator
    encoder. This writer walks the containers itself into one chunk list and
    hands every leaf and every key to the C compact encoder, so escaping and
    float text stay the stdlib's own; a list of plain ints is one join. The
    open, separator and close strings are built once per depth and shared by
    every container at that depth, and each str key is encoded once.
    A container met again at the same depth is walked once: its chunk span is
    joined on its first repeat and reused after that (``obj`` keeps every
    container alive, so ids stay unique while it is written).
    """
    chunks: list = []
    append = chunks.append
    depths: list = []  # depths[d]: list open, dict open, separator, list close, dict close
    keys: dict = {}
    written: dict = {}  # (id, depth) -> chunk span (start, end), then the joined text

    def strings(depth):
        while len(depths) <= depth:
            outer = "\n" + "  " * len(depths)
            inner = outer + "  "
            depths.append(("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}"))
        return depths[depth]

    def key_text(key):
        if isinstance(key, str):
            text = keys.get(key)
            if text is None:
                text = keys[key] = _LEAF(key) + ": "
            return text
        if isinstance(key, (int, float)) or key is None:
            return _LEAF(_LEAF(key)) + ": "
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")

    def write(o, depth):
        if not isinstance(o, (list, tuple, dict)):
            append(int.__repr__(o) if type(o) is int else _LEAF(o))
            return
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
            return
        key = id(o), depth
        done = written.get(key)
        if done is not None:
            if type(done) is tuple:
                done = written[key] = "".join(chunks[done[0]:done[1]])
            append(done)
            return
        start = len(chunks)
        # a nonempty container ends each item with the separator; the last
        # one is then swapped for the close
        if isinstance(o, dict):
            _, open_dict, sep, _, close_dict = strings(depth)
            append(open_dict)
            for k, v in sorted(o.items()):
                append(key_text(k))
                write(v, depth + 1)
                append(sep)
            chunks[-1] = close_dict
        else:
            open_list, _, sep, close_list, _ = strings(depth)
            append(open_list)
            if {*map(type, o)} == _INT:
                append(sep.join(map(int.__repr__, o)))
                append(close_list)
            else:
                for v in o:
                    write(v, depth + 1)
                    append(sep)
                chunks[-1] = close_list
        written[key] = start, len(chunks)

    try:
        write(obj, 0)
    finally:
        # write reaches itself through its closure; without this the cycle
        # keeps chunks and written alive until a full collection
        del write
    return "".join(chunks)


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and kept: it is
    the same for every call, and parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="premonoids",
        description="factorization arithmetic of finite and locally finite monoids under a preorder",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_desc = sub.add_parser("describe", help="flags, units, quarks/irreducibles/atoms")
    p_desc.add_argument("instance")
    p_desc.add_argument("--degree", default="2", help="comma-separated degrees, each >= 2")

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

    p_cls = sub.add_parser("classify", help="full classification lattice with witnesses")
    p_cls.add_argument("instance")
    p_cls.add_argument("--element", default=None)
    p_cls.add_argument("--profiles", action="store_true")

    p_ver = sub.add_parser("verify", help="run the theorem checks")
    p_ver.add_argument("instances", nargs="*")
    p_ver.add_argument("--random", type=int, default=0, dest="random_count")
    p_ver.add_argument("--seed", type=int, default=0)
    for p in (p_desc, p_fact, p_cls):
        p.add_argument("--preorder", default=None, help="preorder JSON file, or 'divisibility'")
    for p in (p_desc, p_fact, p_cls, p_ver):
        dot = ("dot",) if p in (p_desc, p_fact) else ()
        p.add_argument("--format", choices=("json", "text", *dot), default="json")
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
            if args.max_len < 0:
                raise CliError(f"--max-len must be >= 0, got {args.max_len}", 2)
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
            if args.random_count < 0:
                raise CliError(f"--random must be >= 0, got {args.random_count}", 2)
            payload, ok = verify_payload(args.instances, args.random_count, args.seed)
            _emit(payload, args)
            return 0 if ok else 4
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PremonoidsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); point stdout at devnull
        # so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 5
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
