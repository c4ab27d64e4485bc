"""Per-layer tracing for the benchmark's traced run.

``install`` wraps the public functions of each engine module from outside the
program: it replaces module functions in every ``premonoids`` module global
that holds them and methods on their classes. Each wrapped call is a span
(name, start, end, parent span, job) kept in memory; ``write_spans`` writes
them out at the end of a pass. Consecutive leaf spans of one name under one
parent are merged into one record with a call count, which keeps hot leaves
such as ``shuffle_leq_matching`` from filling memory.

Every ``*_s`` metric is self time: a span's duration minus the time of the
wrapped spans it encloses, summed over the pass. Per-element accessors used
in inner loops (``op``, ``leq``, ``lt``, ``equiv``, ``is_unit``, ``label``)
are not wrapped. Methods that answer from a per-instance cache are counted on
every call but timed only on a miss, so a cache hit costs a counter increment.
A target that no longer exists is skipped, and a metric with no target left
is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# (metric stem, module, attribute paths, cache attribute). The cache attribute
# names the per-instance cache the method fills: a dict keyed by the first
# argument, or a value that is None until computed.
TARGETS = [
    ("cli.load_instance", "cli", ["load_instance"], None),
    ("cli.payload", "cli", ["describe_payload", "factorize_payload", "classify_payload", "verify_payload"], None),
    ("cli.emit", "cli", ["main"], None),
    ("monoid.init", "monoid", ["FiniteMonoid.__init__"], None),
    ("monoid.principal_ideal", "monoid", ["FiniteMonoid.principal_ideal"], "_ideals"),
    ("monoid.divisors", "monoid", ["FiniteMonoid.divisors"], "_divisors"),
    ("monoid.units", "monoid", ["FiniteMonoid.units"], "_units"),
    ("monoid.structure_flags", "monoid", ["FiniteMonoid.structure_flags"], "_flags"),
    ("monoid.submonoid", "monoid", ["FiniteMonoid.submonoid"], None),
    ("preorder.divisibility", "preorder", ["divisibility_preorder"], None),
    ("preorder.closure", "preorder", ["_close"], None),
    ("preorder.restrict", "preorder", ["PreorderRel.restrict"], None),
    ("preorder.phi", "preorder", ["phi_preorder"], None),
    ("premonoid.flags", "premonoid", ["Premonoid.flags"], "_flags"),
    ("premonoid.heights", "premonoid", ["Premonoid.heights"], "_heights"),
    ("premonoid.units", "premonoid", ["Premonoid.units"], "_units"),
    ("premonoid.restrict", "premonoid", ["Premonoid.restrict"], None),
    ("localfinite.divisors", "localfinite", ["LocalPremonoid.divisors"], "_divcache"),
    ("localfinite.heights_of", "localfinite", ["LocalPremonoid.heights_of"], None),
    ("localfinite.bounded_flags", "localfinite", ["LocalPremonoid.bounded_flags"], None),
    ("irreducibles.is_irreducible", "irreducibles", ["is_irreducible"], None),
    ("irreducibles.is_atom", "irreducibles", ["is_atom"], None),
    ("irreducibles.report", "irreducibles", ["irreducible_report"], None),
    ("irreducibles.generating_set", "irreducibles", ["irreducible_generating_set"], None),
    ("factorization.alphabet", "factorization", ["factorization_alphabet"], None),
    ("factorization.length_set", "factorization", ["length_set"], None),
    ("factorization.census", "factorization", ["realizable_vectors"], None),
    ("factorization.minimal", "factorization", ["minimal_factorization_classes"], None),
    ("factorization.profile_self", "factorization", ["element_profile"], None),
    ("factorization.classify_self", "factorization", ["classify"], None),
    ("factorization.enumerate", "factorization", ["enumerate_factorizations"], None),
    ("words.shuffle_leq", "words", ["shuffle_leq"], None),
    ("words.shuffle_leq_matching", "words", ["shuffle_leq_matching"], None),
    ("words.class_reps", "words", ["class_reps"], None),
    ("words.erdos_rado_scan", "words", ["erdos_rado_scan"], None),
    ("verify.suite_self", "verify", ["verify_suite"], None),
    ("randgen.random_premonoid", "randgen", ["random_premonoid"], None),
    ("matrices.snf", "matrices", ["snf"], None),
    ("matrices.divisor_classes", "matrices", ["matrix_divisor_classes"], None),
    ("matrices.length_set", "matrices", ["matrix_length_set"], None),
    ("matrices.is_irreducible", "matrices", ["matrix_is_irreducible"], None),
    ("presentations.explore", "presentations", ["presentation_explore"], None),
]

# One metric per theorem check of premonoids.verify, named after the function.
VERIFY_CHECKS = [
    "preorder_laws",
    "flag_implications",
    "divisibility_premonoid_laws",
    "weak_positivity_consequences",
    "irreducible_structure",
    "classification_diagram",
    "bf_iff_ff",
    "abstract_bound",
    "localization_invariance",
    "unit_removal",
    "duo_inclusion",
    "restriction_units",
    "divisor_closed_restriction",
    "acyclic_collapse",
    "dedekind_bf_acyclic",
    "factorable_on_finite",
    "strongly_positive_ff_atomic",
    "phi_roundtrip",
    "shuffle_oracle",
    "pullback_isomorphism",
    "minimal_brute_force",
    "length_set_agreement",
    "higman_probe",
]
TARGETS += [(f"verify.{c}", "verify", [f"check_{c}"], None) for c in VERIFY_CHECKS]

# Constructors of the lazily presented families and the uncached divisor sets of
# their monoid classes; discovered by name so that new families are traced.
FAMILY_CONSTRUCTORS = ("make_", "cyclic_group")


def _family_targets(families) -> tuple[list, list]:
    constructors = [
        name for name, obj in vars(families).items()
        if inspect.isfunction(obj) and obj.__module__ == families.__name__
        and (name.startswith(FAMILY_CONSTRUCTORS) or name.endswith(("_premonoid", "_premonoid_finite")))
    ]
    base = getattr(families, "LocallyFiniteMonoid", None)
    divisors = [
        f"{name}.divisors" for name, obj in vars(families).items()
        if inspect.isclass(obj) and base is not None and issubclass(obj, base) and "divisors" in vars(obj)
    ]
    return constructors, divisors


# Count metrics and the target whose calls or results they count. Every
# wrapper counts its calls as "<stem>_calls"; the others come from results.
COUNTERS = {
    "monoid.principal_ideal_calls": "monoid.principal_ideal",
    "monoid.divisors_calls": "monoid.divisors",
    "localfinite.divisors_calls": "localfinite.divisors",
    "irreducibles.is_irreducible_calls": "irreducibles.is_irreducible",
    "factorization.layers_iterated": "factorization.length_set",
    "factorization.census_vectors": "factorization.census",
    "factorization.minimal_classes": "factorization.minimal",
    "factorization.words_enumerated": "factorization.enumerate",
    "words.shuffle_leq_matching_calls": "words.shuffle_leq_matching",
    "verify.checks_failed": "verify.suite_self",
}
# Ratio metrics: (numerator count, denominator count, target).
RATIOS = {
    "irreducibles.is_irreducible_distinct_ratio": (
        "irreducibles.is_irreducible_distinct",
        "irreducibles.is_irreducible_calls",
        "irreducibles.is_irreducible",
    ),
    "factorization.census_infinite_ratio": (
        "factorization.census_infinite",
        "factorization.census_calls",
        "factorization.census",
    ),
}
# trace.overhead_ratio compares two passes and trace.probe_s comes from the
# untraced passes, so the caller computes them.
TRACE_METRICS = ["trace.overhead_ratio", "trace.coverage_ratio", "trace.probe_s"]


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in report order."""
    stems = [stem for stem, *_ in TARGETS] + ["families.build", "families.divisors"]
    return [f"{s}_s" for s in stems] + list(COUNTERS) + list(RATIOS) + TRACE_METRICS


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    JOB = "job"

    def __init__(self):
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = []  # [id, parent, job, name, start_ns, end_ns, busy_ns, calls, leaf]
        self.job_ns = 0
        self.job = -1
        self.absent = set()
        self._stack = []  # [id, name, start_ns, child_ns, has_child]
        self._next_id = 0
        self._distinct = set()
        self._alive = []  # keeps premonoids alive so that id() keys stay unique

    def enter(self, name: str) -> None:
        if self._stack:
            self._stack[-1][4] = True
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0, False])
        self._next_id += 1

    def leave(self) -> int:
        """Close the innermost span and return its duration in ns."""
        end = time.perf_counter_ns()
        span_id, name, start, child_ns, has_child = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        last = self.spans[-1] if self.spans else None
        if not has_child and last is not None and last[8] and last[3] == name and last[1] == parent:
            last[5] = end
            last[6] += duration
            last[7] += 1
        else:
            self.spans.append([span_id, parent, self.job, name, start, end, duration, 1, not has_child])
        return duration

    def begin_job(self, index: int) -> None:
        self.job = index
        self._distinct.clear()
        self._alive.clear()
        self.enter(self.JOB)

    def end_job(self) -> None:
        self.job_ns += self.leave()

    def note_irreducible_call(self, args, kwargs) -> None:
        try:
            P, a, *rest = args
            s = rest[0] if rest else kwargs.get("s", 2)
            key = (id(P), a, s)
        except (ValueError, TypeError):
            return
        if key not in self._distinct:
            self._distinct.add(key)
            self._alive.append(P)
            self.counts["irreducibles.is_irreducible_distinct"] += 1

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far; None if absent."""
        counts = self.counts
        out = {}
        for name in metric_names():
            if name.endswith("_s"):
                stem, value = name[:-2], self.self_ns[name[:-2]] / 1e9
            elif name in COUNTERS:
                stem, value = COUNTERS[name], counts[name]
            elif name in RATIOS:
                part, whole, stem = RATIOS[name]
                value = _ratio(counts[part], counts[whole])
            else:
                continue
            out[name] = None if stem in self.absent else value
        # share of job time spent in engine layers, outside the CLI and the harness
        outside = self.self_ns[self.JOB] + sum(v for k, v in self.self_ns.items() if k.startswith("cli."))
        out["trace.coverage_ratio"] = _ratio(self.job_ns - outside, self.job_ns)
        return out

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "job", "name", "start_ns", "end_ns", "busy_ns", "calls", "leaf")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _on_result(tracer: Tracer, stem: str):
    """Hook that turns a wrapped function's return value (each yielded item,
    for a generator) into counters."""
    counts = tracer.counts
    if stem == "factorization.enumerate":
        def hook(args, kwargs, result):
            counts["factorization.words_enumerated"] += 1
    elif stem == "factorization.length_set":
        def hook(args, kwargs, result):
            counts["factorization.layers_iterated"] += (getattr(result, "offset", 0) or 0) + (
                getattr(result, "period", 0) or 0
            )
    elif stem == "factorization.census":
        def hook(args, kwargs, result):
            vectors, infinite = result
            counts["factorization.census_vectors"] += len(vectors)
            counts["factorization.census_infinite"] += bool(infinite)
    elif stem == "factorization.minimal":
        def hook(args, kwargs, result):
            counts["factorization.minimal_classes"] += len(result)
    elif stem == "verify.suite_self":
        def hook(args, kwargs, result):
            counts["verify.checks_failed"] += sum(
                1 for r in result if getattr(r, "applicable", True) and not getattr(r, "passed", True)
            )
    elif stem == "irreducibles.is_irreducible":
        def hook(args, kwargs, result):
            tracer.note_irreducible_call(args, kwargs)
    else:
        return None
    return hook


def _is_miss(obj, cache_attr: str, args) -> bool:
    try:
        cache = getattr(obj, cache_attr)
    except AttributeError:
        return True
    if isinstance(cache, dict):
        return not args or args[0] not in cache
    return cache is None


def _wrap(tracer: Tracer, fn, stem: str, cache_attr: str | None):
    enter, leave = tracer.enter, tracer.leave
    counts = tracer.counts
    calls_key = f"{stem}_calls"
    hook = _on_result(tracer, stem)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            counts[calls_key] += 1
            inner = fn(*args, **kwargs)
            while True:
                enter(stem)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave()
                if hook is not None:
                    hook(args, kwargs, item)
                yield item

        return gen_wrapper

    if cache_attr is not None:
        @functools.wraps(fn)
        def cached_wrapper(self, *args, **kwargs):
            counts[calls_key] += 1
            if not _is_miss(self, cache_attr, args):
                return fn(self, *args, **kwargs)
            enter(stem)
            try:
                return fn(self, *args, **kwargs)
            finally:
                leave()

        return cached_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[calls_key] += 1
        enter(stem)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)


def install(package: str = "premonoids") -> Tracer:
    """Wrap every target of the imported ``package`` and return the tracer."""
    tracer = Tracer()
    modules = {
        name: importlib.import_module(f"{package}.{name}")
        for name in sorted({m for _, m, _, _ in TARGETS} | {"families"})
    }
    constructors, divisors = _family_targets(modules["families"])
    targets = TARGETS + [
        ("families.build", "families", constructors, None),
        ("families.divisors", "families", divisors, None),
    ]
    loaded = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
    for stem, module_name, paths, cache_attr in targets:
        found = False
        for path in paths:
            owner, attr, fn = _resolve(modules[module_name], path)
            if fn is None or not callable(fn):
                continue
            found = True
            wrapped = _wrap(tracer, fn, stem, cache_attr)
            setattr(owner, attr, wrapped)
            if not inspect.isclass(owner):
                for module in loaded:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, name, wrapped)
        if not found:
            tracer.absent.add(stem)
    return tracer
