"""Workloads of the premonoids benchmark: job lists, seeded inputs and checks.

A workload is a fixed list of CLI jobs. Each job is one call of
``premonoids.cli.main(argv)``. Inputs that are not family specifiers (tables,
matrices, element choices) are generated from the benchmark seed into a
scratch directory, and jobs name those files relative to it, so outputs do not
depend on where the checkout lives.

Every job is checked in three ways that hold at any seed:

* its exit code is the recorded one and it prints no traceback;
* a label-free projection of its output (lengths, flags, counts) hashes to the
  recorded value, because the seed only relabels tables and conjugates
  matrices by unimodular transforms, which leave those invariants alone;
* ``verify`` jobs report ``all_passed`` and numerical-monoid length sets agree
  with an independent recurrence (``numerical_lengths``).

At the default seed the full stdout must also hash to the recorded digest.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

# The power set of 4 points under union (16 elements), the max-chain tables of
# 200 elements and the matrices are the scaled-down forms of cases that take
# minutes per pass today: the 32-element power set, the 1100-element chain.
# Every job takes at most about 1.5 s, so that a run makes enough passes for
# the median time of each job to pass over slow spells of a shared machine.
UNION_POINTS = 4
CHAIN_SIZE = 200
CHAIN_QUERY_POSITION = 3  # 4 divisors: chain positions 0..3
MATRIX_BASES = {
    "m2.json": ((4, 2), (6, 21)),  # det 72
    "m3.json": ((2, 1, 0), (0, 2, 1), (1, 0, 6)),  # det 25
}
NUMERICAL_ORACLE = ("3,5,7", "5,7,9,11")
ORACLE_LOW = 100  # the oracle jobs factorize a seeded member of 100..104
# The random verify job keeps the fixed seed of the ladder in ROADMAP.md. Over
# verify seeds 0..19 the cost of 150 random premonoids ranges from 5.0 s to
# 16.7 s, because a handful of 6-element carriers with long brute-force
# searches dominate; no bound could hold across benchmark seeds. The benchmark
# seed drives the named-instance verify jobs instead.
RANDOM_VERIFY_SEED = 3
RANDOM_VERIFY_COUNT = 40


@dataclass(frozen=True)
class Job:
    """One CLI call. ``key`` names the job stably across seeds; ``argv`` may
    carry seeded elements. ``projection`` names the invariant kept for the
    seed-independent check (``None``: only the oracle and the default-seed
    digest apply); ``smoke`` marks the job run in smoke mode."""

    key: str
    argv: tuple
    projection: str | None
    smoke: bool = False
    oracle: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _job(key: str, argv: str, projection="full", smoke=False, oracle=None) -> Job:
    return Job(key, tuple(argv.split()), projection, smoke, oracle)


# -- seeded inputs --------------------------------------------------------------


def _write_table(path: Path, table, identity: int) -> None:
    path.write_text(json.dumps({"n": len(table), "identity": identity, "table": table}))


def union_power_set(points: int, rng: random.Random):
    """All subsets of ``points`` points under union, under a seeded random
    relabeling. Returns (table, identity)."""
    n = 1 << points
    label = list(range(n))
    rng.shuffle(label)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[label[a]][label[b]] = label[a | b]
    return table, label[0]


def max_chain(n: int, reverse: bool, rng: random.Random):
    """The chain 0 < 1 < ... < n-1 under max. Chain position p gets label p
    (or n-1-p when ``reverse``) after a seeded shuffle inside blocks of four,
    so the order still runs with (or against) the index order. Returns
    (table, identity, label of the query position)."""
    label = list(range(n))
    for start in range(0, n, 4):
        block = label[start:start + 4]
        rng.shuffle(block)
        label[start:start + 4] = block
    if reverse:
        label = [n - 1 - x for x in label]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[label[a]]
        for b in range(n):
            row[label[b]] = label[max(a, b)]
    return table, label[0], label[CHAIN_QUERY_POSITION]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _random_unimodular(n: int, rng: random.Random, steps: int = 3):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice((-2, -1, 1, 2))
        u = _mat_mul(e, u)
    return u


def conjugated_matrix(base, rng: random.Random):
    """U * base * V for seeded unimodular U, V: same determinant, invariant
    factors, divisor classes and length set as ``base``."""
    n = len(base)
    return _mat_mul(_mat_mul(_random_unimodular(n, rng), [list(r) for r in base]), _random_unimodular(n, rng))


# -- workloads ---------------------------------------------------------------------


def _tables(seed: int, scratch: Path) -> list:
    """Finite multiplication tables, in three groups by the stage they load."""
    table, identity = union_power_set(UNION_POINTS, random.Random(f"union:{seed}"))
    _write_table(scratch / "union4.json", table, identity)
    # census: deep divisor lattices on small tables, where the class-vector
    # census and the minimal-class search do nearly all the work
    jobs = [
        _job("classify zn:48", "classify zn:48 --profiles"),
        _job("classify zn:64", "classify zn:64 --profiles", smoke=True),
        _job("classify zn:128", "classify zn:128 --profiles"),
        _job("classify union4", "classify union4.json --profiles", "classify"),
        _job("factorize zn:80", "factorize zn:80 0 --max-len 3"),
    ]
    # kernel: table validation, principal ideals, the divisibility preorder,
    # divisor scans and Premonoid.flags
    rng = random.Random(f"chains:{seed}")
    for name, reverse in (("chain-index", False), ("chain-reversed", True)):
        table, identity, query = max_chain(CHAIN_SIZE, reverse, rng)
        _write_table(scratch / f"{name}.json", table, identity)
        jobs.append(_job(f"factorize {name}", f"factorize {name}.json {query} --minimal", "factorize"))
    jobs += [
        _job("factorize zn:256", "factorize zn:256 0 --minimal", smoke=True),
        _job("describe zn:40", "describe zn:40", smoke=True),
        _job("describe zn:48", "describe zn:48"),
    ]
    # verify: hundreds of tiny carriers, where oracles and fixed costs per
    # call dominate
    jobs += [
        _job("verify random", f"verify --random {RANDOM_VERIFY_COUNT} --seed {RANDOM_VERIFY_SEED}"),
        _job("verify zn:8,9,12", f"verify zn:8 zn:9 zn:12 --seed {seed}", "verify", smoke=True),
    ]
    # one small job for each layer that finite tables do not reach, so that
    # every per-layer time is measured on both workloads
    matrix = conjugated_matrix(MATRIX_BASES["m2.json"], random.Random(f"matrix:{seed}"))
    (scratch / "m2.json").write_text(json.dumps(matrix))
    return jobs + [
        _job("describe numerical:3,5,7", "describe numerical:3,5,7"),
        _job("describe m2", "describe matrix:m2.json", "describe"),
        _job("describe present:xyz", "describe present:xyz:xy=yx,xz=zx:5"),
    ]


def _families(seed: int, scratch: Path) -> list:
    rng = random.Random(f"families:{seed}")
    for name, base in MATRIX_BASES.items():
        (scratch / name).write_text(json.dumps(conjugated_matrix(base, rng)))
    local = (
        "numerical:3,5,7",
        "numerical:5,7,9,11",
        "n2sub:5",
        "b:c3:1,2",
        "b:c4:1,2,3",
        "b:dinf:",
        "powerN:8",
        "remarkN:20",
    )
    jobs = [
        _job(
            f"classify {spec}",
            f"classify {spec} --profiles",
            smoke=spec == "b:c3:1,2",
            oracle="numerical" if spec.startswith("numerical:") else None,
        )
        for spec in local
    ]
    jobs += [_job(f"describe {spec}", f"describe {spec}") for spec in local]
    jobs += [
        _job("describe present:xy", "describe present:xy:x2=yx2y:9"),
        _job("describe present:xyz", "describe present:xyz:xy=yx,xz=zx:7"),
        _job("describe m2", "describe matrix:m2.json", "describe", smoke=True),
        _job("describe m3", "describe matrix:m3.json", "describe"),
    ]
    for i, gens in enumerate(NUMERICAL_ORACLE):
        members = [x for x in range(ORACLE_LOW, ORACLE_LOW + 5) if numerical_lengths([int(g) for g in gens.split(",")], x)]
        x = rng.choice(members)
        jobs.append(
            _job(f"factorize numerical:{gens}", f"factorize numerical:{gens} {x} --minimal", None, smoke=i == 0, oracle="numerical")
        )
    # finite tables, only so that every per-layer time is measured here too
    (scratch / "order8.json").write_text(
        json.dumps({"kind": "matrix", "rel": [[int(i <= j) for j in range(8)] for i in range(8)]})
    )
    jobs += [
        _job("describe zn:8", "describe zn:8"),
        _job("describe zn:8 order8", "describe zn:8 --preorder order8.json"),
        _job("verify zn:8 random", f"verify zn:8 --random 2 --seed {RANDOM_VERIFY_SEED}"),
    ]
    jobs.append(
        _job(
            "verify families",
            "verify numerical:3,5,7 numerical:5,7,9,11 n2sub:4 matrix:m2.json"
            f" present:xy:x2=yx2y:9 present:xyz:xy=yx,xz=zx:5 --seed {seed}",
            "verify",
            smoke=True,
        )
    )
    return jobs


WORKLOADS = {
    "tables": _tables,
    "families": _families,
}


def build(workload: str, seed: int, scratch: Path, smoke: bool = False) -> list:
    """Write the workload's seeded inputs into ``scratch`` and return its jobs."""
    jobs = WORKLOADS[workload](seed, scratch)
    return [j for j in jobs if j.smoke] if smoke else jobs


# -- checks --------------------------------------------------------------------------


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    else:
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _vector_total(vec) -> int:
    return sum(m for _, m in vec)


def _profile_shape(p: dict) -> list:
    return [
        p["lengths"],
        p["atomic_lengths"],
        p["class_count"],
        p["atomic_class_count"],
        sorted(_vector_total(v) for v, _ in p["minimal"]),
        sorted(_vector_total(v) for v, _ in p["minimal_atomic_within"]),
        sorted(_vector_total(v) for v, _ in p["minimal_atomic_literal"]),
        len(p["irreducible_divisors"]),
        len(p["atom_divisors"]),
    ]


def _classify_shape(out: dict):
    return {
        "scope": out["scope"],
        "vacuous": out["vacuous"],
        "flags": out["flags"],
        "witnessed": sorted(out["witnesses"]),
        "violations": out["diagram_violations"],
        "profiles": sorted((_profile_shape(p) for p in out.get("profiles", {}).values()), key=json.dumps),
    }


def _factorize_shape(out: dict):
    shape = {
        "lengths": out["lengths"],
        "atomic_lengths": out["atomic_lengths"],
        "search_bound": out["minimal"]["search_bound"],
        "minimal": sorted(_vector_total(c["vector"]) for c in out["minimal"]["classes"]),
        "words": sorted(len(w) for w in out.get("words", [])),
    }
    for key in ("minimal_atomic_within", "minimal_atomic_literal"):
        shape[key] = sorted(_vector_total(c["vector"]) for c in out.get(key, []))
    return shape


def _describe_shape(out: dict):
    if out["kind"] == "matrix":
        return {
            "det": out["det"],
            "invariant_factors": out["invariant_factors"],
            "irreducible": out["irreducible"],
            "length_set": out["length_set"],
            "divisor_classes": {k: len(v) for k, v in out["divisor_classes"].items()},
        }
    return {
        "n": out["n"],
        "units": [len(out["monoid_units"]), len(out["preorder_units"])],
        "structure_flags": out["structure_flags"],
        "premonoid_flags": out["premonoid_flags"],
        "heights": sorted(out["heights"]),
        "irreducible_report": {k: len(v) for k, v in out["irreducible_report"].items()},
        "generating_set": out["irreducible_generating_set"] is not None,
    }


def _verify_shape(out: dict):
    return {
        "all_passed": out["all_passed"],
        "reports": [
            [r["instance"], [[c["name"], c["applicable"], c["passed"]] for c in r["checks"]]]
            for r in out["reports"]
        ],
    }


PROJECTIONS = {
    "classify": _classify_shape,
    "factorize": _factorize_shape,
    "describe": _describe_shape,
    "verify": _verify_shape,
}


def invariant_digest(job: Job, stdout: str) -> str | None:
    """Digest of the seed-independent part of a job's output."""
    if job.projection is None:
        return None
    if job.projection == "full":
        return digest(stdout)
    return digest(PROJECTIONS[job.projection](json.loads(stdout)))


def safe_invariant_digest(job: Job, stdout: str) -> str | None:
    """``invariant_digest``, or None when the output cannot be read."""
    try:
        return invariant_digest(job, stdout)
    except (ValueError, KeyError, TypeError):
        return None


def numerical_lengths(gens, x: int) -> set:
    """Length set of x in the numerical monoid generated by ``gens``, by the
    recurrence L(0) = {0}, L(x) = union over atoms a <= x with x - a in S of
    1 + L(x - a). This is the dynamic-programming view of GAP's numericalsgps
    (Delgado, Garcia-Sanchez, Morais); it shares no code with the engine."""
    member = [False] * (x + 1)
    member[0] = True
    for y in range(1, x + 1):
        member[y] = any(g <= y and member[y - g] for g in gens)
    # atoms: nonzero members that are not a sum of two nonzero members
    atoms = [
        g for g in sorted(set(gens))
        if g <= x and not any(member[h] and member[g - h] for h in range(1, g))
    ]
    lengths = [set() for _ in range(x + 1)]
    lengths[0] = {0}
    for y in range(1, x + 1):
        if member[y]:
            lengths[y] = {1 + k for a in atoms if a <= y for k in lengths[y - a]}
    return lengths[x]


def _finite_lengths(js: dict) -> set | None:
    """The members of a finite LengthSet JSON, or None if it is infinite."""
    return None if "offset" in js else set(js["finite"])


def oracle_failure(job: Job, stdout: str) -> str | None:
    """Compare numerical-monoid length sets against ``numerical_lengths``."""
    out = json.loads(stdout)
    gens = [int(g) for g in out["instance"].partition(":")[2].split(",")]
    if "profiles" in out:
        pairs = [(p["element"], p["lengths"]) for p in out["profiles"].values()]
    else:
        pairs = [(out["element"], out["lengths"])]
    if not pairs:
        return "no length sets to check"
    for x, js in pairs:
        want = numerical_lengths(gens, x)
        if _finite_lengths(js) != want:
            return f"lengths of {x}: engine {js}, recurrence {sorted(want)}"
    return None


def check(job: Job, code: int, stdout: str, expected: dict | None, default_seed: bool) -> str | None:
    """Why the job's output is wrong, or None if every check passes."""
    if expected is None:
        return "no recorded expectation"
    if code != expected["code"]:
        return f"exit code {code}, expected {expected['code']}"
    if default_seed and digest(stdout) != expected["sha256"]:
        return "stdout digest differs from the recorded one"
    try:
        if job.projection is not None and invariant_digest(job, stdout) != expected["invariant"]:
            return "seed-invariant output digest differs from the recorded one"
        if job.command == "verify" and json.loads(stdout).get("all_passed") is not True:
            return "verify reports all_passed other than true"
        if job.oracle == "numerical":
            return oracle_failure(job, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
