import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premonoids
from premonoids import FiniteMonoid
from premonoids.cli import CliError, _dumps, classify_payload, load_instance, main
from premonoids.factorization import layer_automaton_dot
from premonoids.families import powerset_premonoid

from protocol_only import ProtocolOnly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_zn4(capsys):
    code, out, _ = run_cli(capsys, "describe", "zn:4")
    assert code == 0
    data = json.loads(out)
    assert data["preorder_units"] == [1, 3]
    assert data["irreducible_report"]["atoms"]["2"] == [2]
    assert data["premonoid_flags"]["weakly_positive"] is True


def test_describe_builds_the_unit_images_once(monkeypatch):
    """The orbits of the report and the generating set read one map of the
    irreducibles' unit images, also when the report lists no degree 2."""
    from premonoids.cli import describe_payload

    irr_mod = importlib.import_module("premonoids.irreducibles")
    real = irr_mod._unit_images
    calls = []
    monkeypatch.setattr(irr_mod, "_unit_images", lambda *args: calls.append(args) or real(*args))
    for degrees in ((2,), (3,)):
        calls.clear()
        payload = describe_payload(load_instance("zn:9"), degrees)
        assert payload["irreducible_generating_set"] is not None
        assert payload["irreducible_report"]["orbits"] == [[3, 6]]
        assert len(calls) == 1, degrees


def test_describe_trivial_vacuous(capsys):
    code, out, _ = run_cli(capsys, "classify", "zn:1")
    data = json.loads(out)
    assert code == 0
    assert data["vacuous"] is True
    assert all(data["flags"].values())


def test_describe_remarkN(capsys):
    code, out, _ = run_cli(capsys, "describe", "remarkN:20")
    data = json.loads(out)
    assert code == 0
    assert data["atoms_2"] == [1]
    assert data["premonoid_flags"]["positive"] is True
    assert data["premonoid_flags"]["strongly_positive"] is False


def test_factorize_zn8_zero_minimal(capsys):
    code, out, _ = run_cli(capsys, "factorize", "zn:8", "0", "--minimal")
    data = json.loads(out)
    assert code == 0
    classes = data["minimal"]["classes"]
    assert len(classes) == 1
    assert classes[0]["representative"] == [2, 2, 2]
    assert data["minimal"]["certified_complete"] is True
    assert "words" not in data  # suppressed by --minimal


def test_factorize_single_word(capsys):
    code, out, _ = run_cli(capsys, "factorize", "zn:4", "2")
    data = json.loads(out)
    assert code == 0
    assert data["words"] == [[2]]


def test_factorize_unit_is_empty(capsys):
    code, out, _ = run_cli(capsys, "factorize", "zn:4", "3")
    data = json.loads(out)
    assert code == 0
    assert data["words"] == []
    assert data["lengths"] == {"finite": []}


def test_factorize_unknown_element_exit_3(capsys):
    code, _, err = run_cli(capsys, "factorize", "zn:4", "17")
    assert code == 3 and "17" in err  # index out of carrier
    code, _, err = run_cli(capsys, "factorize", "numerical:2,3", "1")
    assert code == 3


def test_classify_zn4(capsys):
    code, out, _ = run_cli(capsys, "classify", "zn:4")
    data = json.loads(out)
    assert code == 0
    assert data["flags"]["UmF-atomic-within"] is True
    assert data["flags"]["BF-atomic"] is False
    assert data["diagram_violations"] == []


def test_classify_numerical(capsys):
    code, out, _ = run_cli(capsys, "classify", "numerical:2,3")
    data = json.loads(out)
    assert code == 0
    assert data["flags"]["FF-atomic"] is True


def test_classify_powerN_element_subreport(capsys):
    code, out, _ = run_cli(capsys, "classify", "powerN:3", "--element", "{0,1}")
    data = json.loads(out)
    assert code == 0
    assert data["element"] == [0, 1]
    assert data["profile"]["atom_divisors"] == [[0, 1]]


def test_powerN_divisor_products_past_the_cap(capsys):
    # (0,5) + (0,5,8) reaches 16 > 8 while building the divisor automaton;
    # such a sum cannot divide (0,5,8), so the cap does not apply to it
    code, out, err = run_cli(capsys, "factorize", "powerN:8", "(0,5,8)", "--minimal")
    assert code == 0, err
    data = json.loads(out)
    assert data["lengths"] == {"finite": [1]}
    assert data["minimal"]["classes"] == [{"representative": [[0, 5, 8]], "vector": [[[0, 5, 8], 1]]}]
    code, _, err = run_cli(capsys, "factorize", "powerN:8", "(0,9)")
    assert code == 3 and "exceeds cap 8" in err  # not an element of the family


def test_invalid_instance_exit_2(capsys):
    code, _, err = run_cli(capsys, "describe", "zn:notanumber")
    assert code == 2
    code, _, err = run_cli(capsys, "describe", "/nonexistent/monoid.json")
    assert code == 2


def test_invalid_monoid_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "identity": 0, "table": [[0, 0], [1, 1]]}))
    code, _, err = run_cli(capsys, "describe", str(bad))
    assert code == 2 and "identity" in err


def test_monoid_file_with_preorder_file(tmp_path, capsys):
    from premonoids.families import make_zn

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(make_zn(4).to_json()))
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"kind": "phi", "A": [2]}))
    code, out, _ = run_cli(capsys, "describe", str(mpath), "--preorder", str(ppath))
    data = json.loads(out)
    assert code == 0
    assert data["irreducible_report"]["quarks"] == [2]


def test_verify_instances_and_random(capsys):
    code, out, _ = run_cli(capsys, "verify", "zn:4", "zn:8", "zn:9", "--seed", "3")
    data = json.loads(out)
    assert code == 0 and data["all_passed"] is True
    code, out, _ = run_cli(capsys, "verify", "--random", "5", "--seed", "7")
    data = json.loads(out)
    assert code == 0 and data["all_passed"] is True
    assert len(data["reports"]) == 5


def test_verify_presentation_reports_evidence(capsys):
    code, out, _ = run_cli(capsys, "verify", "present:xy:x2=yx2y:10")
    data = json.loads(out)
    assert code == 0
    details = data["reports"][0]["checks"][0]["details"]
    assert len(details["accp_evidence_chain"]) >= 3
    assert details["note"] == "bounded evidence, not a certificate"


def test_verify_matrix(tmp_path, capsys):
    mpath = tmp_path / "a.json"
    mpath.write_text(json.dumps([[2, 0], [0, 3]]))
    code, out, _ = run_cli(capsys, "verify", f"matrix:{mpath}")
    data = json.loads(out)
    assert code == 0
    names = {c["name"] for c in data["reports"][0]["checks"]}
    assert "snf-invariants" in names and "length-set-vs-prime-count" in names


def test_describe_matrix(tmp_path, capsys):
    mpath = tmp_path / "a.json"
    mpath.write_text(json.dumps([[2, 0], [0, 3]]))
    code, out, _ = run_cli(capsys, "describe", f"matrix:{mpath}")
    data = json.loads(out)
    assert code == 0
    assert data["invariant_factors"] == [1, 6]
    assert data["length_set"] == {"finite": [2]}


def test_describe_matrix_rejects_non_integer_entries(tmp_path, capsys):
    mpath = tmp_path / "a.json"
    for rows, where in (([[1.5, 0], [0, 2]], "row 0, column 0"), ([[1, 0], [0, True]], "row 1, column 1")):
        mpath.write_text(json.dumps(rows))
        code, out, err = run_cli(capsys, "describe", f"matrix:{mpath}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and where in err and "Traceback" not in err


_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-6, 6) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
_RAGGED = st.lists(st.lists(st.integers(-6, 6), max_size=4), max_size=4)
_SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_SQUARE, _RAGGED, _JSON_JUNK))
def test_matrix_files_never_produce_a_traceback(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(payload))
        for command in ("describe", "verify"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, f"matrix:{path}"])
            assert code in (0, 2, 4), (payload, command, err.getvalue())
            assert "Traceback" not in err.getvalue()


# Documents for the preorder and monoid file readers; keys lean toward the ones
# they look up, values toward near misses of the shapes they accept.
_FILE_KEYS = st.sampled_from(["kind", "rel", "phi", "A", "codomain", "n", "table", "identity"]) | st.text(max_size=2)
_FILE_LEAVES = st.one_of(
    st.sampled_from(["phi", "pullback", "matrix", "divisibility", "x", "0"]),
    st.integers(-2, 5),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, max_value=5, min_value=-2),
)
_FILE_DOCS = st.recursive(
    _FILE_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_FILE_KEYS, inner, max_size=4),
    max_leaves=16,
)


def _file_commands(path) -> list:
    return [
        ["describe", "zn:4", "--preorder", str(path)],
        ["describe", str(path)],
        ["describe", f"power:{path}"],
    ]


@settings(max_examples=150, deadline=None)
@given(_FILE_DOCS)
def test_preorder_and_monoid_files_never_produce_a_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(doc))
        for argv in _file_commands(path):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), (doc, argv, err.getvalue())
            assert "Traceback" not in err.getvalue()


_BAD_PREORDERS = [
    {"kind": "phi", "A": [99]},
    {"kind": "phi", "A": ["a"]},
    {"kind": "phi", "A": 5},
    {"kind": "phi", "A": [-1]},
    {"kind": "pullback", "phi": [0, 1.5, 0, 0], "codomain": {"kind": "matrix", "rel": [[1, 1], [0, 1]]}},
    {"kind": "matrix", "rel": 5},
    {"kind": "matrix", "rel": [["x", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    {"kind": "matrix", "rel": [["0", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    [{"kind": "divisibility"}],
]
_BAD_MONOIDS = [
    {"n": 2, "table": 5, "identity": 0},
    {"n": 2, "table": [[0, 1], 5], "identity": 0},
    {"n": 2, "table": [[0, 1], [1, 0]], "identity": False},
    {"n": 2, "table": [[0, True], [True, 0]], "identity": 0},
    {"n": "2", "table": [[0, 1], [1, 0]], "identity": 0},
]


@pytest.mark.parametrize(
    "doc, argvs",
    [(doc, _file_commands("F")[:1]) for doc in _BAD_PREORDERS]
    + [(doc, _file_commands("F")[1:]) for doc in _BAD_MONOIDS],
)
def test_malformed_preorder_and_monoid_files_exit_2(doc, argvs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text(json.dumps(doc))
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", (argv, err)
        assert err.startswith("error: ") and "Traceback" not in err


def test_files_nested_past_the_recursion_limit_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text('{"kind": "pullback", "codomain": ' * 5000 + "{}" + "}" * 5000)
    for argv in _file_commands("F"):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", (argv, err)
        assert err.startswith("error: ") and "Traceback" not in err


def test_describe_product_one(capsys):
    code, out, _ = run_cli(capsys, "describe", "b:c3:1,2")
    data = json.loads(out)
    assert code == 0
    assert data["atoms_2"] == [[1, 1, 1], [1, 2], [2, 2, 2]]


@pytest.mark.parametrize("spec", ["b:c4:5", "b:c4:-1"])
def test_product_one_support_outside_the_group_exits_2(spec, capsys):
    """A letter past the group's order, or a negative one, is an input error,
    not an index into the table."""
    code, out, err = run_cli(capsys, "describe", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "support letter" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["zn:100000", "b:c100000:1"])
def test_table_families_past_the_cap_exit_2_before_building(spec, capsys, monkeypatch):
    """The size is checked before the n x n table is allocated, so a huge
    modulus or group order is refused at once."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a table past the cap reached FiniteMonoid")

    monkeypatch.setattr(FiniteMonoid, "__init__", refuse)
    code, out, err = run_cli(capsys, "describe", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "table cap of 2048" in err and "Traceback" not in err


def test_product_one_elements_need_no_recursion(capsys):
    """Product-one sets are filled bottom-up over count vectors, so a
    1200-letter element takes no frame per letter."""
    text = "(" + ",".join(["1"] * 1200) + ")"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        code, out, err = run_cli(capsys, "factorize", "b:c3:1", text)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    assert json.loads(out)["atomic_lengths"] == {"finite": [400]}


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "zn:4", "--random", "3", "--seed", "11")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_threads_option_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_verify_failure_exits_4(capsys, monkeypatch):
    from premonoids import cli as cli_mod
    from premonoids.verify import CheckResult

    def always_fails(P, seed=0):
        return [CheckResult("synthetic", True, False, {"why": "forced"})]

    monkeypatch.setattr(cli_mod, "verify_suite", always_fails)
    code, out, _ = run_cli(capsys, "verify", "zn:4")
    assert code == 4
    assert json.loads(out)["all_passed"] is False


def test_dot_outputs(capsys):
    code, out, _ = run_cli(capsys, "describe", "zn:4", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(capsys, "factorize", "zn:4", "0", "--format", "dot")
    assert code == 0 and "digraph layers" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("describe", "numerical:2,3"), "numerical instances fix the divisibility preorder"),
        (("describe", "present:xy:x2=yx2y:8"), "present instances fix the divisibility preorder"),
        (("classify", "powerN:3"), "powerN instances fix the divisibility preorder"),
        (("factorize", "b:c3:1,2", "0,0,0"), "b instances fix the divisibility preorder"),
        (("describe", "matrix:/nonexistent.json"), "matrix instances fix the divisibility preorder"),
        (("describe", "remarkN:20"), "remarkN instances fix their rule preorder"),
    ],
)
def test_a_preorder_the_family_would_ignore_is_an_input_error(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv, "--preorder", "/nonexistent.json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_malformed_preorder_file_is_named_in_the_error(tmp_path, capsys):
    """The error names the preorder file, not the instance it was read for."""
    empty = tmp_path / "empty.json"
    empty.write_text("")
    for path, reason in ((empty, "Expecting value"), (tmp_path / "missing.json", "No such file")):
        code, out, err = run_cli(capsys, "describe", "zn:8", "--preorder", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot load preorder file {str(path)!r}: ") and reason in err, err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("describe", "zn:x"), 2, "zn:N takes an integer N, got 'x'"),
        (("describe", "numerical:a"), 2, "numerical:A,B,... takes comma-separated integers, got 'a'"),
        (("describe", "present::"), 2, "present:ALPHABET:RELATIONS:BOUND takes an integer BOUND, got ''"),
        (("describe", "b:cx:"), 2, "b:cN takes an integer group order N, got 'x'"),
        (("describe", "b:c3:x"), 2, "cannot load instance 'b:c3:x': expected an integer, got 'x'"),
        (("factorize", "zn:8", "abc"), 3, "cannot parse element 'abc': expected an integer from 0 to 7"),
        (("factorize", "n2sub:3", "(1,2,3)"), 3, "cannot parse element '(1,2,3)': expected a pair of integers like (5,2), got 3 of them"),
        (("factorize", "n2sub:3", "5"), 3, "cannot parse element '5': expected a pair of integers like (5,2), got 1 of them"),
        (("factorize", "numerical:3,5", "q"), 3, "cannot parse element 'q': expected an integer"),
        (("factorize", "b:c3:1", "q"), 3, "cannot parse element 'q': expected an integer, got 'q'"),
        (("factorize", "b:dinf:", "q.1"), 3, "dihedral elements are written k.e with integers k and e, got 'q.1'"),
        (("describe", "present:xy:x2:5"), 2, "present:ALPHABET:RELATIONS:BOUND takes relations LHS=RHS, got 'x2'"),
        (("describe", "present:xy:x=y,,y=x:5"), 2, "present:ALPHABET:RELATIONS:BOUND takes relations LHS=RHS, got ''"),
        (("describe", "present:xy::40"), 2, "bound 40 over 'xy' passes the cap of 32768 words"),
    ],
)
def test_spec_and_element_errors_say_what_form_was_expected(argv, code, message, capsys):
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("describe", "numerical:2,3"),
        ("describe", "present:xy:x2=yx2y:8"),
        ("classify", "powerN:3"),
        ("describe", "present:xy::3"),  # no relations
        ("describe", "present:xy:x2=:5"),  # an empty side
    ],
)
def test_divisibility_stays_accepted_where_it_is_the_family_order(argv, capsys):
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--preorder", "divisibility") == plain


def test_remark_order_refuses_divisibility(capsys):
    code, _, err = run_cli(capsys, "describe", "remarkN:20", "--preorder", "divisibility")
    assert (code, err) == (2, "error: remarkN instances fix their rule preorder\n")


def test_a_preorder_on_a_large_power_base_is_an_input_error(tmp_path, capsys):
    from premonoids.families import cyclic_group

    mpath = tmp_path / "c5.json"
    mpath.write_text(json.dumps(cyclic_group(5).to_json()))
    code, _, err = run_cli(capsys, "describe", f"power:{mpath}", "--preorder", "/nonexistent.json")
    assert (code, err) == (2, "error: power instances fix the divisibility preorder\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("verify", "zn:4", "--preorder", "/nonexistent.json"), "--preorder"),
        (("classify", "zn:4", "--format", "dot"), "--format"),
        (("verify", "zn:4", "--format", "dot"), "--format"),
    ],
)
def test_options_a_command_would_ignore_are_refused(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["zn:12", "chain", "union4"])
def test_factorize_dot_matches_the_divisor_indexed_construction(spec, tmp_path, capsys):
    # the CLI's finite carrier numbers automaton states by element; the
    # protocol-only wrapper gets the divisor-indexed construction
    if spec != "zn:12":
        path = tmp_path / f"{spec}.json"
        if spec == "chain":
            monoid = FiniteMonoid([[max(i, j) for j in range(30)] for i in range(30)], 0)
        else:
            monoid = powerset_premonoid(4)[0].monoid
        path.write_text(json.dumps(monoid.to_json()))
        spec = str(path)
    P = load_instance(spec).payload
    for x in range(P.monoid.n):
        code, out, _ = run_cli(capsys, "factorize", spec, str(x), "--format", "dot")
        assert code == 0
        assert out == layer_automaton_dot(ProtocolOnly(P), x) + "\n", x


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "describe", "zn:4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 4


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_out_to_an_unwritable_path_is_a_labelled_error(where, tmp_path, capsys):
    target = tmp_path if where == "directory" else tmp_path / "absent" / "x.json"
    code, out, err = run_cli(capsys, "describe", "zn:4", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}: ") and "Traceback" not in err


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "describe", "zn:4", "--format", "text")
    assert code == 0
    assert "preorder_units" in out


def test_load_instance_kinds():
    assert load_instance("zn:6").kind == "finite"
    assert load_instance("powerN:3").kind == "local"
    assert load_instance("n2sub:3").kind == "local"
    assert load_instance("present:xy:x2=yx2y:8").kind == "presentation"


def test_power_of_monoid_file(tmp_path, capsys):
    from premonoids.families import cyclic_group

    mpath = tmp_path / "c2.json"
    mpath.write_text(json.dumps(cyclic_group(2).to_json()))
    code, out, _ = run_cli(capsys, "describe", f"power:{mpath}")
    data = json.loads(out)
    assert code == 0 and data["kind"] == "finite"
    assert data["n"] == 2  # subsets of C2 containing the identity
    assert data["element_labels"] == [[0], [0, 1]]
    code, out, _ = run_cli(capsys, "factorize", f"power:{mpath}", "{0,1}", "--max-len", "3")
    data = json.loads(out)
    assert code == 0
    # the full set is idempotent: factorizations of every length
    assert data["words"] == [[[0, 1]], [[0, 1], [0, 1]], [[0, 1], [0, 1], [0, 1]]]
    assert data["lengths"] == {"finite": [], "offset": 1, "period": 1, "residues": [0]}


def _power_instances(tmp_path):
    """``power:FILE`` over C2, a dense finite carrier with labels, and over
    C5, a lazily presented one."""
    from premonoids.families import cyclic_group

    out = []
    for order in (2, 5):
        path = tmp_path / f"c{order}.json"
        path.write_text(json.dumps(cyclic_group(order).to_json()))
        out.append(load_instance(f"power:{path}"))
    return out


def _parsed_set(instance, text):
    """The subset that the element text names, or the exit code of its error."""
    try:
        x = instance.parse_element(text)
    except CliError as exc:
        assert "tuple.index" not in str(exc), str(exc)
        return exc.code
    return tuple(instance.labels[x]) if instance.labels is not None else x


def test_small_and_large_power_bases_read_the_same_texts(tmp_path, capsys):
    small, large = _power_instances(tmp_path)
    assert (small.kind, large.kind) == ("finite", "local")
    # the identity 0 is added on both, whether or not the text names it
    for text in ("{1}", "{0,1}", "{1,0,1}", "{ 1 }", "{}", "{0}", "1", "0,1"):
        assert _parsed_set(small, text) == _parsed_set(large, text) != 3, text
    assert _parsed_set(small, "{1}") == (0, 1)
    for text in ("{2}", "{0,4}"):  # in the larger base only
        assert (_parsed_set(small, text), _parsed_set(large, text)) == (3, (0, int(text[-2]))), text
    for instance in (small, large):
        code, out, err = run_cli(capsys, "classify", instance.spec, "--element", "{1}")
        assert code == 0 and err == "" and json.loads(out)["element"] == [0, 1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.text(max_size=6) | st.lists(st.integers(-2, 6), max_size=3).map(lambda xs: "{" + ",".join(map(str, xs)) + "}"))
def test_power_element_texts_give_labelled_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        small, large = _power_instances(Path(tmp))
        got = _parsed_set(small, text), _parsed_set(large, text)
    # a text inside the smaller base names the same subset on both
    if isinstance(got[1], tuple) and got[1][-1] < 2:
        assert got[0] == got[1], text
    assert all(isinstance(g, tuple) or g == 3 for g in got), (text, got)


def test_n2sub_element_through_cli(capsys):
    code, out, _ = run_cli(capsys, "classify", "n2sub:3", "--element", "(2,2)")
    data = json.loads(out)
    assert code == 0
    assert data["element"] == [2, 2]
    code, _, _ = run_cli(capsys, "classify", "n2sub:3", "--element", "(1,0)")
    assert code == 3  # not a member


def test_plane_elements_keep_their_order(capsys):
    code, out, _ = run_cli(capsys, "factorize", "n2sub:3", "(5,2)", "--minimal")
    data = json.loads(out)
    assert code == 0
    assert data["element"] == [5, 2]
    assert all(sum(p[0] for p in c["representative"]) == 5 for c in data["minimal"]["classes"])


def test_dihedral_text_rejects_bare_integers(capsys):
    code, out, err = run_cli(capsys, "factorize", "b:dinf:", "0.1,1")
    assert code == 3 and out == "" and "k.e" in err
    code, out, err = run_cli(capsys, "describe", "b:dinf:0.1,1")
    assert code == 2 and out == "" and "k.e" in err


def test_dihedral_exponents_are_0_or_1(capsys):
    """r s^2 is r in the group, but the product XORs exponents, so an
    exponent past 1 would give wrong answers instead of an error."""
    code, out, err = run_cli(capsys, "describe", "b:dinf:1.2")
    assert code == 2 and out == "" and "0 or 1" in err and "Traceback" not in err
    code, out, err = run_cli(capsys, "factorize", "b:dinf:", "0.1,0.-1")
    assert code == 3 and out == "" and "0 or 1" in err and "Traceback" not in err


# ints, dihedral k.e pairs, or a mix, as a bare list, a tuple or a set
_ITEM = st.one_of(
    st.integers(-2, 12).map(str),
    st.tuples(st.integers(-2, 12), st.integers(0, 2)).map(lambda t: f"{t[0]}.{t[1]}"),
)
_ELEMENT_TEXT = st.one_of(
    st.text(max_size=6),
    st.tuples(st.sampled_from(["", "()", "{}"]), st.lists(_ITEM, max_size=3)).map(
        lambda t: t[0][:1] + ",".join(t[1]) + t[0][1:]
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["numerical:3,5,7", "n2sub:5", "b:c3:1,2", "b:dinf:", "powerN:8", "remarkN:20"]),
    _ELEMENT_TEXT,
)
def test_element_text_never_produces_a_traceback(spec, text):
    for argv in (["classify", spec, f"--element={text}"], ["factorize", spec, "--minimal", "--", text]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


def _written(spec: str, x) -> str:
    """x in the element syntax of the README's specifier table."""
    if spec == "b:dinf:":
        return ",".join(f"{k}.{e}" for k, e in x)
    if spec.startswith("n2sub:"):
        return "({},{})".format(*x)
    if isinstance(x, int):
        return str(x)
    return "{" + ",".join(map(str, x)) + "}"


# the lazily presented families of the benchmark
_LOCAL_SPECS = (
    "numerical:3,5,7", "numerical:5,7,9,11", "n2sub:5", "b:c3:1,2", "b:c4:1,2,3", "b:dinf:", "powerN:8", "remarkN:20",
)


@pytest.mark.parametrize("spec", _LOCAL_SPECS)
def test_each_family_reads_back_the_elements_it_writes(spec):
    monoid = load_instance(spec).payload.monoid
    sample = monoid.sample_elements()
    assert sample
    for x in sample:
        assert monoid.parse(_written(spec, x)) == x, x
    if spec.startswith("powerN:"):  # the identity 0 may be left out
        assert [monoid.parse(_written(spec, x[1:])) for x in sample] == list(sample)


def test_factorize_numerical_seven(capsys):
    code, out, _ = run_cli(capsys, "factorize", "numerical:2,3", "7", "--max-len", "4")
    data = json.loads(out)
    assert code == 0
    assert data["lengths"] == {"finite": [3]}
    assert sorted(map(tuple, data["words"])) == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]


def test_describe_bad_degree_is_a_labeled_error(capsys):
    code, out, err = run_cli(capsys, "describe", "zn:4", "--degree", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --degree") and "Traceback" not in err


@pytest.mark.parametrize("max_len, code", [("-1", 2), ("0", 0)])
def test_factorize_max_len_must_not_be_negative(max_len, code, capsys):
    code_got, out, err = run_cli(capsys, "factorize", "zn:8", "2", "--max-len", max_len)
    assert code_got == code
    if code:
        assert out == ""
        assert err.startswith("error: --max-len") and "Traceback" not in err
    else:
        assert json.loads(out)["words"] == []


def test_verify_random_count_must_not_be_negative(capsys):
    code, out, err = run_cli(capsys, "verify", "--random", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --random must be >= 0, got -1\n"


def test_verify_matrix_reports_failing_snf_probe(tmp_path, capsys, monkeypatch):
    import premonoids.matrices as mx

    mpath = tmp_path / "a.json"
    mpath.write_text(json.dumps([[2, 0], [0, 3]]))
    real_snf = mx.snf

    def snf_failing_on_probes(m):
        if mx.mat(m) != mx.mat([[2, 0], [0, 3]]):
            raise AssertionError("probe self-check failed")
        return real_snf(m)

    monkeypatch.setattr(mx, "snf", snf_failing_on_probes)
    code, out, _ = run_cli(capsys, "verify", f"matrix:{mpath}")
    assert code == 4
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    assert checks["snf-invariants"]["passed"] is True
    probe = checks["snf-random-probes"]
    assert probe["passed"] is False
    assert probe["details"]["error"] == "probe self-check failed"
    assert len(probe["details"]["matrix"]) == 2


@pytest.mark.parametrize("fault", ["one-more", "two-lengths", "prime-dropped"])
def test_verify_matrix_length_check_catches_a_wrong_engine(fault, tmp_path, capsys, monkeypatch):
    """The expected count comes from the Smith form, not from the engine's
    own prime factorization, so each injected error fails the check."""
    import premonoids.matrices as mx

    mpath = tmp_path / "a.json"
    mpath.write_text(json.dumps([[2, 0], [0, 6]]))  # det 12, three primes
    if fault == "one-more":
        monkeypatch.setattr(mx, "matrix_length_set", lambda a: premonoids.LengthSet.of(4))
    elif fault == "two-lengths":
        monkeypatch.setattr(mx, "matrix_length_set", lambda a: premonoids.LengthSet.of(3, 4))
    else:
        real = mx.factor_multiset
        monkeypatch.setattr(mx, "factor_multiset", lambda v: real(v)[1:])
    code, out, _ = run_cli(capsys, "verify", f"matrix:{mpath}")
    assert code == 4
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    check = checks["length-set-vs-prime-count"]
    assert check["passed"] is False and check["details"]["prime_count"] == 3


def test_verify_matrix_passing_probes_keep_empty_details(tmp_path, capsys):
    mpath = tmp_path / "a.json"
    mpath.write_text(json.dumps([[2, 0], [0, 3]]))
    code, out, _ = run_cli(capsys, "verify", f"matrix:{mpath}")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    assert checks["snf-random-probes"] == {
        "name": "snf-random-probes", "applicable": True, "passed": True, "details": {}
    }


def test_verify_local_reports_failing_divisor_certificates(capsys, monkeypatch):
    from premonoids.families import NumericalMonoid

    code, out, _ = run_cli(capsys, "verify", "numerical:2,3")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    assert checks["divisor-certificates"]["details"] == {}

    def forced(self, x):
        raise AssertionError("forced")

    monkeypatch.setattr(NumericalMonoid, "check_divisor_laws", forced)
    code, out, _ = run_cli(capsys, "verify", "numerical:2,3")
    assert code == 4
    checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
    assert checks["divisor-certificates"] == {
        "name": "divisor-certificates",
        "applicable": True,
        "passed": False,
        "details": {"error": "forced"},
    }


# -- the indented JSON writer ----------------------------------------------------------

_LEAVES = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x7F)),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "é", "😀"]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
)
# keys of one dict must be comparable for ``sort_keys``; a mixed dict is also
# drawn, and then both writers must refuse it the same way
_KEYS = st.sampled_from([
    st.text(),
    st.one_of(st.integers(), st.floats(), st.booleans()),
    st.none(),
    st.one_of(st.text(), st.integers(), st.none()),
])
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=5),
        _KEYS.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4)),
    ),
    max_leaves=25,
)


def _dumps_or_type_error(dump, obj):
    try:
        return dump(obj)
    except TypeError:
        return TypeError


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_DOCUMENTS)
def test_writer_matches_json_dumps(obj):
    want = _dumps_or_type_error(lambda o: json.dumps(o, indent=2, sort_keys=True), obj)
    assert _dumps_or_type_error(_dumps, obj) == want


# One list or tuple object placed at several spots of a document: the writer
# reuses the text of a container it meets again, which holds only at the same
# depth.
_SHARED = st.one_of(
    st.lists(_DOCUMENTS, min_size=1, max_size=4),
    st.lists(_DOCUMENTS, min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(), min_size=1, max_size=5),
)


def _aliased(shared):
    """Documents holding ``shared`` at any number of spots and depths."""
    return st.recursive(
        st.one_of(st.just(shared), _LEAVES),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), inner, max_size=4),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_SHARED, st.data())
def test_writer_matches_json_dumps_on_aliased_documents(shared, data):
    doc = data.draw(_aliased(shared))
    for obj in (
        doc,
        [shared, doc, shared],  # the same depth
        {"a": [shared], "b": shared, "c": (doc, shared)},  # two depths
        [[shared], shared, [[shared, shared]], [shared]],
    ):
        want = _dumps_or_type_error(lambda o: json.dumps(o, indent=2, sort_keys=True), obj)
        assert _dumps_or_type_error(_dumps, obj) == want


@pytest.mark.parametrize("spec", _LOCAL_SPECS)
def test_classify_profiles_print_json_dumps_of_their_payload(spec, capsys):
    code, out, _ = run_cli(capsys, "classify", spec, "--profiles")
    payload = classify_payload(load_instance(spec), None, True)
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), {"a": {}}, [[], {}, ()], {1: [{}]}, -0.0, math.nan, "\u00e9\"\n", {None: 1}, {True: 2, 0.5: 3}],
)
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [{1, 2}, {"a": [frozenset()]}, {(1, 2): 3}, {"a": 1, 2: "b"}])
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumps(obj)


@pytest.mark.parametrize("obj", [{"a": [[1, "x"], (2.5, None)], "b": {"c": [[]]}}, {(1, 2): 3}])
def test_writer_leaves_no_cycle_behind(obj):
    """What the writer builds is freed when it returns, also when it raises,
    not at the next full collection."""
    gc.collect()
    gc.disable()
    try:
        _dumps_or_type_error(_dumps, obj)
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of the stdout of these commands, recorded with ``json.dumps(indent=2,
# sort_keys=True)`` as the writer and, for the presentations, with the
# all-factor explorer of tests/presentation_oracle.py
_CLI_DIGESTS = {
    ("describe", "present:xy:x2=yx2y:9"):
        "fe7da4d6fb445a83ccc0aac76916d7f167663e6d5c5513163fd7fcb2748d08ee",
    ("describe", "present:xyz:xy=yx,xz=zx:7"):
        "39e107e585d556ca7594a036c131de1d9edb5e8968d9f9acb34d4c6a5e44f6ac",
    ("verify", "present:xy:x2=yx2y:9", "present:xyz:xy=yx,xz=zx:5", "--seed", "1"):
        "1871bda175f1f8173e6080ade5bd7ddcd9dec6eb8320039679cb8469cee78664",
    ("classify", "n2sub:4", "--profiles"):
        "50357e8ba94372e43c2a89890bbf4b9e0866c768ea275348171b85ef833d4197",
    ("factorize", "numerical:3,5,7", "104", "--minimal"):
        "d7cc80c3573feda3ca1bea837a7a1d27469c47994307a542d90fff8dbdd3d70e",
}


@pytest.mark.parametrize("argv", sorted(_CLI_DIGESTS))
def test_large_payloads_are_pinned(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CLI_DIGESTS[argv]


@pytest.mark.parametrize("command", ["describe", "verify"])
@pytest.mark.parametrize("spec", ["present:xx::3", "present:x1::3", "present:xyx:x=y:2"])
def test_bad_presentation_alphabet_exits_2(command, spec, capsys):
    code, out, err = run_cli(capsys, command, spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "alphabet" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["describe", "verify"])
def test_presentation_bounds_stop_at_the_letter_cap(command, capsys):
    """Over one letter the words up to 1023 hold 523,776 letters, under the
    cap of 2^19; one more length passes it."""
    assert run_cli(capsys, command, "present:x::1023")[0] == 0
    assert run_cli(capsys, command, "present:x::1024") == (
        2, "", "error: bound 1024 over 'x' passes the cap of 524288 letters\n"
    )


def test_presentation_bounds_past_the_cap_build_no_word(capsys, monkeypatch):
    """The words are counted before any is built, so a bound whose words
    would fill the memory is refused at once."""
    import itertools

    def refuse(*args, **kwargs):
        raise AssertionError("a word was built past the cap")

    monkeypatch.setattr(itertools, "product", refuse)
    code, out, err = run_cli(capsys, "describe", "present:xy::40")
    assert (code, out) == (2, "") and "cap of 32768 words" in err


def test_an_empty_alphabet_lists_the_empty_word_only(capsys):
    """Lengths past 0 hold no words over an empty alphabet, so a huge bound
    takes one step and reports what a small one does."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "describe", "present:::1000000000")
    assert code == 0 and time.perf_counter() - start < 1
    small = json.loads(run_cli(capsys, "describe", "present:::3")[1])
    payload = json.loads(out)
    assert payload.pop("instance") == "present:::1000000000" and payload.pop("bound") == 1000000000
    del small["instance"], small["bound"]
    assert payload == small


def test_closed_stdout_is_a_labeled_exit_not_a_traceback():
    src = str(Path(premonoids.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the first write fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "premonoids", "factorize", "numerical:3,5,7", "104", "--minimal"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    assert proc.returncode == 5


def _captured_main(argv):
    """Exit code, stdout and stderr of one ``main`` call, ``SystemExit``
    (``--help``, a bad argument) read as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_parses_as_a_fresh_one():
    """Calls in sequence share one parser and each gives what a call with a
    newly built parser gives, whatever the call before it parsed."""
    from premonoids.cli import _parser

    calls = [
        ("describe", "zn:8", "--degree", "2,3"),
        ("factorize", "zn:8", "4", "--max-len", "3", "--format", "text"),
        ("classify", "zn:6", "--profiles"),
        ("verify", "zn:4", "--random", "1", "--seed", "2"),
        ("factorize", "zn:8"),
        ("describe", "zn:8", "--format", "xml"),
        ("--help",),
        ("verify", "--help"),
        ("describe", "zn:4"),
    ]
    fresh = []
    for argv in calls:
        _parser.cache_clear()
        fresh.append(_captured_main(argv))
    _parser.cache_clear()
    shared = [_captured_main(argv) for argv in calls]
    assert shared == fresh
    assert _parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 2, 0, 0, 0]
    assert "usage: premonoids" in shared[6][1] and "invalid choice" in shared[5][2]


def test_parser_is_not_built_at_import():
    """Importing the CLI builds no parser, so start-up does not pay for it."""
    src = str(Path(premonoids.__file__).resolve().parents[1])
    code = "import premonoids.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr
