import json

import pytest

from premonoids.cli import load_instance, main


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


def test_describe_product_one(capsys):
    code, out, _ = run_cli(capsys, "describe", "b:c3:1,2")
    data = json.loads(out)
    assert code == 0
    assert data["atoms_2"] == [[1, 1, 1], [1, 2], [2, 2, 2]]


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "describe", "zn:4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 4


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


def test_n2sub_element_through_cli(capsys):
    code, out, _ = run_cli(capsys, "classify", "n2sub:3", "--element", "(2,2)")
    data = json.loads(out)
    assert code == 0
    assert data["element"] == [2, 2]
    code, _, _ = run_cli(capsys, "classify", "n2sub:3", "--element", "(1,0)")
    assert code == 3  # not a member


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
