import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgdescent.cli import main
from dgdescent.io import dump_record, element_to_record, load_record

DATA = Path(__file__).resolve().parents[1] / "src" / "dgdescent" / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_check_algebra_ok(capsys):
    code, rep = run_cli(capsys, "check-algebra",
                        str(DATA / "algebra_ef.json"))
    assert code == 0
    assert rep["summary"]["verified"] == 1


@pytest.mark.parametrize("name", sorted(f.name for f in DATA.glob("*.json")))
def test_check_algebra_reads_every_record_type(capsys, name):
    rec = json.loads((DATA / name).read_text())
    code, rep = run_cli(capsys, "check-algebra", str(DATA / name))
    assert code == 0 and rep["instance"] == rec["name"]
    (check,) = rep["checks"]
    assert check["verdict"] == "verified"
    # one check name per record type
    kind = {"dg_lie_algebra": "Jacobi", "artin_algebra": "artinian axioms",
            "cover": "restriction functoriality",
            "descent_instance": "artinian base axioms",
            "cosimplicial_dg_lie": "cosimplicial identities"}
    assert kind[rec["type"]] in check["name"]


def test_check_algebra_refuses_a_repeated_product(tmp_path, capsys):
    # a second t.t = 0 was once read as the only one: k[t]/t^3 with t^2 = 0
    # passed as "verified"
    rec = json.loads((DATA / "artin_t3.json").read_text())
    rec["products"].append({"left": "t", "right": "t", "value": []})
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(rec))
    code = main(["check-algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{path}: field 'products'" in captured.err
    assert "listed twice" in captured.err


def test_a_repeated_json_key_exits_2(tmp_path, capsys):
    # the last of two "coeff" keys once won silently: t.t = 0 made
    # k[t]/t^3 a "verified" algebra with t^2 = 0
    text = (DATA / "artin_t3.json").read_text()
    assert text.count('"coeff": "1"') == 1
    path = tmp_path / "t3.json"
    path.write_text(text.replace('"coeff": "1"',
                                 '"coeff": "1", "coeff": "0"'))
    code = main(["check-algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: field 'coeff'")
    assert "repeated key" in captured.err
    # no bundled record repeats a key
    for f in sorted(DATA.glob("*.json")):
        assert load_record(f) == json.loads(f.read_text())


def test_check_algebra_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "dg_lie_algebra", "basis": [')
    code = main(["check-algebra", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and str(bad) in err


def test_a_directory_as_input_exits_2(capsys):
    code = main(["check-algebra", str(DATA)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and str(DATA) in captured.err


def test_an_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["check-algebra", str(DATA / "algebra_ef.json"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.parent.exists()


def test_cohomology_command(capsys):
    code, rep = run_cli(capsys, "cohomology", str(DATA / "algebra_line.json"))
    assert code == 0
    assert rep["checks"][0]["betti"][:2] == [1, 1]


def test_mc_sampling_deterministic(capsys):
    args = ["mc", str(DATA / "algebra_ef.json"),
            "--base", str(DATA / "artin_t3.json"),
            "--samples", "5", "--seed", "9"]
    code1, rep1 = run_cli(capsys, *args)
    code2, rep2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_mc_element_residual(tmp_path, capsys):
    from dgdescent.dgla import tensor_lie
    from dgdescent.instances import ef_algebra, t_truncated
    nil = tensor_lie(t_truncated(3), ef_algebra())
    g = nil.algebra
    el = {g.space.index(1, ("t", "f")): 2}
    from fractions import Fraction
    el = {k: Fraction(v) for k, v in el.items()}
    f = tmp_path / "el.json"
    dump_record(element_to_record(g, el), f)
    code, rep = run_cli(capsys, "mc", str(DATA / "algebra_ef.json"),
                        "--base", str(DATA / "artin_t3.json"),
                        "--element", str(f))
    assert code == 0
    assert rep["checks"][0]["verdict"] == "verified"


def test_gauge_orbit_command(tmp_path, capsys):
    from dgdescent.dgla import tensor_lie
    from dgdescent.instances import ef_algebra, t_truncated
    from fractions import Fraction as F
    nil = tensor_lie(t_truncated(3), ef_algebra())
    g = nil.algebra
    tf = g.space.index(1, ("t", "f"))
    t2f = g.space.index(1, ("t2", "f"))
    xf = tmp_path / "x.json"
    yf = tmp_path / "y.json"
    dump_record(element_to_record(g, {tf: F(3), t2f: F(5)}), xf)
    dump_record(element_to_record(g, {tf: F(3), t2f: F(1)}), yf)
    code, rep = run_cli(capsys, "gauge-orbit", str(DATA / "algebra_ef.json"),
                        "--base", str(DATA / "artin_t3.json"),
                        "--x", str(xf), "--xp", str(yf))
    assert code == 0
    assert rep["checks"][0]["status"] == "witness"
    # distinct orbits still exit 0 (the decision succeeded)
    zf = tmp_path / "z.json"
    dump_record(element_to_record(g, {t2f: F(1)}), zf)
    wf = tmp_path / "w.json"
    dump_record(element_to_record(g, {t2f: F(2)}), wf)
    code2, rep2 = run_cli(capsys, "gauge-orbit",
                          str(DATA / "algebra_ef.json"),
                          "--base", str(DATA / "artin_t3.json"),
                          "--x", str(zf), "--xp", str(wf))
    assert code2 == 0
    assert rep2["checks"][0]["status"] == "distinct"


def test_mc_element_off_degree_one_is_falsified(tmp_path, capsys):
    # t e has degree 0: a gauge, not an MC element, though its residual
    # d(te) + [te, te]/2 vanishes
    f = tmp_path / "gauge.json"
    f.write_text(json.dumps([{"basis": ["t", "e"], "coeff": "1"}]))
    code, rep = run_cli(capsys, "mc", str(DATA / "algebra_ef.json"),
                        "--base", str(DATA / "artin_t3.json"),
                        "--element", str(f))
    assert code == 1
    check = rep["checks"][0]
    assert check["verdict"] == "falsified"
    assert check["residual"] == []
    assert check["not_degree_one"] == [{"basis": ["t", "e"], "coeff": "1"}]


def test_gauge_orbit_refuses_an_element_off_degree_one(tmp_path, capsys):
    x = tmp_path / "x.json"
    x.write_text(json.dumps([{"basis": ["t", "e"], "coeff": "1"}]))
    xp = tmp_path / "xp.json"
    xp.write_text(json.dumps([{"basis": ["t", "e"], "coeff": "1"},
                              {"basis": ["t2", "e"], "coeff": "3"}]))
    base = ["gauge-orbit", str(DATA / "algebra_ef.json"),
            "--base", str(DATA / "artin_t3.json")]
    assert main(base + ["--x", str(x), "--xp", str(xp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(x) in captured.err and "degree 1" in captured.err
    # a degree-1 element with a nonzero residual keeps its message
    wz = ["gauge-orbit", str(DATA / "algebra_wz.json"),
          "--base", str(DATA / "artin_t3.json")]
    x.write_text(json.dumps([{"basis": ["t", "w"], "coeff": "1"}]))
    assert main(wz + ["--x", str(x), "--xp", str(x)]) == 2
    assert "not a Maurer-Cartan element" in capsys.readouterr().err


def test_tot_command_constant_cosimplicial(capsys):
    code, rep = run_cli(capsys, "tot",
                        str(DATA / "cosimplicial_constant_ef_t3.json"),
                        "--degree-bound", "2")
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert any("conormalized" in n for n in names)
    assert all(c["verdict"] == "verified" for c in rep["checks"])


def test_stabilized_tot_disagreement_on_the_3_sphere_is_undecided(
        tmp_path, capsys):
    # the boundary of the 4-simplex: five opens, one per facet, every
    # proper sub-intersection nonempty.  No 3-form has total degree
    # below 3, so TS_1 and TS_2 agree and both miss H^3; that equality
    # is no limit and refutes nothing
    import itertools
    from dgdescent.instances import complex_cover, dual_numbers
    from dgdescent.io import instance_to_record
    path = tmp_path / "sphere3.json"
    dump_record(instance_to_record(
        "sphere3/eps", complex_cover(itertools.combinations(range(5), 4),
                                     name="sphere3"),
        dual_numbers()), path)
    code, rep = run_cli(capsys, "tot", str(path), "--degree-bound", "2")
    assert code == 0
    check = rep["checks"][1]
    assert check["conormalized"] == [1, 1, 0, 1, 1]
    assert check["tot_lie_cohomology_by_bound"] == {
        "1": [1, 1, 0, 0, 0], "2": [1, 1, 0, 0, 0]}
    assert check["stabilized_at"] == 2
    assert check["verdict"] == "undecided"
    assert check["reason"] == "stabilization in D proves nothing"
    assert rep["summary"] == {"verified": 1, "falsified": 0, "undecided": 1}
    code, rep = run_cli(capsys, "tot", str(path), "--degree-bound", "3")
    assert code == 0
    assert [c["verdict"] for c in rep["checks"]] == ["verified"] * 2
    assert "reason" not in rep["checks"][1]


def test_cech_command(capsys):
    code, rep = run_cli(capsys, "cech",
                        str(DATA / "instance_segment_eps.json"))
    assert code == 0
    assert rep["normalization_vanishing_level"] == 1
    assert rep["levels"] == [4, 6, 8]


def test_cech_ignores_declared_opens_without_sections(tmp_path, capsys):
    # the segment cover has sections over opens 0 and 1 only
    rec = json.loads((DATA / "instance_segment_t3.json").read_text())
    reports = []
    for opens in (2, 8):
        rec["cover"]["opens"] = opens
        path = tmp_path / f"opens{opens}.json"
        path.write_text(json.dumps(rec))
        code, rep = run_cli(capsys, "cech", str(path))
        assert code == 0
        reports.append(rep)
    two, eight = reports
    assert eight["levels"] == two["levels"]
    assert eight["tuples"] == two["tuples"]


def test_verify_descent_command_and_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, rep = run_cli(capsys, "verify-descent",
                        str(DATA / "instance_segment_eps.json"),
                        "--degree-bound", "1", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == rep


def test_byte_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _ = run_cli(capsys, "verify-descent",
                          str(DATA / "instance_segment_eps.json"),
                          "--degree-bound", "1",
                          "--seed", "4", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def _gauge_pair():
    """ef (x) m_{k[t]/t^3} and two MC elements of it that differ only
    in the last stage."""
    from dgdescent.dgla import tensor_lie
    from dgdescent.instances import ef_algebra, t_truncated
    from fractions import Fraction as F
    nil = tensor_lie(t_truncated(3), ef_algebra())
    tf = nil.algebra.space.index(1, ("t", "f"))
    t2f = nil.algebra.space.index(1, ("t2", "f"))
    return nil, {tf: F(3), t2f: F(5)}, {tf: F(3), t2f: F(1)}


def _gauge_orbit_args(tmp_path):
    """A gauge-orbit command line on the _gauge_pair elements."""
    nil, x, xp = _gauge_pair()
    xf, yf = tmp_path / "x.json", tmp_path / "y.json"
    dump_record(element_to_record(nil.algebra, x), xf)
    dump_record(element_to_record(nil.algebra, xp), yf)
    return ["gauge-orbit", str(DATA / "algebra_ef.json"),
            "--base", str(DATA / "artin_t3.json"),
            "--x", str(xf), "--xp", str(yf)]


def test_strict_flag_fails_on_undecided(tmp_path, capsys):
    # craft a report with an undecided verdict through gauge-orbit with
    # max-depth 1 forcing an unknown
    args = _gauge_orbit_args(tmp_path) + ["--max-depth", "1"]
    code, rep = run_cli(capsys, *args)
    if rep["checks"][0]["status"] == "unknown":
        assert code == 0
        code2, _ = run_cli(capsys, *args, "--strict")
        assert code2 == 1
    else:
        # depth 1 already found the witness; force strict success instead
        assert code == 0


def test_gluing_beyond_the_degree_bound_is_undecided(tmp_path, capsys):
    from dgdescent.instances import probe_class2, segment_cover, t_truncated
    from dgdescent.io import instance_to_record
    path = tmp_path / "probe2.json"
    dump_record(instance_to_record("segment-probe2/t3",
                                   segment_cover(probe_class2()),
                                   t_truncated(3)), path)
    args = ["verify-descent", str(path), "--samples", "3", "--seed", "11"]
    code, rep = run_cli(capsys, *args, "--degree-bound", "1")
    assert code == 0
    assert rep["falsified"] == 0 and rep["summary"]["falsified"] == 0
    assert rep["summary"]["verified"] == 0
    assert {c["verdict"] for c in rep["checks"]} == {"undecided"}
    assert any(c["name"] == "gluing" for c in rep["checks"])
    code, _ = run_cli(capsys, *args, "--degree-bound", "1", "--strict")
    assert code == 1
    code, rep = run_cli(capsys, *args, "--degree-bound", "2", "--strict")
    assert code == 0
    assert rep["summary"] == {"verified": 1, "falsified": 0, "undecided": 0}


@pytest.mark.parametrize("command, name", [
    ("check-algebra", "cover_segment_line.json"),
    ("cech", "instance_segment_t3.json"),
    ("verify-descent", "instance_segment_t3.json"),
    ("tot", "instance_segment_t3.json")])
def test_cover_missing_a_restriction_exits_2(tmp_path, capsys, command,
                                             name):
    rec = json.loads((DATA / name).read_text())
    del rec.get("cover", rec)["restrictions"][1]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    extra = ["--degree-bound", "1"] if command in ("tot", "verify-descent") \
        else []
    assert main([command, str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing restriction {1} -> {0, 1}" in captured.err


@pytest.mark.parametrize("degree, block", [
    ("0", [["1", "0"]]), ("0", [["1"], ["0"]]), ("0", []), ("5", [["1"]])])
def test_restriction_block_of_the_wrong_shape_exits_2(tmp_path, capsys,
                                                      degree, block):
    rec = json.loads((DATA / "instance_scaled_t3.json").read_text())
    rec["cover"]["restrictions"][1]["matrix"][degree] = block
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    assert main(["cech", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"block {degree} has shape" in captured.err


def test_summary_counts_each_check_once(monkeypatch, capsys):
    # a report's own falsified/undecided counts are already in its checks
    import dgdescent.cech as cech

    def fake_verify(cc, samples, seed, D):
        return {"instance": "fake", "falsified": 1, "undecided": 3,
                "checks": [{"name": "a", "verdict": "falsified"},
                           {"name": "b", "verdict": "undecided"},
                           {"name": "c", "verdict": "verified"}]}
    # the CLI imports verify_descent from cech when the command runs
    monkeypatch.setattr(cech, "verify_descent", fake_verify)
    code, rep = run_cli(capsys, "verify-descent",
                        str(DATA / "instance_segment_eps.json"))
    assert rep["summary"] == {"verified": 1, "falsified": 1, "undecided": 1}
    assert code == 1


@pytest.mark.parametrize("flag", ["--samples", "--degree-bound"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_counts_rejected(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-descent", str(DATA / "instance_segment_ef_t3.json"),
              flag, value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def _in_data(argv):
    """argv with every .json file name taken from the bundled corpus."""
    return [str(DATA / a) if a.endswith(".json") else a for a in argv]


# a subcommand takes only the options it reads
@pytest.mark.parametrize("argv, flag", [
    (["check-algebra", "algebra_ef.json"], "--seed"),
    (["cohomology", "algebra_ef.json"], "--samples"),
    (["mc", "algebra_ef.json", "--base", "artin_t3.json"], "--degree-bound"),
    (["gauge-orbit", "algebra_ef.json", "--x", "x.json", "--xp", "x.json"],
     "--seed"),
    (["tot", "cosimplicial_constant_ef_t3.json"], "--samples"),
    (["cech", "instance_segment_eps.json"], "--samples"),
    (["verify-descent", "instance_segment_eps.json"], "--max-degree")])
def test_a_flag_the_command_does_not_read_is_refused(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_in_data(argv) + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seeded", [
    (["check-algebra", "algebra_ef.json"], False),
    (["cech", "instance_segment_eps.json"], False),
    (["mc", "algebra_ef.json", "--base", "artin_t3.json", "--samples", "1",
      "--seed", "3"], True),
    (["verify-descent", "instance_segment_eps.json", "--degree-bound", "1",
      "--seed", "3"], True)])
def test_only_sampling_commands_report_a_seed(argv, seeded, capsys):
    code, rep = run_cli(capsys, *_in_data(argv))
    assert code == 0
    assert rep.get("seed") == (3 if seeded else None)
    assert ("seed" in rep) == seeded


def test_verify_descent_on_a_cover_with_an_open_without_sections(
        tmp_path, capsys):
    # a declared open that no intersection uses costs nothing: the
    # sampler draws over the opens that carry a section, in the same
    # order, so the report is that of the cover without it
    rec = json.loads((DATA / "instance_segment_ef_t3.json").read_text())
    args = ["--samples", "2", "--seed", "5"]
    code, rep = run_cli(capsys, "verify-descent",
                        str(DATA / "instance_segment_ef_t3.json"), *args)
    assert code == 0 and rep["summary"]["verified"] == 1
    rec["cover"]["opens"] = 3
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    code3, rep3 = run_cli(capsys, "verify-descent", str(path), *args)
    assert code3 == 0
    assert rep3["checks"] == rep["checks"]


def test_truncation_below_level_two_is_a_clean_error(capsys):
    code = main(["verify-descent", str(DATA / "instance_segment_ef_t3.json"),
                 "--trunc-level", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "levels 0..2" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["01", "\u0661", "-0"])
@pytest.mark.parametrize("command, name", [
    ("cech", "instance_projection_eps.json"),
    ("tot", "cosimplicial_constant_ef_t3.json")])
def test_degree_key_not_written_as_a_plain_integer_exits_2(
        tmp_path, capsys, key, command, name):
    # "01" and the Arabic-Indic one both read as degree 1, and "-0" as
    # degree 0, and overwrote that block: the projection read as the
    # zero map
    rec = json.loads((DATA / name).read_text())
    matrices = rec["cover"]["restrictions"][0]["matrix"] \
        if "cover" in rec else rec["cofaces"][0][0]
    matrices[key] = [["0"]]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    field = "restrictions.matrix" if "cover" in rec else "cofaces"
    assert f"field '{field}" in captured.err
    assert f"degree {key!r} is not written as a plain integer" in \
        captured.err


def test_truncation_below_cech_vanishing_level_is_a_clean_error(capsys):
    # the triple cover has a nonempty triple overlap, so N^2 != 0; cut at
    # level 1 the conormalized side read betti [1, 2, 1] as verified
    code = main(["tot", str(DATA / "instance_triple_eps.json"),
                 "--trunc-level", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "vanishing level 2" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command",
                         ["cech", "tot", "verify-descent", "check-algebra"])
def test_a_cover_with_no_nonempty_open_exits_2(tmp_path, capsys, command):
    # the first three once ended in a traceback with exit 1, the
    # "falsified" code, and check-algebra called the record verified
    rec = json.loads((DATA / "instance_segment_t3.json").read_text())
    rec["cover"]["intersections"] = []
    rec["cover"]["restrictions"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(rec))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert "a cover needs at least one nonempty open" in line


@pytest.mark.parametrize("command", ["cech", "tot", "verify-descent"])
def test_truncation_far_above_the_default_is_a_clean_error(capsys, command):
    # the triple cover vanishes above level 2, its default truncation;
    # level 4 adds only degenerate tuples, at a cost that grows with it
    code = main([command, str(DATA / "instance_triple_eps.json"),
                 "--trunc-level", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "above 3" in lines[0]


def test_truncation_one_above_the_default_is_accepted(capsys):
    # the segment cover vanishes above level 1, so its default is 2
    code, rep = run_cli(capsys, "cech",
                        str(DATA / "instance_segment_eps.json"),
                        "--trunc-level", "3")
    assert code == 0
    assert len(rep["levels"]) == 4


def test_trunc_level_rejected_for_cosimplicial_records(capsys):
    code = main(["tot", str(DATA / "cosimplicial_constant_ef_t3.json"),
                 "--trunc-level", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--trunc-level" in captured.err


def test_verify_descent_refuses_nonabelian_records_without_cover(capsys):
    # the sampled nonabelian check glues over a cover, which a
    # cosimplicial_dg_lie record does not carry: unusable input (exit 2),
    # not a traceback with the "falsified" exit code
    code = main(["verify-descent",
                 str(DATA / "cosimplicial_constant_ef_t3.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "descent_instance" in captured.err
    assert "Traceback" not in captured.err


def test_verify_descent_checks_abelian_cosimplicial_records(tmp_path,
                                                            capsys):
    from dgdescent.instances import abelian_line
    from dgdescent.io import cosimplicial_to_record
    from dgdescent.tot import constant_cosimplicial
    path = tmp_path / "const_line.json"
    dump_record(cosimplicial_to_record(constant_cosimplicial(abelian_line(),
                                                             2)), path)
    code, rep = run_cli(capsys, "verify-descent", str(path))
    assert code == 0
    assert rep["summary"]["verified"] == 2


def _algebra_record(tmp_path, basis):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"type": "dg_lie_algebra", "name": "bad",
                                "basis": basis, "differential": [],
                                "brackets": []}))
    return str(path)


@pytest.mark.parametrize("command", ["check-algebra", "cohomology"])
@pytest.mark.parametrize("basis, message", [
    ([{"label": "x", "degree": -1}], "negative degree -1"),
    ([{"label": "x", "degree": 0}, {"label": "x", "degree": 0}],
     "duplicate basis labels in degree 0"),
    ([{"label": "x", "degree": 0}, {"label": "x", "degree": 1}],
     "'x' is in degrees 0 and 1"),
])
def test_malformed_basis_is_unusable_input(tmp_path, capsys, command, basis,
                                           message):
    # exit 2 (unusable input), never 1 (falsified) or a "verified" report
    path = _algebra_record(tmp_path, basis)
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{path}: field 'basis'" in captured.err
    assert message in captured.err


# every field algebra_from_record requires, with values of a wrong type
_LABEL_FIELDS = ("label", "from", "to", "left", "right", "basis")
_WRONG = {
    "label": [None, 1.5, True, {}, {"x": "y"}, [None]],
    "degree": [None, "1", 1.5, True, [], {}],
    "coeff": [None, 1.5, True, [], {}, "x"],
    "list": [None, 1, "x", {}, [1], ["x"]],
}


def _field_sites(rec):
    """(path, kind, droppable) for every field of an algebra record."""
    sites = [((key,), "list", False)
             for key in ("basis", "differential", "brackets")]
    for key, fields in (("basis", ("label", "degree")),
                        ("differential", ("from", "to", "coeff")),
                        ("brackets", ("left", "right"))):
        for i in range(len(rec[key])):
            sites.append(((key, i), "list", False))
            sites += [((key, i, f), "label" if f in _LABEL_FIELDS else f,
                       True) for f in fields]
    for i, entry in enumerate(rec["brackets"]):
        sites.append((("brackets", i, "value"), "list", False))
        for j in range(len(entry["value"])):
            sites += [(("brackets", i, "value", j, "basis"), "label", True),
                      (("brackets", i, "value", j, "coeff"), "coeff", True)]
    return sites


_PROBE = json.loads((DATA / "algebra_probe2.json").read_text())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_algebra_fields_exit_2(capsys, data):
    rec = copy.deepcopy(_PROBE)
    path, kind, droppable = data.draw(st.sampled_from(_field_sites(rec)))
    parent = rec
    for step in path[:-1]:
        parent = parent[step]
    if droppable and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(_WRONG[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "algebra.json"
        file.write_text(json.dumps(rec))
        code = main(["check-algebra", str(file)])
    captured = capsys.readouterr()
    assert code == 2, (path, captured)
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# every field that the cover, artin and instance readers take, with values
# of a wrong type that no reader may accept
_WRONG.update({
    "labels": [None, 1, "x", {}, [None], [1.5]],
    "object": [None, 1, "x", [], [{}]],
    "int": [None, "2", 1.5, True, [], {}],
    "name": [None, 1, [], {}, "nope"],
    "indices": [None, 1, "x", {}, [None], ["0"], [True], [1.5]],
    "matrix": [None, 1, "x", [], [["1"]], {"x": [["1"]]}, {"0": "1"},
               {"0": ["1"]}, {"0": [["1"], ["1", "2"]]}],
})


def _artin_sites(rec, at=()):
    sites = [(at + ("ideal_basis",), "labels", False),
             (at + ("products",), "list", False)]
    for i, entry in enumerate(rec["products"]):
        p = at + ("products", i)
        sites += [(p, "list", False), (p + ("left",), "label", True),
                  (p + ("right",), "label", True),
                  (p + ("value",), "list", False)]
        for j in range(len(entry["value"])):
            sites += [(p + ("value", j, "basis"), "label", True),
                      (p + ("value", j, "coeff"), "coeff", True)]
    return sites


def _cover_sites(rec, at=()):
    sites = [(at + ("opens",), "int", True),
             (at + ("sections",), "object", False),
             (at + ("intersections",), "list", False),
             (at + ("restrictions",), "list", False)]
    sites += [(at + ("sections", nm), "object", True)
              for nm in rec["sections"]]
    for i in range(len(rec["intersections"])):
        p = at + ("intersections", i)
        sites += [(p, "list", False), (p + ("algebra",), "name", True),
                  (p + ("indices",), "indices", True)]
    for i in range(len(rec["restrictions"])):
        p = at + ("restrictions", i)
        sites += [(p, "list", False), (p + ("from",), "indices", True),
                  (p + ("to",), "indices", True),
                  (p + ("matrix",), "matrix", True)]
    return sites


def _instance_sites(rec):
    return ([(("cover",), "object", True), (("base",), "object", True)] +
            _cover_sites(rec["cover"], ("cover",)) +
            _artin_sites(rec["base"], ("base",)))


# (command, record, its field sites); the instance has a matrix restriction
_RECORDS = [
    (command, json.loads((DATA / name).read_text()), sites)
    for command, name, sites in (
        ("check-algebra", "cover_segment_line.json", _cover_sites),
        ("check-algebra", "artin_t3.json", _artin_sites),
        ("cech", "instance_scaled_t3.json", _instance_sites))]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_cover_artin_instance_fields_exit_2(capsys, data):
    command, rec, sites = data.draw(st.sampled_from(_RECORDS))
    rec = copy.deepcopy(rec)
    path, kind, droppable = data.draw(st.sampled_from(sites(rec)))
    parent = rec
    for step in path[:-1]:
        parent = parent[step]
    if droppable and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(_WRONG[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "record.json"
        file.write_text(json.dumps(rec))
        code = main([command, str(file)])
    captured = capsys.readouterr()
    assert code == 2, (path, captured)
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["check-algebra", "cohomology", "tot",
                                     "cech", "verify-descent"])
@pytest.mark.parametrize("record", [[1, 2], "x", 3, None])
def test_records_that_are_not_objects_exit_2(tmp_path, capsys, command,
                                             record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a JSON object" in captured.err


def test_element_records_are_lists_of_terms(tmp_path, capsys):
    base = ["mc", str(DATA / "algebra_ef.json"),
            "--base", str(DATA / "artin_t3.json")]
    # "1e5000" once parsed to an integer too long to print
    for bad in ({"basis": "x", "coeff": "1"}, [1], [{"coeff": "1"}],
                [{"basis": ["t", "f"]}],
                [{"basis": ["t", "e"], "coeff": "1e5000"}]):
        path = tmp_path / "element.json"
        path.write_text(json.dumps(bad))
        assert main(base + ["--element", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
    # the empty element is a valid (zero) element record
    path.write_text("[]")
    assert main(base + ["--element", str(path)]) == 0


def test_sampled_mc_solutions_are_checked_without_assert(monkeypatch,
                                                         capsys):
    # a sampler that hands out a non-MC element must give "falsified",
    # whether or not asserts run
    from dgdescent.dgla import tensor_lie
    from dgdescent.instances import t_truncated, wz_algebra
    from dgdescent.mcgauge import DeligneGroupoid, FiniteLieContext
    nil = tensor_lie(t_truncated(3).maximal_ideal(), wz_algebra())
    ctx = FiniteLieContext(nil)
    bad = next({k: 1} for k in ctx.degree_keys(1)
               if ctx.bracket_el({k: 1}, {k: 1}))
    monkeypatch.setattr(DeligneGroupoid, "random_mc_element",
                        lambda self, rng: dict(bad))
    code, rep = run_cli(capsys, "mc", str(DATA / "algebra_wz.json"),
                        "--base", str(DATA / "artin_t3.json"),
                        "--samples", "2")
    assert code == 1
    check = rep["checks"][0]
    assert check["verdict"] == "falsified"
    assert check["not_maurer_cartan"] == [0, 1]
    assert rep["summary"]["falsified"] == 1


_COSIMPLICIAL = json.loads(
    (DATA / "cosimplicial_constant_ef_t3.json").read_text())


def _cosimplicial_sites(rec):
    """(path, kind, droppable) for the fields of a cosimplicial record,
    the algebra fields of its levels included."""
    sites = [((key,), "list", True)
             for key in ("levels", "cofaces", "codegeneracies")]
    for q, level in enumerate(rec["levels"]):
        sites.append((("levels", q), "object", True))
        sites += [(("levels", q) + path, kind, droppable)
                  for path, kind, droppable in _field_sites(level)]
    for key in ("cofaces", "codegeneracies"):
        for q, maps in enumerate(rec[key]):
            sites.append(((key, q), "list", True))
            sites += [((key, q, i), "matrix", True)
                      for i in range(len(maps))]
    return sites


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_cosimplicial_fields_exit_2(capsys, data):
    rec = copy.deepcopy(_COSIMPLICIAL)
    path, kind, droppable = data.draw(
        st.sampled_from(_cosimplicial_sites(rec)))
    parent = rec
    for step in path[:-1]:
        parent = parent[step]
    if droppable and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(_WRONG[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "record.json"
        file.write_text(json.dumps(rec))
        code = main(["check-algebra", str(file)])
    captured = capsys.readouterr()
    assert code == 2, (path, captured)
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cut", ["one level", "number as coface list"])
def test_cosimplicial_counts_are_checked_before_indexing(tmp_path, capsys,
                                                         cut):
    rec = copy.deepcopy(_COSIMPLICIAL)
    if cut == "one level":
        rec["levels"] = rec["levels"][:1]
    else:
        rec["cofaces"][0] = 5
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    assert main(["check-algebra", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "cofaces" in captured.err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_gauge_orbit_depth_must_be_positive(tmp_path, capsys, value):
    args = _gauge_orbit_args(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--max-depth", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be at least 1" in captured.err
    # the default searches every stage of the lower central series
    code, rep = run_cli(capsys, *args)
    assert code == 0 and rep["checks"][0]["status"] != "unknown"


def test_staged_search_depth_zero_searches_no_stage():
    from dgdescent.mcgauge import FiniteLieContext, gauge_equivalent
    nil, x, xp = _gauge_pair()
    ctx = FiniteLieContext(nil)
    assert gauge_equivalent(ctx, x, xp).status != "unknown"
    res = gauge_equivalent(ctx, x, xp, max_depth=0)
    assert (res.status, res.stage) == ("unknown", 0)


def test_cohomology_degree_bound_must_be_nonnegative(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", str(DATA / "algebra_line.json"),
              "--max-degree", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be at least 0" in captured.err
    out = tmp_path / "report.json"
    code, rep = run_cli(capsys, "cohomology", str(DATA / "algebra_line.json"),
                        "--max-degree", "0", "--out", str(out))
    assert code == 0 and rep["checks"][0]["betti"] == [1]
    assert json.loads(out.read_text()) == rep


def test_cohomology_degree_bound_above_the_top_degree_is_refused(tmp_path,
                                                                 capsys):
    # the line algebra's top degree is 1: a bound above max(4, 1) could
    # only print zeros, as many as it asks for
    code = main(["cohomology", str(DATA / "algebra_line.json"),
                 "--max-degree", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "above 4" in lines[0]
    code, rep = run_cli(capsys, "cohomology", str(DATA / "algebra_line.json"),
                        "--max-degree", "4")
    assert code == 0 and rep["checks"][0]["betti"] == [1, 1, 0, 0, 0]
    # a complex reaching degree 6 allows bounds up to 6
    rec = {"type": "dg_lie_algebra", "name": "high",
           "basis": [{"degree": 6, "label": "x"}],
           "brackets": [], "differential": []}
    path = tmp_path / "high.json"
    path.write_text(json.dumps(rec))
    code, rep = run_cli(capsys, "cohomology", str(path), "--max-degree", "6")
    assert code == 0 and rep["checks"][0]["betti"] == [0] * 6 + [1]
    assert main(["cohomology", str(path), "--max-degree", "7"]) == 2
    assert "above 6" in capsys.readouterr().err
