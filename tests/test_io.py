import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from dgdescent.cech import tensored_cover
from dgdescent.dgla import ArtinAlgebra
from dgdescent.instances import (abelian_line, dual_numbers, ef_algebra,
                                 probe_class2, segment_cover, t_truncated)
from dgdescent.io import (ParseError, algebra_from_record, artin_from_record,
                          cosimplicial_from_record, cover_from_record,
                          dump_record, element_from_record,
                          element_to_record, instance_from_record,
                          load_record, scalar_from_str, scalar_to_str)
from builders import ordered_cech
from records import (algebra_to_record, artin_to_record,
                     cosimplicial_to_record, cover_to_record,
                     instance_to_record)

F = Fraction

DATA = Path(__file__).resolve().parents[1] / "src" / "dgdescent" / "data"


def test_scalar_strings():
    assert scalar_to_str(F(3, 4)) == "3/4"
    assert scalar_to_str(F(-2)) == "-2"
    assert scalar_from_str("5/10") == F(1, 2)
    assert scalar_from_str("-3") == F(-3)
    assert scalar_from_str(7) == F(7)
    with pytest.raises(ParseError):
        scalar_from_str("1/0")
    with pytest.raises(ParseError):
        scalar_from_str(0.5)
    with pytest.raises(ParseError):
        scalar_from_str("x")


@pytest.mark.parametrize("text", [
    "0.5", " 2 ", "1_0", "+4", "\u0664", "1e5", "1e5000", "2/-3", "", "-",
    "1/", True, None, ["1"]])
def test_scalars_are_integers_or_ascii_p_over_q(text):
    with pytest.raises(ParseError, match="bad rational"):
        scalar_from_str(text)


def test_algebra_roundtrip():
    for build in (ef_algebra, probe_class2, abelian_line):
        g = build()
        rec = algebra_to_record(g)
        g2 = algebra_from_record(rec)
        assert algebra_to_record(g2) == rec


def test_artin_roundtrip():
    for build in (dual_numbers, lambda: t_truncated(4)):
        a = build()
        rec = artin_to_record(a)
        a2 = artin_from_record(rec)
        assert artin_to_record(a2) == rec


def test_artin_roundtrip_keeps_a_product_given_in_one_order():
    # only s.t = ts is given; the record must still carry t.s = ts
    a = ArtinAlgebra(["t", "s", "ts"], {(1, 0): {2: 1}})
    rec = artin_to_record(a)
    assert rec["products"] == [{"left": "t", "right": "s",
                                "value": [{"basis": "ts", "coeff": "1"}]}]
    ideal = artin_from_record(rec).maximal_ideal()
    t, s = {0: F(1)}, {1: F(1)}
    assert ideal.multiply(t, s) == {2: F(1)}
    assert ideal.multiply(s, t) == {2: F(1)}


def test_cover_roundtrip():
    cover = segment_cover(ef_algebra())
    rec = cover_to_record(cover)
    cover2 = cover_from_record(rec)
    assert cover_to_record(cover2) == rec


def test_instance_roundtrip():
    rec = instance_to_record("x", segment_cover(), dual_numbers())
    name, cover, base = instance_from_record(rec)
    assert name == "x"
    assert instance_to_record("x", cover, base) == rec


def test_cosimplicial_roundtrip():
    # the ordered Cech algebra: a record carries codegeneracies, which
    # the build on the strictly increasing tuples has none of
    cc = ordered_cech(tensored_cover(segment_cover(), dual_numbers()), 2)
    rec = cosimplicial_to_record(cc)
    cc2 = cosimplicial_from_record(rec)
    assert cosimplicial_to_record(cc2) == rec
    assert cc2.vanishing_level == cc.vanishing_level


def test_element_roundtrip():
    from dgdescent.dgla import tensor_lie
    nil = tensor_lie(t_truncated(3), ef_algebra())
    g = nil.algebra
    el = {g.space.index(1, ("t", "f")): F(2, 3)}
    rec = element_to_record(g, el)
    assert element_from_record(g, rec) == el


def test_element_record_refuses_a_repeated_basis_term():
    from dgdescent.dgla import tensor_lie
    nil = tensor_lie(t_truncated(3), ef_algebra())
    rec = [{"basis": ["t", "f"], "coeff": "1"},
           {"basis": ["t", "f"], "coeff": "2"}]
    with pytest.raises(ParseError, match="element.basis.*listed twice"):
        element_from_record(nil.algebra, rec, path="el.json")


def _ef_record():
    return json.loads((DATA / "algebra_ef.json").read_text())


def _t3_record():
    return json.loads((DATA / "artin_t3.json").read_text())


def test_a_repeated_bracket_pair_is_refused():
    # [e,f] = f then [e,f] = 2f once read as [e,f] = 2f
    rec = _ef_record()
    (entry,) = rec["brackets"]
    twice = copy.deepcopy(entry)
    twice["value"][0]["coeff"] = "2"
    rec["brackets"].append(twice)
    with pytest.raises(ParseError, match="'brackets'.*listed twice"):
        algebra_from_record(rec, path="ef.json")


def test_a_repeated_product_pair_is_refused():
    # a second t.t = 0 once turned k[t]/t^3 into an algebra of nilpotency 2
    rec = _t3_record()
    rec["products"].append({"left": "t", "right": "t", "value": []})
    with pytest.raises(ParseError, match="'products'.*listed twice"):
        artin_from_record(rec, path="t3.json")


@pytest.mark.parametrize("read, record, key", [
    (algebra_from_record, _ef_record, "brackets"),
    (artin_from_record, _t3_record, "products")])
def test_a_repeated_value_term_is_refused(read, record, key):
    # brackets once summed the terms (1 + 5), products kept the last (5)
    rec = record()
    value = rec[key][0]["value"]
    value.append(dict(value[0], coeff="5"))
    with pytest.raises(ParseError,
                       match=f"'{key}.value.basis'.*listed twice"):
        read(rec, path="r.json")


def test_a_repeated_differential_entry_is_refused():
    # d a = b listed twice once read as d a = 2b
    rec = json.loads((DATA / "algebra_line.json").read_text())
    rec["differential"] = [{"from": "a0_0", "to": "a1_0", "coeff": "1"}] * 2
    with pytest.raises(ParseError, match="'differential'.*listed twice"):
        algebra_from_record(rec, path="line.json")


def test_both_orders_of_a_pair_are_not_a_repeat():
    # [f,e] = -f restates [e,f] = f; [f,e] = f contradicts it
    rec = _ef_record()
    rec["brackets"].append({"left": "f", "right": "e",
                            "value": [{"basis": "f", "coeff": "-1"}]})
    assert algebra_to_record(algebra_from_record(rec)) == _ef_record()
    rec["brackets"][1]["value"][0]["coeff"] = "1"
    with pytest.raises(ParseError, match="'brackets'.*antisymmetry"):
        algebra_from_record(rec, path="ef.json")


def test_bad_records_name_file_and_field():
    with pytest.raises(ParseError, match="type"):
        algebra_from_record({"type": "nope"}, path="f.json")
    with pytest.raises(ParseError, match="differential"):
        algebra_from_record(
            {"type": "dg_lie_algebra",
             "basis": [{"label": "x", "degree": 0}],
             "differential": [{"from": "x", "to": "x", "coeff": "1"}],
             "brackets": []}, path="f.json")
    with pytest.raises(ParseError, match="brackets"):
        algebra_from_record(
            {"type": "dg_lie_algebra",
             "basis": [{"label": "x", "degree": 0},
                       {"label": "y", "degree": 0},
                       {"label": "z", "degree": 0}],
             "differential": [],
             "brackets": [
                 {"left": "x", "right": "y",
                  "value": [{"basis": "x", "coeff": "1"}]},
                 {"left": "y", "right": "z",
                  "value": [{"basis": "y", "coeff": "1"}]}]},
            path="f.json")


def test_parse_error_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "dg_lie_algebra",\n  "basis": [}\n')
    with pytest.raises(ParseError, match="line"):
        load_record(str(bad))


def test_an_overlong_integer_literal_is_a_parse_error(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('[{"basis": "x", "coeff": 1' + "0" * 5000 + '}]')
    with pytest.raises(ParseError, match="digits"):
        load_record(str(big))


def test_bundled_corpus_parses_and_reserializes():
    from dgdescent.io import load_any
    files = sorted(DATA.glob("*.json"))
    assert len(files) >= 10
    for f in files:
        kind, obj = load_any(str(f))
        rec = load_record(str(f))
        if kind == "dg_lie_algebra":
            assert algebra_to_record(obj) == rec
        elif kind == "artin_algebra":
            assert artin_to_record(obj) == rec
        elif kind == "cover":
            assert cover_to_record(obj) == rec
        elif kind == "descent_instance":
            name, cover, base = obj
            assert instance_to_record(name, cover, base) == rec
        elif kind == "cosimplicial_dg_lie":
            assert cosimplicial_to_record(obj) == rec


def test_dump_is_deterministic(tmp_path):
    rec = algebra_to_record(ef_algebra())
    a = dump_record(rec, tmp_path / "a.json")
    b = dump_record(rec, tmp_path / "b.json")
    assert a == b
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_declared_opens_do_not_decide_memory():
    # the index check compares bounds; it builds nothing of the size of
    # the declared count (a set of 10**6 ints alone takes over 50 MB)
    import tracemalloc
    rec = json.loads((DATA / "cover_segment_line.json").read_text())
    rec["opens"] = 10 ** 6
    tracemalloc.start()
    try:
        cover = cover_from_record(rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cover.num_opens == 10 ** 6
    assert peak < 4 * 2 ** 20
    # an index at or beyond the declared count is still refused
    rec["opens"] = 1
    with pytest.raises(ParseError, match="bad index set"):
        cover_from_record(rec)


def _segment_cover():
    return json.loads((DATA / "instance_scaled_t3.json").read_text())["cover"]


def _triple_cover():
    return json.loads((DATA / "instance_triple_eps.json").read_text())["cover"]


def _missing_restriction():
    rec = _segment_cover()
    del rec["restrictions"][1]
    return rec


def _backward_restriction():
    rec = _segment_cover()
    rec["restrictions"].append({"from": [0, 1], "to": [0],
                                "matrix": "identity"})
    return rec


def _non_functorial():
    # {0} -> {0, 1, 2} doubles, while {0} -> {0, 1} -> {0, 1, 2} is 1
    rec = _triple_cover()
    for entry in rec["restrictions"]:
        if entry["from"] == [0] and entry["to"] == [0, 1, 2]:
            entry["matrix"] = {"0": [["2"]], "1": [["2"]]}
    return rec


def _bad_index_set():
    rec = _segment_cover()
    rec["intersections"].append({"algebra": "ef", "indices": [5]})
    return rec


def _empty_face():
    # U_01 is nonempty but U_1 is declared empty
    rec = _segment_cover()
    rec["intersections"] = [e for e in rec["intersections"]
                            if e["indices"] != [1]]
    rec["restrictions"] = [e for e in rec["restrictions"]
                           if e["from"] != [1]]
    return rec


@pytest.mark.parametrize("make, field, message", [
    (_missing_restriction, "restrictions", "missing restriction {1} -> "
                                           "{0, 1}"),
    (_backward_restriction, "restrictions", "from fewer opens to more"),
    (_non_functorial, "restrictions", "fail functoriality on {0} -> "
                                      "{0, 1} -> {0, 1, 2}"),
    (_bad_index_set, "intersections", "bad index set {5}"),
    (_empty_face, "intersections", "over {1} must be nonempty")])
def test_cover_errors_name_their_field(make, field, message):
    with pytest.raises(ParseError) as exc:
        cover_from_record(make(), "cover.json")
    assert exc.value.field == field
    assert message in str(exc.value)
