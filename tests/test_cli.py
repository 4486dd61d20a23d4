import argparse
import copy
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from formalitykit import cli
from formalitykit.cli import _build_parser, dispatch
from formalitykit.fields import FieldSpec
from formalitykit.formality import certify_config_pn, certify_config_spherical, certify_single
from formalitykit.graded import algebra_from_json_dict, algebra_to_json_dict, truncated_poly
from formalitykit.presentations import presentation_to_json_dict, single_generator_presentation


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, stdout=out)
    return code, out.getvalue()


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def algebra_file(tmp_path):
    return write_json(tmp_path, "algebra.json", algebra_to_json_dict(truncated_poly(2, 2)))


def test_certify_single_roundtrip(tmp_path):
    code, text = run(["certify", "single", "--n", "2", "--k", "2"])
    assert code == 0
    report = json.loads(text)
    assert report["result"]["verdict"] == "CertifiedFormal"
    assert report["tool"]["name"] == "formalitykit"
    cert_path = write_json(tmp_path, "cert.json", report["result"])
    code, text = run(["recheck", "--cert", cert_path])
    assert code == 0
    assert json.loads(text)["result"]["ok"] is True


def test_every_emitted_certificate_rechecks(tmp_path):
    commands = [
        ["certify", "single", "--n", "3", "--k", "1"],
        ["certify", "pn-config", "--n", "2", "--k", "2", "--h", "2"],
        ["certify", "pn-config", "--n", "3", "--k", "2", "--h", "3"],
        ["certify", "spherical", "--k", "4", "--hmin", "2", "--hmax", "4"],
        ["certify", "spherical", "--k", "5", "--hmin", "2", "--hmax", "5"],
        ["certify", "spherical", "--k", "3", "--hmin", "1", "--hmax", "3"],
    ]
    for i, argv in enumerate(commands):
        code, text = run(argv)
        assert code == 0
        cert_path = write_json(tmp_path, f"cert{i}.json", json.loads(text)["result"])
        code, text = run(["recheck", "--cert", cert_path])
        assert code == 0
        assert json.loads(text)["result"]["ok"] is True, argv


def test_byte_identical_reports():
    a = run(["certify", "pn-config", "--n", "2", "--k", "2", "--h", "2"])
    b = run(["certify", "pn-config", "--n", "2", "--k", "2", "--h", "2"])
    assert a == b
    a = run(["sweep", "spherical", "--k", "2..6"])
    b = run(["sweep", "spherical", "--k", "2..6"])
    assert a == b


def test_hh_command(algebra_file):
    code, text = run(["hh", "--algebra", algebra_file, "--p", "3", "--q", "-1"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result == {"p": 3, "q": -1, "dim": 0, "mode": "relative_normalized",
                      "slice_dims": [0, 0, 0]}


def test_hh_with_cocycles(algebra_file):
    code, text = run(["hh", "--algebra", algebra_file, "--p", "1", "--q", "0", "--cocycles"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["dim"] == len(result["cocycles"]) == 1


def test_scan_command(algebra_file):
    code, text = run(["scan", "--algebra", algebra_file, "--qmax", "5"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["all_zero"] is True
    assert result["table"] == [{"q": 3, "dim": 0}, {"q": 4, "dim": 0}, {"q": 5, "dim": 0}]


@pytest.mark.parametrize("qmax", ["2", "0"])
def test_scan_below_the_first_obstruction_degree_exits_2(algebra_file, capsys, qmax):
    assert run(["scan", "--algebra", algebra_file, "--qmax", qmax]) == (2, "")
    assert "q_max must be >= 3" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, _ = run(["hh", "--algebra", str(path), "--p", "1", "--q", "0"])
    assert code == 2


def test_missing_mult_exits_2(tmp_path):
    path = write_json(tmp_path, "bad.json", {"field": "rationals", "basis": []})
    code, _ = run(["hh", "--algebra", str(path), "--p", "1", "--q", "0"])
    assert code == 2


def run_reports_input_error(argv, capsys):
    code, text = run(argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("entry", [{"coeff": "1"}, {"label": "1"}, "1"])
def test_unit_entry_without_label_or_coeff_exits_2(tmp_path, capsys, entry):
    data = algebra_to_json_dict(truncated_poly(2, 2))
    data["unit"] = [entry]
    path = write_json(tmp_path, "bad_unit.json", data)
    run_reports_input_error(["hh", "--algebra", path, "--p", "1", "--q", "0"], capsys)


@pytest.mark.parametrize("edges", [[5], [[1, 2, 3]], [{"u": 1}]])
def test_malformed_graph_edge_exits_2(tmp_path, capsys, edges):
    path = write_json(tmp_path, "bad_graph.json", {"vertices": [1, 2], "edges": edges})
    run_reports_input_error(["signs", "--graph", path], capsys)


@pytest.mark.parametrize(
    "component",
    [{"dim": 1}, {"degree": 3}, {"degree": 3, "dim": "x"}, {"degree": 1.5, "dim": 1}, 7],
)
def test_malformed_poincare_component_exits_2(tmp_path, capsys, component):
    path = write_json(tmp_path, "bad_p.json", {"components": [component]})
    run_reports_input_error(["kunneth", "--poincare", path, "--n", "2", "--same"], capsys)


def test_word_cap_exits_3(tmp_path, capsys):
    g = {"vertices": [1, 2], "edges": [{"u": 1, "v": 2}]}
    gpath = write_json(tmp_path, "g.json", g)
    code, text = run(["build-config", "--graph", gpath, "--n", "2", "--k", "2", "--h", "2"])
    assert code == 0
    apath = write_json(tmp_path, "a2.json", json.loads(text)["result"]["algebra"])
    capsys.readouterr()
    code, text = run(["hh", "--algebra", apath, "--p", "3", "--q", "-2", "--max-words", "1"])
    assert code == 3 and text == ""
    # the refusal names the stage that hit the cap: the word length (C^2 is
    # enumerated first), the internal degree, the mode and the cap
    assert capsys.readouterr().err == (
        "resource cap: word cap 1 exceeded by the length p = 2 words of the internal "
        "degree q = -2 cochains (relative_normalized mode); raise max_words\n"
    )


def test_word_cap_boundary_is_the_word_count(tmp_path, capsys):
    # C^3 of HH^{2,-9}(k[t]/t^5) has 20 words, the slice's largest list
    apath = write_json(tmp_path, "tp4.json", algebra_to_json_dict(truncated_poly(4, 1)))
    argv = ["hh", "--algebra", apath, "--p", "2", "--q", "-9", "--max-words"]
    code, text = run(argv + ["20"])
    assert code == 0 and json.loads(text)["result"]["slice_dims"] == [0, 0, 20]
    capsys.readouterr()
    assert run(argv + ["19"]) == (3, "")
    assert capsys.readouterr().err == (
        "resource cap: word cap 19 exceeded by the length p = 3 words of the internal "
        "degree q = -9 cochains (relative_normalized mode); raise max_words\n"
    )


def test_associativity_triple_cap_exits_3_before_building_the_triples(tmp_path, capsys):
    """The A2 table with n = 500 has 1004 labels; validation counts its
    candidate triples, 84,337,016 with repeats, and refuses before it builds
    any."""
    gpath = write_json(tmp_path, "a2.json", {"vertices": [1, 2], "edges": [[1, 2]]})
    argv = ["build-config", "--graph", gpath, "--n", "500", "--k", "1", "--h", "1"]
    assert run(argv) == (3, "")
    assert capsys.readouterr().err == (
        "resource cap: validation: the associativity check would try 84337016 triples "
        "(counted with repeats), over the cap of 2000000\n"
    )


def test_associativity_triple_cap_boundary_is_the_triple_count(tmp_path, capsys, monkeypatch):
    # the A2 table with n = 20 has 7096 candidate triples
    from formalitykit import graded

    gpath = write_json(tmp_path, "a2.json", {"vertices": [1, 2], "edges": [[1, 2]]})
    argv = ["build-config", "--graph", gpath, "--n", "20", "--k", "1", "--h", "1"]
    monkeypatch.setattr(graded, "_MAX_TRIPLES", 7096)
    assert run(argv)[0] == 0
    monkeypatch.setattr(graded, "_MAX_TRIPLES", 7095)
    capsys.readouterr()
    assert run(argv) == (3, "")
    assert "would try 7096 triples" in capsys.readouterr().err


def test_words_longer_than_the_recursion_limit_exit_0(tmp_path):
    # the walk over words of 1199 to 1201 letters keeps its own stack; dim 1
    # holds at even p with or without a Koszul sign on the left action
    apath = write_json(tmp_path, "tp1.json", algebra_to_json_dict(truncated_poly(1, 1)))
    code, text = run(["hh", "--algebra", apath, "--p", "1200", "--q", "-1200"])
    assert code == 0
    result = json.loads(text)["result"]
    assert (result["dim"], result["slice_dims"]) == (1, [0, 1, 1])


def test_truncation_cap_exits_3(tmp_path):
    pres = {
        "vertices": 1,
        "generators": [{"label": "t", "src": 1, "tgt": 1, "deg": 2}],
        "relations": [[{"word": ["t", "t"], "coeff": "1"}]],
        "truncation": 40,
    }
    path = write_json(tmp_path, "pres.json", pres)
    code, _ = run(["tor", "--pres", path, "--q", "2", "--max-truncation", "10"])
    assert code == 3


def test_tor_command(tmp_path):
    pres = {
        "vertices": 1,
        "generators": [{"label": "t", "src": 1, "tgt": 1, "deg": 2}],
        "relations": [[{"word": ["t", "t", "t"], "coeff": "1"}]],
        "truncation": 26,
    }
    path = write_json(tmp_path, "pres.json", pres)
    code, text = run(["tor", "--pres", path, "--q", "2"])
    assert code == 0
    assert json.loads(text)["result"]["dims"] == [{"degree": 6, "dim": 1}]


def test_signs_witness_exits_0(tmp_path):
    g = {
        "vertices": [1, 2, 3],
        "edges": [
            {"u": 1, "v": 2, "d": 1},
            {"u": 2, "v": 3, "d": 1},
            {"u": 3, "v": 1, "d": 1},
        ],
    }
    path = write_json(tmp_path, "odd3.json", g)
    code, text = run(["signs", "--graph", path])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["feasible"] is False
    assert result["witness_cycle"][0] == result["witness_cycle"][-1]


def test_normalize_command(tmp_path):
    g = {"vertices": ["1", "2"], "edges": [{"u": "1", "v": "2", "a_uv": 3, "a_vu": 1}]}
    path = write_json(tmp_path, "g.json", g)
    code, text = run(["normalize", "--graph", path, "--nk", "4"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["feasible"] is True and result["shifts"] == {"1": 0, "2": 1}


def test_kunneth_command(tmp_path):
    p = {"components": [{"degree": 3, "dim": 1}]}
    path = write_json(tmp_path, "p.json", p)
    code, text = run(["kunneth", "--poincare", path, "--n", "2", "--same"])
    assert code == 0
    assert json.loads(text)["result"]["power"]["components"] == []
    code, text = run(["kunneth", "--poincare", path, "--n", "2", "--different"])
    assert json.loads(text)["result"]["power"]["components"] == [{"degree": 6, "dim": 1}]


def test_kunneth_of_a_huge_multiplicity_answers_at_once(tmp_path):
    r = 10 ** 12
    path = write_json(tmp_path, "p.json", {"components": [{"degree": 1, "dim": r}]})
    code, text = run(["kunneth", "--poincare", path, "--n", "3", "--different"])
    assert code == 0
    assert json.loads(text)["result"]["power"]["components"] == [
        {"degree": 3, "dim": (r + 2) * (r + 1) * r // 6}]


@pytest.mark.parametrize("n", ["1001", "1000000000"])
def test_kunneth_index_above_the_cap_exits_3(tmp_path, capsys, n):
    path = write_json(tmp_path, "p.json", {"components": [{"degree": 2, "dim": 1}]})
    code, text = run(["kunneth", "--poincare", path, "--n", n, "--same"])
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == \
        f"resource cap: power index n = {n} exceeds the cap of 1000\n"


@pytest.mark.parametrize("command", [["signs"], ["normalize", "--nk", "4"]])
def test_vertices_that_print_alike_exit_2(tmp_path, capsys, command):
    """signs and normalize key their reports by the vertex's text: with
    vertices 1 and "1" one entry would stand for two vertices."""
    g = {"vertices": [1, "1"], "edges": [{"u": 1, "v": "1", "a_uv": 2, "a_vu": 2, "d": 2}]}
    path = write_json(tmp_path, "g.json", g)
    code, text = run([command[0], "--graph", path, *command[1:]])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "input error: vertices 1 and '1' print alike\n"


def test_build_config_roundtrips_through_validation(tmp_path):
    g = {"vertices": [1, 2, 3], "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}]}
    path = write_json(tmp_path, "g.json", g)
    code, text = run(["build-config", "--graph", path, "--n", "1", "--k", "2", "--h", "1",
                      "--preset", "zigzag"])
    assert code == 0
    data = json.loads(text)["result"]["algebra"]
    A = algebra_from_json_dict(data)  # re-validates
    assert A.dim() == 3 + 3 + 4


def test_sweep_pn_gcd_column(tmp_path):
    code, text = run(["sweep", "pn", "--n", "1..4", "--k", "2,4"])
    assert code == 0
    rows = json.loads(text)["result"]["rows"]
    assert len(rows) == 8
    for row in rows:
        n, k = row["n"], row["k"]
        expect = (n % 2 == 0) or (k % 4 == 0)
        assert row["gcd_ok"] == expect, row
        if n == 1:
            assert row["verdict"] == "CriterionInapplicable"


def test_sweep_spherical_range(tmp_path):
    code, text = run(["sweep", "spherical", "--k", "2..6"])
    assert code == 0
    rows = {row["k"]: row for row in json.loads(text)["result"]["rows"]}
    assert rows[2]["verdict"] == rows[3]["verdict"] == "CriterionInapplicable"
    assert rows[4]["verdict"] == rows[6]["verdict"] == "CertifiedFormal"
    # the k = 5 boundary stays honest (see the formality tests)
    assert rows[5]["verdict"] == "Inconclusive"


def test_sweep_empty_grid():
    code, text = run(["sweep", "pn", "--n", "", "--k", "2"])
    assert code == 0
    assert json.loads(text)["result"]["rows"] == []


def test_sweep_csv_format():
    code, text = run(["sweep", "spherical", "--k", "4,6", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "k,h_min,h_max,verdict,failed_hypotheses"
    assert lines[1].startswith("4,2,4,CertifiedFormal")


def test_human_format_renders_chain():
    code, text = run(["certify", "pn-config", "--n", "2", "--k", "2", "--h", "2",
                      "--format", "human"])
    assert code == 0
    assert "verdict: CertifiedFormal" in text
    assert "maxdeg(A)+q-2 < mindeg Tor_q(R,R)" in text


def test_field_option_flows_through(tmp_path):
    code, text = run(["kunneth", "--poincare",
                      write_json(tmp_path, "p.json", {"components": [{"degree": 2, "dim": 1}]}),
                      "--n", "2", "--same", "--field", "fp:7"])
    assert code == 0
    assert json.loads(text)["input"]["field"] == "fp:7"
    # characteristic guard: p <= n refused
    code, _ = run(["kunneth", "--poincare",
                   write_json(tmp_path, "p2.json", {"components": [{"degree": 2, "dim": 1}]}),
                   "--n", "7", "--same", "--field", "fp:7"])
    assert code == 2


# -- the option surface --------------------------------------------------------

# every command path with the options it takes; --format is on every leaf,
# and --field, --max-words and --max-truncation only where they are read
OPTIONS = {
    ("hh",): {"--algebra", "--p", "--q", "--mode", "--cocycles", "--max-words", "--format"},
    ("scan",): {"--algebra", "--qmax", "--mode", "--max-words", "--format"},
    ("tor",): {"--pres", "--q", "--max-truncation", "--format"},
    ("certify",): set(),
    ("certify", "single"): {"--n", "--k", "--format"},
    ("certify", "pn-config"): {"--n", "--k", "--h", "--format"},
    ("certify", "spherical"): {"--k", "--hmin", "--hmax", "--format"},
    ("recheck",): {"--cert", "--format"},
    ("normalize",): {"--graph", "--nk", "--format"},
    ("signs",): {"--graph", "--format"},
    ("kunneth",): {"--poincare", "--n", "--same", "--different", "--field", "--format"},
    ("build-config",): {"--graph", "--n", "--k", "--h", "--preset", "--field", "--format"},
    ("sweep",): set(),
    ("sweep", "pn"): {"--n", "--k", "--h", "--format"},
    ("sweep", "spherical"): {"--k", "--format"},
}
RUN_OPTIONS = {"--field", "--max-words", "--max-truncation", "--format"}


def command_options(parser, path=()):
    """{command path: option strings} for every sub-parser below parser."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out[path + (name,)] = {
                    opt for a in child._actions for opt in a.option_strings
                } - {"-h", "--help"}
                out.update(command_options(child, path + (name,)))
    return out


def test_each_command_takes_only_the_options_it_reads():
    found = command_options(_build_parser())
    assert found == OPTIONS
    assert sum(len(opts & RUN_OPTIONS) for opts in found.values()) == 18


def test_only_sweep_offers_csv():
    for argv in (["certify", "single", "--n", "2", "--k", "2", "--format", "csv"],
                 ["signs", "--graph", "g.json", "--format", "csv"]):
        assert run(argv) == (2, "")
    code, _ = run(["sweep", "pn", "--n", "2", "--k", "2", "--format", "csv"])
    assert code == 0


def test_group_parsers_take_no_options():
    # the sub-parser's default used to overwrite the group-level value
    assert run(["certify", "--format", "human", "single", "--n", "2", "--k", "2"]) == (2, "")
    assert run(["sweep", "--format", "csv", "spherical", "--k", "4"]) == (2, "")
    code, text = run(["certify", "single", "--n", "2", "--k", "2", "--format", "human"])
    assert code == 0 and text.startswith("formalitykit ")


def test_options_a_command_does_not_read_exit_2(algebra_file, tmp_path):
    hh = ["hh", "--algebra", algebra_file, "--p", "1", "--q", "0"]
    assert run(hh + ["--field", "fp:7"]) == (2, "")
    assert run(hh + ["--max-truncation", "10"]) == (2, "")
    assert run(["certify", "single", "--n", "2", "--k", "2", "--max-words", "5"]) == (2, "")
    assert run(["scan", "--algebra", algebra_file, "--qmax", "3", "--field", "fp:7"]) == (2, "")


@pytest.mark.parametrize("cap", ["0", "-1", "x"])
def test_non_positive_caps_exit_2(algebra_file, tmp_path, cap):
    assert run(["hh", "--algebra", algebra_file, "--p", "1", "--q", "0",
                "--max-words", cap]) == (2, "")
    assert run(["scan", "--algebra", algebra_file, "--qmax", "3", "--max-words", cap]) == (2, "")
    pres = write_json(tmp_path, "pres.json", {
        "vertices": 1, "generators": [{"label": "t", "src": 1, "tgt": 1, "deg": 2}],
        "relations": [[{"word": ["t", "t"], "coeff": "1"}]], "truncation": 8})
    assert run(["tor", "--pres", pres, "--q", "2", "--max-truncation", cap]) == (2, "")


def test_echo_names_the_field_each_command_used(tmp_path):
    f32003 = FieldSpec.parse("fp:32003")
    alg = write_json(tmp_path, "a.json", algebra_to_json_dict(truncated_poly(2, 2, f32003)))
    pres = write_json(tmp_path, "p.json", presentation_to_json_dict(
        single_generator_presentation(2, 2, 8, FieldSpec.parse("fp:7"))))
    graph = write_json(tmp_path, "g.json", {
        "vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a_uv": 3, "a_vu": 1, "d": 1}]})
    poincare = write_json(tmp_path, "pc.json", {"components": [{"degree": 2, "dim": 1}]})
    cert = write_json(tmp_path, "c.json", json.loads(run(
        ["certify", "single", "--n", "2", "--k", "2"])[1])["result"])
    echoed = {
        ("hh", "--algebra", alg, "--p", "1", "--q", "0"): "fp:32003",
        ("scan", "--algebra", alg, "--qmax", "3"): "fp:32003",
        ("tor", "--pres", pres, "--q", "2"): "fp:7",
        ("kunneth", "--poincare", poincare, "--n", "2", "--same", "--field", "fp:5"): "fp:5",
        ("build-config", "--graph", graph, "--n", "1", "--k", "1", "--h", "1",
         "--field", "Q"): "rationals",
        ("certify", "single", "--n", "2", "--k", "2"): None,
        ("recheck", "--cert", cert): None,
        ("normalize", "--graph", graph, "--nk", "4"): None,
        ("signs", "--graph", graph): None,
        ("sweep", "pn", "--n", "2", "--k", "2"): None,
        ("sweep", "spherical", "--k", "4"): None,
    }
    for argv, field in echoed.items():
        code, text = run(list(argv))
        assert code == 0, argv
        echo = json.loads(text)["input"]
        assert "threads" not in echo
        assert echo.get("field") == field, argv


@pytest.mark.parametrize("coeff", ["1/7", "x/2", "3/", "1/0"])
def test_bad_prime_field_scalar_exits_2(tmp_path, capsys, coeff):
    data = algebra_to_json_dict(truncated_poly(2, 2, FieldSpec.parse("fp:7")))
    data["unit"] = [{"label": "1", "coeff": coeff}]
    path = write_json(tmp_path, "bad_coeff.json", data)
    run_reports_input_error(["hh", "--algebra", path, "--p", "1", "--q", "0"], capsys)


@pytest.mark.parametrize("argv", [["sweep", "pn", "--n", "abc", "--k", "2"],
                                  ["sweep", "spherical", "--k", "1..x"],
                                  ["sweep", "pn", "--n", "1..2..3", "--k", "2"]])
def test_bad_integer_list_exits_2(capsys, argv):
    run_reports_input_error(argv, capsys)


# each value equals the true degree once truncated or parsed by int()
@pytest.mark.parametrize("k,i,degree", [(2, 1, 2.5), (2, 2, "4"), (1, 1, True)])
def test_algebra_with_a_non_integer_degree_exits_2(tmp_path, capsys, k, i, degree):
    data = algebra_to_json_dict(truncated_poly(2, k))
    data["basis"][i]["degree"] = degree
    path = write_json(tmp_path, "bad_degree.json", data)
    run_reports_input_error(["hh", "--algebra", path, "--p", "1", "--q", "0"], capsys)


@pytest.mark.parametrize("key,value", [("deg", 2.5), ("src", "1"), ("tgt", True),
                                       ("vertices", 1.0), ("truncation", "8")])
def test_presentation_with_a_non_integer_exits_2(tmp_path, capsys, key, value):
    # int() would have read each of these as the value it replaces
    data = presentation_to_json_dict(single_generator_presentation(2, 2, 8))
    (data["generators"][0] if key in ("deg", "src", "tgt") else data)[key] = value
    path = write_json(tmp_path, "bad_int.json", data)
    run_reports_input_error(["tor", "--pres", path, "--q", "1"], capsys)


# str() would have read each label as a string, and a string word as its letters
@pytest.mark.parametrize("where,value", [("generator", None), ("generator", 5),
                                         ("word", "ttt"), ("word", "t"), ("letter", 7)])
def test_presentation_with_a_non_string_label_or_a_string_word_exits_2(tmp_path, capsys,
                                                                      where, value):
    data = presentation_to_json_dict(single_generator_presentation(2, 2, 8))
    term = data["relations"][0][0]
    if where == "generator":
        data["generators"][0]["label"] = value
        term["word"] = [value] * 3
    elif where == "word":
        term["word"] = value
    else:
        term["word"][1] = value
    path = write_json(tmp_path, "bad_label.json", data)
    run_reports_input_error(["tor", "--pres", path, "--q", "1"], capsys)


# k<t>/(t^3), |t| = 2, truncated at 8, with one key replaced
@pytest.mark.parametrize("key,value,message", [
    ("vertices", 0, "need at least one vertex"),
    ("generators", [{"label": "t", "src": 1, "tgt": 1, "deg": 0}],
     "generator t must have positive degree"),
    ("generators", [{"label": "t", "src": 1, "tgt": 2, "deg": 2}],
     "generator t has out of range vertices"),
    ("truncation", -1, "truncation must be >= 0"),
    ("relations", [[]], "empty relation"),
    ("relations", [[{"word": [], "coeff": "1"}]], "relations may not contain the empty word"),
    ("relations", [[{"word": ["t", "s", "t"], "coeff": "1"}]],
     "relation uses unknown generator s"),
    ("relations", [[{"word": ["t", "t", "t"], "coeff": "1"}, {"word": ["t", "t"], "coeff": "1"}]],
     "relation terms must share degree and (source, target) block"),
], ids=["no-vertex", "degree-0", "vertex-out-of-range", "negative-truncation",
        "empty-relation", "empty-word", "unknown-generator", "mixed-blocks"])
def test_presentation_refusal_exits_2_with_its_message(tmp_path, capsys, key, value, message):
    data = presentation_to_json_dict(single_generator_presentation(2, 2, 8))
    data[key] = value
    path = write_json(tmp_path, "bad_pres.json", data)
    assert run(["tor", "--pres", path, "--q", "1"]) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


# a kind other than the two and a modulus on Q cannot come from a tag: the
# constructor refuses them (tests/test_fields.py)
@pytest.mark.parametrize("tag,message", [
    ("fp:x", "bad field tag 'fp:x'"),
    ("reals", "bad field tag 'reals' (use rationals or fp:P)"),
])
def test_field_tag_refusal_exits_2_with_its_message(tmp_path, capsys, tag, message):
    poincare = write_json(tmp_path, "p.json", {"components": [{"degree": 0, "dim": 1}]})
    assert run(["kunneth", "--poincare", poincare, "--n", "2", "--same",
                "--field", tag]) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"
    data = presentation_to_json_dict(single_generator_presentation(2, 2, 8))
    data["field"] = tag
    assert run(["tor", "--pres", write_json(tmp_path, "pres.json", data), "--q", "1"]) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


def _relabel(data, old, new):
    """An algebra's JSON data with the label old replaced by new wherever
    it stands: basis, mult, unit and idempotents."""
    if isinstance(data, list):
        return [_relabel(x, old, new) for x in data]
    if isinstance(data, dict):
        return {k: new if k in ("label", "left", "right") and v == old else _relabel(v, old, new)
                for k, v in data.items()}
    return data


@pytest.mark.parametrize("value", [None, 5, True])
@pytest.mark.parametrize("label", ["1", "t"])
def test_algebra_with_a_non_string_label_exits_2(tmp_path, capsys, label, value):
    data = _relabel(algebra_to_json_dict(truncated_poly(2, 2)), label, value)
    data["idempotents"] = [value if x == label else x for x in data["idempotents"]]
    assert value in [b["label"] for b in data["basis"]]
    path = write_json(tmp_path, "bad_label.json", data)
    run_reports_input_error(["hh", "--algebra", path, "--p", "1", "--q", "0"], capsys)


@pytest.mark.parametrize("argv,message", [
    (["sweep", "pn", "--n", "1..1000000000000", "--k", "2"], "--n lists 1000000000000 integers"),
    (["sweep", "spherical", "--k", "2,1..10000"], "--k lists 10001 integers"),
    (["sweep", "pn", "--n", "1..200", "--k", "1..200"], "grid of 40000 points"),
])
def test_sweep_grid_over_the_cap_exits_3_before_building_it(capsys, argv, message):
    # a list of 10^12 integers could not be built: exit 3 shows it never was
    assert run(argv) == (3, "")
    assert message in capsys.readouterr().err


NINES = "9" * 4000  # a product of two passes the 4300-digit limit of int-to-str


@pytest.mark.parametrize("argv,option", [
    (["certify", "single", "--n", NINES, "--k", NINES], "--n"),
    (["certify", "pn-config", "--n", "2", "--k", "2", "--h", NINES], "--h"),
    (["certify", "spherical", "--k", "4", "--hmin", "-" + NINES, "--hmax", "4"], "--hmin"),
    (["sweep", "pn", "--n", "1..2", "--k", NINES], "--k"),
    (["sweep", "pn", "--n", f"{2 ** 63}..{2 ** 63}", "--k", "2"], "--n"),
    (["sweep", "pn", "--n", "2", "--k", "2", "--h", str(2 ** 63)], "--h"),
    (["sweep", "spherical", "--k", "4," + NINES], "--k"),
    (["hh", "--algebra", "a.json", "--p", str(-2 ** 63), "--q", "0"], "--p"),
    (["hh", "--algebra", "a.json", "--p", "1", "--q", "0", "--max-words", NINES],
     "--max-words"),
    (["scan", "--algebra", "a.json", "--qmax", NINES], "--qmax"),
    (["tor", "--pres", "p.json", "--q", NINES], "--q"),
    (["tor", "--pres", "p.json", "--q", "1", "--max-truncation", str(2 ** 63)],
     "--max-truncation"),
    (["normalize", "--graph", "g.json", "--nk", NINES], "--nk"),
    (["kunneth", "--poincare", "p.json", "--n", NINES, "--same"], "--n"),
    (["build-config", "--graph", "g.json", "--n", "1", "--k", "1", "--h", NINES], "--h"),
])
def test_integer_option_at_or_past_2_63_exits_2_naming_it(capsys, argv, option):
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert f"argument {option}" in err and "2^63" in err and "Traceback" not in err


def test_integer_options_up_to_2_63_are_read():
    parser = _build_parser()
    args = parser.parse_args(["certify", "single", "--n", str(2 ** 63 - 1), "--k",
                              str(1 - 2 ** 63)])
    assert (args.n, args.k) == (2 ** 63 - 1, 1 - 2 ** 63)


def test_huge_modulus_exits_2_at_once(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"components": [{"degree": 2, "dim": 1}]})
    run_reports_input_error(["kunneth", "--poincare", path, "--n", "2", "--same",
                             "--field", "fp:2305843009213693951"], capsys)


# -- the exit-code contract under mutated input --------------------------------


# the valid documents that the fuzz test mutates, by kind
FUZZ_DOCUMENTS = {
    "algebra": [algebra_to_json_dict(truncated_poly(2, 1)),
                algebra_to_json_dict(truncated_poly(1, 2, FieldSpec.parse("fp:7")))],
    "pres": [{"field": "rationals", "vertices": 1,
              "generators": [{"label": "t", "src": 1, "tgt": 1, "deg": 2}],
              "relations": [[{"word": ["t", "t", "t"], "coeff": "1"}]], "truncation": 8}],
    "graph": [{"vertices": [1, 2, 3],
               "edges": [{"u": 1, "v": 2, "a_uv": 1, "a_vu": 3, "d": 1},
                         {"u": 2, "v": 3, "a_uv": 2, "a_vu": 2, "d": 2}]}],
    "poincare": [{"components": [{"degree": 1, "dim": 2}, {"degree": 3, "dim": 1}]}],
    "cert": [certify_single(2, 2).to_json_dict(), certify_config_pn(2, 2, 2).to_json_dict(),
             certify_config_spherical(5, 2, 5).to_json_dict()],
}


# (document kind, argv with None where the input file goes) for each command
FUZZ_COMMANDS = (
    [("algebra", ["hh", "--algebra", None, "--p", str(p), "--q", str(q)])
     for p in range(4) for q in (-2, 0)]
    + [("algebra", ["scan", "--algebra", None, "--qmax", "3"]),
       ("pres", ["tor", "--pres", None, "--q", "1"]),
       ("pres", ["tor", "--pres", None, "--q", "2"]),
       ("cert", ["recheck", "--cert", None]),
       ("graph", ["normalize", "--graph", None, "--nk", "4"]),
       ("graph", ["signs", "--graph", None]),
       ("poincare", ["kunneth", "--poincare", None, "--n", "2", "--same"]),
       ("poincare", ["kunneth", "--poincare", None, "--n", "3", "--different",
                     "--field", "fp:5"]),
       ("graph", ["build-config", "--graph", None, "--n", "1", "--k", "2", "--h", "1",
                  "--preset", "zigzag"])]
)

# one argv per command that reads a JSON file
JSON_COMMANDS = {argv[0]: argv for _, argv in FUZZ_COMMANDS}


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000],
                         ids=["int-past-the-digit-limit", "nesting-past-the-recursion-limit"])
@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_unreadable_json_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    run_reports_input_error([str(path) if a is None else a for a in JSON_COMMANDS[command]],
                            capsys)


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_unreadable_input_path_exits_2(tmp_path, capsys, command):
    argv = JSON_COMMANDS[command]
    code, text = run([str(tmp_path) if a is None else a for a in argv])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"input error: {tmp_path}: cannot read: Is a directory\n"
    missing = str(tmp_path / "missing.json")
    code, text = run([missing if a is None else a for a in argv])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"input error: {missing}: no such file\n"


@pytest.mark.parametrize("coeff", ["1e10000000", "2E-3", "1.5e2", 1e-07])
def test_exponent_coefficients_exit_2(tmp_path, capsys, coeff):
    algebra = algebra_to_json_dict(truncated_poly(2, 2))
    algebra["mult"][0]["result"][0]["coeff"] = coeff
    path = write_json(tmp_path, "algebra.json", algebra)
    run_reports_input_error(["hh", "--algebra", path, "--p", "1", "--q", "0"], capsys)
    pres = presentation_to_json_dict(single_generator_presentation(2, 2, 8))
    pres["relations"][0][0]["coeff"] = coeff
    path = write_json(tmp_path, "pres.json", pres)
    run_reports_input_error(["tor", "--pres", path, "--q", "2"], capsys)


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from([1.5, 2.5, "", "x", "4", "-1", "1/0", "2/3", "t", "e1", "fp:7", "fp:9",
                     "rationals", "even", "DegreeBound", "CertifiedFormal"]),
    st.builds(list), st.builds(dict),
)


def json_paths(node, path=()):
    """Every path into a JSON document, the root included, in a fixed order."""
    yield path
    items = sorted(node.items()) if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one to three nodes replaced by a leaf, deleted or duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            doc = draw(LEAVES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = draw(LEAVES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@st.composite
def fuzz_case(draw):
    kind, argv = draw(st.sampled_from(FUZZ_COMMANDS))
    doc = draw(st.sampled_from(FUZZ_DOCUMENTS[kind]))
    return argv, draw(mutated(doc))


@settings(max_examples=400)
@given(case=fuzz_case())
def test_mutated_input_keeps_the_exit_code_contract(tmp_path_factory, case):
    argv, doc = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    code, _ = run([str(path) if a is None else a for a in argv])
    assert code in (0, 2, 3)


NON_STRINGS = st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.just(1.5),
                        st.builds(list), st.builds(dict))


@st.composite
def mislabelled_case(draw):
    """An algebra or presentation command whose document has one label (of
    the basis, mult, unit, idempotents or generators, or a letter of a
    relation word) replaced by a non-string, or one relation word replaced
    by a string."""
    kind, argv = draw(st.sampled_from([c for c in FUZZ_COMMANDS if c[0] in ("algebra", "pres")]))
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCUMENTS[kind])))
    paths = [p for p in json_paths(doc) if p and (
        p[-1] in ("label", "left", "right", "word")
        or (len(p) > 1 and p[-2] in ("idempotents", "word")))]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path[-1] == "word":
        parent["word"] = draw(st.sampled_from(["".join(parent["word"]), parent["word"][0]]))
    else:
        parent[path[-1]] = draw(NON_STRINGS)
    return argv, doc


@settings(max_examples=150)
@given(case=mislabelled_case())
def test_non_string_labels_and_string_words_exit_2(tmp_path_factory, case):
    argv, doc = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    assert run([str(path) if a is None else a for a in argv]) == (2, "")


# -- the report writer against json.dumps ---------------------------------------


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64) | st.integers(
        max_value=-(2 ** 64)), st.floats(), st.text(),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600')),
)
KEYS = [st.text(), st.integers(), st.floats(), st.booleans(), st.none()]
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        *(st.dictionaries(key, inner, max_size=4) for key in KEYS),
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(value=JSON_VALUES)
def test_report_writer_equals_json_dumps(value):
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [
    {(1,): 0}, {1: 0, "1": 1}, [1, {2j: 0}], Fraction(1, 2), {"a": {1, 2}}, b"x",
    [10 ** 5000], {"a": [object()]},
], ids=["tuple-key", "mixed-keys", "complex-key", "fraction", "set", "bytes",
        "int-past-the-digit-limit", "object"])
def test_report_writer_raises_where_json_dumps_does(value):
    with pytest.raises(Exception) as expected:
        dumps(value)
    with pytest.raises(type(expected.value)):
        cli._json_text(value)


def benchmark_pool(directory):
    """(op id, argv) of every command of the benchmark pools in
    perfbench/workloads.py, with their input files written to directory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", os.path.join(root, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    out = []
    for name, workload in module.WORKLOADS.items():
        sub = directory / name
        sub.mkdir()
        out += sorted(module.materialize(workload, str(sub)).items())
    return out


def test_every_pool_report_is_written_as_json_dumps_writes_it(tmp_path, monkeypatch):
    reports = []
    real = cli._report
    monkeypatch.setattr(cli, "_report", lambda *a: reports.append(real(*a)) or reports[-1])
    written = 0
    for op_id, argv in benchmark_pool(tmp_path):
        reports.clear()
        code, text = run(list(argv))
        if code == 0 and "--format" not in argv:
            assert text == dumps(reports[0]) + "\n", op_id
            written += 1
    assert written >= 75


def test_recheck_echoes_notes_as_deep_as_the_loader_reads(tmp_path, capsys):
    """The loader refuses nesting past the recursion limit (exit 2); every
    certificate it reads is echoed whole, down to its deepest note."""
    text = json.dumps({**certify_single(2, 2).to_json_dict(), "notes": "@"})
    path = tmp_path / "cert.json"

    def recheck(depth):
        path.write_text(text.replace('"@"', "[" * depth + "]" * depth))
        code, out = run(["recheck", "--cert", str(path)])
        err = capsys.readouterr().err
        if code == 2:
            assert out == "" and "malformed JSON" in err, depth
            return False
        assert (code, err) == (0, ""), depth
        # the notes sit at level 3 of the report: report, input, cert
        levels = range(3, 3 + depth - 1)
        notes = ("".join("[\n" + "  " * (i + 1) for i in levels) + "[]"
                 + "".join("\n" + "  " * i + "]" for i in reversed(levels)))
        assert '\n      "notes": ' + notes + ",\n" in out, depth
        return True

    assert recheck(1) and not recheck(5000)
    lo, hi = 1, 5000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if recheck(mid):
            lo = mid
        else:
            hi = mid
    assert lo > 900 and recheck(lo)


# -- branches pinned through dispatch ----------------------------------------------


def test_recheck_refuses_forged_spherical_certificates(tmp_path):
    """Both forgeries exit 0 with "ok": false: evidence for h_min = 3 under
    a k = 5, h_min = 2 subject whose worst_case_h says 3, and evidence for
    h_max = 4 under an h_max = 9 subject whose list drops h_max <= k."""
    def certificate(k, hmin, hmax):
        return json.loads(run(["certify", "spherical", "--k", str(k), "--hmin", str(hmin),
                               "--hmax", str(hmax)])[1])["result"]

    forged, honest = certificate(5, 2, 5), certificate(5, 3, 5)
    forged["subject"]["worst_case_h"] = 3
    forged.update({key: honest[key] for key in ("evidence", "verdict", "notes")})
    dropped, honest = certificate(4, 2, 9), certificate(4, 2, 4)
    dropped["hypotheses"] = [h for h in dropped["hypotheses"] if h["name"] != "h_max <= k"]
    dropped.update({key: honest[key] for key in ("evidence", "verdict")})
    for name, doc in (("forged", forged), ("dropped", dropped)):
        assert doc["verdict"] == "CertifiedFormal"
        code, text = run(["recheck", "--cert", write_json(tmp_path, f"{name}.json", doc)])
        assert code == 0 and json.loads(text)["result"]["ok"] is False, name


def test_recheck_reads_a_whole_certify_report_as_its_result(tmp_path):
    code, text = run(["certify", "single", "--n", "2", "--k", "2"])
    whole = write_json(tmp_path, "report.json", json.loads(text))
    bare = write_json(tmp_path, "cert.json", json.loads(text)["result"])
    assert run(["recheck", "--cert", whole]) == run(["recheck", "--cert", bare])
    assert json.loads(run(["recheck", "--cert", whole])[1])["result"]["ok"] is True


def test_human_format_of_a_result_without_a_verdict(tmp_path):
    code, text = run(["certify", "single", "--n", "2", "--k", "2"])
    cert = write_json(tmp_path, "cert.json", json.loads(text)["result"])
    assert run(["recheck", "--cert", cert, "--format", "human"]) == (0, (
        f"formalitykit {cli.__version__} :: recheck\n"
        'items: [{"index": 0, "message": "replayed: 10 > 4 with slope 4 >= 0", "ok": true}, '
        '{"index": 1, "message": "replayed: 7 > 4 with slope 4 >= 0", "ok": true}]\n'
        "messages: []\n"
        "ok: true\n"
    ))


def test_sweep_pn_with_a_fixed_arrow_degree():
    code, text = run(["sweep", "pn", "--n", "1..3", "--k", "2", "--h", "3"])
    assert code == 0
    assert json.loads(text)["result"]["rows"] == [
        {"n": n, "k": 2, "h": 3, "gcd_ok": None, "verdict": "CriterionInapplicable",
         "failed_hypotheses": failed}
        for n, failed in [(1, ["n >= 2", "h <= nk", "gcd(k, h) > 1"]),
                          (2, ["gcd(k, h) > 1"]), (3, ["gcd(k, h) > 1"])]
    ]


def test_sweep_pn_with_odd_nk_fails_nk_even():
    assert run(["sweep", "pn", "--n", "1,3", "--k", "1,3", "--format", "csv"]) == (0, (
        "n,k,h,gcd_ok,verdict,failed_hypotheses\n"
        "1,1,,,CriterionInapplicable,nk even\n"
        "1,3,,,CriterionInapplicable,nk even\n"
        "3,1,,,CriterionInapplicable,nk even\n"
        "3,3,,,CriterionInapplicable,nk even\n"
    ))


def test_algebra_unit_defaults_to_its_idempotents(tmp_path, capsys):
    data = algebra_to_json_dict(truncated_poly(2, 2))
    full = write_json(tmp_path, "full.json", data)
    del data["unit"]
    idempotents = write_json(tmp_path, "idempotents.json", data)
    code, text = run(["hh", "--algebra", idempotents, "--p", "2", "--q", "0"])
    assert code == 0
    assert (json.loads(text)["result"]
            == json.loads(run(["hh", "--algebra", full, "--p", "2", "--q", "0"])[1])["result"])
    del data["idempotents"]
    neither = write_json(tmp_path, "neither.json", data)
    assert run(["hh", "--algebra", neither, "--p", "2", "--q", "0"]) == (2, "")
    assert capsys.readouterr().err == "input error: algebra JSON needs a unit or idempotents\n"


@pytest.mark.parametrize("degrees,idempotents,message", [
    # k[x]/x^3 with |x| = 0: its degree 0 part is not a product of copies of k
    ([0, 0, 0], None, "relative mode needs an idempotent decomposition of degree zero"),
    ([0, -1, -2], ["1"], "relative mode needs a non-negatively graded algebra"),
])
def test_hh_relative_mode_refusal_exits_2(tmp_path, capsys, degrees, idempotents, message):
    data = algebra_to_json_dict(truncated_poly(2, 1))
    for entry, degree in zip(data["basis"], degrees):
        entry["degree"] = degree
    data.pop("idempotents")
    if idempotents is not None:
        data["idempotents"] = idempotents
    path = write_json(tmp_path, "algebra.json", data)
    assert run(["hh", "--algebra", path, "--p", "2", "--q", "0"]) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("argv,graph,message", [
    (["signs"], {"vertices": [1, 2], "edges": [{"u": 1, "v": 2}]},
     "edge (1,2) is missing the degree label d"),
    (["kunneth", "--n", "-1", "--same"], None, "power index must be >= 0"),
])
def test_missing_sign_label_and_negative_power_exit_2(tmp_path, capsys, argv, graph, message):
    if graph is None:
        argv = argv + ["--poincare", write_json(tmp_path, "p.json", {
            "components": [{"degree": 0, "dim": 1}, {"degree": 2, "dim": 2}]})]
    else:
        argv = argv + ["--graph", write_json(tmp_path, "g.json", graph)]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"
