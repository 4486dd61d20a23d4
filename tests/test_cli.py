import io
import json

import pytest

from formalitykit.cli import dispatch
from formalitykit.graded import algebra_from_json_dict, algebra_to_json_dict, truncated_poly


def run(argv, env_threads=None, monkeypatch=None):
    if monkeypatch is not None:
        if env_threads is None:
            monkeypatch.delenv("FORMALITYKIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("FORMALITYKIT_THREADS", env_threads)
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


def test_word_cap_exits_3(tmp_path):
    g = {"vertices": [1, 2], "edges": [{"u": 1, "v": 2}]}
    gpath = write_json(tmp_path, "g.json", g)
    code, text = run(["build-config", "--graph", gpath, "--n", "2", "--k", "2", "--h", "2"])
    assert code == 0
    apath = write_json(tmp_path, "a2.json", json.loads(text)["result"]["algebra"])
    code, _ = run(["hh", "--algebra", apath, "--p", "3", "--q", "-2", "--max-words", "1"])
    assert code == 3


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


def test_threads_env_validation(monkeypatch):
    code, text = run(["certify", "single", "--n", "1", "--k", "1"],
                     env_threads="2", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(text)["input"]["threads"] == 2
    code, _ = run(["certify", "single", "--n", "1", "--k", "1"],
                  env_threads="0", monkeypatch=monkeypatch)
    assert code == 2


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
