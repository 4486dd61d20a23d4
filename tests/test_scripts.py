import importlib.util
import os

from formalitykit import RecheckReport

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hh_census_readme_example_agrees_and_exits_zero(monkeypatch, capsys):
    census = load_script("hh_census")
    monkeypatch.setattr("sys.argv", ["hh_census.py", "--n", "2", "--k", "3", "--pmax", "4",
                                     "--qmax", "5"])
    assert census.main() == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("engine disagreements: 0")
    assert "DISAGREE" not in out


def test_hh_census_exits_one_on_disagreement(monkeypatch, capsys):
    census = load_script("hh_census")
    real = census.hh_resolution
    monkeypatch.setattr(census, "hh_resolution", lambda *a, **kw: real(*a, **kw) + 1)
    monkeypatch.setattr("sys.argv", ["hh_census.py", "--n", "1", "--k", "2", "--pmax", "1",
                                     "--qmax", "3"])
    assert census.main() == 1
    assert "engine disagreements: 0" not in capsys.readouterr().out


def test_certificate_tables_replay_every_certificate_and_exit_zero(monkeypatch, capsys):
    tables = load_script("certificate_tables")
    replayed = []
    real = tables.verify_certificate

    def spy(cert):
        replayed.append(cert.subject["family"])
        return real(cert)

    monkeypatch.setattr(tables, "verify_certificate", spy)
    monkeypatch.setattr("sys.argv", ["certificate_tables.py", "--nmax", "2", "--kmax", "3"])
    assert tables.main() == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("failed replays: 0")
    # 6 single objects, (n, k) in {1, 2} x {2, 3} with nk even, k in {2, 3}
    assert len(replayed) == 6 + 3 + 2 and len(set(replayed)) == 3


def test_certificate_tables_exit_one_when_a_replay_fails(monkeypatch, capsys):
    tables = load_script("certificate_tables")
    real = tables.verify_certificate

    def fail_spherical(cert):
        report = real(cert)
        spherical = cert.subject["family"] == "spherical_config"
        return RecheckReport(False, report.item_results, report.messages) if spherical else report

    monkeypatch.setattr(tables, "verify_certificate", fail_spherical)
    monkeypatch.setattr("sys.argv", ["certificate_tables.py", "--nmax", "1", "--kmax", "2"])
    assert tables.main() == 1
    assert capsys.readouterr().out.rstrip().endswith("failed replays: 1")
