import importlib.util
import os

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
