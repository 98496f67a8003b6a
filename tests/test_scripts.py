"""Smoke runs of the scripts under scripts/, in process and at small sizes."""

import importlib.util
import os
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def data_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return len(lines) - 1  # minus the column header


def test_reproduce_figures_fast(tmp_path, capsys):
    assert load_script("reproduce_figures").main(["--fast", "--out-dir", str(tmp_path)]) == 0
    # fig-a: 3 d x 10 seeds; fig-b: 4 d; fig-c: 2 d x 101 grid points; fig-d: the 5-rung ladder.
    counts = {name: data_rows(tmp_path / name) for name in ("fig-a.csv", "fig-b.csv", "fig-c.csv", "fig-d.csv")}
    assert counts == {"fig-a.csv": 30, "fig-b.csv": 4, "fig-c.csv": 202, "fig-d.csv": 5}


def test_index_showdown(capsys):
    code = load_script("index_showdown").main(["--n", "300", "--d", "1,8", "--queries", "3", "--k", "8"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # configuration, column header, one row per d
    assert [line.split()[0] for line in lines[2:]] == ["1", "8"]


def test_peak_memory(tmp_path, capsys, monkeypatch):
    src = str(SCRIPTS.parent / "src")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    monkeypatch.chdir(tmp_path)
    script = load_script("peak_memory")
    monkeypatch.setattr(script, "ESTIMATE_N", 300)
    monkeypatch.setattr(script, "GENERATE_N", 2000)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["estimate", "generate"]
    generated = (tmp_path / "gauss-generate.txt").read_text().splitlines()
    assert sum(not line.startswith("#") for line in generated) == 2000
    monkeypatch.setattr(script, "ESTIMATE_MB", -1)
    assert script.main() == 1
    assert capsys.readouterr().err == "estimate peaks more than -1 MB above import\n"
