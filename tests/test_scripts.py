"""Smoke tests for the command line scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import rootatlas
from rootatlas.classify import admissible_irreducible_types
from rootatlas.cli import run

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name, *argv):
    # the child imports the same rootatlas that this test sees
    env = {**os.environ, "PYTHONPATH": str(Path(rootatlas.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_build_atlas_prints_the_cli_atlas(capsys):
    proc = _script("build_atlas.py", "--max-rank", "2", "--bound", "1", "--output", "-")
    assert proc.returncode == 0, proc.stderr
    assert run("atlas --max-rank 2 --bound 1 --format json".split()) == 0
    assert proc.stdout == capsys.readouterr().out
    # one timing line per entry, and nothing else with --output -
    names = [str(t) for t in admissible_irreducible_types(2)]
    lines = proc.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == names
    assert all(line.endswith("(ok)") for line in lines)


def test_grading_sweep_runs():
    proc = _script("grading_sweep.py", "A1", "G2", "--max-bound", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "A1 (fundamental group 2)"
    assert lines[3] == "G2 (fundamental group trivial)"
    assert [line.split(":")[0].strip() for line in lines if "B=" in line] == [
        "B=0",
        "B=1",
        "B=0",
        "B=1",
    ]
