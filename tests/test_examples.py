"""The example scripts run end to end on small inputs.

Each script runs as ``__main__`` in this process, with its command-line
arguments set to a small problem size.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

RUNS = [
    ("quickstart.py", ["0.2"]),
    ("inspector_walkthrough.py", ["nbf", "0.2"]),
    ("mapping_explorer.py", ["mxm", "0.2"]),
    ("heatmap_walkthrough.py", ["mxm", "0.2"]),
    ("transforms_demo.py", ["40", "8"]),
    ("sensitivity_sweep.py", ["mxm", "0.2"]),
]


def test_every_example_is_run():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(
        script for script, _ in RUNS
    )


@pytest.mark.parametrize(
    "script,args", RUNS, ids=[script for script, _ in RUNS]
)
def test_example_runs(script, args, monkeypatch, capsys):
    path = EXAMPLES / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
