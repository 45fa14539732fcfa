"""The benchmark's replay runs every subcommand: each name it wraps must
still exist in the package, and each subcommand's top function must be
called where the harness looks for it."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPLAY = ROOT / "perfbench" / "replay.py"


@pytest.mark.parametrize(
    "argv, top",
    [
        (["trace", "-w", "[x,y]^2", "--json"], "trace.trace_exact"),
        (["chi", "-w", "[x,y]^2", "--histogram"], "surfaces.pair_statistics"),
        (["classes", "-w", "[x,y]^2"], "solutions.solution_classes"),
        (["incompressible", "-w", "[x^2,y]", "--sigma", "2,1;1", "--tau", "2,1;1"],
         "solutions.is_incompressible"),
        (["scl", "-w", "[x,y]", "--budget", "2"], "trace.scl_upper_bound"),
        (["wg", "--L", "4"], "weingarten.wg_table"),
        (["verify-mc", "-w", "[x,y]", "--n", "2", "--samples", "100"], "montecarlo.estimate"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_replay_runs_each_subcommand(argv, top):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPLAY), *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["exit"] == 0, record["stderr"]
    assert top in [span["name"] for span in record["spans"]]
