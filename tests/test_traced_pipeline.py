"""The benchmark's tracer installs over the package, and the traced CLI pipeline runs clean.

perfbench/tracer.py wraps salience_lab functions and methods that it looks up by
name, and its hooks read attributes of what they return, so a rename or a new
return type breaks a traced benchmark run.  install() rebinds module attributes
for the life of the process, so the pipeline runs in a subprocess of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SMOKE = str(ROOT / "src/salience_lab/configs/smoke.json")

_SCRIPT = """
import json, sys
from tracer import Tracer, install
from salience_lab import cli

config, out = sys.argv[1:]
tracer = Tracer()
install(tracer)
commands = (["simulate"], ["featurize"], ["train", "--model", "td_enet"],
            ["train", "--model", "td_mlp"], ["train", "--model", "melchior"], ["tune"],
            ["evaluate"], ["embed"], ["cluster"], ["report"])
codes = [cli.main(["--config", config, "--out", out, *argv]) for argv in commands]
print(json.dumps({"codes": codes, "counts": tracer.counts}))
"""


def test_traced_pipeline_runs_and_counts(tmp_path):
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", _SCRIPT, SMOKE, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 10, done.stderr
    counts = result["counts"]
    assert counts["features.rows"] == counts["telemetry.sessions"] > 0
    for name in ("models.epochs", "tuning.trials", "models.enet_iterations"):
        assert counts.get(name, 0) > 0, name
