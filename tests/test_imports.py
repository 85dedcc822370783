"""Which optional modules a fresh process loads.

Every study is one short process, so its set-up cost counts: the set-up
path (import ``demapsim``, ``load_config``, ``validate_config``,
``Workbench.from_config``) and a one-worker run of any experiment must
not load PyYAML, ``numpy.ma`` or the thread-pool module.  Each case runs
in its own interpreter, since this test session has long since imported
all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from demapsim.harness import EXPERIMENTS

SRC = Path(__file__).resolve().parents[1] / "src"
OPTIONAL = ("yaml", "numpy.ma", "concurrent.futures")

SCRIPT = """
import json, sys
from demapsim import harness
experiment, path, overrides, run = sys.argv[1], sys.argv[2] or None, json.loads(sys.argv[3]), sys.argv[4] == "run"
cfg = harness.load_config(path, overrides)
harness.validate_config(cfg, experiment)
harness.Workbench.from_config(cfg)
if run:
    harness.run_experiment(experiment, cfg)
print(json.dumps({"cfg": cfg, "loaded": [m for m in %r if m in sys.modules]}))
""" % (OPTIONAL,)

TINY = {
    "snr_db": [10.0],
    "llr_snr_db": [10.0],
    "llr_grid_points": 11,
    "n_samples": 2000,
    "n_symbols": 1000,
    "rates_sps": [1e8],
    "n_workers": 1,
}


def run_fresh(tmp_path, experiment: str, overrides: dict, *, path=None, run: bool = False) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    args = [sys.executable, "-c", SCRIPT, experiment, str(path or ""), json.dumps(overrides), "run" if run else ""]
    done = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_setup_path_loads_no_optional_module(tmp_path, experiment):
    assert run_fresh(tmp_path, experiment, {})["loaded"] == []


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_one_worker_run_loads_no_optional_module(tmp_path, experiment):
    out = tmp_path / "out.csv"
    assert run_fresh(tmp_path, experiment, {**TINY, "out": str(out)}, run=True)["loaded"] == []
    assert out.exists()


def test_config_file_is_still_parsed_as_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 7\nsnr_db: [1.5, 3]\ndemapper:\n  r_span: 1.2\n")
    result = run_fresh(tmp_path, "rate-penalty", {}, path=path)
    assert result["cfg"]["seed"] == 7
    assert result["cfg"]["snr_db"] == [1.5, 3]
    assert result["cfg"]["demapper"]["r_span"] == 1.2
    assert "yaml" in result["loaded"]
