"""Write the sha256 of every output file of a fixed run matrix.

    PYTHONPATH=src python tests/output_digests.py OUT.json

runs all four experiments under each config of ``MATRIX`` and writes
``{"<config>/<file>": sha256}`` for every CSV and ``.meta.json``, 48
files in all.  A change that must keep every output byte is checked by
running this script in both checkouts (copy it into the older one) and
comparing the two JSON files with ``diff``.  pytest does not collect
this file; the matrix takes about 12 s on a 2-core Xeon.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from test_golden import GOLDEN_CONFIG

from demapsim.harness import EXPERIMENTS, load_config, run_experiment

# rate-penalty at its default 1M samples would take most of the time
SHORT = {"rate-penalty": {"n_samples": 300_000}}

# config name -> (overrides for every experiment, extra overrides per experiment)
MATRIX = {
    "defaults": ({}, SHORT),
    "golden": (GOLDEN_CONFIG, {}),
    "golden-seed7": ({**GOLDEN_CONFIG, "seed": 7}, {}),
    "workers2": ({"n_workers": 2, "n_samples": 200_000, "n_symbols": 40_000}, {}),
    "modes": ({"modes": ["maxlog", "analog-mosfet"]}, SHORT),
    # a 5 ns BJT plateau outlasts a period from 250 Msps on: settling tables of three rows or more
    "plateau": ({"rates_sps": [2.5e8, 5e8, 1e9, 2e9], "dynamics": {"t_plateau_bjt_s": 5e-9}}, SHORT),
}


def digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config, (overrides, per_experiment) in MATRIX.items():
            run_dir = Path(tmp) / config
            run_dir.mkdir()
            for experiment in EXPERIMENTS:
                cfg = load_config(overrides={**overrides, **per_experiment.get(experiment, {})})
                csv_path = run_experiment(experiment, cfg, run_dir / (experiment.replace("-", "_") + ".csv"))
                for path in (csv_path, Path(str(csv_path) + ".meta.json")):
                    out[f"{config}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    Path(sys.argv[1]).write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
