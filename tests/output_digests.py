"""Write, or check, the sha256 of every output file of a fixed run matrix.

    PYTHONPATH=src python tests/output_digests.py OUT.json
    PYTHONPATH=src python tests/output_digests.py --against OLD.json

Both run all four experiments under each config of ``MATRIX``, 48 CSV
and ``.meta.json`` files in all.  ``OUT.json`` writes
``{"<config>/<file>": sha256}`` for every file.  ``--against OLD.json``
compares the fresh digests with a file written that way by an older
checkout (copy this script into it): it prints every file whose sha256
differs or that only one side has, and exits 1 on any difference, 0 if
all match.  A change that must keep every output byte is checked so.
pytest does not collect this file; the matrix takes about 12 s on a
2-core Xeon.
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


def differences(fresh: dict[str, str], old: dict[str, str]) -> list[str]:
    """One line per file whose digest differs or that only one of the two runs has."""
    lines = []
    for name in sorted(fresh.keys() | old.keys()):
        if name not in old:
            lines.append(f"only in this run: {name}")
        elif name not in fresh:
            lines.append(f"only in the older run: {name}")
        elif fresh[name] != old[name]:
            lines.append(f"sha256 differs: {name}")
    return lines


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--against":
        old = json.loads(Path(args[1]).read_text())
        lines = differences(digests(), old)
        print("\n".join(lines) if lines else f"all {len(old)} files match {args[1]}")
        sys.exit(1 if lines else 0)
    if len(args) != 1 or args[0].startswith("-"):
        sys.exit(__doc__)
    Path(args[0]).write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
