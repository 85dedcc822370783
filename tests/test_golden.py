"""Small fixed-seed runs of all four experiments against stored outputs.

The files under ``tests/golden/`` hold the CSV table and the
``.meta.json`` of each run below.  Header, row count, integers and
strings must match exactly and every float to a relative 1e-12, so a
refactor that keeps the numbers passes and one that moves them fails.
The metadata carries the calibration constants and every synthesized
demapper cell, which no CSV shows.

Regenerate the files only for a change that alters outputs on purpose,
and record the old and new values with that change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from demapsim.harness import EXPERIMENTS, load_config, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-12

GOLDEN_CONFIG = {
    "seed": 12345,
    "snr_db": [0.0, 10.0],
    "n_samples": 20_000,
    "chunk_size": 8192,  # three chunks, the last one short
    "n_symbols": 20_000,  # two settled ber-vs-rate sequences, the last one short
    "n_workers": 2,
    "llr_snr_db": [3.0, 10.0],
    "llr_grid_points": 101,
    "transitions": {"samples_per_symbol": 20},
}

_INT = re.compile(r"-?\d+")


def _golden_name(experiment: str) -> str:
    return experiment.replace("-", "_") + ".csv"


def _run(experiment: str, out_dir: Path) -> Path:
    return run_experiment(experiment, load_config(overrides=GOLDEN_CONFIG), out_dir / _golden_name(experiment))


def _assert_cell(got: str, want: str, where: str) -> None:
    if got == want:
        return
    if _INT.fullmatch(want):
        raise AssertionError(f"{where}: {got!r} != {want!r}")
    try:
        g, w = float(got), float(want)
    except ValueError:
        raise AssertionError(f"{where}: {got!r} != {want!r}") from None
    assert math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0), f"{where}: {got} != {want}"


def _assert_json(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), f"{where}: {got} != {want}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_outputs_match_golden(experiment, tmp_path):
    path = _run(experiment, tmp_path)
    golden = GOLDEN_DIR / path.name
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(golden, newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0], "CSV header differs"
    assert len(got) == len(want), f"{len(got) - 1} rows, golden has {len(want) - 1}"
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g_row) == len(w_row), f"row {i}: {len(g_row)} fields, golden has {len(w_row)}"
        for name, g, w in zip(want[0], g_row, w_row):
            _assert_cell(g, w, f"row {i} {name}")

    meta = Path(str(path) + ".meta.json")
    _assert_json(json.loads(meta.read_text()), json.loads(Path(str(golden) + ".meta.json").read_text()), "meta")


def test_digest_check_names_every_difference():
    # tests/output_digests.py --against prints these lines and exits 1 on any of them
    from output_digests import differences

    old = {"golden/a.csv": "1", "golden/b.csv": "2", "golden/gone.csv": "3"}
    fresh = {"golden/a.csv": "1", "golden/b.csv": "9", "golden/new.csv": "4"}
    assert differences(fresh, old) == [
        "sha256 differs: golden/b.csv",
        "only in the older run: golden/gone.csv",
        "only in this run: golden/new.csv",
    ]
    assert differences(old, dict(old)) == []


# numpy's AVX-512 dispatch groups: with them off, an AVX-512 host runs the kernels of an AVX2-only one
_AVX512_GROUPS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
_REDUCED_DISPATCH_RUN = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
assert not any(__cpu_features__[group] for group in sys.argv[1].split()), "dispatch groups still active"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2], "-k", "test_outputs_match_golden and not reduced"]))
"""


def _active_dispatch_groups() -> set[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x keeps them elsewhere; such a build is not probed
        return set()
    return {group for group in __cpu_dispatch__ if __cpu_features__.get(group)}


@pytest.mark.skipif(not set(_AVX512_GROUPS) <= _active_dispatch_groups(), reason="numpy dispatches no AVX-512 here")
def test_outputs_match_golden_under_reduced_dispatch():
    # outputs are byte-identical only on one dispatch level; across levels the comparator's bound must hold
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512_GROUPS)}
    run = subprocess.run(
        [sys.executable, "-c", _REDUCED_DISPATCH_RUN, " ".join(_AVX512_GROUPS), __file__],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"{len(EXPERIMENTS)} passed" in run.stdout


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in EXPERIMENTS:
        print(f"wrote {_run(name, GOLDEN_DIR)}")
