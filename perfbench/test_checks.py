"""The benchmark's output checker, on real outputs and corrupted copies.

Run with ``python3 -m pytest perfbench``.
"""

import csv
import json
import shutil

import pytest

from perfbench import checks
from perfbench.run import END_TO_END, PER_LAYER, Runner
from perfbench.workloads import WORKLOADS, Workload


@pytest.fixture(scope="module")
def rate_penalty(tmp_path_factory):
    from demapsim import harness

    tmp = tmp_path_factory.mktemp("rp")
    cfg = harness.load_config(None, {"snr_db": [0.0, 10.0], "n_samples": 4000, "chunk_size": 1000})
    path = harness.run_experiment("rate-penalty", cfg, tmp / "rp.csv")
    return cfg, path


def _copy_with(src, dst, edit):
    """Copy a CSV and its .meta.json, letting ``edit`` change the rows."""
    header, rows = checks.read_csv(src)
    rows = edit(header, rows)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    shutil.copy(str(src) + ".meta.json", str(dst) + ".meta.json")
    return dst


def _set(column, value, row_index=0):
    def edit(header, rows):
        rows[row_index][header.index(column)] = value(rows[row_index][header.index(column)])
        return rows

    return edit


def test_real_output_passes_with_its_own_golden(rate_penalty):
    cfg, path = rate_penalty
    golden = checks.golden_summary(*checks.read_csv(path))
    failures, info = checks.check_output("rate-penalty", cfg, path, golden)
    assert failures == []
    assert info["gmi_z_max"] < checks.Z_MAX


@pytest.mark.parametrize(
    "edit, reason",
    [
        (_set("gmi", lambda v: "nan"), "not a finite number"),
        (_set("std_err", lambda v: "inf", row_index=3), "not a finite number"),
        (lambda h, rows: rows[:-1], "row groups differ"),
        (_set("n_samples", lambda v: "1000000"), "n_samples"),
        (_set("seed", lambda v: "7"), "seed"),
        (_set("snr_db", lambda v: "5.0"), "row groups differ"),
    ],
)
def test_corrupted_csv_fails(rate_penalty, tmp_path, edit, reason):
    cfg, path = rate_penalty
    bad = _copy_with(path, tmp_path / "bad.csv", edit)
    failures, _ = checks.check_output("rate-penalty", cfg, bad, None)
    assert any(reason in f for f in failures), failures


def test_golden_tolerance(rate_penalty, tmp_path):
    cfg, path = rate_penalty
    golden = checks.golden_summary(*checks.read_csv(path))
    nudge = _copy_with(path, tmp_path / "nudge.csv", _set("gmi", lambda v: repr(float(v) * (1 + 1e-12))))
    assert checks.check_output("rate-penalty", cfg, nudge, golden)[0] == []
    drift = _copy_with(path, tmp_path / "drift.csv", _set("gmi", lambda v: repr(float(v) * (1 + 1e-6))))
    assert any("differs from golden" in f for f in checks.check_output("rate-penalty", cfg, drift, golden)[0])
    count = _copy_with(path, tmp_path / "count.csv", _set("demapper_id", lambda v: "maxlog"))
    assert checks.check_output("rate-penalty", cfg, count, golden)[0] != []


def test_non_finite_metadata_fails(rate_penalty, tmp_path):
    cfg, path = rate_penalty
    bad = _copy_with(path, tmp_path / "meta.csv", lambda h, rows: rows)
    meta = json.loads(open(str(bad) + ".meta.json").read())
    meta["calibration"] = float("nan")
    with open(str(bad) + ".meta.json", "w") as fh:
        json.dump(meta, fh)
    failures, _ = checks.check_output("rate-penalty", cfg, bad, None)
    assert any("non-finite" in f for f in failures)


def test_ignored_size_setting_fails(tmp_path):
    """An output made with fewer symbols than configured counts as failed."""
    from demapsim import harness

    cfg = harness.load_config(None, {"n_symbols": 2000, "rates_sps": [1e8, 4e8], "modes": ["analog-bjt"]})
    path = harness.run_experiment("ber-vs-rate", cfg, tmp_path / "sweep.csv")
    assert checks.check_output("ber-vs-rate", cfg, path, None)[0] == []
    asked_more = {**cfg, "n_symbols": 3000}
    failures, _ = checks.check_output("ber-vs-rate", asked_more, path, None)
    assert any("bits" in f for f in failures)


def test_quadrature_limits():
    from demapsim import build_pam8, from_snr_db

    c = build_pam8()
    assert checks.quadrature_gmi_exact(c, from_snr_db(40.0).sigma) == pytest.approx(1.0, abs=1e-9)
    assert checks.quadrature_gmi_exact(c, from_snr_db(-30.0).sigma) == pytest.approx(0.0, abs=1e-3)


def test_worker_count_twins_must_be_byte_identical(tmp_path):
    tiny = {"snr_db": [3.0], "n_samples": 4000, "chunk_size": 1000}
    small = Workload("tiny", (("rate-penalty", {**tiny, "n_workers": 1}), ("rate-penalty", {**tiny, "n_workers": 2})))
    runner = Runner(small, 12345, tmp_path)
    runner.run_pass()
    assert runner.worker_twins() == [(0, 1)]
    assert runner.worker_count_differs() == []
    _copy_with(runner.paths[0], runner.paths[1], _set("gmi", lambda v: repr(float(v) + 1e-12)))
    assert runner.worker_count_differs() == ["rate-penalty: CSV with 2 workers differs from 1"]


def test_benchmark_json_names_match_the_runner():
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER]
