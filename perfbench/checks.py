"""Output checks for the benchmark's experiment runs.

A run's outputs pass when
- every float cell of the CSV and every number in the ``.meta.json``
  is finite;
- every requested size appears: each (SNR, mode[, bit]) or (rate, mode)
  group the config asks for is present with the requested number of
  rows, and ``n_samples`` / ``bits`` / ``seed`` carry the requested
  values, so a silently ignored setting fails instead of running faster;
- at the default seed, the CSV matches the stored golden summary:
  schema, row count and integer/text cells exactly, floats within
  ``RTOL`` of the larger of the two values and the column's scale;
- for rate-penalty, the exact demapper's MC GMI lies within ``Z_MAX``
  standard errors of an independent Gauss-Hermite quadrature.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermgauss

RTOL = 1e-9
Z_MAX = 5.0
QUAD_NODES = 240
GOLDEN_MAX_SAMPLES = 1000  # rows kept per golden file

INT_COLUMNS = {"k", "seed", "n_samples", "errors", "bits"}
TEXT_COLUMNS = {"demapper_id", "transition"}
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _is_float_column(name: str) -> bool:
    return name not in INT_COLUMNS and name not in TEXT_COLUMNS


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def _analog(modes) -> list[str]:
    return [m for m in modes if m.startswith("analog-")]


def expected_groups(experiment: str, cfg: dict):
    """(key columns, Counter of expected keys, {column: required value})."""
    seed = {"seed": str(cfg["seed"])}
    if experiment == "rate-penalty":
        keys = Counter((float(s), m) for s in cfg["snr_db"] for m in cfg["modes"])
        return ("snr_db", "demapper_id"), keys, {**seed, "n_samples": str(cfg["n_samples"])}
    if experiment == "ber-vs-rate":
        keys = Counter((float(r), m) for r in cfg["rates_sps"] for m in _analog(cfg["modes"]))
        keys[(0.0, "exact-static")] += 1
        return ("rate_sps", "demapper_id"), keys, {**seed, "bits": str(3 * cfg["n_symbols"])}
    if experiment == "llr-curves":
        n = cfg["llr_grid_points"]
        keys = Counter(
            {(float(s), m, str(k)): n for s in cfg["llr_snr_db"] for m in cfg["modes"] for k in (1, 2, 3)}
        )
        return ("snr_db", "demapper_id", "k"), keys, seed
    if experiment == "transitions":
        n = 2 * (3 * cfg["transitions"]["samples_per_symbol"] + 1)  # two transitions, 3 symbols
        keys = Counter({(m,): n for m in _analog(cfg["modes"])})
        return ("demapper_id",), keys, seed
    raise ValueError(f"no output check for experiment {experiment!r}")


def _key_value(column: str, cell: str):
    return cell if column in TEXT_COLUMNS or column == "k" else float(cell)


def check_finite(header, rows) -> list[str]:
    cols = [i for i, name in enumerate(header) if _is_float_column(name)]
    for n, row in enumerate(rows):
        for i in cols:
            cell = row[i]
            if cell == "":
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                return [f"row {n + 1}: {header[i]}={cell!r} is not a finite number"]
    return []


def check_meta_finite(meta_path) -> list[str]:
    bad = []

    def reject(token):
        bad.append(token)
        return 0.0

    with open(meta_path) as fh:
        json.load(fh, parse_constant=reject)
    return [f"{meta_path.name}: non-finite values {sorted(set(bad))}"] if bad else []


def check_sizes(experiment, cfg, header, rows) -> list[str]:
    key_cols, expected, fixed = expected_groups(experiment, cfg)
    missing = [c for c in (*key_cols, *fixed) if c not in header]
    if missing:
        return [f"columns {missing} missing from the CSV"]
    idx = [header.index(c) for c in key_cols]
    actual = Counter(tuple(_key_value(c, row[i]) for c, i in zip(key_cols, idx)) for row in rows)
    errors = []
    if actual != expected:
        lost = sorted(map(str, (expected - actual).keys()))[:3]
        extra = sorted(map(str, (actual - expected).keys()))[:3]
        errors.append(f"row groups differ from the config: missing/short {lost}, unexpected {extra}")
    for col, want in fixed.items():
        i = header.index(col)
        seen = {row[i] for row in rows}
        if seen != {want}:
            errors.append(f"{col}: CSV has {sorted(seen)[:3]}, config asked for {want}")
    return errors


def golden_summary(header, rows) -> dict:
    """Schema, row count, a strided sample of rows and column scales."""
    stride = max(1, -(-len(rows) // GOLDEN_MAX_SAMPLES))
    scale = {}
    for i, name in enumerate(header):
        if _is_float_column(name):
            vals = [abs(float(r[i])) for r in rows if r[i] != ""]
            scale[name] = max(vals, default=0.0)
    return {
        "header": header,
        "n_rows": len(rows),
        "stride": stride,
        "rows": rows[::stride],
        "scale": scale,
    }


def compare_golden(golden: dict, header, rows) -> list[str]:
    if header != golden["header"]:
        return [f"schema {header} differs from golden {golden['header']}"]
    if len(rows) != golden["n_rows"]:
        return [f"{len(rows)} rows, golden has {golden['n_rows']}"]
    sampled = rows[:: golden["stride"]]
    for n, (got, want) in enumerate(zip(sampled, golden["rows"])):
        for name, a, b in zip(header, got, want):
            if a == b:
                continue
            if _is_float_column(name) and a != "" and b != "":
                x, y = float(a), float(b)
                tol = RTOL * max(abs(x), abs(y), golden["scale"][name])
                if abs(x - y) <= tol:
                    continue
            return [f"row {n * golden['stride'] + 1}: {name}={a} differs from golden {b} (rtol {RTOL})"]
    return []


def _log_sum_exp(e: np.ndarray) -> np.ndarray:
    shift = e.max(axis=1)  # per class, so neither class underflows at high SNR
    return shift + np.log(np.exp(e - shift[:, None]).sum(axis=1))


def quadrature_gmi_exact(c, sigma: float) -> float:
    """GMI of the exact demapper by Gauss-Hermite quadrature.

    Independent of the program's LLR code: the exact LLR is written out
    with a per-sample, per-class max shift, and each bit-wise MI averages
    log2(1 + exp((-1)^b L)) over the 8 equiprobable points and the
    Gaussian noise (Caire, Taricco and Biglieri, IEEE Trans. IT 1998).
    """
    nodes, weights = hermgauss(QUAD_NODES)
    points = np.asarray(c.points, dtype=float)
    labels = np.asarray(c.labels)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    total = 0.0
    for k in range(3):
        ones = labels[:, k] == 1
        for i, x in enumerate(points):
            r = x + math.sqrt(2.0) * sigma * nodes
            e = -((r[:, None] - points[None, :]) ** 2) * inv2s2
            llr = _log_sum_exp(e[:, ones]) - _log_sum_exp(e[:, ~ones])
            t = -llr if labels[i, k] == 1 else llr
            total += (weights @ np.logaddexp(0.0, t)) / math.log(2.0) / math.sqrt(math.pi) / points.size
    return 1.0 - total / 3.0


def gmi_z_scores(header, rows) -> list[float]:
    """|GMI_MC - GMI_quadrature| / std_err of the exact rows, per SNR."""
    from demapsim import build_pam8, from_snr_db

    c = build_pam8()
    col = {name: i for i, name in enumerate(header)}
    out = []
    for row in rows:
        if row[col["demapper_id"]] != "exact":
            continue
        sigma = from_snr_db(float(row[col["snr_db"]])).sigma
        quad = quadrature_gmi_exact(c, sigma)
        out.append(abs(float(row[col["gmi"]]) - quad) / float(row[col["std_err"]]))
    return out


def golden_path(workload_golden: str, experiment: str) -> Path:
    return GOLDEN_DIR / f"{workload_golden}.{experiment}.json"


def check_output(experiment, cfg, csv_path, golden: dict | None):
    """All checks on one experiment's outputs: (failures, info)."""
    csv_path = Path(csv_path)
    header, rows = read_csv(csv_path)
    failures = check_finite(header, rows)
    failures += check_meta_finite(Path(str(csv_path) + ".meta.json"))
    failures += check_sizes(experiment, cfg, header, rows)
    if golden is not None:
        failures += compare_golden(golden, header, rows)
    info = {"rows": len(rows)}
    z = gmi_z_scores(header, rows) if experiment == "rate-penalty" and not failures else []
    if z:
        info["gmi_z_max"] = max(z)
        if max(z) > Z_MAX:
            failures.append(f"exact GMI is {max(z):.2f} std errors from the quadrature (limit {Z_MAX})")
    return [f"{experiment}: {f}" for f in failures], info
