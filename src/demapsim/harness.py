"""Experiment runner: configuration, per-SNR calibration, CSV output.

Each experiment produces one CSV table and an adjacent ``.meta.json``
file holding the full resolved configuration, the synthesized demapper
descriptions and every calibration constant, so any row can be
re-derived from the metadata alone.  Identical configuration and seed
give byte-identical tables regardless of the worker count.  Runners
return the table as segments (see ``write_csv``): one row dict per row
for the short tables, one segment of array columns per curve or trace.
"""

from __future__ import annotations

import copy
import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analog import (
    PRESETS,
    AnalogDemapper,
    R_SPAN_DEFAULT,
    VDD_DEFAULT,
    VIN_HARD_MAX,
    build_demapper,
    demap_static,
    demapper_to_dict,
)
from .calibration import AffineMap, calibration_grid, fit_output_map, input_map
from .channel import DEFAULT_CHUNK_SIZE, from_snr_db
from .constellation import Constellation, build_pam8
from .dynamics import (
    DynamicsParams,
    SAMPLE_FRACTION_DEFAULT,
    T_PLATEAU_BJT,
    TAU_DEFAULT,
    ber_vs_rate,
    simulate_transient,
)
from .metrics import evaluate_demappers, rate_penalty
from .reference import exact_llr, maxlog_llr

EXPERIMENTS = ("llr-curves", "rate-penalty", "ber-vs-rate", "transitions")
MODES = ("exact", "maxlog", *PRESETS)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


DEFAULT_CONFIG: dict = {
    "seed": 12345,
    "snr_db": list(range(-2, 17)),
    "modes": list(MODES),
    "n_samples": 1_000_000,
    "n_symbols": 100_000,
    "n_workers": 1,
    "chunk_size": DEFAULT_CHUNK_SIZE,
    "out": None,
    "llr_grid_points": 1001,
    "llr_snr_db": [10.0],
    "ber_snr_db": 10.0,
    "rates_sps": [5e7, 1e8, 1.5e8, 2e8, 2.5e8, 3e8, 3.5e8, 4e8, 4.5e8, 5e8],
    "input_window_v": [0.04, 0.60],
    "demapper": {
        "vdd": VDD_DEFAULT,
        "r_span": R_SPAN_DEFAULT,
        **copy.deepcopy(PRESETS),
    },
    "dynamics": {
        "tau_s": TAU_DEFAULT,
        "t_plateau_bjt_s": T_PLATEAU_BJT,
        "sample_fraction": SAMPLE_FRACTION_DEFAULT,
    },
    "transitions": {
        "symbol_rate_sps": 1e8,
        "samples_per_symbol": 100,
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Resolve the configuration: defaults, then file, then overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path}: top level must be a mapping")
        cfg = _merge(cfg, loaded)
    if overrides:
        cfg = _merge(cfg, {k: v for k, v in overrides.items() if v is not None})
    return cfg


def _require_int(value, field: str, minimum: int) -> None:
    """An integer of at least ``minimum`` that is not a bool (``True`` is
    an ``int`` in Python); ConfigError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{field}: must be an integer of at least {minimum}")


def _require_number(
    value, field: str, minimum: float | None = None, *, inclusive: bool = False, maximum: float | None = None
) -> float:
    """A finite number that is not a bool, above ``minimum`` (or at
    least ``minimum`` if ``inclusive``) and at most ``maximum``;
    ConfigError naming ``field``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: {value!r} is not a number") from None
    if not np.isfinite(x):
        raise ConfigError(f"{field}: {value!r} is not finite")
    if minimum is not None and (x < minimum if inclusive else x <= minimum):
        raise ConfigError(f"{field}: {value!r} must be {'at least' if inclusive else 'above'} {minimum}")
    if maximum is not None and x > maximum:
        raise ConfigError(f"{field}: {value!r} must be at most {maximum}")
    return x


def _require_number_list(cfg: dict, key: str, minimum: float | None = None) -> list[float]:
    value = cfg.get(key)
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{key}: must be a non-empty list of numbers")
    return [_require_number(item, key, minimum) for item in value]


def _require_mapping(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: must be a mapping")
    return value


def _reject_unknown_keys(cfg: dict, known: dict, prefix: str = "") -> None:
    """ConfigError naming the dotted path of the first key of ``cfg``
    that ``known`` (the same tree of defaults) does not have."""
    for key, value in cfg.items():
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _reject_unknown_keys(value, known[key], f"{prefix}{key}.")


def validate_config(cfg: dict, experiment: str) -> dict:
    """Check every field, whichever of them ``experiment`` reads; raise
    ConfigError with the offending field name on the first problem."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown id {experiment!r}; expected one of {EXPERIMENTS}")
    _reject_unknown_keys(cfg, DEFAULT_CONFIG)
    _require_int(cfg.get("seed"), "seed", 0)
    if cfg.get("out") is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out: {cfg['out']!r} is neither null nor a path string")
    modes = cfg.get("modes")
    if not isinstance(modes, (list, tuple)) or not modes:
        raise ConfigError("modes: must be a non-empty list")
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise ConfigError(f"modes: unknown demapper id {mode!r}; expected subset of {MODES}")
        if mode in modes[:i]:
            raise ConfigError(f"modes: {mode!r} is listed more than once")
    if experiment in ("ber-vs-rate", "transitions") and not any(mode in PRESETS for mode in modes):
        raise ConfigError(f"modes: {experiment} needs an analog mode, one of {tuple(PRESETS)}")
    for key, minimum in (("n_samples", 1000), ("n_symbols", 1000), ("n_workers", 1), ("chunk_size", 1)):
        _require_int(cfg.get(key), key, minimum)
    window = cfg.get("input_window_v")
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigError("input_window_v: must be [vmin, vmax] with vmin < vmax")
    vmin, vmax = _require_number_list(cfg, "input_window_v")
    if not vmin < vmax:
        raise ConfigError("input_window_v: must be [vmin, vmax] with vmin < vmax")
    _require_number(vmax, "input_window_v", maximum=VIN_HARD_MAX)  # the analog input cap

    _require_number_list(cfg, "snr_db")
    _require_number_list(cfg, "llr_snr_db")
    _require_int(cfg.get("llr_grid_points"), "llr_grid_points", 2)
    _require_number_list(cfg, "rates_sps", minimum=0.0)
    _require_number(cfg.get("ber_snr_db"), "ber_snr_db")
    dyn = _require_mapping(cfg.get("dynamics"), "dynamics")
    _require_number(dyn.get("tau_s"), "dynamics.tau_s", 0.0)
    _require_number(dyn.get("sample_fraction"), "dynamics.sample_fraction", 0.0, maximum=1.0)
    _require_number(dyn.get("t_plateau_bjt_s"), "dynamics.t_plateau_bjt_s", 0.0, inclusive=True)
    tr = _require_mapping(cfg.get("transitions"), "transitions")
    _require_number(tr.get("symbol_rate_sps"), "transitions.symbol_rate_sps", 0.0)
    _require_int(tr.get("samples_per_symbol"), "transitions.samples_per_symbol", 2)
    dem = _require_mapping(cfg.get("demapper"), "demapper")
    _require_number(dem.get("vdd"), "demapper.vdd", 0.0)
    _require_number(dem.get("r_span"), "demapper.r_span", 0.0)
    for mode_id in PRESETS:
        cell = _require_mapping(dem.get(mode_id), f"demapper.{mode_id}")
        _require_number(cell.get("knee_eps_v"), f"demapper.{mode_id}.knee_eps_v", 0.0, inclusive=True)
        _require_number(cell.get("isat_v"), f"demapper.{mode_id}.isat_v", 0.0)
    return cfg


@dataclass
class Workbench:
    """Shared objects for one experiment run."""

    c: Constellation
    imap: AffineMap
    demappers: dict[str, AnalogDemapper]  # the analog modes, in ``cfg["modes"]`` order
    cfg: dict

    @classmethod
    def from_config(cls, cfg: dict) -> "Workbench":
        c = build_pam8()
        vmin, vmax = (float(v) for v in cfg["input_window_v"])
        imap = input_map(c, vmin, vmax)
        dem_cfg = cfg["demapper"]
        demappers = {}
        for mode_id in cfg["modes"]:
            if mode_id in PRESETS:
                demappers[mode_id] = build_demapper(
                    c,
                    imap,
                    mode=mode_id,
                    knee_eps=float(dem_cfg[mode_id]["knee_eps_v"]),
                    isat_v=float(dem_cfg[mode_id]["isat_v"]),
                    r_span=float(dem_cfg["r_span"]),
                    vdd=float(dem_cfg["vdd"]),
                )
        return cls(c=c, imap=imap, demappers=demappers, cfg=cfg)

    def calibrate(self, snr_db: float) -> dict[str, dict[int, AffineMap]]:
        """Per-SNR least-squares output maps against the exact LLRs."""
        if not self.demappers:
            return {}
        params = from_snr_db(snr_db)
        grid = calibration_grid(self.c, params.sigma)
        # the input voltages and reference LLRs are shared by every mode
        vin = self.imap(grid)
        refs = {k: exact_llr(grid, k, self.c, params) for k in (1, 2, 3)}
        return {
            mode_id: {k: fit_output_map(k, demap_static(vin, demapper, k), refs[k], grid) for k in (1, 2, 3)}
            for mode_id, demapper in self.demappers.items()
        }

    def llr_fns(self, snr_db: float, output_maps: dict[str, dict[int, AffineMap]]) -> dict:
        """LLR callables (r, k) -> array for every configured mode."""
        params = from_snr_db(snr_db)
        fns = {}
        for mode_id in self.cfg["modes"]:
            if mode_id == "exact":
                fns[mode_id] = lambda r, k, p=params: exact_llr(r, k, self.c, p)
            elif mode_id == "maxlog":
                fns[mode_id] = lambda r, k, p=params: maxlog_llr(r, k, self.c, p)
            else:
                demapper = self.demappers[mode_id]
                per_bit = output_maps[mode_id]

                def analog_fn(r, k, demapper=demapper, per_bit=per_bit):
                    return per_bit[k](demap_static(demapper.input_map(r), demapper, k))

                fns[mode_id] = analog_fn
        return fns

    def meta(self, maps_by_snr: dict | None = None) -> dict:
        """Every synthesized demapper and, if given, the calibration constants per SNR."""
        meta = {"demappers": {m: demapper_to_dict(d) for m, d in self.demappers.items()}}
        if maps_by_snr is not None:
            meta["calibration"] = _calibration_meta(maps_by_snr)
        return meta


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_cell(value) -> str:
    """``value`` formatted by ``_fmt`` and quoted as ``csv.writer`` quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([_fmt(value), ""])
    return buf.getvalue()[:-2]


def write_csv(path, fieldnames: list[str], segments: list[dict]) -> None:
    """Write the table as ``csv.writer`` does with ``_fmt`` cells.

    The table is a list of segments.  A segment is a dict in which each
    field maps either to a 1-d float array, one cell per row, or to one
    value shared by all of the segment's rows (a missing field is None).
    Its arrays have one length, the segment's row count; a segment with
    no array is one row, so a plain row dict is a one-row segment.  An
    array object written more than once is formatted once, so a repeated
    column should be one object, as ``run_llr_curves``'s ``vin_v`` is.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    uses = Counter(id(v) for s in segments for v in map(s.get, fieldnames) if isinstance(v, np.ndarray))
    shared = {}  # id -> cells of an array written more than once
    with open(path, "w", newline="") as fh:
        # the header is a one-row segment of the field names
        for segment in (dict(zip(fieldnames, fieldnames)), *segments):
            arrays = [v for v in segment.values() if isinstance(v, np.ndarray)]
            n = arrays[0].size if arrays else 1
            if any(a.shape != (n,) for a in arrays):
                raise ValueError(f"segment arrays must be 1-d of one length, got shapes {[a.shape for a in arrays]}")
            columns = [
                repeat(_csv_cell(v), n) if not isinstance(v, np.ndarray)
                else map(float.__repr__, v.tolist()) if uses[id(v)] < 2
                else shared[id(v)] if id(v) in shared
                else shared.setdefault(id(v), list(map(float.__repr__, v.tolist())))
                for v in map(segment.get, fieldnames)
            ]
            lines = map(",".join, zip(*columns)) if columns else repeat("", n)
            if len(fieldnames) == 1:  # csv.writer quotes a lone empty field
                lines = ('""' if line == "" else line for line in lines)
            fh.writelines(line + "\n" for line in lines)


def write_metadata(csv_path, cfg: dict, extra: dict) -> Path:
    meta_path = Path(str(csv_path) + ".meta.json")
    payload = {"demapsim_version": __version__, "config": cfg, **extra}
    with open(meta_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return meta_path


def _calibration_meta(output_maps_by_snr: dict) -> dict:
    return {
        repr(float(snr)): {
            mode: {f"b{k}": {"gamma": m.scale, "zeta": m.offset} for k, m in per_bit.items()}
            for mode, per_bit in maps.items()
        }
        for snr, maps in output_maps_by_snr.items()
    }


METRIC_FIELDS = [
    "snr_db", "demapper_id", "mi_b1", "mi_b2", "mi_b3", "gmi", "penalty_pct",
    "ber", "n_samples", "std_err",
    "gamma_1", "gamma_2", "gamma_3", "zeta_1", "zeta_2", "zeta_3", "seed",
]
LLR_FIELDS = ["snr_db", "demapper_id", "k", "vin_v", "r", "llr", "gamma", "zeta", "seed"]
SWEEP_FIELDS = ["rate_sps", "demapper_id", "errors", "bits", "ber", "seed"]
TRACE_FIELDS = [
    "demapper_id", "transition", "time_s", "vout_v_b1", "vout_v_b2", "vout_v_b3", "seed",
]


def _dynamics_params(cfg: dict, demapper: AnalogDemapper, **kwargs) -> DynamicsParams:
    """Settling parameters of ``demapper`` from the ``dynamics`` block,
    plus ``kwargs`` (the sample count of a ``transitions`` trace)."""
    dyn = cfg["dynamics"]
    return DynamicsParams.for_mode(
        demapper.mode,
        tau=float(dyn["tau_s"]),
        t_plateau_bjt=float(dyn["t_plateau_bjt_s"]),
        sample_fraction=float(dyn["sample_fraction"]),
        **kwargs,
    )


def run_llr_curves(cfg: dict) -> tuple[list[dict], dict]:
    """Calibrated LLR curves over the input-voltage window: one segment
    per SNR, mode and bit."""
    validate_config(cfg, "llr-curves")
    bench = Workbench.from_config(cfg)
    vmin, vmax = (float(v) for v in cfg["input_window_v"])
    vin = np.linspace(vmin, vmax, cfg["llr_grid_points"])
    r = np.asarray(bench.imap.inverse(vin))
    seed = cfg["seed"]
    segments = []
    maps_by_snr = {}
    for snr_db in (float(s) for s in cfg["llr_snr_db"]):
        output_maps = bench.calibrate(snr_db)
        maps_by_snr[snr_db] = output_maps
        for mode_id, fn in bench.llr_fns(snr_db, output_maps).items():
            maps = output_maps.get(mode_id)
            segments += [
                {
                    "snr_db": snr_db,
                    "demapper_id": mode_id,
                    "k": k,
                    "vin_v": vin,
                    "r": r,
                    "llr": fn(r, k),
                    "gamma": maps[k].scale if maps else None,
                    "zeta": maps[k].offset if maps else None,
                    "seed": seed,
                }
                for k in (1, 2, 3)
            ]
    return segments, bench.meta(maps_by_snr)


def run_rate_penalty(cfg: dict) -> tuple[list[dict], dict]:
    """GMI, rate penalty, std error and hard-decision BER per SNR and mode."""
    validate_config(cfg, "rate-penalty")
    bench = Workbench.from_config(cfg)
    seed = cfg["seed"]
    rows = []
    maps_by_snr = {}
    for snr_index, snr_db in enumerate(float(s) for s in cfg["snr_db"]):
        params = from_snr_db(snr_db)
        output_maps = bench.calibrate(snr_db)
        maps_by_snr[snr_db] = output_maps
        fns = bench.llr_fns(snr_db, output_maps)
        # the exact rule is always evaluated: it anchors the penalty
        fns.setdefault("exact", lambda r, k, p=params: exact_llr(r, k, bench.c, p))
        evals = evaluate_demappers(
            fns,
            bench.c,
            params,
            cfg["n_samples"],
            seed,
            ref_id="exact",
            stream=snr_index,
            n_workers=cfg["n_workers"],
            chunk_size=cfg["chunk_size"],
        )
        gmi_exact = evals["exact"].gmi_est.gmi
        for mode_id in cfg["modes"]:
            ev = evals[mode_id]
            maps = output_maps.get(mode_id)
            row = {
                "snr_db": snr_db,
                "demapper_id": mode_id,
                "mi_b1": ev.gmi_est.per_bit_mi[0],
                "mi_b2": ev.gmi_est.per_bit_mi[1],
                "mi_b3": ev.gmi_est.per_bit_mi[2],
                "gmi": ev.gmi_est.gmi,
                "penalty_pct": rate_penalty(ev.gmi_est.gmi, gmi_exact),
                "ber": ev.ber_est.ber,
                "n_samples": ev.gmi_est.n_samples,
                "std_err": ev.gmi_est.std_error,
                "seed": seed,
            }
            for k in (1, 2, 3):
                row[f"gamma_{k}"] = maps[k].scale if maps else None
                row[f"zeta_{k}"] = maps[k].offset if maps else None
            rows.append(row)
    return rows, bench.meta(maps_by_snr)


def run_ber_vs_rate(cfg: dict) -> tuple[list[dict], dict]:
    """Settling-limited BER sweep plus the static exact reference row."""
    validate_config(cfg, "ber-vs-rate")
    bench = Workbench.from_config(cfg)
    seed = cfg["seed"]
    snr_db = float(cfg["ber_snr_db"])
    params = from_snr_db(snr_db)
    rates = [float(x) for x in cfg["rates_sps"]]
    output_maps = bench.calibrate(snr_db)
    rows = []

    static = evaluate_demappers(
        {"exact": lambda r, k: exact_llr(r, k, bench.c, params)},
        bench.c,
        params,
        cfg["n_symbols"],
        seed,
        stream=len(rates),  # streams 0..len(rates)-1 belong to the sweep
        n_workers=cfg["n_workers"],
        chunk_size=cfg["chunk_size"],
    )["exact"]
    rows.append(
        {
            "rate_sps": 0.0,
            "demapper_id": "exact-static",
            "errors": static.ber_est.errors,
            "bits": static.ber_est.bits,
            "ber": static.ber_est.ber,
            "seed": seed,
        }
    )

    for mode_id, demapper in bench.demappers.items():
        dp = _dynamics_params(cfg, demapper)
        sweep = ber_vs_rate(
            rates,
            snr_db,
            demapper,
            output_maps[mode_id],
            dp,
            cfg["n_symbols"],
            seed,
            bench.c,
            stream=0,
            n_workers=cfg["n_workers"],
        )
        for entry in sweep:
            rows.append({**entry, "demapper_id": mode_id, "seed": seed})
    return rows, {"snr_db": snr_db, **bench.meta({snr_db: output_maps})}


def run_transitions(cfg: dict) -> tuple[list[dict], dict]:
    """The two canonical settling traces for both analog modes: one
    segment per mode and transition."""
    validate_config(cfg, "transitions")
    bench = Workbench.from_config(cfg)
    seed = cfg["seed"]
    d_scale = bench.c.d
    transitions = {
        "+3d_to_+7d": (3.0 * d_scale, 7.0 * d_scale),
        "-7d_to_-5d": (-7.0 * d_scale, -5.0 * d_scale),
    }
    tr_cfg = cfg["transitions"]
    rate = float(tr_cfg["symbol_rate_sps"])
    segments = []
    for mode_id, demapper in bench.demappers.items():
        dp = _dynamics_params(cfg, demapper, samples_per_symbol=int(tr_cfg["samples_per_symbol"]))
        for name, (r_a, r_b) in transitions.items():
            traces = [simulate_transient([r_a, r_b, r_b], rate, demapper, k, dp) for k in (1, 2, 3)]
            segments.append(
                {
                    "demapper_id": mode_id,
                    "transition": name,
                    "time_s": traces[0].time,
                    "vout_v_b1": traces[0].vout,
                    "vout_v_b2": traces[1].vout,
                    "vout_v_b3": traces[2].vout,
                    "seed": seed,
                }
            )
    return segments, bench.meta()


_RUNNERS = {
    "llr-curves": (run_llr_curves, LLR_FIELDS),
    "rate-penalty": (run_rate_penalty, METRIC_FIELDS),
    "ber-vs-rate": (run_ber_vs_rate, SWEEP_FIELDS),
    "transitions": (run_transitions, TRACE_FIELDS),
}


def run_experiment(experiment: str, cfg: dict, out_path=None) -> Path:
    """Run one experiment and write its CSV and metadata files."""
    if experiment not in _RUNNERS:
        raise ConfigError(f"experiment: unknown id {experiment!r}; expected one of {EXPERIMENTS}")
    runner, fields = _RUNNERS[experiment]
    rows, meta = runner(cfg)
    path = out_path or cfg.get("out") or f"{experiment.replace('-', '_')}.csv"
    write_csv(path, fields, rows)
    write_metadata(path, cfg, meta)
    return Path(path)
