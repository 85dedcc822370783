"""Experiment runner: configuration, per-SNR calibration, CSV output.

``run_experiment`` validates the configuration, builds one ``Workbench``
and passes it to the experiment's runner; the Workbench records every
calibration it makes.  Each experiment produces one CSV table and an
adjacent ``.meta.json`` file holding the full resolved configuration,
the synthesized demapper descriptions and every calibration constant,
so any row can be re-derived from the metadata alone.  Identical
configuration and seed give byte-identical tables regardless of the
worker count.  Runners return the table as segments (see
``write_csv``): one row dict per row for the short tables, one segment
of array columns per curve or trace; ``run_experiment`` adds the
``seed`` column to each.  ``Workbench.evaluate`` runs the Monte Carlo
evaluations with the run's seed, worker count and chunk size.
"""

from __future__ import annotations

import copy
import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, repeat
from pathlib import Path

import numpy as np

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
from .channel import DEFAULT_CHUNK_SIZE, Nodes, from_snr_db
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

MODES = ("exact", "maxlog", *PRESETS)
# below about 1.5e-8 V of input window (at high SNR) the cells' output is flat on
# the calibration grid and no output map fits; a fixed bound 60x above needs no grid
INPUT_WINDOW_MIN_V = 1e-6
N_WORKERS_MAX = 64  # channel.map_chunks starts n_workers - 1 threads per call


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
        import yaml  # only a config file needs PyYAML

        class UniqueKeyLoader(yaml.SafeLoader):  # a key given twice is an error, not an override
            def compose_mapping_node(self, anchor):
                node, seen = super().compose_mapping_node(anchor), set()
                for key, _ in node.value:
                    if (key.tag, str(key.value)) in seen:
                        raise yaml.MarkedYAMLError(problem=f"duplicate key {key.value!r}", problem_mark=key.start_mark)
                    seen.add((key.tag, str(key.value)))
                return node

        try:
            with open(path) as fh:
                loaded = yaml.load(fh, Loader=UniqueKeyLoader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None
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


def _require_number_list(cfg: dict, key: str, minimum: float | None = None, *, distinct: bool = False) -> list[float]:
    value = cfg.get(key)
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError(f"{key}: must be a non-empty list of numbers")
    numbers = [_require_number(item, key, minimum) for item in value]
    for i, x in enumerate(numbers):
        if distinct and x in numbers[:i]:  # compared as numbers, so 10 and 10.0 collide
            raise ConfigError(f"{key}: {value[i]!r} is listed more than once")
    return numbers


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
    ConfigError with the offending field name on the first problem.  An SNR
    beyond ``channel.SNR_DB_MAX`` or an ``input_window_v`` narrower than
    ``INPUT_WINDOW_MIN_V`` is rejected, since a run would overflow or fail
    to calibrate; every analog preset is synthesized, listed or not."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown id {experiment!r}; expected one of {EXPERIMENTS}")
    _reject_unknown_keys(cfg, DEFAULT_CONFIG)
    _require_int(cfg.get("seed"), "seed", 0)
    if cfg.get("out") is not None and not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError(f"out: {cfg['out']!r} is neither null nor a non-empty path string")
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
    if cfg["n_workers"] > N_WORKERS_MAX:
        raise ConfigError(f"n_workers: {cfg['n_workers']} must be at most {N_WORKERS_MAX}")
    snrs = {key: _require_number_list(cfg, key, distinct=True) for key in ("snr_db", "llr_snr_db")}
    snrs["ber_snr_db"] = [_require_number(cfg.get("ber_snr_db"), "ber_snr_db")]
    for key, values in snrs.items():
        for snr_db in values:
            try:
                from_snr_db(snr_db)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    _require_int(cfg.get("llr_grid_points"), "llr_grid_points", 2)
    _require_number_list(cfg, "rates_sps", minimum=0.0, distinct=True)
    tr = _require_mapping(cfg.get("transitions"), "transitions")
    _require_number(tr.get("symbol_rate_sps"), "transitions.symbol_rate_sps", 0.0)
    _require_int(tr.get("samples_per_symbol"), "transitions.samples_per_symbol", 2)
    _analog(cfg, build_pam8(), PRESETS)
    return cfg


def _analog(cfg: dict, c: Constellation, modes) -> tuple[AffineMap, dict, dict]:
    """Check and read ``input_window_v`` and the ``demapper`` and ``dynamics``
    blocks: the input map, then the demapper and settling parameters of
    each analog mode of ``modes``, in order.  ConfigError names the field."""
    window = cfg.get("input_window_v")
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigError("input_window_v: must be [vmin, vmax] with vmin < vmax")
    vmin, vmax = _require_number_list(cfg, "input_window_v")
    if not vmin < vmax:
        raise ConfigError("input_window_v: must be [vmin, vmax] with vmin < vmax")
    _require_number(vmax, "input_window_v", maximum=VIN_HARD_MAX)  # the analog input cap
    dyn = _require_mapping(cfg.get("dynamics"), "dynamics")
    tau = _require_number(dyn.get("tau_s"), "dynamics.tau_s", 0.0)
    fraction = _require_number(dyn.get("sample_fraction"), "dynamics.sample_fraction", 0.0, maximum=1.0)
    plateau = _require_number(dyn.get("t_plateau_bjt_s"), "dynamics.t_plateau_bjt_s", 0.0, inclusive=True)
    dem = _require_mapping(cfg.get("demapper"), "demapper")
    vdd = _require_number(dem.get("vdd"), "demapper.vdd", 0.0)
    # the synthesis range, +-r_span, must hold every max-log kink; the outermost is at 6d
    r_span = _require_number(dem.get("r_span"), "demapper.r_span", max(float(s[0][-1]) for s in c.maxlog_segments))
    imap = input_map(c, vmin, vmax)
    demappers, dynamics = {}, {}
    for mode_id in (m for m in modes if m in PRESETS):
        cell = _require_mapping(dem.get(mode_id), f"demapper.{mode_id}")
        knee = _require_number(cell.get("knee_eps_v"), f"demapper.{mode_id}.knee_eps_v", 0.0, inclusive=True)
        isat = _require_number(cell.get("isat_v"), f"demapper.{mode_id}.isat_v", 0.0)
        try:
            demappers[mode_id] = build_demapper(c, imap, mode_id, knee_eps=knee, isat_v=isat, r_span=r_span, vdd=vdd)
        except ValueError as exc:
            try:  # only the output-swing check reads vdd: a bad input geometry fails under any vdd
                build_demapper(c, imap, mode_id, knee_eps=knee, isat_v=isat, r_span=r_span, vdd=np.inf)
            except ValueError as geometry:
                raise ConfigError(f"input_window_v, demapper.r_span: {geometry}") from None
            raise ConfigError(f"demapper.vdd, demapper.{mode_id}.isat_v: {exc}") from None
        dynamics[mode_id] = DynamicsParams.for_mode(mode_id, tau=tau, t_plateau_bjt=plateau, sample_fraction=fraction)
    if vmax < vmin + INPUT_WINDOW_MIN_V:  # after synthesis, which names a window too narrow for the kinks
        raise ConfigError(f"input_window_v: [{vmin!r}, {vmax!r}] is narrower than {INPUT_WINDOW_MIN_V:g} V")
    return imap, demappers, dynamics


@dataclass
class Workbench:
    """Shared objects of one experiment run, built once by ``run_experiment``
    and passed to the runner: the analog demappers and their settling
    parameters, one LLR rule per mode, and a record of every calibration
    made, which ``meta()`` writes out."""

    c: Constellation
    imap: AffineMap
    demappers: dict[str, AnalogDemapper]  # the analog modes, in ``cfg["modes"]`` order
    dynamics: dict[str, DynamicsParams]  # settling parameters, per analog mode
    cfg: dict
    calibrations: dict[float, dict] = field(default_factory=dict)  # calibrate()'s maps per SNR, in call order

    @classmethod
    def from_config(cls, cfg: dict) -> "Workbench":
        """The Workbench of ``cfg``; a bad ``input_window_v``, ``demapper`` or ``dynamics``
        block raises the ConfigError naming the field, as ``validate_config`` does."""
        c = build_pam8()
        imap, demappers, dynamics = _analog(cfg, c, cfg["modes"])
        return cls(c=c, imap=imap, demappers=demappers, dynamics=dynamics, cfg=cfg)

    def calibrate(self, snr_db: float) -> dict[str, dict[int, AffineMap]]:
        """Per-SNR least-squares output maps against the exact LLRs,
        recorded in ``calibrations``."""
        maps = {}
        if self.demappers:
            params = from_snr_db(snr_db)
            grid = calibration_grid(self.c, params.sigma).view(Nodes)  # built ascending
            # the input voltages (nodes too: a rising map of nodes) and reference LLRs are shared by every mode
            vin = self.imap(grid)
            refs = {k: exact_llr(grid, k, self.c, params) for k in (1, 2, 3)}
            maps = {
                mode_id: {k: fit_output_map(k, demap_static(vin, demapper, k), refs[k], grid) for k in (1, 2, 3)}
                for mode_id, demapper in self.demappers.items()
            }
        self.calibrations[snr_db] = maps
        return maps

    def rule(self, mode_id: str, snr_db: float):
        """The LLR callable (r, k) -> array of ``mode_id`` at ``snr_db``; an analog mode uses
        the maps ``calibrate(snr_db)`` recorded.  ValueError for an unknown id or missing maps."""
        if mode_id in PRESETS:
            if (per_bit := self.calibrations.get(snr_db, {}).get(mode_id)) is None:
                raise ValueError(f"{mode_id} has no calibration at {snr_db} dB: run calibrate({snr_db}) first")
            demapper = self.demappers[mode_id]
            return lambda r, k: per_bit[k](demap_static(demapper.input_map(r), demapper, k))
        if mode_id not in MODES:
            raise ValueError(f"unknown demapper id {mode_id!r}; expected one of {MODES}")
        llr, params = {"exact": exact_llr, "maxlog": maxlog_llr}[mode_id], from_snr_db(snr_db)
        return lambda r, k: llr(r, k, self.c, params)

    def evaluate(self, mode_ids, snr_db: float, n: int, stream: int, ref_id: str | None = None) -> dict:
        """``evaluate_demappers`` on the rules of ``mode_ids`` at ``snr_db``,
        with the run's seed, worker count and chunk size."""
        cfg = self.cfg
        return evaluate_demappers(
            {m: self.rule(m, snr_db) for m in mode_ids}, self.c, from_snr_db(snr_db), n, cfg["seed"],
            ref_id=ref_id, stream=stream, n_workers=cfg["n_workers"], chunk_size=cfg["chunk_size"],
        )

    def meta(self) -> dict:
        """Every synthesized demapper and, if any SNR was calibrated, the
        calibration constants per SNR."""
        meta = {"demappers": {m: demapper_to_dict(d) for m, d in self.demappers.items()}}
        if self.calibrations:
            meta["calibration"] = {
                repr(float(snr)): {
                    mode: {f"b{k}": {"gamma": m.scale, "zeta": m.offset} for k, m in per_bit.items()}
                    for mode, per_bit in maps.items()
                }
                for snr, maps in self.calibrations.items()
            }
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
    Its arrays have one length, the segment's row count, or it is a
    ValueError; a segment with no array is one row, so a plain row dict
    is a one-row segment.  An array object written more than once is
    formatted once, so a repeated column should be one object, as
    ``run_llr_curves``'s ``vin_v`` is.  Each run of adjacent shared
    fields is joined once, and each segment written with one ``write``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    uses = Counter(id(v) for s in segments for v in map(s.get, fieldnames) if isinstance(v, np.ndarray))
    shared = {}  # id -> cells of an array written more than once
    with open(path, "w", newline="") as fh:
        # the header is a one-row segment of the field names
        for segment in (dict(zip(fieldnames, fieldnames)), *segments):
            arrays = {name: v for name, v in segment.items() if isinstance(v, np.ndarray)}
            n = next(iter(arrays.values())).size if arrays else 1
            for name, a in arrays.items():
                if a.shape != (n,) or a.dtype.kind != "f":
                    raise ValueError(f"segment arrays must be 1-d of one length and hold floats, "
                                     f"got {name!r} of shape {a.shape} and dtype {a.dtype}")
            columns = []  # each run of shared fields as one joined cell, each array as its cells
            for is_array, run in groupby(map(segment.get, fieldnames), lambda v: isinstance(v, np.ndarray)):
                columns += [
                    map(float.__repr__, v.tolist()) if uses[id(v)] < 2
                    else shared[id(v)] if id(v) in shared
                    else shared.setdefault(id(v), list(map(float.__repr__, v.tolist())))
                    for v in run
                ] if is_array else [",".join(map(_csv_cell, run))]
            if columns == [""] and len(fieldnames) == 1:
                columns = ['""']  # csv.writer quotes a lone empty field
            lines = zip(*(repeat(c, n) if isinstance(c, str) else c for c in columns or [""]))
            if n:
                fh.write("\n".join(map(",".join, lines)) + "\n")


def write_metadata(csv_path, cfg: dict, extra: dict) -> Path:
    meta_path = Path(str(csv_path) + ".meta.json")
    payload = {"demapsim_version": __version__, "config": cfg, **extra}
    # one write: json.dump would make about 2,000 small ones
    meta_path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    return meta_path


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


def run_llr_curves(bench: Workbench) -> tuple[list[dict], dict]:
    """Calibrated LLR curves over the input-voltage window: one segment
    per SNR, mode and bit."""
    cfg = bench.cfg
    vmin, vmax = (float(v) for v in cfg["input_window_v"])
    vin = np.linspace(vmin, vmax, cfg["llr_grid_points"])
    r = bench.imap.inverse(vin).view(Nodes)  # a rising map of an ascending grid; so is each d.input_map(r)
    # an analog mode's uncalibrated curve does not depend on the SNR
    curves = {m: {k: demap_static(d.input_map(r), d, k) for k in (1, 2, 3)} for m, d in bench.demappers.items()}
    segments = []
    for snr_db in (float(s) for s in cfg["llr_snr_db"]):
        output_maps = bench.calibrate(snr_db)
        for mode_id in cfg["modes"]:
            fn, maps = bench.rule(mode_id, snr_db), output_maps.get(mode_id)
            segments += [
                {
                    "snr_db": snr_db,
                    "demapper_id": mode_id,
                    "k": k,
                    "vin_v": vin,
                    "r": r,
                    "llr": maps[k](curves[mode_id][k]) if maps else fn(r, k),
                    "gamma": maps[k].scale if maps else None,
                    "zeta": maps[k].offset if maps else None,
                }
                for k in (1, 2, 3)
            ]
    return segments, bench.meta()


def run_rate_penalty(bench: Workbench) -> tuple[list[dict], dict]:
    """GMI, rate penalty, std error and hard-decision BER per SNR and mode."""
    cfg = bench.cfg
    rows = []
    for snr_index, snr_db in enumerate(float(s) for s in cfg["snr_db"]):
        output_maps = bench.calibrate(snr_db)
        # the exact rule is always evaluated: it anchors the penalty
        evals = bench.evaluate(("exact", *cfg["modes"]), snr_db, cfg["n_samples"], snr_index, ref_id="exact")
        gmi_exact = evals["exact"].gmi  # its MC estimate can be <= 0 at low SNR: no penalty then
        for mode_id in cfg["modes"]:
            ev = evals[mode_id]
            maps = output_maps.get(mode_id)
            row = {
                "snr_db": snr_db,
                "demapper_id": mode_id,
                "mi_b1": ev.per_bit_mi[0],
                "mi_b2": ev.per_bit_mi[1],
                "mi_b3": ev.per_bit_mi[2],
                "gmi": ev.gmi,
                "penalty_pct": rate_penalty(ev.gmi, gmi_exact) if gmi_exact > 0 else None,
                "ber": ev.ber,
                "n_samples": ev.n_samples,
                "std_err": ev.std_error,
            }
            for k in (1, 2, 3):
                row[f"gamma_{k}"] = maps[k].scale if maps else None
                row[f"zeta_{k}"] = maps[k].offset if maps else None
            rows.append(row)
    return rows, bench.meta()


def run_ber_vs_rate(bench: Workbench) -> tuple[list[dict], dict]:
    """Settling-limited BER sweep plus the static exact reference row."""
    cfg = bench.cfg
    snr_db = float(cfg["ber_snr_db"])
    rates = [float(x) for x in cfg["rates_sps"]]
    output_maps = bench.calibrate(snr_db)
    # streams 0..len(rates)-1 belong to the sweep
    static = bench.evaluate(["exact"], snr_db, cfg["n_symbols"], len(rates))["exact"]
    rows = [dict(rate_sps=0.0, demapper_id="exact-static", errors=static.errors, bits=static.bits, ber=static.ber)]

    sweeps = {mode_id: (d, output_maps[mode_id], bench.dynamics[mode_id]) for mode_id, d in bench.demappers.items()}
    sweep = ber_vs_rate(rates, snr_db, sweeps, cfg["n_symbols"], cfg["seed"], bench.c, n_workers=cfg["n_workers"])
    for mode_id, entries in sweep.items():
        rows += [{**entry, "demapper_id": mode_id} for entry in entries]
    return rows, {"snr_db": snr_db, **bench.meta()}


def run_transitions(bench: Workbench) -> tuple[list[dict], dict]:
    """The two canonical settling traces for both analog modes: one
    segment per mode and transition."""
    cfg = bench.cfg
    d_scale = bench.c.d
    transitions = {
        "+3d_to_+7d": (3.0 * d_scale, 7.0 * d_scale),
        "-7d_to_-5d": (-7.0 * d_scale, -5.0 * d_scale),
    }
    rate, steps = float(cfg["transitions"]["symbol_rate_sps"]), int(cfg["transitions"]["samples_per_symbol"])
    segments = []
    for mode_id, demapper in bench.demappers.items():
        dp = bench.dynamics[mode_id]
        for name, (r_a, r_b) in transitions.items():
            traces = [simulate_transient([r_a, r_b, r_b], rate, demapper, k, dp, steps) for k in (1, 2, 3)]
            segments.append(
                {
                    "demapper_id": mode_id,
                    "transition": name,
                    "time_s": traces[0].time,
                    "vout_v_b1": traces[0].vout,
                    "vout_v_b2": traces[1].vout,
                    "vout_v_b3": traces[2].vout,
                }
            )
    return segments, bench.meta()


_RUNNERS = {
    "llr-curves": (run_llr_curves, LLR_FIELDS),
    "rate-penalty": (run_rate_penalty, METRIC_FIELDS),
    "ber-vs-rate": (run_ber_vs_rate, SWEEP_FIELDS),
    "transitions": (run_transitions, TRACE_FIELDS),
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(experiment: str, cfg: dict, out_path=None) -> Path:
    """Validate ``cfg``, build its Workbench once, run one experiment on
    it and write its CSV and metadata files."""
    validate_config(cfg, experiment)
    runner, fields = _RUNNERS[experiment]
    rows, meta = runner(Workbench.from_config(cfg))
    path = out_path or cfg.get("out") or f"{experiment.replace('-', '_')}.csv"
    write_csv(path, fields, [{**row, "seed": cfg["seed"]} for row in rows])
    write_metadata(path, cfg, meta)
    return Path(path)
