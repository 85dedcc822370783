import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from demapsim import cli, dynamics, harness
from demapsim.analog import build_demapper, demapper_from_dict, demap_static
from demapsim.calibration import input_map
from demapsim.channel import SNR_DB_MAX, Nodes
from demapsim.cli import main
from demapsim.dynamics import DynamicsParams
from demapsim.harness import (
    EXPERIMENTS,
    INPUT_WINDOW_MIN_V,
    ConfigError,
    LLR_FIELDS,
    METRIC_FIELDS,
    SWEEP_FIELDS,
    Workbench,
    load_config,
    run_experiment,
    run_llr_curves,
    validate_config,
    write_csv,
)
from oracles import csv_writer_write_csv, segment_rows

SMALL = {
    "seed": 11,
    "snr_db": [0.0, 10.0],
    "llr_snr_db": [10.0],
    "llr_grid_points": 41,
    "n_samples": 20_000,
    "n_symbols": 5_000,
    "rates_sps": [1e8, 3.5e8],
}


def small_config(**extra):
    cfg = load_config()
    cfg.update(SMALL)
    cfg.update(extra)
    return cfg


class TestConfigValidation:
    def test_defaults_validate(self):
        for experiment in ("llr-curves", "rate-penalty", "ber-vs-rate", "transitions"):
            validate_config(load_config(), experiment)

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("seed", None, "seed"),
            ("modes", [], "modes"),
            ("modes", ["exact", "dsp"], "demapper id"),
            ("n_samples", 10, "at least 1000"),
            ("n_workers", 0, "n_workers"),
            ("snr_db", [], "snr_db"),
            ("snr_db", ["low"], "not a number"),
            ("input_window_v", [0.6, 0.1], "input_window_v"),
            ("seed", True, "seed"),
            ("input_window_v", ["a", 0.6], "input_window_v"),
            ("n_sampels", 5000, "n_sampels: unknown key"),
            ("modes", ["exact", "maxlog", "maxlog"], "modes: 'maxlog' is listed more than once"),
            ("rates_sps", [-1], "rates_sps"),
            ("llr_grid_points", 1, "llr_grid_points"),
            ("seed", -1, "seed: must be an integer of at least 0"),
            ("out", 5, "out: 5"),
            ("input_window_v", [0.04, 0.7], "input_window_v: 0.7 must be at most 0.64"),
            ("input_window_v", [0.04], r"input_window_v: must be \[vmin, vmax\]"),
            ("ber_snr_db", float("inf"), "ber_snr_db: inf is not finite"),
            ("snr_db", [0.0, float("nan")], "snr_db: nan is not finite"),
            ("dynamics", 5, "dynamics: must be a mapping"),
            ("demapper", {"vdd": 1.6, "r_span": 5.0, "analog-bjt": None}, "demapper.analog-bjt: must be a mapping"),
            # beyond +-1000 dB an experiment may overflow, or 10**(snr_db/10) itself does
            ("snr_db", [10.0, 4000.0], "snr_db: 4000.0 dB is out of range"),
            ("snr_db", [-4000.0], "snr_db: -4000.0 dB is out of range"),
            ("llr_snr_db", [-3100.0], "llr_snr_db: -3100.0 dB is out of range"),
            ("ber_snr_db", 4000.0, "ber_snr_db: 4000.0 dB is out of range"),
            ("snr_db", [0.0, 1000.5], r"snr_db: 1000.5 dB is out of range: \|snr_db\| must be at most 1000 dB"),
            ("llr_snr_db", [-1000.5], "llr_snr_db: -1000.5 dB is out of range"),
        ],
    )
    def test_field_errors_name_the_field(self, field, value, fragment):
        cfg = small_config(**{field: value})
        with pytest.raises(ConfigError, match=fragment):
            validate_config(cfg, "rate-penalty")

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ("demapper.vdd", 0.2, "demapper.vdd, demapper.analog-bjt.isat_v: target needs 0.613 V of output swing"),
            ("demapper.analog-bjt.isat_v", 5.0, "demapper.vdd, demapper.analog-bjt.isat_v: target needs 10.209 V"),
            ("input_window_v", [0.3, 0.30000000000000004], "input_window_v, demapper.r_span: breakpoints must be"),
            # synthesizes, but its cells' output is flat on the calibration grid
            ("input_window_v", [0.3, 0.3 + 1e-9], "input_window_v: [0.3, 0.300000001] is narrower than 1e-06 V"),
        ],
    )
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_unsynthesizable_demapper_is_a_config_error(self, path, value, message, experiment):
        # every preset is synthesized, also one that modes does not list (here analog-bjt)
        cfg = small_config(modes=["exact", "analog-mosfet"])
        *parents, leaf = path.split(".")
        block = cfg
        for key in parents:
            block = block[key]
        block[leaf] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(cfg, experiment)

    @pytest.mark.parametrize(
        "path,value",
        [
            ("dynamics.t_plateau_bjt_s", "a"),
            ("ber_snr_db", True),
            ("transitions.samples_per_symbol", 1),
            ("demapper.analog-bjt.knee_eps_v", -1e-3),
            ("demapper.analog-mosfet.knee_eps_v", "a"),
            ("demapper.analog-bjt.isat_v", -0.3),
            ("demapper.analog-mosfet.isat_v", None),
            ("dynamics.tau", 1e-9),
            ("demapper.analog-bjt.knee_v", 1e-3),
            ("demapper.bjt", {"knee_eps_v": 1e-3, "isat_v": 0.3}),
            ("demapper.mosfet", {"knee_eps_v": 25e-3, "isat_v": 0.03}),
            ("demapper.snr_ref_db", 10.0),
            ("transitions.rate_sps", 1e8),
            ("dynamics.sample_fraction", 1.5),
            ("dynamics.samples_per_symbol", 16),
            ("demapper.r_span", 0.92),  # inside the outermost max-log kink, 6d
        ],
    )
    def test_nested_field_errors_name_the_dotted_path(self, path, value):
        cfg = small_config()
        *parents, leaf = path.split(".")
        block = cfg
        for key in parents:
            block = block[key]
        block[leaf] = value
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            validate_config(cfg, "ber-vs-rate")

    @pytest.mark.parametrize(
        "key, values, shown, experiment",
        [
            ("snr_db", [10.0, 10.0], "10.0", "rate-penalty"),
            ("snr_db", [0.0, 10.0, 10], "10", "rate-penalty"),  # compared as numbers
            ("llr_snr_db", [4.0, 7, 7.0], "7.0", "llr-curves"),
            ("llr_snr_db", [0.0, -0.0], "-0.0", "llr-curves"),
            ("rates_sps", [1e8, 3.5e8, 100_000_000], "100000000", "ber-vs-rate"),
        ],
    )
    def test_a_value_listed_twice_is_a_config_error(self, key, values, shown, experiment):
        # each value makes its own rows, and two runs at one value wrote rows no reader could tell apart
        with pytest.raises(ConfigError, match=rf"^{key}: {re.escape(shown)} is listed more than once$"):
            validate_config(small_config(**{key: values}), experiment)

    def test_values_an_ulp_apart_are_distinct(self):
        cfg = small_config(snr_db=[10.0, np.nextafter(10.0, 11.0)], llr_snr_db=[1.0, 2.0], rates_sps=[1e8, 1e8 + 1])
        for experiment in EXPERIMENTS:
            validate_config(cfg, experiment)

    def test_n_workers_is_bounded(self):
        # each map_chunks call starts n_workers - 1 threads; no run or pool is started here
        validate_config(small_config(n_workers=64), "rate-penalty")
        with pytest.raises(ConfigError, match="^n_workers: 65 must be at most 64$"):
            validate_config(small_config(n_workers=65), "rate-penalty")

    def test_settling_experiments_need_an_analog_mode(self):
        for experiment in ("ber-vs-rate", "transitions"):
            with pytest.raises(ConfigError, match=f"modes: {experiment} needs an analog mode"):
                validate_config(small_config(modes=["exact", "maxlog"]), experiment)
            validate_config(small_config(modes=["exact", "analog-bjt"]), experiment)
        for experiment in ("rate-penalty", "llr-curves"):
            validate_config(small_config(modes=["exact"]), experiment)

    def test_dynamics_fields_checked(self):
        cfg = small_config()
        cfg["dynamics"] = dict(cfg["dynamics"], tau_s=0.0)
        with pytest.raises(ConfigError, match="dynamics.tau_s"):
            validate_config(cfg, "ber-vs-rate")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown id"):
            validate_config(small_config(), "eye-diagram")
        with pytest.raises(ConfigError, match="experiment: unknown id 'eye-diagram'"):
            run_experiment("eye-diagram", small_config())

    def test_empty_config_file_gives_the_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == load_config()

    @pytest.mark.parametrize("text", ["- 1\n- 2\n", "42\n", "just text\n"])
    def test_config_file_top_level_must_be_a_mapping(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            load_config(path)

    def test_calibrate_without_analog_modes(self):
        bench = Workbench.from_config(small_config(modes=["exact", "maxlog"]))
        assert bench.demappers == {}
        assert bench.calibrate(10.0) == {}

    @pytest.mark.parametrize(
        "experiment, extra, message",
        [
            ("rate-penalty", {"n_samples": 10}, "n_samples"),
            ("transitions", {"modes": ["exact"]}, "needs an analog mode"),
            ("eye-diagram", {}, "experiment: unknown id 'eye-diagram'"),
        ],
    )
    def test_run_experiment_validates_before_any_set_up(self, tmp_path, monkeypatch, experiment, extra, message):
        def no_set_up(cfg):
            raise AssertionError("Workbench.from_config ran on an invalid config")

        monkeypatch.setattr(Workbench, "from_config", no_set_up)
        with pytest.raises(ConfigError, match=message):
            run_experiment(experiment, small_config(**extra), tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "text, key, line",
        [("seed: 1\nn_samples: 2000\nseed: 2\n", "seed", 3), ("demapper:\n  vdd: 1.6\n  r_span: 5.0\n  vdd: 1.2\n", "vdd", 4)],
        ids=["top-level", "nested"],
    )
    def test_a_key_given_twice_is_a_config_error(self, tmp_path, text, key, line):
        # PyYAML's own loader keeps the last value without a word
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^config file {re.escape(str(path))}: duplicate key '{key}' in .*, line {line}, "):
            load_config(path)

    def test_an_explicit_key_overrides_a_merged_one(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "demapper:\n"
            "  analog-bjt: &cell {knee_eps_v: 0.002, isat_v: 0.3}\n"
            "  analog-mosfet:\n"
            "    <<: *cell\n"
            "    knee_eps_v: 0.03\n"
        )
        cfg = load_config(path)
        assert cfg["demapper"]["analog-bjt"] == {"knee_eps_v": 0.002, "isat_v": 0.3}
        assert cfg["demapper"]["analog-mosfet"] == {"knee_eps_v": 0.03, "isat_v": 0.3}
        validate_config(cfg, "rate-penalty")

    def test_config_file_merge(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 42\nn_samples: 2000\n")
        cfg = load_config(path, {"seed": 43})
        assert cfg["seed"] == 43  # flag beats file
        assert cfg["n_samples"] == 2000  # file beats default
        assert cfg["n_workers"] == 1  # default survives


@pytest.fixture(scope="module")
def result():
    return run_llr_curves(Workbench.from_config(small_config()))


class TestLlrCurves:
    def test_all_modes_near_zero_at_center_for_msb(self, result):
        segments, _ = result
        for mode in ("exact", "maxlog", "analog-bjt", "analog-mosfet"):
            center = [
                seg["llr"][j] for seg in segments if seg["demapper_id"] == mode and seg["k"] == 1
                for j in np.flatnonzero(np.abs(seg["vin_v"] - 0.32) < 1e-12)
            ]
            assert len(center) == 1
            assert abs(center[0]) < 1e-9

    def test_grid_endpoints_map_to_outer_points(self, result):
        segments, _ = result
        rs = sorted(x for seg in segments if seg["demapper_id"] == "exact" and seg["k"] == 1 for x in seg["r"])
        d = 0.1543033499620919
        assert rs[0] == pytest.approx(-7 * d, abs=1e-12)
        assert rs[-1] == pytest.approx(7 * d, abs=1e-12)

    def test_sharp_knee_tracks_exact_better_on_lsb(self, result):
        segments, _ = result
        exact = {}
        curves = {"analog-bjt": {}, "analog-mosfet": {}}
        for seg in segments:
            if seg["k"] != 3:
                continue
            if seg["demapper_id"] == "exact":
                exact.update(zip(seg["vin_v"].tolist(), seg["llr"].tolist()))
            elif seg["demapper_id"] in curves:
                curves[seg["demapper_id"]].update(zip(seg["vin_v"].tolist(), seg["llr"].tolist()))
        dev = {
            mode: max(abs(llr - exact[v]) for v, llr in points.items())
            for mode, points in curves.items()
        }
        assert dev["analog-bjt"] < dev["analog-mosfet"]


class TestOutputsAndDeterminism:
    def test_rate_penalty_schema_and_reproducibility(self, tmp_path):
        cfg1 = small_config(n_workers=1, out=str(tmp_path / "a.csv"))
        cfg2 = small_config(n_workers=3, out=str(tmp_path / "b.csv"))
        path_a = run_experiment("rate-penalty", cfg1)
        path_b = run_experiment("rate-penalty", cfg2)
        text_a = path_a.read_text()
        assert text_a.splitlines()[0] == ",".join(METRIC_FIELDS)
        assert text_a == path_b.read_text()

    def test_ber_vs_rate_schema_and_reference_row(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "sweep.csv"), n_symbols=2000)
        path = run_experiment("ber-vs-rate", cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_FIELDS)
        assert any("exact-static" in line for line in lines[1:])

    def test_mosfet_at_350msps_near_static_reference(self, tmp_path):
        import math

        cfg = small_config(out=str(tmp_path / "sweep2.csv"), n_symbols=5000)
        path = run_experiment("ber-vs-rate", cfg)
        rows = {}
        header = None
        for line in path.read_text().splitlines():
            parts = line.split(",")
            if header is None:
                header = parts
                continue
            row = dict(zip(header, parts))
            rows[(row["demapper_id"], float(row["rate_sps"]))] = row
        ref = rows[("exact-static", 0.0)]
        mos = rows[("analog-mosfet", 3.5e8)]
        ber_ref, ber_mos = float(ref["ber"]), float(mos["ber"])
        bits = int(ref["bits"])
        se = math.hypot(
            math.sqrt(ber_ref * (1 - ber_ref) / bits),
            math.sqrt(ber_mos * (1 - ber_mos) / bits),
        )
        assert abs(ber_mos - ber_ref) <= 3 * se

    def test_exact_penalty_identically_zero(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "pen.csv"))
        path = run_experiment("rate-penalty", cfg)
        header = None
        for line in path.read_text().splitlines():
            parts = line.split(",")
            if header is None:
                header = parts
                continue
            row = dict(zip(header, parts))
            if row["demapper_id"] == "exact":
                assert float(row["penalty_pct"]) == 0.0

    def test_non_positive_reference_gmi_leaves_penalty_empty(self, tmp_path):
        # at -25 dB and seed 1 the exact GMI estimate is slightly negative
        cfg = small_config(snr_db=[-25.0, 10.0], n_samples=2000, seed=1, out=str(tmp_path / "low.csv"))
        header, *rows = [line.split(",") for line in run_experiment("rate-penalty", cfg).read_text().splitlines()]
        rows = [dict(zip(header, row)) for row in rows]
        low = [row for row in rows if row["snr_db"] == "-25.0"]
        high = {row["demapper_id"]: row for row in rows if row["snr_db"] == "10.0"}
        assert len(low) == len(high) == 4
        assert float(next(row["gmi"] for row in low if row["demapper_id"] == "exact")) <= 0
        for row in low:
            empty = {f for f, v in row.items() if v == ""}
            empty_high = {f for f, v in high[row["demapper_id"]].items() if v == ""}
            assert "penalty_pct" not in empty_high
            assert empty == empty_high | {"penalty_pct"}
            assert np.isfinite(float(high[row["demapper_id"]]["penalty_pct"]))

    @pytest.mark.parametrize(
        "demapper",
        [
            pytest.param({}, id="default"),
            # a wrong-sign calibrated LLR grows like the SNR; these overflowed its square from +1538 dB
            pytest.param({"demapper": {"analog-mosfet": {"knee_eps_v": 0.2}}}, id="soft-knee"),
            pytest.param({"input_window_v": [0.04, 0.14]}, id="narrow-window"),
            pytest.param({"input_window_v": [0.3, 0.3 + INPUT_WINDOW_MIN_V]}, id="narrowest-window"),
        ],
    )
    @pytest.mark.parametrize("snr_db", [-SNR_DB_MAX, SNR_DB_MAX])
    def test_every_experiment_finite_at_the_snr_bounds(self, tmp_path, snr_db, demapper):
        # a RuntimeWarning is an error under pytest, so an overflow anywhere fails here too
        keys = {"llr-curves": "llr_snr_db", "rate-penalty": "snr_db", "ber-vs-rate": "ber_snr_db", "transitions": None}
        for experiment, key in keys.items():
            snrs = {key: snr_db if key == "ber_snr_db" else [snr_db]} if key else {}
            cfg = load_config(overrides={**SMALL, **snrs, **demapper, "n_samples": 2000, "n_symbols": 2000})
            _, *lines = run_experiment(experiment, cfg, tmp_path / "edge.csv").read_text().splitlines()
            cells = [cell for line in lines for cell in line.split(",")]
            assert not {"nan", "inf", "-inf"} & set(cells), experiment

    def test_metadata_contains_calibration_and_demappers(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "c.csv"))
        path = run_experiment("llr-curves", cfg)
        meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
        assert meta["config"]["seed"] == 11
        cal = meta["calibration"]["10.0"]
        assert set(cal) == {"analog-bjt", "analog-mosfet"}
        assert set(cal["analog-bjt"]) == {"b1", "b2", "b3"}
        dm = demapper_from_dict(meta["demappers"]["analog-mosfet"])
        assert demap_static(0.32, dm, 1) > 0

    def test_llr_fields(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "llr.csv"))
        path = run_experiment("llr-curves", cfg)
        assert path.read_text().splitlines()[0] == ",".join(LLR_FIELDS)

    def test_transitions_rows(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "tr.csv"))
        path = run_experiment("transitions", cfg)
        lines = path.read_text().splitlines()
        assert any("+3d_to_+7d" in line and "analog-bjt" in line for line in lines)
        assert any("-7d_to_-5d" in line and "analog-mosfet" in line for line in lines)

    def test_ber_vs_rate_draws_each_chunk_once_for_every_mode(self, tmp_path, monkeypatch):
        # 2 rates x 2 settling chunks for the sweep, shared by both analog
        # modes, plus one chunk for the static exact row
        from demapsim import channel

        draws = []
        original = channel.draw

        def counting(*args):
            draws.append(args[2:5])  # (seed, stream, chunk index)
            return original(*args)

        monkeypatch.setattr(channel, "draw", counting)
        cfg = small_config(modes=["analog-bjt", "analog-mosfet"], n_symbols=20_000, out=str(tmp_path / "p.csv"))
        run_experiment("ber-vs-rate", cfg)
        assert sorted(draws) == [(11, 0, 0), (11, 0, 1), (11, 1, 0), (11, 1, 1), (11, 2, 0)]

    @pytest.mark.parametrize("experiment", ["ber-vs-rate", "transitions"])
    def test_analog_rows_follow_the_modes_order(self, tmp_path, experiment):
        cfg = small_config(modes=["analog-mosfet", "exact", "analog-bjt"], n_symbols=1000, out=str(tmp_path / "m.csv"))
        path = run_experiment(experiment, cfg)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        ids = dict.fromkeys(row[header.index("demapper_id")] for row in rows)  # in first-seen order
        assert [mode for mode in ids if mode.startswith("analog-")] == ["analog-mosfet", "analog-bjt"]


class TestWorkbench:
    def test_meta_records_each_calibration_in_call_order(self):
        bench = Workbench.from_config(small_config(modes=["maxlog", "analog-bjt"]))
        assert "calibration" not in bench.meta()
        maps = {snr: bench.calibrate(snr) for snr in (10.0, -2.0)}
        cal = bench.meta()["calibration"]
        assert list(cal) == ["10.0", "-2.0"]
        for snr, per_mode in maps.items():
            assert set(per_mode) == {"analog-bjt"}
            assert cal[repr(snr)]["analog-bjt"] == {
                f"b{k}": {"gamma": m.scale, "zeta": m.offset} for k, m in per_mode["analog-bjt"].items()
            }

    def test_transitions_meta_has_no_calibration(self, tmp_path):
        run_experiment("transitions", small_config(), tmp_path / "tr.csv")
        meta = json.loads((tmp_path / "tr.csv.meta.json").read_text())
        assert "calibration" not in meta
        assert set(meta["demappers"]) == {"analog-bjt", "analog-mosfet"}

    def test_rate_penalty_without_exact_mode(self, tmp_path):
        # the exact rule still anchors the penalty: the rows equal those of a run that lists it
        lines = {}
        for name, modes in (("without", ["maxlog", "analog-bjt"]), ("with", ["exact", "maxlog", "analog-bjt"])):
            path = run_experiment("rate-penalty", small_config(modes=modes), tmp_path / f"{name}.csv")
            lines[name] = path.read_text().splitlines()
        header, *rows = [line.split(",") for line in lines["without"]]
        ids = header.index("demapper_id")
        assert [(row[0], row[ids]) for row in rows] == [
            (snr, mode) for snr in ("0.0", "10.0") for mode in ("maxlog", "analog-bjt")
        ]
        assert all(np.isfinite(float(row[header.index("penalty_pct")])) for row in rows)
        assert lines["without"] == [line for line in lines["with"] if ",exact," not in line]

    def test_ber_vs_rate_ignores_the_trace_sample_count(self, tmp_path):
        texts = []
        for spsym in (20, 100):
            cfg = small_config(n_symbols=2000, transitions={"symbol_rate_sps": 1e8, "samples_per_symbol": spsym})
            path = run_experiment("ber-vs-rate", cfg, tmp_path / f"s{spsym}.csv")
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_from_config_names_the_field_of_a_bad_block(self):
        cfg = small_config()
        cfg["demapper"]["vdd"] = 0.2
        with pytest.raises(ConfigError) as validated:
            validate_config(cfg, "rate-penalty")
        with pytest.raises(ConfigError) as built:
            Workbench.from_config(cfg)
        assert str(built.value) == str(validated.value)

    def test_analog_modes_are_built_from_the_config_in_listed_order(self):
        cfg = small_config(modes=["analog-mosfet", "exact", "analog-bjt"])
        dem, dyn = cfg["demapper"], cfg["dynamics"]
        dem["vdd"], dem["analog-bjt"]["knee_eps_v"] = 2.0, 2e-3
        dyn.update(tau_s=0.5e-9, t_plateau_bjt_s=3e-9, sample_fraction=0.9)
        bench = Workbench.from_config(cfg)
        assert list(bench.demappers) == list(bench.dynamics) == ["analog-mosfet", "analog-bjt"]
        imap = input_map(bench.c, *cfg["input_window_v"])
        for mode in bench.demappers:
            assert bench.demappers[mode] == build_demapper(
                bench.c, imap, mode, knee_eps=dem[mode]["knee_eps_v"], isat_v=dem[mode]["isat_v"],
                r_span=dem["r_span"], vdd=dem["vdd"],
            )
            assert bench.dynamics[mode] == DynamicsParams.for_mode(
                mode, tau=dyn["tau_s"], t_plateau_bjt=dyn["t_plateau_bjt_s"], sample_fraction=dyn["sample_fraction"]
            )

    def test_a_run_builds_each_preset_once_to_validate_and_once_to_run(self, tmp_path, monkeypatch):
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build_demapper(*args, **kwargs)

        monkeypatch.setattr(harness, "build_demapper", counting_build)
        run_experiment("transitions", load_config(), tmp_path / "tr.csv")
        assert len(calls) == 4

    def test_rule_of_an_uncalibrated_analog_mode_names_the_mode_and_the_snr(self):
        bench = Workbench.from_config(small_config(modes=["exact", "analog-mosfet", "analog-bjt"]))
        with pytest.raises(ValueError, match=r"^analog-bjt has no calibration at 10\.0 dB: run calibrate\(10\.0\) first"):
            bench.evaluate(["analog-bjt"], 10.0, 1000, 0)
        bench.calibrate(10.0)
        with pytest.raises(ValueError, match=r"^analog-mosfet has no calibration at 3\.0 dB"):
            bench.rule("analog-mosfet", 3.0)
        bench.rule("analog-mosfet", 10.0)
        exact_only = Workbench.from_config(small_config(modes=["exact"]))
        exact_only.calibrate(10.0)
        with pytest.raises(ValueError, match=r"^analog-bjt has no calibration at 10\.0 dB"):
            exact_only.rule("analog-bjt", 10.0)

    def test_rule_of_an_unknown_id_lists_the_modes(self):
        bench = Workbench.from_config(small_config())
        for snr_db in (10.0, 3.0):
            with pytest.raises(ValueError, match=re.escape(f"unknown demapper id 'nmos'; expected one of {harness.MODES}")):
                bench.rule("nmos", snr_db)

    def test_settling_parameters_ignore_the_trace_sample_count(self):
        # the trace sample count draws a trace; it is not part of a mode's settling model
        benches = [
            Workbench.from_config(small_config(transitions={"symbol_rate_sps": 1e8, "samples_per_symbol": spsym}))
            for spsym in (20, 100)
        ]
        assert benches[0].dynamics == benches[1].dynamics
        assert set(benches[0].dynamics) == {"analog-bjt", "analog-mosfet"}


class TestExperimentsPassNodes:
    """Every array the experiments hand an LLR rule is ``channel.Nodes``.  A lost
    mark changes no output bit, it only sends the rules down their slower
    general path, so only a test like this one can see it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []  # (module, rule, type of the first argument)
        for module, name in ((harness, "maxlog_llr"), (harness, "demap_static"), (dynamics, "demap_static")):
            def recorder(x, *args, _rule=getattr(module, name), _at=(module.__name__.split(".")[-1], name)):
                seen.append((*_at, type(x)))
                return _rule(x, *args)
            monkeypatch.setattr(module, name, recorder)
        return seen

    @pytest.mark.parametrize(
        "experiment, n_workers, rules",
        [
            ("rate-penalty", 1, {("harness", "maxlog_llr"), ("harness", "demap_static")}),
            ("rate-penalty", 2, {("harness", "maxlog_llr"), ("harness", "demap_static")}),
            ("ber-vs-rate", 1, {("harness", "demap_static"), ("dynamics", "demap_static")}),
            ("llr-curves", 1, {("harness", "maxlog_llr"), ("harness", "demap_static")}),
        ],
    )
    def test_every_rule_call_gets_nodes(self, tmp_path, calls, experiment, n_workers, rules):
        cfg = small_config(n_samples=12_000, n_symbols=3_000, chunk_size=4096, n_workers=n_workers)
        run_experiment(experiment, cfg, tmp_path / "x.csv")
        assert {(module, name) for module, name, _ in calls} == rules
        assert {kind for _, _, kind in calls} == {Nodes}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_row_ends_with_the_config_seed(tmp_path, experiment):
    # the golden outputs pin only the default seed
    cfg = small_config(seed=7, n_samples=2000, n_symbols=2000, llr_grid_points=11)
    header, *rows = run_experiment(experiment, cfg, tmp_path / "x.csv").read_text().splitlines()
    assert header.endswith(",seed")
    assert rows and all(row.endswith(",7") for row in rows)


class TestCli:
    def test_one_list_of_experiments(self):
        assert set(cli.main.commands) == set(cli._FLAG_KEYS) == set(harness._RUNNERS) == set(EXPERIMENTS)

    def test_version_reads_no_package_metadata(self):
        # src/ also runs uninstalled, where there is no package metadata to read a version from
        result = CliRunner().invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert result.output == "demap, version 0.1.0\n"

    def test_successful_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "seed: 5\nsnr_db: [10.0]\nn_samples: 2000\nllr_snr_db: [10.0]\nllr_grid_points: 11\n"
        )
        runner = CliRunner()
        out = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["llr-curves", "--config", str(cfg_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_invalid_config_exits_nonzero_with_diagnostic(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("n_samples: 10\n")
        runner = CliRunner()
        result = runner.invoke(main, ["rate-penalty", "--config", str(cfg_path)])
        assert result.exit_code != 0
        assert "n_samples" in result.output

    def test_seed_and_snr_overrides(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main,
            [
                "rate-penalty", "--seed", "3", "--snr-db", "10", "--samples", "2000",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        body = out.read_text()
        assert ",3" in body  # seed column
        assert body.splitlines()[1].startswith("10.0,")

    def test_samples_sets_symbols_for_ber_vs_rate(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("rates_sps: [1.0e8]\nmodes: [analog-mosfet]\n")
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main,
            ["ber-vs-rate", "--config", str(cfg_path), "--samples", "2000", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        bits = header.index("bits")
        assert {row[bits] for row in rows} == {"6000"}

    def test_non_positive_reference_gmi_is_not_an_error(self, tmp_path):
        out = tmp_path / "low.csv"
        result = CliRunner().invoke(
            main, ["rate-penalty", "--snr-db=-25", "--samples", "2000", "--seed", "1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert [row[header.index("penalty_pct")] for row in rows] == ["", "", "", ""]

    @pytest.mark.parametrize("snr_db", ["4000", "-4000", "-3100"])
    def test_extreme_snr_is_a_one_line_config_error(self, tmp_path, snr_db):
        result = CliRunner().invoke(main, ["rate-penalty", f"--snr-db={snr_db}", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a diagnostic, not an uncaught exception
        assert result.output.splitlines() == [f"Error: snr_db: {float(snr_db)} dB is out of range: "
                                              "|snr_db| must be at most 1000 dB"]
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "content", [b"seed: [1, 2\n", b"seed: 1\n\tn_samples: 2000\n", b"\xff\xfe"], ids=["parser", "tab", "not-utf8"]
    )
    def test_malformed_config_file_is_a_one_line_config_error(self, tmp_path, content):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        result = CliRunner().invoke(main, ["rate-penalty", "--config", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a diagnostic, not an uncaught exception
        assert len(result.output.splitlines()) == 1, result.output
        assert result.output.startswith(f"Error: config file {path}: ")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_is_a_config_error(self, source):
        # ignored, an empty out would write rate_penalty.csv in the working directory
        runner = CliRunner()
        with runner.isolated_filesystem():
            args = ["rate-penalty", "--snr-db", "10", "--samples", "2000"]
            if source == "flag":
                args += ["--out", ""]
            else:
                Path("cfg.yaml").write_text('out: ""\n')
                args += ["--config", "cfg.yaml"]
            result = runner.invoke(main, args)
            assert result.exit_code == 1
            assert result.output.startswith("Error: out: '' is neither null nor a non-empty path"), result.output
            assert list(Path().glob("*.csv*")) == []

    @pytest.mark.parametrize(
        "experiment, flag, value",
        [
            pytest.param("llr-curves", "--samples", "2000", id="llr-curves"),
            pytest.param("transitions", "--samples", "2000", id="transitions"),
            pytest.param("transitions", "--snr-db", "3", id="transitions-snr-db"),
            pytest.param("transitions", "--workers", "2", id="transitions-workers"),
            pytest.param("llr-curves", "--workers", "2", id="llr-curves-workers"),
        ],
    )
    def test_samples_rejected_where_nothing_is_sampled(self, tmp_path, experiment, flag, value):
        out = tmp_path / "x.csv"
        result = CliRunner().invoke(main, [experiment, flag, value, "--out", str(out)])
        assert result.exit_code != 0
        assert flag in result.output
        assert not out.exists()

    def test_one_snr_sets_ber_snr_db(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("rates_sps: [1.0e8]\nmodes: [analog-mosfet]\n")
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main,
            ["ber-vs-rate", "--config", str(cfg_path), "--samples", "1000", "--snr-db", "5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["config"]["ber_snr_db"] == 5.0
        assert meta["snr_db"] == 5.0

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(["rate-penalty", "--snr-db", "1,x"], "expected comma-separated numbers, got '1,x'", id="not-a-number"),
            pytest.param(["ber-vs-rate", "--snr-db", "1,2"], "ber-vs-rate takes a single --snr-db value", id="two-ber-snrs"),
        ],
    )
    def test_bad_snr_list_rejected(self, tmp_path, args, message):
        out = tmp_path / "x.csv"
        result = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert result.exit_code != 0
        assert message in result.output
        assert not out.exists()


class TestWriteCsv:
    """The segment writer against ``csv.writer`` row by row, byte for byte."""

    FIELDS = ["x", "n", "name", "flag", "opt", "mixed"]

    @staticmethod
    def assert_same_bytes(tmp_path, fieldnames, rows):
        write_csv(tmp_path / "new.csv", fieldnames, rows)
        csv_writer_write_csv(tmp_path / "old.csv", fieldnames, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @staticmethod
    def assert_same_segment_bytes(tmp_path, fieldnames, segments):
        write_csv(tmp_path / "new.csv", fieldnames, segments)
        csv_writer_write_csv(tmp_path / "old.csv", fieldnames, segment_rows(segments))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @staticmethod
    def typed_rows(n):
        rng = np.random.default_rng(n)
        mixed = [None, True, np.bool_(False), np.int64(-3), np.float32(0.1), np.float64(1e-300),
                 2.5, 7, "text", float("inf"), float("nan"), -0.0]
        return [
            {
                "x": float(rng.normal()) * 10.0 ** int(rng.integers(-20, 20)),
                "n": int(rng.integers(-(10**12), 10**12)),
                "name": ("analog-bjt", "exact")[i % 2],
                "flag": bool(i % 3),
                "opt": None if i < n // 2 else float(i) / 7.0,
                "mixed": mixed[i % len(mixed)],
            }
            for i in range(n)
        ]

    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1500])
    def test_block_edges_and_typed_columns(self, tmp_path, n):
        self.assert_same_bytes(tmp_path, self.FIELDS, self.typed_rows(n))

    def test_numpy_scalars_in_whole_columns(self, tmp_path):
        rows = [
            {"b": np.bool_(i % 2), "i": np.int32(i), "f": np.float64(i / 3.0), "g": np.float32(i / 3.0)}
            for i in range(600)
        ]
        self.assert_same_bytes(tmp_path, ["b", "i", "f", "g"], rows)

    def test_optional_float_column_across_a_block(self, tmp_path):
        # the llr-curves gamma/zeta columns: None on exact rows, floats on analog rows
        rows = [{"gamma": None if i < 700 else 1.5 + i, "zeta": None} for i in range(1300)]
        self.assert_same_bytes(tmp_path, ["gamma", "zeta"], rows)

    def test_constant_and_signed_zero_columns(self, tmp_path):
        nan = float("nan")
        rows = [
            {
                "const": 2.5,
                "zero": -0.0 if i < 512 or i % 5 == 0 else 0.0,
                "nan": nan if i < 600 else float("nan"),
                "np": np.float64(-0.0) if i >= 1024 else np.float64(3.0),
                "int": 0 if i < 512 else 7,
            }
            for i in range(1300)
        ]
        self.assert_same_bytes(tmp_path, ["const", "zero", "nan", "np", "int"], rows)

    def test_strings_that_need_quoting(self, tmp_path):
        texts = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " padded ", "plain", '"', ","]
        rows = [{"s": t, "t": "ok", "u": i} for i, t in enumerate(texts * 70)]
        self.assert_same_bytes(tmp_path, ["s", "t", "u"], rows)
        self.assert_same_bytes(tmp_path, ["with,comma", 'with"quote', "s"], rows)

    @pytest.mark.parametrize("values", [[None, 1.0, None], ["", "a", ""], [None] * 513])
    def test_single_field_table(self, tmp_path, values):
        self.assert_same_bytes(tmp_path, ["only"], [{"only": v} for v in values])
        self.assert_same_bytes(tmp_path, [""], [{"": v} for v in values])

    def test_missing_keys_and_no_fields(self, tmp_path):
        self.assert_same_bytes(tmp_path, ["a", "b"], [{"a": 1}, {}, {"b": 2.0}])
        self.assert_same_bytes(tmp_path, [], [{"a": 1}] * 3)

    def test_llr_curves_rows(self, tmp_path):
        segments, _ = run_llr_curves(Workbench.from_config(small_config(llr_snr_db=[0.0, 10.0])))
        self.assert_same_segment_bytes(tmp_path, LLR_FIELDS, segments)

    EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e-300, 5e-324, -5e-324, 1.0 / 3.0]

    def test_array_segments_with_edge_floats(self, tmp_path):
        x = np.array(self.EDGE_FLOATS)
        segments = [{"x": x, "y": x[::-1].copy(), "z": np.float32(0.1) + x.astype(np.float32)}]
        self.assert_same_segment_bytes(tmp_path, ["x", "y", "z"], segments)

    def test_arrays_mixed_with_constants_and_rows(self, tmp_path):
        x = np.array(self.EDGE_FLOATS)
        fields = ["x", "none", "name", "quoted", "n", "f", "missing"]
        segments = [
            {"x": x, "none": None, "name": "analog-bjt", "quoted": 'say "hi", twice', "n": 7, "f": -0.0},
            {"x": 2.5, "name": "row", "n": np.int64(-3), "quoted": "a\nb"},
            {"x": np.linspace(0.0, 1.0, 700), "name": "exact", "n": 0, "f": np.float64(1e-300), "none": True},
            {},
        ]
        self.assert_same_segment_bytes(tmp_path, fields, segments)
        self.assert_same_segment_bytes(tmp_path, ["with,comma", "x"], [{"x": x, "with,comma": None}])

    def test_zero_length_and_single_field_segments(self, tmp_path):
        segments = [{"x": np.array([]), "s": "gone"}, {"x": np.array([1.5, -0.0]), "s": ""}, {"s": "kept"}]
        self.assert_same_segment_bytes(tmp_path, ["x", "s"], segments)
        self.assert_same_segment_bytes(tmp_path, ["s"], segments)
        self.assert_same_segment_bytes(tmp_path, [], segments)

    def test_constant_runs_between_arrays(self, tmp_path):
        # each run of shared fields is joined once: runs at the start, between arrays and at the end
        x = np.array(self.EDGE_FLOATS)
        fields = ["a", "b", "x", "c", "y", "d", "e", "z", "f"]
        segments = [
            {"a": 1, "b": "two,2", "x": x, "c": None, "y": -x, "d": -0.0, "e": "", "z": x[::-1].copy(), "f": True},
            {"x": x, "y": x, "z": x},
            {"a": "only", "c": 3.5, "f": None, "x": np.linspace(0.0, 1.0, 9), "y": np.zeros(9), "z": np.ones(9)},
            {"a": np.float32(0.1), "x": 2.0, "y": x, "z": -x, "e": 'say "hi"'},
        ]
        self.assert_same_segment_bytes(tmp_path, fields, segments)
        self.assert_same_segment_bytes(tmp_path, ["x", "a", "b", "y"], segments)

    @pytest.mark.parametrize("fieldnames", [["x", "s"], ["s"], ["x"], []])
    def test_zero_row_segment_between_two_others(self, tmp_path, fieldnames):
        # a zero-row segment writes nothing, not even a line end
        segments = [{"x": np.array([1.5, -0.0]), "s": "before"}, {"x": np.array([]), "s": ""}, {"s": ""}]
        self.assert_same_segment_bytes(tmp_path, fieldnames, segments)
        self.assert_same_segment_bytes(tmp_path, fieldnames, [segments[2], segments[1], segments[0]])

    @pytest.mark.parametrize("values", [np.arange(3), np.array([True, False, True]), np.array([1 + 2j])])
    def test_non_float_arrays_rejected(self, tmp_path, values):
        # an int array once failed inside float.__repr__ with a bare TypeError
        with pytest.raises(ValueError, match=rf"hold floats, got 'a' of shape \({values.size},\) and dtype {values.dtype}$"):
            write_csv(tmp_path / "bad.csv", ["a"], [{"a": values}])

    @pytest.mark.parametrize(
        "segment",
        [
            {"a": np.zeros(3), "b": np.zeros(4)},
            {"a": np.zeros((2, 3))},
            {"a": np.zeros(6), "b": np.zeros((2, 3))},
            {"a": np.float64(1.0), "b": np.zeros((1, 1))},
        ],
    )
    def test_bad_array_shapes_rejected(self, tmp_path, segment):
        with pytest.raises(ValueError, match="1-d of one length"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [{"a": 1.0}, segment])

    class CountingArray(np.ndarray):
        """A float array that counts its ``tolist`` calls: one per formatting of its cells."""

        def tolist(self):
            self.tolist_calls = getattr(self, "tolist_calls", 0) + 1
            return super().tolist()

    def shared_array_table(self, case):
        x = np.array(self.EDGE_FLOATS)
        grid = np.linspace(-1.0, 1.0, 1001)
        x32 = np.float32(0.1) + x.astype(np.float32)
        empty = np.array([])
        return {
            "one array in many segments": (
                ["k", "vin_v", "llr"],
                [{"k": k, "vin_v": grid, "llr": np.sin(k * grid)} for k in range(40)],
            ),
            "one array in two fields": (["a", "b", "c"], [{"a": x, "b": -x, "c": x}, {"a": x, "b": x}]),
            "shared float32 array": (["x", "y"], [{"x": x32, "y": x}, {"x": x32, "y": 2.0 * x}]),
            "shared zero-length array": (
                ["x", "s"],
                [{"x": empty, "s": "gone"}, {"s": "row"}, {"x": empty, "s": "also gone"}, {"x": x, "s": "kept"}],
            ),
            "shared beside unshared": (
                ["shared", "own", "name"],
                [{"shared": x, "own": x[::-1].copy(), "name": "a"}, {"shared": x, "own": x * 3.0, "name": "b,c"}],
            ),
        }[case]

    @pytest.mark.parametrize(
        "case",
        [
            "one array in many segments",
            "one array in two fields",
            "shared float32 array",
            "shared zero-length array",
            "shared beside unshared",
        ],
    )
    def test_shared_arrays(self, tmp_path, case):
        fieldnames, segments = self.shared_array_table(case)
        self.assert_same_segment_bytes(tmp_path, fieldnames, segments)

    def test_each_shared_array_formatted_once(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 101).view(self.CountingArray)
        r = (2.0 * grid.view(np.ndarray)).view(self.CountingArray)
        own = [np.full(101, float(k)).view(self.CountingArray) for k in range(12)]
        segments = [{"k": k, "vin_v": grid, "r": r, "llr": own[k], "again": grid} for k in range(12)]
        self.assert_same_segment_bytes(tmp_path, ["k", "vin_v", "r", "llr", "again"], segments)
        assert grid.tolist_calls == 1
        assert r.tolist_calls == 1
        assert [a.tolist_calls for a in own] == [1] * 12
