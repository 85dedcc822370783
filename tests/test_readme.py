"""The README matches the code: its config example and library sketch work
as written, and its CLI flag table, SNR range and input-window bound are
the ones enforced."""

import re
from pathlib import Path

import numpy as np
import pytest

from demapsim import cli
from demapsim.channel import from_snr_db
from demapsim.harness import EXPERIMENTS, INPUT_WINDOW_MIN_V, N_WORKERS_MAX, ConfigError, load_config, validate_config

README = (Path(__file__).parent.parent / "README.md").read_text()


def readme_block(lang: str) -> str:
    (body,) = re.findall(rf"^```{lang}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    return body


def test_config_example_validates(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(readme_block("yaml"))
    cfg = load_config(path)
    for experiment in EXPERIMENTS:
        validate_config(cfg, experiment)


def test_library_sketch_runs():
    exec(readme_block("python"), {})


def test_flag_table_matches_the_cli():
    # one row per flag, one column per experiment: the key the flag sets there, or "rejected"
    header, *rows = (
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in README.splitlines()
        if line.startswith(("| flag ", "| `--"))
    )
    experiments = [cell.strip("`") for cell in header[1:]]
    assert experiments == list(cli._FLAG_KEYS)
    table = {}
    for flag, *cells in rows:
        for experiment, cell in zip(experiments, cells, strict=True):
            match = re.fullmatch(r"`(\w+)`( \(.+\))?|rejected", cell)
            assert match, f"{flag} {experiment}: {cell!r}"
            table[flag.strip("`"), experiment] = match.group(1)
    flags = {flag for keys in cli._FLAG_KEYS.values() for flag in keys}
    assert table == {(flag, experiment): cli._FLAG_KEYS[experiment].get(flag) for flag in flags for experiment in experiments}


def test_stated_worker_range_is_the_enforced_bound():
    ((low, high),) = re.findall(r"`--workers`\s+value\s+from\s+(\d+)\s+to\s+(\d+)\.", README)
    assert (int(low), int(high)) == (1, N_WORKERS_MAX)


def test_stated_snr_range_is_the_enforced_bound():
    ((low, high),) = re.findall(r"lies\s+in\s+\[(-?[\d.]+),\s*(-?[\d.]+)\]\s+dB", README)
    low, high = float(low), float(high)
    assert from_snr_db(low).snr_db == low and from_snr_db(high).snr_db == high
    for outside in (np.nextafter(low, -np.inf), np.nextafter(high, np.inf)):
        with pytest.raises(ValueError, match="out of range"):
            from_snr_db(outside)


def test_stated_window_width_is_the_enforced_bound():
    (width,) = re.findall(r"window\s+is\s+at\s+least\s+([\d.e+-]+)\s+V\s+wide", README)
    assert float(width) == INPUT_WINDOW_MIN_V
    vmin = 0.3
    validate_config(load_config(overrides={"input_window_v": [vmin, vmin + INPUT_WINDOW_MIN_V]}), "llr-curves")
    narrower = np.nextafter(vmin + INPUT_WINDOW_MIN_V, -np.inf)
    with pytest.raises(ConfigError, match="input_window_v: .* is narrower than"):
        validate_config(load_config(overrides={"input_window_v": [vmin, narrower]}), "llr-curves")
