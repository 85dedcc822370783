"""Benchmark workloads: generated experiment configs and their work counts.

Every workload is a list of ``(experiment, overrides)`` steps that are
resolved through ``demapsim.harness.load_config`` and run one after the
other with ``run_experiment``.  The workload seed reaches the program
only as the config ``seed``.  Sizes are chosen so one pass takes about
3-5 s on a 2-core Xeon, which lets a 50 s run average over about ten
passes.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 12345  # the program's own default; golden outputs use it

ALL_MODES = ["exact", "maxlog", "analog-bjt", "analog-mosfet"]
ANALOG_MODES = ["analog-bjt", "analog-mosfet"]

# Five points over the paper's -2..16 dB range; two default-size chunks
# (2 x 65536) per SNR, so the 2-worker runner has work for both threads.
MC_SNR_DB = [-2.0, 2.5, 7.0, 11.5, 16.0]
MC_SAMPLES = 131_072
SETTLING_SYMBOLS = 32_768  # two 1<<14 settling chunks per rate
# Every 3 dB over -2..16 dB, so the CSV writing weighs about as much as
# the settling loop in one pass.
FIGURES_SNR_DB = [float(s) for s in range(-2, 17, 3)]
FIGURES_GRID_POINTS = 1001


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[str, dict], ...]

    def configs(self, seed: int) -> list[tuple[str, dict]]:
        """(experiment, overrides) per step with the workload seed set."""
        return [(exp, {**overrides, "seed": int(seed)}) for exp, overrides in self.steps]


def work(experiment: str, cfg: dict, rows: int) -> int:
    """Work items of one experiment run, for ``work_per_s``.

    MC samples x SNRs x modes for rate-penalty, symbols x rates x analog
    modes for ber-vs-rate, and CSV rows for the deterministic studies.
    """
    if experiment == "rate-penalty":
        return cfg["n_samples"] * len(cfg["snr_db"]) * len(cfg["modes"])
    if experiment == "ber-vs-rate":
        n_analog = sum(1 for m in cfg["modes"] if m in ANALOG_MODES)
        return cfg["n_symbols"] * len(cfg["rates_sps"]) * n_analog
    return rows


_MC = {"snr_db": MC_SNR_DB, "modes": ALL_MODES, "n_samples": MC_SAMPLES, "n_workers": 1}

WORKLOADS = {
    w.name: w
    for w in (
        # The same inputs on 1 and then 2 worker threads: the second step
        # is what measures the chunked thread-pool runner.
        Workload("mc-gmi", (("rate-penalty", _MC), ("rate-penalty", {**_MC, "n_workers": 2}))),
        Workload(
            "settling-figures",
            (
                ("ber-vs-rate", {"modes": ANALOG_MODES, "n_symbols": SETTLING_SYMBOLS, "n_workers": 1}),
                ("llr-curves", {"llr_snr_db": FIGURES_SNR_DB, "llr_grid_points": FIGURES_GRID_POINTS}),
                ("transitions", {}),
            ),
        ),
    )
}
