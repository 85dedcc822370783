"""Behavioral study of an analog 8-PAM soft demapper over AWGN.

Digital exact and max-log reference demappers, a cell-level behavioral
model of the analog implementation with automatic synthesis from the
max-log piecewise-linear targets, affine calibration, information-rate
and BER evaluation, and a settling-time model for symbol-rate sweeps.
"""

__version__ = "0.1.0"

from .analog import (
    AnalogDemapper,
    CellSpec,
    build_demapper,
    cell_output_v,
    demap_static,
    synthesize_cells,
)
from .calibration import AffineMap, calibration_grid, fit_output_map, input_map
from .channel import ChannelParams, from_snr_db, transmit, worker_rng
from .constellation import Constellation, build_pam8
from .dynamics import (
    DynamicsParams,
    TransientTrace,
    ber_vs_rate,
    simulate_transient,
)
from .metrics import (
    DemapperEvaluation,
    energy_per_bit,
    evaluate_demappers,
    rate_penalty,
)
from .reference import exact_llr, maxlog_llr

__all__ = [
    "AffineMap",
    "AnalogDemapper",
    "CellSpec",
    "ChannelParams",
    "Constellation",
    "DemapperEvaluation",
    "DynamicsParams",
    "TransientTrace",
    "ber_vs_rate",
    "build_demapper",
    "build_pam8",
    "calibration_grid",
    "cell_output_v",
    "demap_static",
    "energy_per_bit",
    "evaluate_demappers",
    "exact_llr",
    "fit_output_map",
    "from_snr_db",
    "input_map",
    "maxlog_llr",
    "rate_penalty",
    "simulate_transient",
    "synthesize_cells",
    "transmit",
    "worker_rng",
]
