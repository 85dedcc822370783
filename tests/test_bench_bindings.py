"""Every function the benchmark traces still exists under its name.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``TRACED`` table by name, so a renamed or deleted function would
silently drop out of the benchmark's per-layer figures.  The file is
loaded by its path, so a bare ``pytest`` needs no ``perfbench`` import.
The nesting of the analog layers is checked too: ``demap_static`` must
reach each cell through the ``cell_output_v`` module attribute.  So is
what the ``dynamics.sampled_outputs.symbols`` count reads: the size of
the first argument, one value per symbol of a settling chunk.  And the
Monte Carlo runners must reach ``evaluate_demappers`` through the
``harness`` module binding, which the tracer replaces.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return [entry[:2] for entry in module.TRACED]


@pytest.mark.parametrize("mod_name, attr", _traced(), ids=lambda name: name)
def test_traced_binding_is_callable(mod_name, attr):
    owner = importlib.import_module(f"demapsim.{mod_name}")
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner)


def test_demap_static_calls_cell_output_v_once_per_cell(monkeypatch):
    # the tracer times analog.cell_output_v as its own layer under
    # analog.demap_static; an inlined cell loop would drop that layer
    from demapsim import analog
    from demapsim.calibration import input_map
    from demapsim.constellation import build_pam8

    c = build_pam8()
    d = analog.build_demapper(c, input_map(c, 0.04, 0.60), "analog-mosfet")
    calls = []
    original = analog.cell_output_v

    def counting(vin, cell):
        calls.append(cell)
        return original(vin, cell)

    monkeypatch.setattr(analog, "cell_output_v", counting)
    vin = np.linspace(d.vin_min, d.vin_max, 101)
    for k in (1, 2, 3):
        calls.clear()
        for v in (vin, vin[::-1], float(vin[50])):
            analog.demap_static(v, d, k)
        assert calls == 3 * list(d.cells_for_bit(k))


def test_ber_vs_rate_calls_sampled_outputs_once_per_mode_bit_and_chunk(monkeypatch):
    # the tracer counts dynamics.sampled_outputs.symbols as np.size(args[0]),
    # so its first argument must hold one value per symbol of the chunk
    from demapsim import analog, dynamics
    from demapsim.calibration import AffineMap, input_map
    from demapsim.constellation import build_pam8

    c = build_pam8()
    imap = input_map(c, 0.04, 0.60)
    maps = {k: AffineMap(scale=1.0, offset=-1.0) for k in (1, 2, 3)}
    sweeps = {
        mode: (analog.build_demapper(c, imap, mode), maps, dynamics.DynamicsParams.for_mode(mode))
        for mode in ("analog-bjt", "analog-mosfet")
    }
    sizes = []
    original = dynamics.sampled_outputs

    def counting(*args):
        sizes.append(int(np.size(args[0])))
        return original(*args)

    monkeypatch.setattr(dynamics, "sampled_outputs", counting)
    n_symbols = dynamics.SETTLED_CHUNK_SYMBOLS + 100  # one full chunk and a short one
    dynamics.ber_vs_rate([1e8, 3e8], 10.0, sweeps, n_symbols, 1, c)
    per_chunk = [dynamics.SETTLED_CHUNK_SYMBOLS] * 6 + [100] * 6  # 2 modes x 3 bits per chunk
    assert sizes == per_chunk * 2  # per rate


def test_mc_runners_call_evaluate_demappers_through_the_harness_binding(monkeypatch, tmp_path):
    # the tracer times metrics.evaluate_demappers by rebinding harness.evaluate_demappers;
    # a runner that reached it another way would drop that layer
    from demapsim import harness

    calls = []
    original = harness.evaluate_demappers

    def counting(*args, **kwargs):
        calls.append(kwargs["stream"])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_demappers", counting)
    overrides = {"snr_db": [0.0, 10.0], "n_samples": 2000, "n_symbols": 2000, "rates_sps": [1e8, 3e8]}
    for experiment, streams in (("rate-penalty", [0, 1]), ("ber-vs-rate", [2])):
        calls.clear()
        harness.run_experiment(experiment, harness.load_config(overrides=overrides), tmp_path / "x.csv")
        assert calls == streams
