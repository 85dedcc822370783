"""Command line entry point: ``demap <experiment> [options]``.

Precedence for every setting: built-in defaults, then the config file,
then command line flags.  Exit code 0 on success; configuration and
numerical failures exit nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import click

from . import __version__
from .harness import ConfigError, load_config, run_experiment


def _parse_snr_list(_ctx, _param, value):
    if value is None:
        return None
    try:
        return [float(x) for x in value.replace(",", " ").split()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}") from None


@click.group()
@click.version_option(__version__, prog_name="demap")  # not from package metadata: src/ may run uninstalled
def main():
    """Analog 8-PAM demapper experiments.

    Each subcommand reproduces one study as a CSV table with an
    adjacent .meta.json capturing the full configuration.
    """


# the config key each flag sets, per experiment; every experiment reads
# --seed and --out, and a flag missing here would change nothing
_FLAG_KEYS = {
    "llr-curves": {"--snr-db": "llr_snr_db"},
    "rate-penalty": {"--snr-db": "snr_db", "--workers": "n_workers", "--samples": "n_samples"},
    "ber-vs-rate": {"--snr-db": "ber_snr_db", "--workers": "n_workers", "--samples": "n_symbols"},
    "transitions": {},
}


def _experiment_command(experiment: str, help_text: str):
    @main.command(name=experiment, help=help_text)
    @click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
                  help="YAML config file; omitted fields use built-in defaults.")
    @click.option("--seed", type=int, default=None, help="Master seed override.")
    @click.option("--snr-db", callback=_parse_snr_list, default=None,
                  help="Comma-separated SNR list override (dB).")
    @click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
                  help="Output CSV path override.")
    @click.option("--workers", type=int, default=None, help="Worker count override.")
    @click.option("--samples", type=int, default=None,
                  help="Monte Carlo sample count override (symbols per rate for ber-vs-rate).")
    def command(config_path, seed, snr_db, out_path, workers, samples):
        overrides = {"seed": seed, "out": out_path}
        for flag, value in (("--snr-db", snr_db), ("--workers", workers), ("--samples", samples)):
            if value is None:
                continue
            key = _FLAG_KEYS[experiment].get(flag)
            if key is None:
                raise click.ClickException(f"{flag} does not apply to {experiment}")
            if key == "ber_snr_db":  # one SNR, not a list
                if len(value) != 1:
                    raise click.ClickException("ber-vs-rate takes a single --snr-db value")
                value = value[0]
            overrides[key] = value
        try:
            cfg = load_config(config_path, overrides)
            path = run_experiment(experiment, cfg)
        except (ConfigError, ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
        click.echo(f"wrote {path} and {path}.meta.json")

    return command


_experiment_command("llr-curves", "Calibrated LLR curves over the input window (one row per mode, bit and grid point).")
_experiment_command("rate-penalty", "GMI, rate penalty and BER per SNR for every configured demapper.")
_experiment_command("ber-vs-rate", "Settling-limited BER over symbol rate, with a static exact reference row.")
_experiment_command("transitions", "Canonical settling traces for the two benchmark symbol transitions.")


if __name__ == "__main__":
    main()
