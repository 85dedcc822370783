"""Command line entry point: ``demap <experiment> [options]``.

Precedence for every setting: built-in defaults, then the config file,
then command line flags.  Exit code 0 on success; configuration and
numerical failures exit nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import click

from .harness import ConfigError, load_config, run_experiment


def _parse_snr_list(_ctx, _param, value):
    if value is None:
        return None
    try:
        return [float(x) for x in value.replace(",", " ").split()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}") from None


@click.group()
@click.version_option()
def main():
    """Analog 8-PAM demapper experiments.

    Each subcommand reproduces one study as a CSV table with an
    adjacent .meta.json capturing the full configuration.
    """


# config key that --samples sets, per experiment that draws samples
_SAMPLES_KEY = {"rate-penalty": "n_samples", "ber-vs-rate": "n_symbols"}


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
        overrides = {"seed": seed, "n_workers": workers, "out": out_path}
        if samples is not None:
            if experiment not in _SAMPLES_KEY:
                raise click.ClickException(f"--samples: {experiment} draws no Monte Carlo samples")
            overrides[_SAMPLES_KEY[experiment]] = samples
        if snr_db is not None:
            overrides["snr_db"] = snr_db
            if experiment == "llr-curves":
                overrides["llr_snr_db"] = snr_db
            if experiment == "ber-vs-rate":
                if len(snr_db) != 1:
                    raise click.ClickException("ber-vs-rate takes a single --snr-db value")
                overrides["ber_snr_db"] = snr_db[0]
        try:
            cfg = load_config(config_path, overrides)
            path = run_experiment(experiment, cfg, out_path)
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
