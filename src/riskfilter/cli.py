"""Command-line entry point.

    riskfilter COMMAND [--config PATH] [--seed N] [--out DIR]

COMMAND is one of train-value, run, sweep-beta, sweep-xi, certify.
--seed and --out override the corresponding config settings; with no
--out and no config setting, the RISKFILTER_OUT environment variable
(then ./out) is used.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .config import config_with, parse_config
from .errors import ConfigError
from .experiments import COMMANDS, run_experiment


@click.command()
@click.argument("command", type=click.Choice(COMMANDS))
@click.option("--config", "config_path", default="", help="Configuration file path.")
@click.option("--seed", default=None, type=int, help="Override the base seed.")
@click.option("--out", default="", help="Override the output directory.")
def cli(command: str, config_path: str, seed: int | None, out: str) -> int:
    cfg = parse_config(Path(config_path) if config_path else "")
    if seed is not None:
        cfg = config_with(cfg, seed=seed)
    if out:
        cfg = config_with(cfg, out=out)
    return run_experiment(cfg, command)


def main() -> None:
    try:
        code = cli.main(standalone_mode=False)
    except ConfigError as exc:
        print(f"configuration error [{exc.code}]: {exc}", file=sys.stderr)
        code = 1
    except click.ClickException as exc:
        exc.show()
        code = 1
    except click.exceptions.Abort:
        code = 1
    sys.exit(code if isinstance(code, int) else 0)


if __name__ == "__main__":
    main()
