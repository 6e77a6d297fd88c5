"""Command-line entry point.

    riskfilter COMMAND [--config PATH] [--seed N] [--out DIR]

COMMAND is one of train-value, run, sweep-beta, sweep-xi, certify.
--seed and --out override the corresponding config settings; with no
--out and no config setting, the RISKFILTER_OUT environment variable
(then ./out) is used.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import config_with, parse_config
from .errors import ConfigError
from .experiments import COMMANDS, run_experiment


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``ConfigError("syntax", ...)``, so it exits 1 with
    one line; argparse's own exit 2 is the missing-model-file code."""

    def error(self, message):
        raise ConfigError("syntax", message)


def main() -> None:
    parser = _Parser(prog="riskfilter", allow_abbrev=False)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default="", help="Configuration file path.")
    parser.add_argument("--seed", type=int, help="Override the base seed.")
    parser.add_argument("--out", default="", help="Override the output directory.")
    try:
        args = parser.parse_args()
        cfg = parse_config(Path(args.config) if args.config else "")
        if args.seed is not None:
            cfg = config_with(cfg, seed=args.seed)
        if args.out:
            cfg = config_with(cfg, out=args.out)
        code = run_experiment(cfg, args.command)
    except ConfigError as exc:
        print(f"configuration error [{exc.code}]: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
