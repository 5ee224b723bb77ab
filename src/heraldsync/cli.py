"""Command-line entry point.

Usage:
  heraldsync <scenario> --config <path> [--seed <u64>] [--trials <n>] [--out <dir>]

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric/domain error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, Scenario, parse_config
from .runner import SUMMARY_FILE, emit_outputs, run_scenario

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DOMAIN = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsync",
        description="Run a synchronized-source reproduction scenario.",
    )
    parser.add_argument("scenario", choices=[s.value for s in Scenario])
    parser.add_argument("--config", required=True, help="path to the key-value config file")
    parser.add_argument("--seed", type=int, help="override the config seed (unsigned 64-bit)")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--out", help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    given = {"seed": args.seed, "trials": args.trials, "output_path": args.out}
    overrides = {key: str(value) for key, value in given.items() if value is not None}

    # The handlers are the exit-code table, in order: a config error or a
    # config that is not UTF-8 (both ValueErrors) is 2, an I/O error, whose
    # text names the path, 3, and any other ValueError 4.
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        config = parse_config(text, overrides=overrides)
        if config.scenario.value != args.scenario:
            raise ConfigError(
                f"config declares scenario '{config.scenario.value}' "
                f"but '{args.scenario}' was requested"
            )
        doc, table = run_scenario(config)
        emit_outputs(doc, table, config.output_path)
    except (ConfigError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    headline = ", ".join(f"{k}={v}" for k, v in doc["metrics"].items())
    print(f"{doc['scenario']}: {headline}")
    print(f"wrote {Path(config.output_path) / SUMMARY_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
