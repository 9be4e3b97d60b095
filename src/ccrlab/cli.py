"""Command-line entry point.

Three subcommands::

    ccrlab run --scenario <name> [--config <file>] [--out <dir>]
    ccrlab sweep --config <file> [--out <dir>]
    ccrlab validate [--seed <u64>] [--out <dir>]

Config files are JSON objects with the keys scenario, n_max, d, cutoff,
N (scalar or list), profile {kind: uniform | plateau, ...} and times;
``sweep`` takes only the reducible-limit scenario. A config states only
the physics: the acceptance bounds are fixed in ``scenarios.TOLERANCES``,
and a report's bytes do not depend on where it is written. ``run`` and
``sweep`` write their reports to ``--out``, else to ``results``;
``validate`` writes only when given ``--out``. Exit codes: 0 all assertions pass,
1 assertion failure, 2 configuration or domain error (an unwritable output
directory included), 3 brute-force size ceiling exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import ConfigError, DomainError, SizeLimitError, ValidationError
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioConfig,
    ScenarioReport,
    convergence_sweep,
    run_scenario,
    validate,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SIZE = 3
OUT_HELP = "output directory (default: results)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccrlab",
        description="Scenario runner for the mode-algebra laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one named scenario")
    p_run.add_argument("--scenario", choices=sorted(SCENARIO_NAMES),
                       help="scenario name (overrides the config file)")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--out", help=OUT_HELP)

    p_sweep = sub.add_parser("sweep", help="ensemble-size convergence sweep")
    p_sweep.add_argument("--config", help="JSON config file")
    p_sweep.add_argument("--out", help=OUT_HELP)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--seed", type=int, default=0,
                       help="seed in [0, 2**64) of the random.Random that "
                            "draws the randomized checks' test points")
    p_val.add_argument("--out", help="optional output directory")
    return parser


def _load_config(args, default_scenario: str | None = None) -> ScenarioConfig:
    scenario = getattr(args, "scenario", None)
    if args.config:
        return ScenarioConfig.from_file(args.config, scenario)
    scenario = scenario or default_scenario
    if not scenario:
        raise ConfigError("give --scenario or a --config file naming one")
    return ScenarioConfig(scenario=scenario)


def _emit(report: ScenarioReport, out_dir: str | None) -> int:
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        # a failing check says where it failed, also when no report is written
        detail = f"; {check.detail}" if check.detail and not check.passed else ""
        print(f"[{verdict}] {check.name}: measured {check.measured:.3e} "
              f"{check.comparison} {check.tolerance:.3e}{detail}")
    for row in report.skipped:
        print(f"[SKIP] {row['check']}: {row['reason']}")
    if out_dir:
        try:
            paths = report.write(out_dir)
        except OSError as exc:
            raise ConfigError(f"cannot write reports to {out_dir}: "
                              f"{exc.strerror or exc}") from None
        for kind in sorted(paths):
            print(f"wrote {paths[kind]}")
    summary = "all checks passed" if report.passed else "CHECK FAILURES"
    print(f"{report.scenario}: {summary}")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args)
            report = run_scenario(cfg)
            return _emit(report, args.out or "results")
        if args.command == "sweep":
            cfg = _load_config(args, default_scenario="reducible-limit")
            report = convergence_sweep(cfg)
            return _emit(report, args.out or "results")
        if args.command == "validate":
            report = validate(seed=args.seed)
            return _emit(report, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE


if __name__ == "__main__":
    sys.exit(main())
