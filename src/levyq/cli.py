"""Command-line front end.

Three subcommands mirror the harness entry points:

* ``levyq mc-table --config FILE --out table.csv``
* ``levyq estimate-chain --chain chain.csv --config FILE --out DIR``
* ``levyq demo-direct --config FILE --out report.json``

Exit codes: 0 on success, 2 for input problems (bad config, malformed
chain file, invalid arguments, a chain or output file that cannot be
read or written), 3 for numerical failures during estimation.  Error
messages go to stderr.  mc-table excludes a failed replication cell from
the averages and lists it on stderr; when no cell of the run is clean it
writes no table and exits 3, as estimate-chain does for its one chain.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InputError, LevyqError, NumericalError
from .harness import demo_direct, estimate_chain, load_config, run_mc_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyq",
        description="Quantile estimation for the jump measure of an "
                    "exponential Levy model, from option chains or "
                    "simulated increments.")
    sub = parser.add_subparsers(dest="command", required=True)

    mc = sub.add_parser(
        "mc-table",
        help="Monte Carlo RMSE table over replicated synthetic chains")
    mc.add_argument("--config", required=True, help="key = value config file")
    mc.add_argument("--out", required=True, help="output CSV path")

    chain = sub.add_parser(
        "estimate-chain",
        help="adaptive quantile curves for one observed option chain")
    chain.add_argument("--chain", required=True, help="chain CSV path")
    chain.add_argument("--config", required=True,
                       help="key = value config file")
    chain.add_argument("--out", required=True,
                       help="output directory (report.json + plot CSVs)")

    demo = sub.add_parser(
        "demo-direct",
        help="fixed-bandwidth estimation from simulated increments")
    demo.add_argument("--config", required=True,
                      help="key = value config file")
    demo.add_argument("--out", required=True, help="output JSON path")
    return parser


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"  # the C encoder


def _run_mc_table(args) -> None:
    table = run_mc_table(load_config(args.config))
    out = Path(args.out)
    cells = table.replications * 2 * len(table.rows)
    summary = (f"{len(table.rows)} levels, {cells - table.failures} of "
               f"{cells} replication cells clean, {table.failures} failures, "
               f"{table.grid.points} spectral points")
    for message in table.failure_log:
        print(f"  excluded: {message}", file=sys.stderr)
    if table.failures == cells:
        raise NumericalError(f"no replication cell is clean ({summary}); "
                             f"{out} not written")
    out.write_text(table.to_csv(), encoding="utf-8")
    print(f"wrote {out} ({summary})")


def _run_estimate_chain(args) -> None:
    config = load_config(args.config)
    report, plots = estimate_chain(args.chain, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(_json_text(report), encoding="utf-8")
    for key, text in plots.items():
        (out_dir / f"quantiles_{key}.csv").write_text(text, encoding="utf-8")
    print(f"wrote {out_dir}/report.json and quantile curves for "
          f"{len(report['taus'])} levels "
          f"(n={report['n']}, grid_feasible={report['grid_feasible']})")


def _run_demo_direct(args) -> None:
    config = load_config(args.config)
    report = demo_direct(config)
    out = Path(args.out)
    out.write_text(_json_text(report), encoding="utf-8")
    with_truth = sum(1 for row in report["results"]
                     if row["truth"] is not None)
    print(f"wrote {out} ({len(report['results'])} estimates, "
          f"{with_truth} with closed-form truth, n={report['n']})")


_DISPATCH = {
    "mc-table": _run_mc_table,
    "estimate-chain": _run_estimate_chain,
    "demo-direct": _run_demo_direct,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except (InputError, OSError) as exc:
        # OSError: a chain file or --out path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevyqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
