"""Command-line sweep runner.

Thin argparse shell over the experiments module: each flag's dest is
a config-file key, flags override the file, and every flag value is
handed to the config parser as an untouched string, so both surfaces
share one validator.  The CSV goes to --out or stdout.

Exit codes: 0 success, 1 configuration problem (unknown flag, bad
value, bad config file, missing output directory), found before any
point is computed, 2 a requested method failed numerically at one or
more sweep points (failures are listed on stderr and recorded in the
CSV error column).
"""

import argparse
import csv
import sys

from .experiments import (
    ConfigError,
    csv_rows,
    run_experiment,
    spec_from_sources,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that into the
    # config-error path (exit 1) instead
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="fsorf",
        description="Outage and DBPSK bit-error-rate sweeps for the "
                    "multi-user hybrid FSO/RF relay chain, computed "
                    "closed-form, by quadrature, and by Monte-Carlo.")
    parser.add_argument("--preset", metavar="NAME",
                        help="start from a named parameter set: fig1, "
                             "fig2, fig3 or custom")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value config file")
    parser.add_argument("--metric", metavar="NAME",
                        help="outage or ber")
    parser.add_argument("--mode", metavar="NAME",
                        help="first-segment relaying mode: known-csi, "
                             "unknown-csi or both")
    parser.add_argument("--users", metavar="N[,N...]",
                        help="user count, or comma list to sweep")
    parser.add_argument("--relays", metavar="M[,M...]",
                        help="relay count, or comma list to sweep")
    parser.add_argument("--xi", metavar="XI",
                        help="pointing-error severity")
    parser.add_argument("--lambda", dest="lambda", metavar="L[,L...]",
                        help="turbulence rate, or comma list to sweep")
    parser.add_argument("--gamma-th-db", metavar="DB",
                        help="outage threshold SNR in dB")
    parser.add_argument("--gamma-avg-db", metavar="START:STEP:STOP",
                        help="average SNR axis in dB (or one value)")
    parser.add_argument("--methods", metavar="LIST",
                        help="comma subset of closed-form, quadrature, "
                             "monte-carlo")
    parser.add_argument("--trials", metavar="COUNT",
                        help="Monte-Carlo trials (or bits)")
    parser.add_argument("--seed", metavar="SEED")
    parser.add_argument("--workers", metavar="COUNT")
    parser.add_argument("--out", metavar="PATH",
                        help="CSV destination (stdout when omitted)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    config_text = ""
    if args.config:
        try:
            with open(args.config) as handle:
                config_text = handle.read()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1

    overrides = {key: value for key, value in vars(args).items()
                 if key != "config" and value is not None}
    try:
        spec = spec_from_sources(config_text, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    points = run_experiment(spec)
    if not spec.out_path:
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            csv_rows(points))

    failed = [p for p in points if p.error]
    for p in failed:
        print(f"point mode={p.mode.value} N={p.n_users} M={p.m_relays} "
              f"lambda={p.lam} gamma_avg={p.gamma_avg_db}dB failed: "
              f"{p.error}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
