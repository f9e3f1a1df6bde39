"""Command-line sweep runner.

Thin argparse shell over the experiments module: each flag's dest is
a config-file key, flags override the file, and every flag value is
handed to the config parser as an untouched string, so both surfaces
share one validator.  The CSV goes to --out or stdout.

Exit codes: 0 success, 1 configuration problem (unknown flag, bad
value, bad config file, an output path whose directory is missing or
that is a directory, a dB value that is not finite or whose linear
value overflows, a sweep of more than 10,000 points), found before any
point is computed, 2 a requested method failed numerically at one or
more sweep points (failures are listed on stderr and recorded in the
CSV error column).  A reader that closes stdout early ends no sweep
with a traceback; the exit code stays the one the sweep earned.
"""

import argparse
import csv
import os
import sys

from .experiments import (
    _CONFIG_KEYS,
    ConfigError,
    csv_rows,
    run_experiment,
    spec_from_sources,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that into the
    # config-error path (exit 1) instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="fsorf",
        description="Outage and DBPSK bit-error-rate sweeps for the "
                    "multi-user hybrid FSO/RF relay chain, computed "
                    "closed-form, by quadrature, and by Monte-Carlo.")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value config file")
    for key, (_, metavar, help_text) in _CONFIG_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            metavar=metavar, help=help_text)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config_text = ""
        if args.config:
            with open(args.config, encoding="utf-8") as handle:
                config_text = handle.read()
        spec = spec_from_sources(config_text, {
            key: value for key, value in vars(args).items()
            if key != "config" and value is not None})
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    points = run_experiment(spec)
    if not spec.out_path:
        try:
            csv.writer(sys.stdout, lineterminator="\n").writerows(
                csv_rows(points))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (the flush above makes that show here);
            # Python flushes stdout again at exit, so point it at devnull
            # as the SIGPIPE note of the signal module docs does
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())

    failed = [p for p in points if p.error]
    for p in failed:
        print(f"point mode={p.mode.value} N={p.n_users} M={p.m_relays} "
              f"lambda={p.lam} gamma_avg={p.gamma_avg_db}dB failed: "
              f"{p.error}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
