"""Command-line front end.

Subcommands:

* ``simulate --config FILE``          -- run a Monte Carlo experiment
* ``theory d --y --lambda --delta2``  -- determinant-rule asymptotics
* ``theory t --config FILE``          -- trace-rule asymptotics per variant
* ``classify ...``                    -- fit/evaluate on real CSV data
* ``reproduce TARGET``                -- rerun a published experiment grid

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import io as dtio
from .errors import NumericalError, ValidationError
from .harness import (
    DATASET_CLASSIFIER_IDS,
    classify_dataset,
    run_experiment,
    trace_inputs,
)
from .data import ingest_csv
from .reproduce import TARGETS, reproduce
from .theory import (
    FULL_VARIANCE_KINDS,
    VARIANCE_VARIANTS,
    TheoryInputsD,
    normal_cdf,
    t_misclass,
    t_variance,
    tau,
    theta1,
    theta2,
)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors, per our contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def formats(raw: str) -> tuple[str, ...]:
    """``--formats``: a comma-separated subset of the output formats."""
    items = dtio._list(raw)
    bad = set(items) - set(dtio.OUTPUT_FORMATS)
    if bad:
        raise argparse.ArgumentTypeError(f"unknown format(s) {sorted(bad)}")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dtclassify",
                     description="Determinant/trace two-group classification "
                                 "experiments")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a configured experiment")
    sim.add_argument("--config", required=True)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", default=None, help="output directory "
                     f"(default: [output].directory, then "
                     f"${dtio.ENV_OUTPUT_DIR}, then cwd)")
    sim.add_argument("--formats", type=formats, default=None,
                     help="comma-separated subset of "
                     f"{','.join(dtio.OUTPUT_FORMATS)}")
    sim.add_argument("--id", dest="experiment_id", default="experiment")

    theory = sub.add_parser("theory", help="print asymptotic predictions")
    tsub = theory.add_subparsers(dest="rule", required=True,
                                 parser_class=_Parser)
    td = tsub.add_parser("d", help="determinant-rule limit")
    td.add_argument("--y", type=float, required=True)
    td.add_argument("--lambda", dest="lam", type=float, required=True)
    td.add_argument("--delta2", type=float, required=True)
    tt = tsub.add_parser("t", help="trace-rule limit from a config file")
    tt.add_argument("--config", required=True)
    tt.add_argument("--variant", choices=VARIANCE_VARIANTS + ("all",),
                    default="all")

    cls = sub.add_parser("classify", help="train/test on labeled CSV data")
    cls.add_argument("--train", required=True)
    cls.add_argument("--train-labels", default=None)
    cls.add_argument("--test", required=True)
    cls.add_argument("--test-labels", default=None)
    cls.add_argument("--label-column", default=None)
    cls.add_argument("--classifier", action="append", default=None,
                     choices=DATASET_CLASSIFIER_IDS,
                     help="repeatable; default: t")
    cls.add_argument("--positive-label", default=None,
                     help="label treated as group 1 (default: first seen)")

    rep = sub.add_parser("reproduce", help="rerun a published grid")
    rep.add_argument("target", choices=TARGETS)
    rep.add_argument("--scale", type=float, default=1.0)
    rep.add_argument("--reps", type=int, default=None,
                     help="override the table replication count")
    rep.add_argument("--out", default=None)
    rep.add_argument("--workers", type=int, default=1)
    rep.add_argument("--seed", type=int, default=20240901)
    return parser


def _cmd_simulate(args) -> int:
    config = dtio.parse_config(args.config)
    options = dtio.parse_output_options(args.config, override_dir=args.out,
                                        override_formats=args.formats)
    result = run_experiment(config, workers=args.workers)
    written = dtio.emit_results(result, options.formats, options.directory,
                                experiment_id=args.experiment_id)
    for clf, r in result.classifiers.items():
        theory = ("" if r.theory_pred_pct is None
                  else f"  theory={r.theory_pred_pct:.2f}%")
        print(f"{clf}: median={r.median_error_pct:.2f}%  "
              f"se={r.se_pct:.2f}{theory}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_theory_d(args) -> int:
    inputs = TheoryInputsD(args.y, args.lam, args.delta2)
    t1 = theta1(inputs)
    t2 = theta2(args.y, args.delta2)
    print(f"theta1 = {t1:.6f}")
    print(f"Phi(theta1) = {normal_cdf(t1):.6f}")
    print(f"theta2 = {t2:.6f}")
    print(f"Phi(theta2) = {normal_cdf(t2):.6f}")
    if args.delta2 > 0:
        print(f"tau = {tau(inputs):.6f}")
    return 0


def _cmd_theory_t(args) -> int:
    config = dtio.parse_config(args.config)
    inputs = trace_inputs(config)
    variants = (VARIANCE_VARIANTS if args.variant == "all"
                else (args.variant,))
    for variant in variants:
        if variant == "full" and config.covariance.kind not in \
                FULL_VARIANCE_KINDS:
            print("full: requires a diagonal covariance; skipped")
            continue
        var = t_variance(inputs, variant)
        prob = t_misclass(inputs, variant)
        print(f"{variant}: B_p^2 = {var:.6f}  misclass = {prob:.6f}")
    return 0


def _cmd_classify(args) -> int:
    classifiers = tuple(args.classifier) if args.classifier else ("t",)
    train = ingest_csv(args.train, labels_path=args.train_labels,
                       label_column=args.label_column,
                       positive_label=args.positive_label)
    test = ingest_csv(args.test, labels_path=args.test_labels,
                      label_column=args.label_column,
                      positive_label=args.positive_label)
    results = classify_dataset(train, test, classifiers)
    print("classifier,train_errors,test_errors,n_features")
    for clf, r in results.items():
        print(f"{clf},{r.train_errors},{r.test_errors},{r.n_features}")
    return 0


def _cmd_reproduce(args) -> int:
    report = reproduce(args.target, scale=args.scale, table_reps=args.reps,
                       workers=args.workers, master_seed=args.seed)
    if args.out:
        path = dtio.emit_report(report, args.out)
        print(f"wrote {path}")
    else:
        print("\n".join(dtio.csv_lines(report.rows)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "theory":
            return _cmd_theory_d(args) if args.rule == "d" else \
                _cmd_theory_t(args)
        if args.command == "classify":
            return _cmd_classify(args)
        return _cmd_reproduce(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
