"""Command-line entry point.

Subcommands: generate, train, attack, sweep, bounds, plot, report.
Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 sweep finished with failed cells.  Every command accepts ``--seed`` and
``--out``; the worker-pool default can be set via the ``MIALAB_WORKERS``
environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import attacks, datagen, divergence, harness, linear_models, metrics, svgplot
from .errors import MialabError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _score_kinds(names: list[str]) -> tuple[attacks.ScoreKind, ...]:
    out = []
    for name in names:
        try:
            out.append(attacks.ScoreKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in attacks.ScoreKind)
            raise ValidationError(f"unknown score kind {name!r} (choose from {valid})")
    return tuple(out)


def _cmd_generate(args) -> int:
    params = datagen.GenParams(
        d=args.d, n_train=args.n, n_test=max(args.n, 2), mu=args.mu, seed=args.seed,
        sigma=args.sigma, sigma_noise=args.sigma_noise, w=args.w,
        epsilon=args.epsilon, tau_mult=args.tau_mult,
    )
    data = datagen.generate_dataset(params, args.split)
    datagen.write_csv(data, args.out)
    print(f"wrote {data.n} rows x {data.d} columns to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    data = datagen.read_csv(args.data)
    if args.model == "logistic":
        model = linear_models.fit_logistic(data, tol=args.tol, max_iter=args.max_iter)
        print(f"logistic: converged={model.converged} iterations={model.iterations}")
    else:
        model = linear_models.fit_lda(data)
        print(f"lda: shrinkage_intensity={model.shrinkage_intensity:.6f}")
    with open(args.out, "w", newline="\n") as fh:
        fh.write(linear_models.serialize_model(model))
    print(f"train accuracy: {linear_models.accuracy(model, data):.6f}")
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _attack_scores(model, member, nonmember, kind, seed):
    if kind in (attacks.ScoreKind.GBM_PROBS, attacks.ScoreKind.GBM_LOGITS):
        interface = "probs" if kind is attacks.ScoreKind.GBM_PROBS else "logits"
        return attacks.run_gbm_attack(model, member, nonmember,
                                      interface=interface, split_seed=seed)
    if kind is attacks.ScoreKind.LDA_LOG_JOINT:
        if not isinstance(model, linear_models.LdaModel):
            raise ValidationError("lda_log_joint requires an lda model")
        member_scores = linear_models.lda_log_joints(model, member.features).max(axis=1)
        nonmember_scores = linear_models.lda_log_joints(model, nonmember.features).max(axis=1)
    else:
        p_member = linear_models.posteriors(model, member.features)
        p_nonmember = linear_models.posteriors(model, nonmember.features)
        member_scores = attacks.threshold_scores(
            kind, p_member, attacks.label_indices(member.labels))
        nonmember_scores = attacks.threshold_scores(
            kind, p_nonmember, attacks.label_indices(nonmember.labels))
    return attacks.AttackScores(
        member_scores=np.asarray(member_scores),
        nonmember_scores=np.asarray(nonmember_scores),
        kind=kind, orientation=kind.orientation,
    )


def _cmd_attack(args) -> int:
    with open(args.model_file) as fh:
        model = linear_models.deserialize_model(fh.read())
    member = datagen.read_csv(args.member)
    nonmember = datagen.read_csv(args.nonmember)
    for side, data in (("member", member), ("nonmember", nonmember)):
        if data.d != model.d:
            raise ValidationError(f"model has d={model.d} but {side} data has d={data.d}")
    all_rows = []
    for kind in _score_kinds(args.scores):
        scores = _attack_scores(model, member, nonmember, kind, args.seed)
        result = metrics.attack_result(scores)
        print(f"{kind.value}: auroc={result.auroc:.6f} advantage={result.advantage:.6f}")
        for side, arr in (("member", scores.member_scores),
                          ("nonmember", scores.nonmember_scores)):
            all_rows.extend({"side": side, "score": v, "kind": kind.value} for v in arr)
    metrics.write_table(args.out, ("side", "score", "kind"), all_rows, float_format=".9g")
    print(f"wrote scores to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = harness.load_sweep_config(args.config) if args.config else harness.SweepGrid()
    kinds = _score_kinds(args.scores)
    table = harness.run_sweep(grid, kinds, workers=args.workers, base_seed=args.seed)
    metrics.write_results_csv(table.rows, args.out)
    metrics.write_table(args.summary_out, harness.SUMMARY_COLUMNS, harness.summarize(table))
    print(f"wrote {len(table.rows)} result rows to {args.out}")
    print(f"wrote summary to {args.summary_out}")
    if table.failures:
        for failure in table.failures:
            print(f"cell failed: {failure}", file=sys.stderr)
        print(f"failed cells: {len(table.failures)}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_bounds(args) -> int:
    reports, violations = divergence.certify_bounds(
        args.trials, args.x, args.y, seed=args.seed)
    columns = tuple(f.name for f in dataclasses.fields(divergence.BoundsReport))
    metrics.write_table(args.out, columns, map(dataclasses.asdict, reports),
                        float_format=".12g")
    print(f"wrote {len(reports)} instances to {args.out}")
    print(f"violations: {violations}")
    return EXIT_OK if violations == 0 else EXIT_DATA


def _cmd_plot(args) -> int:
    rows = metrics.read_results_csv(args.results)
    paths = svgplot.render_sweep_figures(rows, args.out, prefix=args.prefix)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = metrics.read_results_csv(args.results)
    table = harness.SweepTable(rows=rows)
    metrics.write_table(args.out, harness.REPORT_COLUMNS, harness.privacy_utility_report(table))
    print(f"wrote privacy-utility report to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mialab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, out_default=None):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        if out_default is None:
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", default=out_default,
                           help=f"output path (default {out_default})")

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("--d", type=int, required=True, help="total dimensionality")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--mu", type=float, required=True, help="core mean shift")
    p.add_argument("--sigma", type=float, default=0.15, help="core std (default 0.15)")
    p.add_argument("--sigma-noise", type=float, default=1.0,
                   help="noise std (default 1.0)")
    p.add_argument("--w", type=float, default=0.5, help="P(y=+1) (default 0.5)")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="contamination probability (default 0)")
    p.add_argument("--tau-mult", type=float, default=10.0,
                   help="contamination scale multiplier (default 10)")
    p.add_argument("--split", choices=("train", "test"), default="train")
    add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit a classifier on a dataset CSV")
    p.add_argument("--model", choices=("logistic", "lda"), required=True)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="gradient tolerance (default 1e-8)")
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="iteration cap (default 10000)")
    add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="score a member/nonmember pair of CSVs")
    p.add_argument("--model-file", required=True, help="serialized model path")
    p.add_argument("--member", required=True, help="member dataset CSV")
    p.add_argument("--nonmember", required=True, help="nonmember dataset CSV")
    p.add_argument("--scores", nargs="+", default=["max_prob"],
                   help="score kinds (default max_prob)")
    add_common(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--config", default=None,
                   help="sweep config path (default: built-in grid)")
    p.add_argument("--scores", nargs="+",
                   default=[k.value for k in harness.DEFAULT_SCORE_KINDS],
                   help="score kinds (default: the four threshold/log-joint scores)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: $MIALAB_WORKERS or 1)")
    p.add_argument("--summary-out", default="summary.csv",
                   help="summary CSV path (default summary.csv)")
    add_common(p, out_default="results.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="randomized divergence-bound certification")
    p.add_argument("--trials", type=int, default=1000,
                   help="number of random instances (default 1000)")
    p.add_argument("--x", type=int, default=6, help="marginal atoms (default 6)")
    p.add_argument("--y", type=int, default=4, help="label atoms (default 4)")
    add_common(p, out_default="bounds.csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("plot", help="emit SVG figures from a results CSV")
    p.add_argument("--results", required=True, help="results CSV path")
    p.add_argument("--prefix", default="mu_trends", help="output file prefix")
    add_common(p, out_default="plots")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("report", help="privacy-utility scatter CSV from results")
    p.add_argument("--results", required=True, help="results CSV path")
    add_common(p, out_default="privacy_utility.csv")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MialabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
