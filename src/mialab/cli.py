"""Command-line entry point.

Subcommands: generate, train, attack, sweep, bounds, plot, report.
Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 sweep finished with failed cells.  Every command accepts ``--out``; the
commands that draw random numbers (generate, attack, sweep, bounds) also
accept ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import attacks, datagen, divergence, harness, linear_models, metrics, svgplot
from .errors import MialabError, ValidationError, open_text

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
            kind = attacks.ScoreKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in attacks.ScoreKind)
            raise ValidationError(f"unknown score kind {name!r} (choose from {valid})")
        # A repeated kind would write every score or result row twice.
        if kind in out:
            raise ValidationError(f"--scores repeats the kind {name!r}")
        out.append(kind)
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
    print(f"train accuracy: {attacks.accuracy(attacks.model_outputs(model, data)):.6f}")
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    with open_text(args.model_file) as fh:
        model = linear_models.deserialize_model(fh.read())
    member = datagen.read_csv(args.member)
    nonmember = datagen.read_csv(args.nonmember)
    for side, data in (("member", member), ("nonmember", nonmember)):
        if data.d != model.d:
            raise ValidationError(f"model has d={model.d} but {side} data has d={data.d}")
    _, pairs = harness.attack_target(model, member, nonmember, _score_kinds(args.scores),
                                     args.seed)
    all_rows = []
    for scores, result in pairs:
        kind = scores.kind.value
        print(f"{kind}: auroc={result.auroc:.6f} advantage={result.advantage:.6f}")
        for side, arr in (("member", scores.member_scores),
                          ("nonmember", scores.nonmember_scores)):
            all_rows.extend({"side": side, "score": v, "kind": kind} for v in arr)
    metrics.write_table(args.out, ("side", "score", "kind"), all_rows, float_format=".9g")
    print(f"wrote scores to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = harness.load_sweep_config(args.config) if args.config else harness.SweepGrid()
    kinds = _score_kinds(args.scores)
    table = harness.run_sweep(grid, kinds, workers=args.workers, base_seed=args.seed)
    metrics.write_results_csv(table.rows, args.out)
    metrics.write_table(args.summary_out, harness.SUMMARY_COLUMNS, harness.summarize(table.rows))
    print(f"wrote {len(table.rows)} result rows to {args.out}")
    print(f"wrote summary to {args.summary_out}")
    if table.failures:
        for failure in table.failures:
            print(f"cell failed: {failure}", file=sys.stderr)
        print(f"failed cells: {len(table.failures)}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_bounds(args) -> int:
    result = divergence.certify(args.trials, args.x, args.y, seed=args.seed)
    columns = tuple(f.name for f in dataclasses.fields(divergence.BoundsReport))
    metrics.write_table(args.out, columns, map(dataclasses.asdict, result.reports),
                        float_format=".12g")
    print(f"wrote {len(result.reports)} instances to {args.out}")
    print(f"violations: {result.violations}")
    for number, check in enumerate(result.checks, 1):
        print(f"check {number} {check.name}: triggered {check.triggered}, "
              f"violations {check.violations}, min slack {check.min_slack:.6g}")
    return EXIT_OK if result.violations == 0 else EXIT_DATA


def _cmd_plot(args) -> int:
    summaries = harness.summarize(metrics.read_results_csv(args.results))
    paths = svgplot.render_sweep_figures(summaries, args.out, prefix=args.prefix)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = metrics.read_results_csv(args.results)
    metrics.write_table(args.out, harness.REPORT_COLUMNS, harness.privacy_utility_report(rows))
    print(f"wrote privacy-utility report to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mialab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, out_default=None, seeded=True):
        if seeded:
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
    defaults = datagen.GenParams
    p.add_argument("--sigma", type=float, default=defaults.sigma,
                   help="core std (default %(default)s)")
    p.add_argument("--sigma-noise", type=float, default=defaults.sigma_noise,
                   help="noise std (default %(default)s)")
    p.add_argument("--w", type=float, default=defaults.w, help="P(y=+1) (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=defaults.epsilon,
                   help="contamination probability (default %(default)s)")
    p.add_argument("--tau-mult", type=float, default=defaults.tau_mult,
                   help="contamination scale multiplier (default %(default)s)")
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
    add_common(p, seeded=False)
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
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
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
    add_common(p, out_default="plots", seeded=False)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("report", help="privacy-utility scatter CSV from results")
    p.add_argument("--results", required=True, help="results CSV path")
    add_common(p, out_default="privacy_utility.csv", seeded=False)
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
