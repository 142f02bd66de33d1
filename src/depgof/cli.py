"""Command-line entry point.

Each verb reads its inputs back from the output directory with a ``runner``
loader, runs its ``runner`` stage (which writes the artifacts) and prints a
line; ``pipeline`` chains the stages in memory and writes the same files:

    depgof generate  -c cfg --seed S      synthesize a panel CSV
    depgof estimate  -c cfg               self-copulas and Psi from a panel
    depgof kernel    -c cfg               covariance kernel (Psi-based or analytic)
    depgof law       -c cfg --seed S      spectrum and Monte-Carlo statistic laws
    depgof test      -c cfg               per-series GoF results (JSONL)
    depgof pipeline  -c cfg [--seed S]    all stages in one run
    depgof reproduce EXP -c cfg [--seed S]   a synthetic experiment of runner.PRESETS

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical error.
"""

import argparse
import sys
from dataclasses import replace

from . import runner
from .errors import ConfigError, DataError, NumericalError, ParameterError


def _add_common(sub, seed):
    sub.add_argument("-c", "--config", required=True, help="key=value config file")
    sub.add_argument("--outdir", help="override the configured output directory")
    if seed:   # only the verbs that draw random numbers take a seed
        sub.add_argument("--seed", type=int, required=seed == "required",
                         help=f"master seed ({seed})")


def _load(args, preset=None):
    config = runner.load_config(args.config, preset)
    if args.outdir:
        config = replace(config, outdir=args.outdir)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    runner.make_outdir(config.outdir)
    return config


def cmd_generate(args):
    config = _load(args)
    panel = runner.generate_panel(config, outdir=config.outdir)
    print(f"wrote {config.outdir}/panel.csv ({panel.values.shape[0]}x{len(panel.names)})")


def cmd_estimate(args):
    config = _load(args)
    psi = runner.estimate_psi(runner.load_panel(config), config, outdir=config.outdir)
    print(f"wrote {config.outdir}/psi.csv (t_max={psi.t_max})")


def cmd_kernel(args):
    config = _load(args)
    runner.build_kernel(config, psi=runner.load_psi(config), outdir=config.outdir)
    print(f"wrote {config.outdir}/kernel.csv")


def cmd_law(args):
    config = _load(args)
    spectrum = runner.diagonalize(runner.load_kernel(config), outdir=config.outdir)
    runner.simulate_laws({"": spectrum}, config, outdir=config.outdir)
    print(f"wrote {config.outdir}/law_ks.csv and law_cm.csv ({config.n_trials} trials)")


def cmd_test(args):
    config = _load(args)
    results = runner.test_panel(runner.load_panel(config), config,
                                {"": runner.load_laws(config)}, outdir=config.outdir)[""]
    rejected = sum(1 for r in results if r.cm_p < 0.05)
    print(f"wrote {config.outdir}/results.jsonl "
          f"({len(results)} series, {rejected} CM rejections at 5%)")


def cmd_pipeline(args):
    config = _load(args)
    results = runner.run_pipeline(config)
    print(f"pipeline complete: {len(results)} series tested, artifacts in {config.outdir}")


def cmd_reproduce(args):
    config = _load(args, runner.PRESETS[args.experiment])
    summary = runner.reproduce(args.experiment, config)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="depgof",
        description="goodness-of-fit tests that stay valid for dependent observations")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, fn, seed in (
        ("generate", cmd_generate, "required"),
        ("estimate", cmd_estimate, None),
        ("kernel", cmd_kernel, None),
        ("law", cmd_law, "required"),
        ("test", cmd_test, None),
        ("pipeline", cmd_pipeline, "optional"),
    ):
        sub = subs.add_parser(verb)
        _add_common(sub, seed)
        sub.set_defaults(fn=fn)
    sub = subs.add_parser("reproduce")
    sub.add_argument("experiment", choices=sorted(runner.PRESETS))
    _add_common(sub, "optional")
    sub.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ConfigError, ParameterError) as exc:
        print(f"depgof: configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"depgof: data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"depgof: numerical error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
