"""Command-line entry point.

Each verb reads one ``runner`` stage's inputs back from the output
directory, runs that stage (which writes its artifacts) and prints a
line; ``pipeline`` chains the stages in memory and writes the same files:

    depgof generate  -c cfg --seed S      synthesize a panel CSV
    depgof estimate  -c cfg               self-copulas and Psi from a panel
    depgof kernel    -c cfg               covariance kernel (Psi-based or analytic)
    depgof law       -c cfg --seed S      spectrum and Monte-Carlo statistic laws
    depgof test      -c cfg               per-series GoF results (JSONL)
    depgof pipeline  -c cfg               all stages in one run
    depgof reproduce fig2|fig3 -c cfg     the synthetic benchmark experiments

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical error.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import kernels, runner
from .copulas import PsiSurface
from .errors import ConfigError, DataError, NumericalError, ParameterError
from .grid import QuantileGrid


def _add_common(sub, seed_required=False):
    sub.add_argument("-c", "--config", required=True, help="key=value config file")
    sub.add_argument("--outdir", help="override the configured output directory")
    sub.add_argument("--seed", type=int, required=seed_required,
                     help="master seed" + (" (required)" if seed_required else ""))


def _load(args, preset=None):
    config = runner.load_config(args.config, preset)
    if args.outdir:
        config = replace(config, outdir=args.outdir)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    os.makedirs(config.outdir, exist_ok=True)
    return config


def _artifact(config, name, verb):
    """Path of an artifact that an earlier verb must have written."""
    path = os.path.join(config.outdir, name)
    if not os.path.exists(path):
        raise DataError(f"no {path}; run `depgof {verb}` first")
    return path


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
    psi = None
    if config.model == "empirical":
        _, m, lag, values = runner.read_matrix(_artifact(config, "psi.csv", "estimate"))
        psi = PsiSurface(grid=QuantileGrid(m), values=values, t_max=lag)
    runner.build_kernel(config, config.n, psi=psi, outdir=config.outdir)
    print(f"wrote {config.outdir}/kernel.csv")


def cmd_law(args):
    config = _load(args)
    _, m, _, values = runner.read_matrix(_artifact(config, "kernel.csv", "kernel"))
    kernel = kernels.KernelMatrix(grid=QuantileGrid(m), values=values)
    spectrum = runner.diagonalize(kernel, outdir=config.outdir)
    runner.simulate_laws(spectrum, config, config.seed, outdir=config.outdir)
    print(f"wrote {config.outdir}/law_ks.csv and law_cm.csv ({config.n_trials} trials)")


def cmd_test(args):
    config = _load(args)
    panel = runner.load_panel(config)
    dist_ks, dist_cm = (runner.read_distribution(_artifact(config, f"law_{k}.csv", "law"))
                        for k in ("ks", "cm"))
    for kind, law in (("ks", dist_ks), ("cm", dist_cm)):
        if law.kind != kind:
            raise DataError(f"{config.outdir}/law_{kind}.csv holds the {law.kind} law")
    results = runner.test_panel(panel, config, dist_ks, dist_cm, outdir=config.outdir)
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
    for verb, fn, seed_required in (
        ("generate", cmd_generate, True),
        ("estimate", cmd_estimate, False),
        ("kernel", cmd_kernel, False),
        ("law", cmd_law, True),
        ("test", cmd_test, False),
        ("pipeline", cmd_pipeline, False),
    ):
        sub = subs.add_parser(verb)
        _add_common(sub, seed_required=seed_required)
        sub.set_defaults(fn=fn)
    sub = subs.add_parser("reproduce")
    sub.add_argument("experiment", choices=["fig2", "fig3"])
    _add_common(sub)
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
