"""Command-line front end.

Exit codes: 0 success, 2 bad input (ParameterError), 3 I/O error (OSError),
4 the simulation cannot answer (SimulationQualityError).  Bound commands
print JSON to stdout; simulate/reproduce write CSV (and optional SVG) to
explicitly given paths.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import bounds
from .io import breakdown_to_json, default_seed, dump_json, load_run_config, outage_to_json
from .params import Accuracy, ParameterError, ProblemParams, SimulationQualityError
from .presets import DEFAULT_SEED, DEFAULT_TRIALS, FIGURE_IDS, Figure, Panel, reproduce, run_figure

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_IO = 3
EXIT_QUALITY = 4

_MODEL_FLAGS = {tag.replace("_", "-"): tag for tag in bounds.BOUND_FUNCTIONS}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="parameter dimension")
    parser.add_argument("--alpha", type=float, required=True, help="entry bound of the design")
    parser.add_argument("--R", type=float, default=None, help="sub-Gaussian noise parameter")
    parser.add_argument("--b", type=float, default=None, help="almost-sure noise bound")
    parser.add_argument("--sigma-min", type=float, required=True, dest="sigma_min")
    parser.add_argument("--sigma-max", type=float, required=True, dest="sigma_max")


def _params_from(args: argparse.Namespace) -> ProblemParams:
    return ProblemParams(**{f.name: getattr(args, f.name) for f in fields(ProblemParams)})


def _cmd_bound_n(args: argparse.Namespace) -> int:
    params = _params_from(args)
    acc = Accuracy(r=args.r, eps=args.eps)
    theorem = _MODEL_FLAGS[args.model]
    bd = bounds.bound_for(theorem, acc, params)
    meta = {}
    if theorem in ("main", "main_tau"):  # the only families with n2/n3 terms
        meta = {"log_numerator_n2_n3": "2" if theorem == "main_tau" else "3p"}
    print(dump_json(breakdown_to_json(bd, meta)))
    return EXIT_OK


def _cmd_bound_eps(args: argparse.Namespace) -> int:
    params = _params_from(args)
    ob = bounds.eps_of_n(args.r, args.n, params)
    print(dump_json(outage_to_json(ob)))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    panel = Panel(
        Path(cfg.csv_path).stem,
        lambda seed: (cfg.design, cfg.noise),
        r=cfg.r if cfg.r is not None else float(cfg.axis_values[0]),
        axis=cfg.axis_name,
        values=cfg.axis_values,
        theorem=cfg.theorem,
        eps=cfg.eps,
    )
    fig = Figure(f"{cfg.theorem} bound vs {cfg.axis_name}", (panel,))
    trials = args.trials if args.trials is not None else cfg.trials
    (rows,) = run_figure(fig, (cfg.csv_path,), cfg.svg_path, trials, cfg.base_seed, args.workers, cfg.diagnostics)
    if cfg.diagnostics:
        for row, diag in rows:
            print(dump_json({"axis_value": row.axis_value, **asdict(diag)}))
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    # Read here, inside main's try, so a malformed LSQBOUNDS_SEED exits 2.
    seed = args.seed if args.seed is not None else default_seed()
    out = reproduce(
        args.figure,
        args.outdir,
        trials=args.trials,
        base_seed=seed if seed is not None else DEFAULT_SEED,
        workers=args.workers,
    )
    for path in out.csv_paths:
        print(path)
    print(out.svg_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsqbounds",
        description=(
            "Finite-sample guarantees for linear least squares: required sample "
            "counts, outage bounds, and seeded Monte-Carlo verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bn = sub.add_parser("bound-n", help="required sample count for a target (r, eps)")
    bn.add_argument("--model", choices=sorted(_MODEL_FLAGS), required=True)
    bn.add_argument("--r", type=float, required=True, help="target sup-norm radius")
    bn.add_argument("--eps", type=float, required=True, help="target outage probability")
    _add_param_flags(bn)
    bn.set_defaults(func=_cmd_bound_n)

    be = sub.add_parser("bound-eps", help="outage bound at a given (r, N)")
    be.add_argument("--r", type=float, required=True)
    be.add_argument("--n", type=int, required=True, help="sample count")
    _add_param_flags(be)
    be.set_defaults(func=_cmd_bound_eps)

    sim = sub.add_parser("simulate", help="run a declarative experiment config")
    sim.add_argument("--config", required=True, help="path to a JSON run config")
    sim.add_argument("--trials", type=int, default=None, help="override config trial count")
    sim.add_argument("--workers", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("reproduce", help="run a named figure preset")
    rep.add_argument("figure", choices=FIGURE_IDS)
    rep.add_argument("--outdir", required=True, help="directory for CSV/SVG outputs")
    rep.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help=f"trials per point (default {DEFAULT_TRIALS}; 10000 is a desk-scale choice)",
    )
    rep.add_argument("--seed", type=int, default=None, help="base seed override")
    rep.add_argument("--workers", type=int, default=1)
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Overflow and underflow to zero come from finite inputs at the edge of
    # the float range, so they are parameter errors.
    except (ParameterError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationQualityError as exc:
        print(f"simulation-quality error: {exc}", file=sys.stderr)
        return EXIT_QUALITY


if __name__ == "__main__":
    sys.exit(main())
