"""Command-line pipeline: states -> tomograms -> checks -> simulated data.

Exit codes: 0 success, 1 a checked inequality is violated, 2 input error
(including usage errors), 3 numerical error.  All file formats round-trip
between subcommands.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import InputError, NumericalError
from .homodyne import (
    empirical_trifonov,
    estimate_moments,
    load_dataset_csv,
    sample,
    save_dataset_csv,
)
from .inequalities import DEFAULT_TOLERANCE, heisenberg_lhs, trifonov_lhs, trifonov_sweep
from .purity import purity_classify
from .states import load_state, state_label, state_to_dict
from .tomography import (
    DEFAULT_N_PHASES,
    PHASE_TOL,
    TomogramGrid,
    _nearest_phase,
    load_tomogram_csv,
    save_tomogram_csv,
    tomogram_grid,
    uniform_phases,
    wrap_phase,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _emit(payload: dict, out_path):
    text = json.dumps(payload)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _emit_report(report, out_path):
    """Emit a check's report; exit 1 when it records a violated inequality
    (a purity report records none)."""
    _emit(report.to_dict(), out_path)
    return EXIT_OK if getattr(report, "satisfied", True) else EXIT_VIOLATION


def _grid_for_phases(source, thetas):
    """A loaded tomogram as it is; a state as a small grid holding exactly the
    phases a check needs (plus partners)."""
    if isinstance(source, TomogramGrid):
        return source
    wanted = set()
    for theta in thetas:
        reduced, _ = wrap_phase(theta)
        wanted.add(reduced)
        wanted.add(wrap_phase(reduced + math.pi / 2.0)[0])
    return tomogram_grid(source, np.array(sorted(wanted)))


def _read_source(args, suffix):
    """The state spec or tomogram grid that --state<suffix> or --tomogram<suffix> names."""
    state_path = getattr(args, f"state{suffix}", None)
    tomo_path = getattr(args, f"tomogram{suffix}", None)
    if state_path and tomo_path:
        raise InputError(f"give either --state{suffix} or --tomogram{suffix}, not both")
    if state_path:
        return load_state(state_path)
    if tomo_path:
        return load_tomogram_csv(tomo_path)
    raise InputError(f"missing --state{suffix} or --tomogram{suffix}")


def _parse_phase_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad phase list {text!r}: {exc}") from exc
    if not values:
        raise InputError("phase list is empty")
    return values


def _parse_schedule(args):
    if args.schedule:
        entries = []
        for tok in args.schedule.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                theta_text, count_text = tok.split(":")
                entries.append((float(theta_text), int(count_text)))
            except ValueError as exc:
                raise InputError(
                    f"bad schedule entry {tok!r} (want theta:count): {exc}"
                ) from exc
        if not entries:
            raise InputError("schedule is empty")
        return entries
    if args.thetas is None or args.shots is None:
        raise InputError("give --schedule or both --thetas and --shots")
    return [(theta, int(args.shots)) for theta in _parse_phase_list(args.thetas)]


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_state_validate(args):
    state = load_state(args.state)
    print(json.dumps({"valid": True, "label": state_label(state), "spec": state_to_dict(state)}))
    return EXIT_OK


def _cmd_tomogram(args):
    state = load_state(args.state)
    window = None
    if args.x_min is not None or args.x_max is not None:
        if args.x_min is None or args.x_max is None:
            raise InputError("give both --x-min and --x-max or neither")
        window = (args.x_min, args.x_max)
    grid = tomogram_grid(
        state,
        phases=args.phases if args.phases is not None else DEFAULT_N_PHASES,
        n_x=args.points,
        window=window,
    )
    save_tomogram_csv(grid, args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "n_phases": grid.n_phases,
                "n_x": grid.n_x,
                "x_min": grid.xs[0],
                "x_max": grid.xs[-1],
            }
        )
    )
    return EXIT_OK


def _cmd_check_heisenberg(args):
    grid = _grid_for_phases(_read_source(args, ""), [0.0])
    return _emit_report(heisenberg_lhs(grid, tolerance=args.tolerance), args.out)


def _cmd_check_trifonov(args):
    data1, data2 = getattr(args, "data1", None), getattr(args, "data2", None)
    if (data1 is None) != (data2 is None):
        raise InputError("--data1 and --data2 must be given together")
    if data1 is not None:
        for suffix in ("1", "2"):
            if getattr(args, f"state{suffix}", None) or getattr(args, f"tomogram{suffix}", None):
                raise InputError("--data sources cannot be mixed with states/tomograms")
        if args.tolerance is not None:
            raise InputError(
                "--tolerance does not apply to --data1/--data2: the dataset check "
                "uses 3 standard errors"
            )
        report = empirical_trifonov(
            load_dataset_csv(data1), load_dataset_csv(data2), args.theta
        )
    else:
        w1 = _grid_for_phases(_read_source(args, "1"), [args.theta])
        w2 = _grid_for_phases(_read_source(args, "2"), [args.theta])
        tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        report = trifonov_lhs(w1, w2, args.theta, tolerance=tolerance)
    return _emit_report(report, args.out)


def _cmd_check_purity(args):
    return _emit_report(purity_classify(_read_source(args, ""), tol=args.tol), args.out)


def _sweep_sources(args):
    """(thetas, w1, w2), each tomogram CSV read once.  The sweep runs over
    --phases when given, else over the phases every loaded tomogram holds."""
    sources = [_read_source(args, "1"), _read_source(args, "2")]
    grids = [s for s in sources if isinstance(s, TomogramGrid)]
    if args.phases is not None:
        thetas = uniform_phases(args.phases)
    elif grids:
        thetas = grids[0].phases
        # a phase is held when its gap on the pi-circle, seam included, is within PHASE_TOL
        thetas = thetas[[_nearest_phase(grids[-1].phases, t)[2].min() <= PHASE_TOL for t in thetas]]
        if not thetas.size:
            raise InputError(f"{args.tomogram1} and {args.tomogram2} hold no phase in common")
    else:
        thetas = uniform_phases(DEFAULT_N_PHASES)
    return (thetas,) + tuple(_grid_for_phases(s, thetas) for s in sources)


def _cmd_sweep_trifonov(args):
    thetas, w1, w2 = _sweep_sources(args)
    return _emit_report(trifonov_sweep(w1, w2, thetas, tolerance=args.tolerance), args.out)


def _cmd_simulate(args):
    state = load_state(args.state)
    schedule = _parse_schedule(args)
    dataset = sample(state, schedule, args.seed)
    save_dataset_csv(dataset, args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "records": dataset.n_records,
                "seed": dataset.seed,
                "state_label": dataset.state_label,
                "generator": dataset.generator,
            }
        )
    )
    return EXIT_OK


def _cmd_estimate(args):
    dataset = load_dataset_csv(args.data)
    est = estimate_moments(dataset, args.theta)
    _emit(
        {
            "phase": est.phase,
            "count": est.count,
            "mean": est.mean,
            "mean_stderr": est.mean_stderr,
            "variance": est.variance,
            "variance_stderr": est.variance_stderr,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_plotdata_row(args):
    grid = _grid_for_phases(_read_source(args, ""), [args.theta])
    row, mirrored = grid.row_at(args.theta)
    xs = -grid.xs[::-1] if mirrored else grid.xs
    row = row[::-1] if mirrored else row
    with open(args.out, "w") as fh:
        fh.write("x,w\n")
        for x, w in zip(xs, row):
            fh.write(f"{x:.17g},{w:.17g}\n")
    print(json.dumps({"out": args.out, "points": int(xs.size)}))
    return EXIT_OK


def _cmd_plotdata_sweep(args):
    thetas, w1, w2 = _sweep_sources(args)
    with open(args.out, "w") as fh:
        fh.write("theta,lhs\n")
        for theta in thetas:
            rep = trifonov_lhs(w1, w2, float(theta))
            fh.write(f"{theta:.17g},{rep.lhs:.17g}\n")
    print(json.dumps({"out": args.out, "points": int(thetas.size)}))
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_pair_sources(parser, with_data=False):
    parser.add_argument("--state1", help="JSON state spec for the first source")
    parser.add_argument("--state2", help="JSON state spec for the second source")
    parser.add_argument("--tomogram1", help="tomogram CSV for the first source")
    parser.add_argument("--tomogram2", help="tomogram CSV for the second source")
    if with_data:
        parser.add_argument("--data1", help="homodyne dataset CSV for the first source")
        parser.add_argument("--data2", help="homodyne dataset CSV for the second source")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomo",
        description=(
            "Optical tomograms of single-mode photon states, uncertainty-"
            "relation checks, purity classification, and simulated homodyne "
            "detection."
        ),
    )
    parser.add_argument(
        "--config",
        help=(
            "JSON file of defaults for the subcommand's flags, required ones "
            "included (keys: flag names with underscores); the command line wins"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="state-spec utilities")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    p_validate = state_sub.add_parser("validate", help="validate a JSON state spec")
    p_validate.add_argument("--state", required=True)
    p_validate.set_defaults(handler=_cmd_state_validate)

    p_tomo = sub.add_parser("tomogram", help="compute a tomogram grid to CSV")
    p_tomo.add_argument("--state", required=True)
    p_tomo.add_argument("--phases", type=int, help="phase count on [0, pi) (default 64)")
    p_tomo.add_argument("--points", type=int, help="X points per row (default 256+)")
    p_tomo.add_argument("--x-min", type=float, dest="x_min")
    p_tomo.add_argument("--x-max", type=float, dest="x_max")
    p_tomo.add_argument("--out", required=True)
    p_tomo.set_defaults(handler=_cmd_tomogram)

    p_check = sub.add_parser("check", help="run one inequality/purity check")
    check_sub = p_check.add_subparsers(dest="check_command", required=True)

    p_heis = check_sub.add_parser("heisenberg", help="Var(0)*Var(pi/2) >= 1/4")
    p_heis.add_argument("--state")
    p_heis.add_argument("--tomogram")
    p_heis.add_argument("--tolerance", type=float, default=1e-9)
    p_heis.add_argument("--out")
    p_heis.set_defaults(handler=_cmd_check_heisenberg)

    p_trif = check_sub.add_parser(
        "trifonov", help="two-state dispersion check at one phase"
    )
    _add_pair_sources(p_trif, with_data=True)
    p_trif.add_argument("--theta", type=float, required=True)
    p_trif.add_argument(
        "--tolerance",
        type=float,
        help=f"states and tomograms only (default {DEFAULT_TOLERANCE:g}); "
        "the dataset check uses 3 standard errors",
    )
    p_trif.add_argument("--out")
    p_trif.set_defaults(handler=_cmd_check_trifonov)

    p_pur = check_sub.add_parser("purity", help="pure/mixed classification")
    p_pur.add_argument("--state")
    p_pur.add_argument("--tomogram")
    p_pur.add_argument("--tol", type=float, default=1e-3)
    p_pur.add_argument("--out")
    p_pur.set_defaults(handler=_cmd_check_purity)

    p_sweep = sub.add_parser("sweep", help="sweep a check over phases")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_sweep_t = sweep_sub.add_parser("trifonov", help="minimum over a phase sweep")
    _add_pair_sources(p_sweep_t)
    p_sweep_t.add_argument("--phases", type=int, help="sweep phase count (default 64)")
    p_sweep_t.add_argument("--tolerance", type=float, default=1e-9)
    p_sweep_t.add_argument("--out")
    p_sweep_t.set_defaults(handler=_cmd_sweep_trifonov)

    p_sim = sub.add_parser("simulate", help="sample homodyne data from a state")
    p_sim.add_argument("--state", required=True)
    p_sim.add_argument("--schedule", help="comma-separated theta:count entries")
    p_sim.add_argument("--thetas", help="comma-separated phases (with --shots)")
    p_sim.add_argument("--shots", type=int, help="samples per phase (with --thetas)")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="moment estimates from a dataset")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--theta", type=float, required=True)
    p_est.add_argument("--out")
    p_est.set_defaults(handler=_cmd_estimate)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready two-column CSV")
    plot_sub = p_plot.add_subparsers(dest="plot_command", required=True)
    p_row = plot_sub.add_parser("row", help="one tomogram row as x,w")
    p_row.add_argument("--state")
    p_row.add_argument("--tomogram")
    p_row.add_argument("--theta", type=float, required=True)
    p_row.add_argument("--out", required=True)
    p_row.set_defaults(handler=_cmd_plotdata_row)
    p_sweep_plot = plot_sub.add_parser("sweep", help="phase sweep as theta,lhs")
    _add_pair_sources(p_sweep_plot)
    p_sweep_plot.add_argument("--phases", type=int)
    p_sweep_plot.add_argument("--out", required=True)
    p_sweep_plot.set_defaults(handler=_cmd_plotdata_sweep)

    return parser


def _parsers(parser):
    """``parser`` and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _leaf_parser(parser, args):
    """The parser of the subcommand that ``args`` came from."""
    while True:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return parser
        parser = subs[0].choices[getattr(args, subs[0].dest)]


def _config_value(key, value, action):
    """A config value, converted as if its JSON text had been typed on the command line."""
    try:
        return (action.type or str)(value if isinstance(value, str) else json.dumps(value))
    except ValueError as exc:
        raise InputError(f"config key {key!r}: bad value {value!r}: {exc}") from exc


def _apply_config(leaf, path):
    """Make the config's keys the defaults of the subcommand's flags; return
    the flags they cover."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError("config must be a JSON object of flag defaults")
    flags = {a.dest: a for a in leaf._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise InputError(f"unknown config key {key!r}: {leaf.prog} has no such flag")
        defaults[action.dest] = _config_value(key, value, action)
    leaf.set_defaults(**defaults)
    return {flags[dest] for dest in defaults}


def _parse_args(parser, argv):
    """Parse ``argv`` with the --config keys as the subcommand's flag defaults;
    a key that names a required flag stands in for it, the command line wins."""
    required = [a for p in _parsers(parser) for a in p._actions if a.required and a.option_strings]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    covered = _apply_config(_leaf_parser(parser, args), args.config) if args.config else set()
    for action in required:
        action.required = action not in covered
    return parser.parse_args(argv)


# argparse takes a value such as "-1e-20" for a flag, not for this flag's value
_FLOAT_FLAGS = ("--theta", "--x-min", "--x-max", "--tolerance", "--tol", "--thetas", "--schedule")
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _join_float_values(argv):
    """Rewrite "--theta -1e-20" as "--theta=-1e-20" for the flags whose value
    starts with a number (a phase list or schedule starts with a phase)."""
    out = []
    for tok in argv:
        if out and out[-1] in _FLOAT_FLAGS and _NEGATIVE_NUMBER.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_float_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse_args(parser, argv)
        return args.handler(args)
    except (InputError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
