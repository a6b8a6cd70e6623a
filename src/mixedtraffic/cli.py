"""Command-line experiment runner.

Verbs: ``simulate`` (ground truth only), ``estimate`` (full pipeline),
``sweep`` (process-covariance sweep), ``observability`` (anti-diagonal
report over a run).  Outputs are CSV files in the chosen directory.  A
scenario that is invalid or cannot be read, an ``--out`` that cannot be used,
a simulation that overflowed or whose connected off-ramp outflow exceeded the
total, a filter that diverged, a filter whose exit carries no connected flow
at step 0, and a run too short for one observability window exit 2 with a
JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .core import broken_rules
from .harness import (
    diverged,
    observability_trace,
    q_sweep,
    run_experiment,
    simulate_only,
    write_metrics,
    write_observability,
    write_sweep,
    write_trajectory,
)
from .kalman import PSD_TOL, KalmanConfig, NoExitMeasurementError
from .metanet import NoiseSpec, TruthDivergedError
from .scenario import OFFRAMP_MODES, Scenario, ScenarioError, default_scenario, load_scenario

DEFAULT_SIGMAS = (0.01, 0.1, 1.0, 10.0, 100.0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ruled(parse, cls, field: str):
    """An argument type: ``parse`` the text, then apply the rules of ``cls.field``."""
    def checked(text: str):
        value = parse(text)
        for name, message in broken_rules(cls.rules, {field: value}):
            raise argparse.ArgumentTypeError(f"{name} {message}, got {text}")
        return value
    checked.__name__ = parse.__name__   # argparse names it when parse fails
    return checked


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedtraffic",
        description="Simulate mixed conventional/connected highway traffic and "
                    "estimate total densities and flows from connected-vehicle data.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", type=Path, default=None,
                        help="YAML scenario file (default: built-in scenario)")
    common.add_argument("--seed", type=_ruled(int, NoiseSpec, "seed"), default=None,
                        help="override the scenario seed")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for CSV files")
    common.add_argument("--offramp-mode", choices=OFFRAMP_MODES,
                        default=None, help="override the scenario's off-ramp mode")

    sub.add_parser("simulate", parents=[common],
                   help="run the ground-truth simulator only")
    sub.add_parser("estimate", parents=[common],
                   help="run simulator, measurements, and the filter")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="rerun the filter across process-covariance scales")
    sweep.add_argument("--sigmas", type=_ruled(float, KalmanConfig, "q_sigma"), nargs="+",
                       default=list(DEFAULT_SIGMAS), help="Q = sigma * I scales to evaluate")
    obs = sub.add_parser("observability", parents=[common],
                         help="report observability anti-diagonals over a run")
    obs.add_argument("--stride", type=_positive_int, default=1,
                     help="step between window starts")
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    sc = load_scenario(args.scenario) if args.scenario else default_scenario()
    if args.seed is not None:
        sc = sc.with_seed(args.seed)
    if args.offramp_mode is not None:
        sc = dataclasses.replace(sc, offramp_mode=args.offramp_mode)
    return sc


def _refuse(error: dict) -> int:
    """Write the error as a JSON object on stderr; returns the exit code 2."""
    json.dump(error, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return 2


def _refuse_diverged(details: dict) -> int:
    """Refuse a run that fails ``harness.diverged`` or whose filter raised."""
    return _refuse({"error": "filter_diverged", **details,
                    "message": f"the filter state must stay finite, P_R finite and the "
                               f"covariance eigenvalues >= {-PSD_TOL:g}"})


def _run(args: argparse.Namespace, sc: Scenario, out: Path) -> int:
    """Run the verb; the filter's and the simulator's faults propagate."""
    if args.command == "simulate":
        result = simulate_only(sc)
        write_trajectory(out / "trajectory.csv", result)
        write_metrics(out / "metrics.csv", result)
        print(f"simulated {result.truth.n_steps} steps in {result.runtime_s:.3f} s "
              f"-> {out / 'trajectory.csv'}")
    elif args.command == "estimate":
        result = run_experiment(sc)
        if diverged(result.p_r, result.estimate.min_p_eigenvalue):
            return _refuse_diverged({"p_r": repr(result.p_r), "min_p_eigenvalue":
                                     repr(result.estimate.min_p_eigenvalue)})
        write_trajectory(out / "trajectory.csv", result)
        write_metrics(out / "metrics.csv", result)
        print(f"estimated {result.truth.n_steps} steps in {result.runtime_s:.3f} s; "
              f"P_R = {100 * result.p_r:.3f}% -> {out / 'trajectory.csv'}")
    elif args.command == "sweep":
        points = q_sweep(sc, args.sigmas)
        bad = [p for p in points if diverged(p.p_r, p.min_p_eigenvalue)]
        if bad:
            return _refuse_diverged({"sigmas": [repr(p.sigma) for p in bad],
                                     "p_r": [repr(p.p_r) for p in bad],
                                     "min_p_eigenvalue": [repr(p.min_p_eigenvalue) for p in bad]})
        write_sweep(out / "sweep.csv", points)
        for point in points:
            print(f"sigma = {point.sigma:g}: P_R = {100 * point.p_r:.3f}%")
    elif args.command == "observability":
        try:
            windows = observability_trace(sc, stride=args.stride)
        except ValueError as exc:
            return _refuse({"error": "no_observability_window", "message": str(exc)})
        write_observability(out / "observability.csv", windows)
        n_bad = sum(not w.observable for w in windows)
        worst = min(w.min_anti_diag for w in windows)
        print(f"{len(windows)} windows, {n_bad} unobservable, "
              f"smallest anti-diagonal magnitude {worst:.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = _load(args)                  # a scenario that fails makes no --out
        args.out.mkdir(parents=True, exist_ok=True)
        return _run(args, sc, args.out)
    except ScenarioError as exc:
        return _refuse({"error": "invalid_scenario", "failures": exc.failures})
    except OSError as exc:
        return _refuse({"error": "io", "message": str(exc)})
    except TruthDivergedError as exc:
        return _refuse({"error": "truth_diverged", "raised": str(exc),
                        "message": "the simulated traffic left the finite range, or an "
                                   "off-ramp's connected outflow exceeded its total; check "
                                   "the scenario's demands, exit rates and parameters"})
    except FloatingPointError as exc:
        return _refuse_diverged({"raised": str(exc)})
    except NoExitMeasurementError as exc:
        return _refuse({"error": "no_exit_measurement", "message": str(exc)})


if __name__ == "__main__":
    raise SystemExit(main())
