"""Experiment runner: simulate, estimate, score, sweep, and write CSV.

The estimation loop pairs each step's measurement frame with the realization
step built from that same frame: frame k yields A(k), B(k) u(k), and z(k).
Ground truth never depends on filter tuning, so a sweep simulates one truth
trajectory and runs every tuning point on it as one batch: ``run_filter``
runs one filter or a batch of them (``KalmanConfig.stack``) in one loop.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kalman import (PSD_TOL, FilterState, KalmanConfig, filter_step, output_measurement,
                     reconstruct_totals)
from .ltv import (OBSERVABILITY_TOL, BandedLtv, build_system_measured,
                  build_system_unmeasured_offramps, window_anti_diagonals)
from .metanet import TruthRun, TruthSimulator
from .scenario import Scenario


@dataclass(frozen=True)
class EstimateRun:
    """Filter outputs over a run; row k is the estimate at step k.

    Shapes follow the config: a batch of S filters (``KalmanConfig.stack``)
    puts the member axis first, so ``x_hat[i]`` is member i's run.
    """

    x_hat: np.ndarray          # batch + (M+1, N) inverse-share estimates
    rho_hat: np.ndarray        # batch + (M+1, N) reconstructed total densities
    q_hat: np.ndarray          # batch + (M+1, N) reconstructed total flows
    innovation: np.ndarray     # batch + (M,) scalar innovations
    # Per member: min of lambda_min(P0), lambda_min(P_M) and each lambda_min < -PSD_TOL
    # at a step whose shifted Cholesky failed (see run_filter).
    min_p_eigenvalue: float | np.ndarray
    g_clamp_count: int
    z_fallback_count: int      # steps that reused the previous output


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    truth: TruthRun
    estimate: EstimateRun | None
    p_r: float | None
    runtime_s: float


def simulate_truth(sc: Scenario) -> TruthRun:
    """Ground-truth trajectory over the scenario horizon."""
    sim = TruthSimulator(
        geom=sc.geometry, params=sc.params, layout=sc.layout, noise=sc.noise,
        entry_demand=sc.entry_demand, onramp_demand=sc.onramp_demand,
        penetration_profile=sc.penetration_profile, init_state=sc.initial_state())
    return sim.run(sc.n_steps)


def build_systems(sc: Scenario, truth: TruthRun) -> BandedLtv:
    """The realization of every transition, from the estimator-visible frames."""
    frames = truth.frames[:truth.n_steps]
    if sc.offramp_mode == "unmeasured":
        beta_a = sc.layout.exit_rate_vector(sc.geometry.n_segments, connected=True)
        return build_system_unmeasured_offramps(frames, sc.geometry, beta_a)
    return build_system_measured(frames, sc.geometry)


def run_filter(sc: Scenario, truth: TruthRun,
               systems: BandedLtv | None = None,
               config: KalmanConfig | None = None) -> EstimateRun:
    """Run the filter, or the batch ``config``, along a truth run and
    reconstruct totals.

    Every member of a batch sees the same realization and measurements, and
    each equals its own unbatched run bit for bit.  Raises FloatingPointError
    as soon as any member's state becomes non-finite; that check reports an
    overflow, so numpy's floating-point warnings are silenced inside the loop.

    Positive semidefiniteness is checked each step with one Cholesky
    factorisation over the whole batch, of P + PSD_TOL*I less a bound on the
    factorisation's own rounding error, so that success proves every
    lambda_min(P) > -PSD_TOL; only when it fails are the eigenvalues
    computed.  ``min_p_eigenvalue`` is therefore the smallest of
    lambda_min(P0), lambda_min of the final P, and every exact lambda_min
    below -PSD_TOL found at a failed step.  That is the exact minimum over
    the run once P has lost semidefiniteness.  Otherwise it may exceed the
    exact minimum, but every step's lambda_min is then above -PSD_TOL, so
    ``diverged`` gives the exact minimum's verdict.
    """
    if systems is None:
        systems = build_systems(sc, truth)
    if config is None:
        config = sc.filter_config()
    m = truth.n_steps
    fs = FilterState.initial(config)
    batch = fs.x_hat.shape[:-1]
    x_hat = np.empty(batch + (m + 1, fs.x_hat.shape[-1]))
    innovation = np.empty(batch + (m,))
    x_hat[..., 0, :] = fs.x_hat

    min_eig = np.linalg.eigvalsh(fs.p_cov).min(axis=-1)
    n = fs.x_hat.shape[-1]
    eye = np.eye(n)
    # Rump's bound on Cholesky's rounding error (BIT 46, 2006): a floating-point
    # Cholesky of A - c*I with c >= (n+1)*eps*trace(A) proves A positive definite.
    rounding = (n + 1) * np.finfo(float).eps
    fallbacks = 0
    last_z: float | None = None
    with np.errstate(all="ignore"):
        for k in range(m):
            z, used_fallback = output_measurement(truth.frames, k, last_z)
            fallbacks += used_fallback
            last_z = z
            fs = filter_step(fs, systems, k, z, config)
            innovation[..., k] = fs.innovation
            x_hat[..., k + 1, :] = fs.x_hat
            shift = PSD_TOL - rounding * np.trace(fs.p_cov, axis1=-2, axis2=-1)
            try:
                # Succeeds only if every member's lambda_min(P) > -PSD_TOL.
                np.linalg.cholesky(fs.p_cov + shift[..., None, None] * eye)
            except np.linalg.LinAlgError:
                # Fold only the members that failed, so each keeps its unbatched value.
                step_min = np.linalg.eigvalsh(fs.p_cov).min(axis=-1)
                min_eig = np.where(step_min < -PSD_TOL, np.minimum(min_eig, step_min), min_eig)
    min_eig = np.minimum(min_eig, np.linalg.eigvalsh(fs.p_cov).min(axis=-1))
    rho_hat, q_hat = reconstruct_totals(x_hat, truth.states.rho_a, truth.states.q_a)
    return EstimateRun(x_hat=x_hat, rho_hat=rho_hat, q_hat=q_hat, innovation=innovation,
                       min_p_eigenvalue=min_eig if batch else float(min_eig),
                       g_clamp_count=systems.n_clamped, z_fallback_count=fallbacks)


def diverged(p_r: float, min_p_eigenvalue: float) -> bool:
    """Run health verdict: P_R is not finite, or the covariance lost positive
    semidefiniteness (an eigenvalue below -PSD_TOL)."""
    return not math.isfinite(p_r) or min_p_eigenvalue < -PSD_TOL


def performance_index(rho: np.ndarray, rho_a: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative density-estimation error over a horizon of M transitions:

        sqrt( (1/(M N)) sum_k sum_i (rho - rho_a * x_hat)^2 )
        -----------------------------------------------------
               (1/(M N)) sum_k sum_i rho

    Sums run over all M+1 recorded steps; the 1/(M N) normalization follows
    the index's definition.  Dimensionless (multiply by 100 for percent).
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or rho.shape[0] < 2:
        raise ValueError("need an (M+1) x N trajectory with M >= 1")
    if rho.shape != np.shape(rho_a) or rho.shape != np.shape(x_hat):
        raise ValueError("trajectory shapes must match")
    m = rho.shape[0] - 1
    n = rho.shape[1]
    mean_rho = float(np.sum(rho)) / (m * n)
    if mean_rho <= 0:
        raise ValueError("mean density is zero; index undefined")
    rms = math.sqrt(float(np.sum((rho - rho_a * x_hat) ** 2)) / (m * n))
    return rms / mean_rho


def run_experiment(sc: Scenario) -> RunResult:
    """Full pipeline: truth, measurements, filter, reconstruction, score."""
    start = time.perf_counter()
    truth = simulate_truth(sc)
    estimate = run_filter(sc, truth)
    p_r = performance_index(truth.rho_matrix(), truth.rho_a_matrix(), estimate.x_hat)
    return RunResult(scenario=sc, truth=truth, estimate=estimate, p_r=p_r,
                     runtime_s=time.perf_counter() - start)


def simulate_only(sc: Scenario) -> RunResult:
    start = time.perf_counter()
    truth = simulate_truth(sc)
    return RunResult(scenario=sc, truth=truth, estimate=None, p_r=None,
                     runtime_s=time.perf_counter() - start)


@dataclass(frozen=True)
class SweepPoint:
    sigma: float
    p_r: float
    min_p_eigenvalue: float = math.nan     # not stored in sweep.csv


def q_sweep(sc: Scenario, sigmas: Sequence[float]) -> list[SweepPoint]:
    """Score the filter with Q = sigma*I for each sigma; R stays at the scenario value.

    One truth trajectory and realization are shared, and all points run as
    one batch through ``run_filter``, so every point scores against identical
    data and equals ``run_filter`` with its own Q bit for bit.  Raises
    ValueError, before simulating, unless ``sigmas`` is a nonempty list of
    finite values > 0.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("need at least one sigma")
    if not all(math.isfinite(s) and s > 0 for s in sigmas):
        raise ValueError(f"sigma values must be finite and > 0, got {sigmas}")
    truth = simulate_truth(sc)
    run = run_filter(sc, truth, config=KalmanConfig.stack([
        KalmanConfig.scaled_identity(sc.geometry.n_segments, q_sigma=s, r_cov=sc.r_cov,
                                     x0_value=sc.x0_value, p0_sigma=sc.p0_sigma)
        for s in sigmas]))
    rho, rho_a = truth.rho_matrix(), truth.rho_a_matrix()
    return [SweepPoint(sigma=s, p_r=performance_index(rho, rho_a, run.x_hat[i]),
                       min_p_eigenvalue=float(run.min_p_eigenvalue[i]))
            for i, s in enumerate(sigmas)]


@dataclass(frozen=True)
class ObservabilityWindow:
    start_step: int
    observable: bool
    min_anti_diag: float
    max_anti_diag: float


def observability_trace(sc: Scenario, truth: TruthRun | None = None,
                        stride: int = 1) -> list[ObservabilityWindow]:
    """Sliding-window observability report over a run; raises ValueError when
    ``stride`` < 1 or the run is shorter than one window of N-1 steps."""
    if truth is None:
        truth = simulate_truth(sc)
    mags = np.abs(window_anti_diagonals(build_systems(sc, truth), stride))
    lows, highs = mags.min(axis=1), mags.max(axis=1)
    return [ObservabilityWindow(start_step=w * stride, observable=bool(lo > OBSERVABILITY_TOL),
                                min_anti_diag=float(lo), max_anti_diag=float(hi))
            for w, (lo, hi) in enumerate(zip(lows, highs))]


# --- CSV output -----------------------------------------------------------
# Floats are written with repr(), which round-trips float64 exactly.

TRAJECTORY_COLUMNS = ("step", "segment", "rho", "rho_a", "v", "q", "q_a",
                      "rho_hat", "q_hat", "p_bar_hat", "innovation")


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trajectory(path, result: RunResult) -> None:
    """One row per (step, segment); estimate columns empty for truth-only runs.

    The scalar innovation of step k is repeated on each of the step's rows
    and left empty on the final step, which has no measurement update.
    Rows are formatted a step at a time as ``csv.writer`` would write them:
    comma-separated, CRLF-terminated, and no cell needs quoting.
    """
    truth = result.truth
    est = result.estimate
    m, n = truth.n_steps, truth.states.n_segments
    fields = [getattr(truth.states, name) for name in ("rho", "rho_a", "v", "q", "q_a")]
    if est is not None:
        fields += [est.rho_hat, est.q_hat, est.x_hat]
    segments = [str(i + 1) for i in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for k in range(m + 1):
            if est is None:
                tail = ["", "", "", ""]
            else:
                tail = [_fmt(est.innovation[k]) if k < m else ""]
            cells = ([[str(k)] * n, segments] + [list(map(repr, f[k].tolist())) for f in fields]
                     + [[cell] * n for cell in tail])
            handle.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def read_trajectory(path) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into (M+1, N) arrays keyed by column;
    empty cells read as NaN."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = dict(zip(header, zip(*reader)))
    step = np.array(columns["step"], dtype=int)
    segment = np.array(columns["segment"], dtype=int) - 1
    shape = (step.max() + 1, segment.max() + 1)
    out: dict[str, np.ndarray] = {}
    for col in TRAJECTORY_COLUMNS[2:]:
        values = np.full(shape, np.nan)
        values[step, segment] = [float(cell or "nan") for cell in columns[col]]
        out[col] = values
    return out


def write_metrics(path, result: RunResult) -> None:
    rows = [("runtime_s", _fmt(result.runtime_s)),
            ("n_steps", str(result.truth.n_steps)),
            ("seed", str(result.scenario.seed)),
            ("offramp_mode", result.scenario.offramp_mode)]
    if result.p_r is not None:
        rows.insert(0, ("p_r", _fmt(result.p_r)))
    if result.estimate is not None:
        rows += [("g_clamp_count", str(result.estimate.g_clamp_count)),
                 ("z_fallback_count", str(result.estimate.z_fallback_count)),
                 ("min_p_eigenvalue", _fmt(result.estimate.min_p_eigenvalue))]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("metric", "value"))
        writer.writerows(rows)


def write_sweep(path, points: Sequence[SweepPoint]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("sigma", "p_r"))
        for point in points:
            writer.writerow((_fmt(point.sigma), _fmt(point.p_r)))


def read_sweep(path) -> list[SweepPoint]:
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return [SweepPoint(sigma=float(r["sigma"]), p_r=float(r["p_r"])) for r in reader]


def write_observability(path, windows: Sequence[ObservabilityWindow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("start_step", "observable", "min_anti_diag", "max_anti_diag"))
        for w in windows:
            writer.writerow((str(w.start_step), str(int(w.observable)),
                             _fmt(w.min_anti_diag), _fmt(w.max_anti_diag)))
