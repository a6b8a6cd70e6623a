"""Experiment runner: simulate, estimate, score, sweep, and write CSV.

The estimator reads a run of M+1 measurement frames and the scenario, never
the truth run: frame k yields A(k), B(k) u(k), and z(k), and the realization
is built one chunk of ``STEP_CHUNK`` frames at a time.  ``estimate_shares``
runs one filter or a batch of them (``KalmanConfig.stack``) in one loop, and
``run_filter`` adds the reconstructed totals, which a sweep does not need.
``run_experiment`` and ``q_sweep`` simulate, pass ``truth.frames`` and alone
score against the truth; ground truth never depends on filter tuning, so a
sweep runs every tuning point on one truth run as one batch.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import STEP_CHUNK
from .kalman import PSD_TOL, KalmanConfig, filter_step, output_measurement, reconstruct_totals
from .ltv import (OBSERVABILITY_TOL, BandedLtv, build_system_measured,
                  build_system_unmeasured_offramps, window_anti_diagonals)
from .metanet import MeasurementFrame, TruthRun, TruthSimulator
from .scenario import Scenario


@dataclass(frozen=True)
class ShareEstimate:
    """Filter outputs over a run; row k is the estimate at step k.

    Shapes follow the config: a batch of S filters (``KalmanConfig.stack``)
    puts the member axis first, so ``x_hat[i]`` is member i's run.
    """

    x_hat: np.ndarray          # batch + (M+1, N) inverse-share estimates
    innovation: np.ndarray     # batch + (M,) scalar innovations
    # Per member: min of lambda_min(P0), lambda_min(P_M) and each lambda_min < -PSD_TOL
    # at a step that neither the O(N) bound nor the shifted Cholesky cleared
    # (see estimate_shares).
    min_p_eigenvalue: float | np.ndarray
    g_clamp_count: int
    z_fallback_count: int      # steps that reused the previous output


@dataclass(frozen=True)
class EstimateRun(ShareEstimate):
    """A ``ShareEstimate`` with the totals reconstructed from it."""

    rho_hat: np.ndarray        # batch + (M+1, N) reconstructed total densities
    q_hat: np.ndarray          # batch + (M+1, N) reconstructed total flows


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


def build_systems(sc: Scenario, frames: MeasurementFrame) -> BandedLtv:
    """The realization of one transition per frame of the stacked ``frames``,
    which are all that the estimator sees of a run."""
    if sc.offramp_mode == "unmeasured":
        return build_system_unmeasured_offramps(frames, sc.geometry, sc.layout)
    return build_system_measured(frames, sc.geometry, sc.layout)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _weyl_floor(top, p_nn, floor, a: float, q_floor, q_max, r_cov, n: int):
    """A lower bound on lambda_min of the covariance that ``filter_step`` makes
    from P, per member, given that P is exactly symmetric with lambda_min(P)
    >= ``floor``, ``top`` = max|P_ii| and ``p_nn`` = P_NN.

    ``a`` bounds every row and column sum of |A(k)|, ``q_floor`` bounds
    lambda_min(Q) from below (less its share of the slack below) and
    ``q_max`` is max|Q_ij|.  The derivation is in ``estimate_shares``; the factor
    1 + 32 eps covers this function's own rounding.  Where no bound follows
    (a NaN or infinite input, or P_NN + R <= 0) the result is -inf or NaN,
    which every comparison treats as no bound.
    """
    lost = np.maximum(-floor, 0.0)            # max(0, -l); NaN stays NaN
    m = top + lost                             # >= every |P_ij|
    denom = p_nn + r_cov
    gain = np.sqrt(m * (abs(p_nn) + lost) / denom) / np.sqrt(denom)    # >= every |K_i|
    a2 = a * a
    weyl = lost * (1.0 + math.sqrt(n) * gain) ** 2 * a2
    rounding = 16 * n * (_EPS * (a2 * (1.0 + gain) * m + q_max)
                         + _TINY * (1.0 + a) ** 2 * (1.0 + m))
    return q_floor - (weyl + rounding) * (1 + 32 * _EPS)


def estimate_shares(sc: Scenario, frames: MeasurementFrame,
                    config: KalmanConfig | None = None) -> ShareEstimate:
    """Run the filter, or the batch ``config``, along a run of M+1 frames.

    The realization is built from ``STEP_CHUNK`` frames at a time, as the
    loop reaches them; each row equals that of the whole run's realization.
    Every member of a batch sees the same realization and measurements, and
    each equals its own unbatched run bit for bit.  Raises FloatingPointError,
    naming the step of the run, as soon as any member's state becomes
    non-finite; that check reports an overflow, so numpy's warnings are off.

    Positive semidefiniteness: ``min_p_eigenvalue`` is the smallest of
    lambda_min(P0), lambda_min of the final P, and every exact lambda_min
    below -PSD_TOL at a step whose shifted Cholesky fails.  The Cholesky is
    of P + PSD_TOL*I less Rump's bound on its own rounding error, one call
    over the whole batch, so its success proves every lambda_min(P) >
    -PSD_TOL; only when it fails are the eigenvalues computed.  The value is
    the exact minimum over the run once P has lost semidefiniteness;
    otherwise it may exceed the exact minimum, but every step's lambda_min is
    then above -PSD_TOL, so ``diverged`` gives the exact minimum's verdict.

    The factorisation runs only at steps where an O(N) lower bound l(k) on
    lambda_min(P(k)) cannot show that it would succeed.  Let P(k) be exactly
    symmetric (the symmetrisation makes it so from step 1 on) with
    lambda_min >= l(k), and write l- = max(0, -l(k)).  With
    K = P C'/(P_NN + R) the update P - K C P is the Joseph form
    (I-KC) P (I-KC)' + K R K', which is >= -l- ||I-KC||^2 I.  Let
    a = max|A_ii| + max|A_i+1,i|, which bounds every row and column sum of
    |A(k)|, so ||A||_2 <= a; M = max|P_ii| + l-, which by Cauchy-Schwarz
    bounds every |P_ij|; and g = sqrt(M (|P_NN| + l-)) / (P_NN + R), which
    bounds every |K_i|, so ||I-KC||_2 <= 1 + sqrt(N) g.  Weyl's inequality
    then gives

        lambda_min(P(k+1)) >= lambda_min(Q) - l- (1 + sqrt(N) g)^2 a^2
                              - 16 N (eps (a^2 (1+g) M + max|Q|) + tiny (1+M)(1+a)^2)

    for the computed P(k+1): the last term bounds the spectral norm of the
    rounding error of the gain, of (I-KC)P, of both ``apply_a`` passes, of
    + Q and of the symmetrisation (no entry's error reaches
    12 eps a^2 (1+g) M + 3 eps max|Q| plus underflow, and ||E||_2 <=
    N max|E_ij|).  lambda_min(Q) is bounded by Gershgorin's discs, so a Q
    that is not diagonally dominant never certifies a step.  A step is
    certified when l(k+1) + PSD_TOL > 16 N (N+1) eps (max|P_ii| + PSD_TOL):
    the shift differs from PSD_TOL by at most N (N+1) eps max|P_ii|, so
    P + shift*I then meets Demmel's condition for the factorisation to
    succeed (Higham, Accuracy and Stability, Thm 10.7) with a factor of 8
    to spare.  A certified step also needs l(k+1) <= min P_ii, which every
    true bound meets; a P that the update did not produce may fail it.
    When any member of a batch is not certified, the whole batch is
    factorised, so every output equals that of factorising at every step.
    P0 carries no bound (it need not be exactly symmetric), so the first
    step is always factorised; a factorisation sets every member's bound to
    -PSD_TOL when it succeeds and drops it when it fails.
    """
    if config is None:
        config = sc.filter_config()
    m = len(frames) - 1
    x, p = config.x0, config.p0            # filter_step never writes to its inputs
    batch, n = x.shape[:-1], x.shape[-1]
    x_hat = np.empty(batch + (m + 1, n))
    innovation = np.empty(batch + (m,))
    x_hat[..., 0, :] = x

    min_eig = np.linalg.eigvalsh(p).min(axis=-1)
    eye = np.eye(n)
    # Rump's bound on Cholesky's rounding error (BIT 46, 2006): a floating-point
    # Cholesky of A - c*I with c >= (n+1)*eps*trace(A) proves A positive definite.
    rounding = (n + 1) * _EPS
    margin = 16 * n * (n + 1) * _EPS
    # Gershgorin's bound on lambda_min(Q), an input of _weyl_floor, with
    # (1 + 4 N eps) covering the rounding of its sums, less 32 eps of it for
    # the rounding of _weyl_floor's last subtraction.
    q_off = np.abs(config.q_cov)
    q_max = q_off.max(axis=(-2, -1))
    q_off[..., range(n), range(n)] = 0.0
    q_floor = (config.q_cov.diagonal(0, -2, -1)
               - 0.5 * (1 + 4 * n * _EPS) * (q_off.sum(axis=-1) + q_off.sum(axis=-2))).min(axis=-1)
    q_floor = q_floor - 32 * _EPS * abs(q_floor)
    floor = -np.inf                        # lambda_min(P) >= floor; none for P0
    top = np.abs(p.diagonal(0, -2, -1)).max(axis=-1)
    fallbacks = clamps = 0
    last_z: float | None = None
    with np.errstate(all="ignore"):
        for start in range(0, m, STEP_CHUNK):
            systems = build_systems(sc, frames[start:min(start + STEP_CHUNK, m)])
            clamps += systems.n_clamped
            # _weyl_floor's a per step: max|A_ii| + max|A_i+1,i|, which bounds
            # every row and column sum of |A(k)| (each holds at most one entry
            # of either band).
            a_max = sum(np.maximum(band.max(axis=1, initial=0.0), -band.min(axis=1, initial=0.0))
                        for band in (systems.diag, systems.sub)).tolist()
            for j, a in enumerate(a_max):
                k = start + j
                z, used_fallback = output_measurement(frames, k, last_z)
                fallbacks += used_fallback
                last_z = z
                floor = _weyl_floor(top, p[..., -1, -1], floor, a, q_floor, q_max,
                                    config.r_cov, n)
                try:
                    x, p, innovation[..., k] = filter_step(x, p, systems, j, z, config)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{exc} at step {k}") from exc
                x_hat[..., k + 1, :] = x
                diag = p.diagonal(0, -2, -1)
                top = np.abs(diag).max(axis=-1)
                if ((floor <= diag.min(axis=-1))
                        & (floor + PSD_TOL > margin * (top + PSD_TOL))).all():
                    continue               # the factorisation below would succeed
                shift = PSD_TOL - rounding * np.trace(p, axis1=-2, axis2=-1)
                floor = -np.inf
                try:
                    # Succeeds only if every member's lambda_min(P) > -PSD_TOL.
                    np.linalg.cholesky(p + shift[..., None, None] * eye)
                    floor = -PSD_TOL
                except np.linalg.LinAlgError:
                    # Fold only the members that failed, so each keeps its unbatched value.
                    step_min = np.linalg.eigvalsh(p).min(axis=-1)
                    min_eig = np.where(step_min < -PSD_TOL, np.minimum(min_eig, step_min), min_eig)
            del systems                    # not alive while the next chunk's is built
    min_eig = np.minimum(min_eig, np.linalg.eigvalsh(p).min(axis=-1))
    return ShareEstimate(x_hat=x_hat, innovation=innovation,
                         min_p_eigenvalue=min_eig if batch else float(min_eig),
                         g_clamp_count=clamps, z_fallback_count=fallbacks)


def run_filter(sc: Scenario, frames: MeasurementFrame,
               config: KalmanConfig | None = None) -> EstimateRun:
    """``estimate_shares`` with the total densities and flows reconstructed
    from its estimates and the frames' connected densities and flows; the
    filter's loop arrays are freed before the totals are allocated."""
    shares = estimate_shares(sc, frames, config)
    rho_hat, q_hat = reconstruct_totals(shares.x_hat, frames.rho_a_seg, frames.q_a_seg)
    return EstimateRun(**vars(shares), rho_hat=rho_hat, q_hat=q_hat)


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
    err = np.multiply(rho_a, x_hat, dtype=float)       # (rho - rho_a * x_hat)^2 in one buffer
    np.subtract(rho, err, out=err)
    np.square(err, out=err)
    rms = math.sqrt(float(np.sum(err)) / (m * n))
    return rms / mean_rho


def run_experiment(sc: Scenario) -> RunResult:
    """Full pipeline: truth, measurements, filter, reconstruction, score."""
    start = time.perf_counter()
    truth = simulate_truth(sc)
    estimate = run_filter(sc, truth.frames)
    p_r = performance_index(truth.states.rho, truth.states.rho_a, estimate.x_hat)
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
    min_p_eigenvalue: float     # not stored in sweep.csv


def q_sweep(sc: Scenario, sigmas: Sequence[float]) -> list[SweepPoint]:
    """Score the filter with Q = sigma*I for each sigma; R stays at the scenario value.

    One truth trajectory and realization are shared, and all points run as
    one batch through ``estimate_shares``, so every point scores against
    identical data and equals ``run_filter`` with its own Q bit for bit.  No
    totals are reconstructed: the score reads the share estimates.  Raises
    ValueError, before simulating, unless ``sigmas`` is a nonempty list of
    values that pass the rules of ``Scenario.q_sigma``.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("need at least one sigma")
    config = KalmanConfig.stack([dataclasses.replace(sc, q_sigma=s).filter_config()
                                 for s in sigmas])
    truth = simulate_truth(sc)
    run = estimate_shares(sc, truth.frames, config=config)
    rho, rho_a = truth.states.rho, truth.states.rho_a
    return [SweepPoint(sigma=s, p_r=performance_index(rho, rho_a, run.x_hat[i]),
                       min_p_eigenvalue=float(run.min_p_eigenvalue[i]))
            for i, s in enumerate(sigmas)]


@dataclass(frozen=True)
class ObservabilityWindow:
    start_step: int
    observable: bool
    min_anti_diag: float
    max_anti_diag: float


def observability_trace(sc: Scenario, frames: MeasurementFrame | None = None,
                        stride: int = 1) -> list[ObservabilityWindow]:
    """Sliding-window observability report over M+1 frames, simulated if none are
    given; raises ValueError when ``stride`` < 1 or M < N-1, one window's steps."""
    if frames is None:
        frames = simulate_truth(sc).frames
    # The windows span chunks, so the whole run's realization is built.
    mags = np.abs(window_anti_diagonals(build_systems(sc, frames[:-1]), stride))
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


def _grid_shape(step: np.ndarray, segment: np.ndarray, path) -> tuple[int, int]:
    """The (M+1, N) grid whose cells the rows hold in the writer's order: row
    r holds step r // N and segment r % N + 1, N the largest segment; raises
    ValueError naming the line of a pair out of range, repeated or misplaced."""
    out_of_range = np.flatnonzero((step < 0) | (segment < 1))
    if out_of_range.size:
        raise ValueError(f"{path}, line {out_of_range[0] + 2}: step must be >= 0 "
                         f"and segment >= 1")
    n = int(segment.max())
    cell = np.arange(step.size)
    misplaced = np.flatnonzero((step != cell // n) | (segment != cell % n + 1))
    if misplaced.size:
        row = misplaced[0]
        k, i = divmod(int(row), n)
        if (step[row], segment[row]) < (k, i + 1):    # every smaller pair has had its row
            raise ValueError(f"{path}, line {row + 2}: repeats step {step[row]}, "
                             f"segment {segment[row]}")
        raise ValueError(f"{path}: no row for step {k}, segment {i + 1} at line {row + 2}")
    k, i = divmod(step.size, n)
    if i:
        raise ValueError(f"{path}: no row for step {k}, segment {i + 1}")
    return k, n


# One parsed row: integer step and segment, then the float columns.
_INTEGER_COLUMNS = ("step", "segment")
_ROW = np.dtype([(name, np.int64 if name in _INTEGER_COLUMNS else np.float64)
                 for name in TRAJECTORY_COLUMNS])
_CHUNK = 1 << 16                          # characters read at a time


def _lines_with_nan(text: str) -> list[str]:
    """The lines of ``text``, which ends a line, with every empty cell but a
    leading one written as ``nan``; raises ValueError at a blank line, which
    ``np.loadtxt`` would skip."""
    lines = text.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
    lines = lines.split("\n")
    lines.pop()                           # the empty string after the last newline
    if "" in lines:
        raise ValueError("a blank line")
    return lines


def _body_lines(handle):
    """The lines after the header, read a chunk at a time; raises ValueError
    at a blank line and when there is no line."""
    rest, empty = "", True
    while chunk := handle.read(_CHUNK):
        text, empty = rest + chunk, False
        cut = text.rfind("\n") + 1
        rest = text[cut:]
        yield from _lines_with_nan(text[:cut])
    if empty:
        raise ValueError("no rows after the header")
    if rest:
        yield from _lines_with_nan(rest + "\n")


def _not_utf8(line: str) -> str | None:
    """Why a line is not UTF-8, or None; read with ``errors="surrogateescape"``,
    each byte that is not UTF-8 is a lone surrogate, which no other check accepts."""
    escaped = re.search("[\udc80-\udcff]", line)
    return escaped and f"byte {ord(escaped[0]) - 0xdc00:#04x} is not UTF-8"


def _line_fault(line: str) -> str | None:
    """Why a line after the header is not a row that ``write_trajectory``
    writes, or None."""
    if problem := _not_utf8(line):
        return problem
    if line.startswith("#"):
        return "a comment line; the writer writes none"
    if '"' in line:
        return "a quoted cell; the writer never quotes"
    cells = line.split(",") if line else []
    if len(cells) != len(TRAJECTORY_COLUMNS):
        return f"{len(cells)} cells, the header has {len(TRAJECTORY_COLUMNS)}"
    for name, cell in zip(TRAJECTORY_COLUMNS, cells):
        integer = name in _INTEGER_COLUMNS
        try:
            int(cell) if integer else float(cell or "nan")
        except ValueError:
            return f"{name} {cell!r} is not {'an integer' if integer else 'a number'}"
    return None


def _first_fault(path, exc: ValueError) -> ValueError:
    """The error for a file that ``np.loadtxt`` refused with ``exc``: it names
    the first faulty line after the header or, where none is found (a cell
    that ``int`` or ``float`` accepts but loadtxt does not, such as ``1_0``),
    it is ``exc`` with the path."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        next(handle)
        for number, line in enumerate(handle, 2):
            problem = _line_fault(line.rstrip("\n"))
            if problem:
                return ValueError(f"{path}, line {number}: {problem}")
    return ValueError(f"{path}: {exc}")


def read_trajectory(path) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV, its rows in the order ``write_trajectory``
    writes them, back into (M+1, N) arrays keyed by column; empty cells
    read as NaN.

    ``np.loadtxt`` parses the rows with Python's correctly rounded float
    conversion, so no cell becomes a Python object.  Raises ValueError
    naming the path, and the line where there is one, of any other text: an
    empty file, a byte that is not UTF-8, a header other than
    ``TRAJECTORY_COLUMNS``, no rows, a row that the writer would not write,
    and a (step, segment) pair out of range, repeated, missing or misplaced.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        header = handle.readline()
        if not header:
            raise ValueError(f"{path}: empty file, no header")
        if header.rstrip("\n").split(",") != list(TRAJECTORY_COLUMNS):
            problem = _not_utf8(header) or f"the header is not {','.join(TRAJECTORY_COLUMNS)}"
            raise ValueError(f"{path}, line 1: {problem}")
        try:
            # A quote or a '#' is never part of a number, so loadtxt fails on
            # any line that is not a row; a blank line fails in _body_lines.
            rows = np.loadtxt(_body_lines(handle), dtype=_ROW, delimiter=",",
                              comments=None, quotechar=None, ndmin=1)
        except ValueError as exc:
            raise _first_fault(path, exc) from exc
    shape = _grid_shape(rows["step"], rows["segment"], path)
    return {col: rows[col].reshape(shape).copy() for col in TRAJECTORY_COLUMNS[2:]}


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


def write_observability(path, windows: Sequence[ObservabilityWindow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("start_step", "observable", "min_anti_diag", "max_anti_diag"))
        for w in windows:
            writer.writerow((str(w.start_step), str(int(w.observable)),
                             _fmt(w.min_anti_diag), _fmt(w.max_anti_diag)))
