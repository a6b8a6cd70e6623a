"""Experiment runner: simulate, estimate, score, sweep, and write CSV.

The estimator reads a run of M+1 measurement frames and the scenario, never
the truth run: frame k yields A(k), B(k) u(k), and z(k), and the realization
is built one chunk of ``STEP_CHUNK`` frames at a time.  ``run_filter`` runs
the scenario's ``filter``, one ``KalmanConfig`` or a batch of them
(``KalmanConfig.stack``), in one loop; the tuning has no other way in.  Its
``EstimateRun`` keeps x^ and the frames, and derives the totals from them on
each read, so a caller who reads them more than once keeps the arrays.
``run_experiment`` and ``q_sweep`` simulate, pass ``truth.frames`` and alone
score against the truth; ground truth never depends on filter tuning, so a
sweep runs every tuning point on one truth run, as one batch in a copy.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _rows
from ._rows import TRAJECTORY_COLUMNS
from .core import STEP_CHUNK
from .kalman import (PSD_TOL, KalmanConfig, StepScratch, filter_step, output_measurement,
                     reconstruct_totals)
from .ltv import (OBSERVABILITY_TOL, BandedLtv, build_system_measured,
                  build_system_unmeasured_offramps, check_windows, window_anti_diagonals)
from .metanet import MeasurementFrame, TruthRun, TruthSimulator
from .scenario import Scenario


@dataclass(frozen=True)
class EstimateRun:
    """Filter outputs over a run; row k is the estimate at step k.

    Shapes follow the scenario's filter: a batch of S (``KalmanConfig.stack``)
    puts the member axis first, so ``x_hat[i]`` is member i's run; in the
    totals, derived on each read, a batch broadcasts against the one run.
    """

    x_hat: np.ndarray          # batch + (M+1, N) inverse-share estimates
    innovation: np.ndarray     # batch + (M,) scalar innovations
    # Per member: min of lambda_min(P0) = p0_sigma, lambda_min(P_M) and each
    # lambda_min < -PSD_TOL at a step that neither the O(N) bound nor the
    # shifted Cholesky cleared (see run_filter).
    min_p_eigenvalue: float | np.ndarray
    g_clamp_count: int
    z_fallback_count: int      # steps that reused the previous output
    frames: MeasurementFrame   # the M+1 frames the filter read, held, never copied

    @property
    def rho_hat(self) -> np.ndarray:
        """batch + (M+1, N) total densities rho_a * x_hat, computed on each read."""
        return reconstruct_totals(self.x_hat, self.frames.rho_a_seg)[0]

    @property
    def q_hat(self) -> np.ndarray:
        """batch + (M+1, N) total flows q_a * x_hat, computed on each read."""
        return reconstruct_totals(self.x_hat, self.frames.q_a_seg)[0]


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    truth: TruthRun
    estimate: EstimateRun | None
    p_r: float | None
    runtime_s: float


def simulate_truth(sc: Scenario) -> TruthRun:
    """Ground-truth trajectory over the scenario horizon."""
    return TruthSimulator(sc).run()


def build_systems(sc: Scenario, frames: MeasurementFrame) -> BandedLtv:
    """The realization of one transition per frame of the stacked ``frames``,
    which are all that the estimator sees of a run."""
    if sc.offramp_mode == "unmeasured":
        return build_system_unmeasured_offramps(sc, frames)
    return build_system_measured(sc, frames)


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _weyl_floor(top: float, p_nn: float, floor: float, a: float, q: float, r_cov: float,
                n: int) -> float:
    """A lower bound on lambda_min of the covariance that ``filter_step`` makes
    from P, for one member, on floats, given that P is exactly symmetric with
    lambda_min(P) >= ``floor``, ``top`` = max|P_ii| and ``p_nn`` = P_NN.

    ``a`` bounds every row and column sum of |A(k)|, and Q = q*I, so q is both
    lambda_min(Q) and max|Q_ij|.  The derivation is in ``run_filter``;
    the 32 eps taken off q and the factor 1 + 32 eps cover this function's
    own rounding.  Where no bound follows (a NaN or infinite input, or
    P_NN + R <= 0) the result is NaN or -inf, "no bound": every comparison
    with NaN is false, and -inf + PSD_TOL never exceeds the certificate's
    margin, so neither certifies a step.  Given ``top`` and ``a`` >= 0 or
    NaN, as maxima of absolute values are, it never raises: the guard keeps
    ``math.sqrt`` and the divisions defined, and squares are products,
    since a float's ``** 2`` can raise OverflowError.
    """
    denom = p_nn + r_cov
    if not denom > 0.0:
        return math.nan
    lost = max(-floor, 0.0)                   # max(0, -l); NaN stays NaN
    m = top + lost                             # >= every |P_ij|
    gain = math.sqrt(m * (abs(p_nn) + lost) / denom) / math.sqrt(denom)    # >= every |K_i|
    a2 = a * a
    norm = 1.0 + math.sqrt(n) * gain           # >= ||I - KC||_2
    weyl = lost * (norm * norm) * a2
    b = 1.0 + a
    rounding = 16 * n * (_EPS * (a2 * (1.0 + gain) * m + q) + _TINY * (b * b) * (1.0 + m))
    return q - 32 * _EPS * q - (weyl + rounding) * (1 + 32 * _EPS)


def run_filter(sc: Scenario, frames: MeasurementFrame) -> EstimateRun:
    """Run the scenario's filter, or its batch of filters, along a run of M+1 frames.

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
    symmetric (P0 = p0_sigma*I is, and the symmetrisation makes every later
    P so) with lambda_min >= l(k), and write l- = max(0, -l(k)).  With
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
    rounding error of the gain, of (I-KC)P, of the A P and (A P) A' passes,
    of + Q and of the symmetrisation (no entry's error reaches
    12 eps a^2 (1+g) M + 3 eps max|Q| plus underflow, and ||E||_2 <=
    N max|E_ij|), where lambda_min(Q) = max|Q| = q_sigma.  The memory layout
    of those passes does not enter: each entry of A P and of (A P) A' gets
    the two products and one sum of applying A to the columns, then the rows.
    A step is certified when
    l(k+1) + PSD_TOL > 16 N (N+1) eps (max|P_ii| + PSD_TOL):
    the shift differs from PSD_TOL by at most N (N+1) eps max|P_ii|, so
    P + shift*I then meets Demmel's condition for the factorisation to
    succeed (Higham, Accuracy and Stability, Thm 10.7) with a factor of 8
    to spare.  A certified step also needs l(k+1) <= min P_ii, which every
    true bound meets; a P that the update did not produce may fail it.
    The bound and the certificate run per member, on Python floats: each
    step reads P_NN, max|P_ii| and min P_ii of every member once, and the
    one path serves one filter and a batch alike.  When any member of a
    batch is not certified, the whole batch is factorised, so every output
    equals that of factorising at every step.  l(0) = p0_sigma =
    lambda_min(P0), so the first step is certified like any other and a
    healthy run never factorises.  A factorisation sets every member's bound
    to -PSD_TOL when it succeeds and to -inf when it fails.  A bound that is
    NaN or -inf (``_weyl_floor``'s "no bound") certifies no step, so the
    batch is factorised until a success restores -PSD_TOL.
    """
    config = sc.filter
    m, n, batch = len(frames) - 1, sc.geometry.n_segments, np.shape(config.q_sigma)
    x = np.full(batch + (n,), np.asarray(config.x0_value)[..., None])
    p = np.asarray(config.p0_sigma)[..., None, None] * np.eye(n)
    x_hat = np.empty(batch + (m + 1, n))
    innovation = np.empty(batch + (m,))
    x_hat[..., 0, :] = x

    # Rump's bound on Cholesky's rounding error (BIT 46, 2006): a floating-point
    # Cholesky of A - c*I with c >= (n+1)*eps*trace(A) proves A positive definite.
    rounding = (n + 1) * _EPS
    margin = 16 * n * (n + 1) * _EPS
    min_eig = config.p0_sigma
    q_sigma, r_cov = np.ravel(config.q_sigma).tolist(), np.ravel(config.r_cov).tolist()
    # One float per member: lambda_min(P0) = max|P0_ii| = P0_NN = p0_sigma,
    # and floors[i] <= lambda_min of member i's P.
    floors = tops = p_nn = np.ravel(config.p0_sigma).tolist()
    fallbacks = clamps = 0
    last_z: float | None = None
    scratch = StepScratch(config, n)
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
                floors = [_weyl_floor(t, pn, f, a, q, r, n)
                          for t, pn, f, q, r in zip(tops, p_nn, floors, q_sigma, r_cov)]
                try:
                    x, p, innovation[..., k] = filter_step(x, p, systems, j, z, scratch)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{exc} at step {k}") from exc
                x_hat[..., k + 1, :] = x
                diag = p.diagonal(0, -2, -1)
                p_nn = p[..., -1, -1].ravel().tolist()
                tops = np.abs(diag).max(axis=-1).ravel().tolist()
                lows = diag.min(axis=-1).ravel().tolist()
                if all(f <= lo and f + PSD_TOL > margin * (t + PSD_TOL)
                       for f, lo, t in zip(floors, lows, tops)):
                    continue               # the factorisation below would succeed
                shift = PSD_TOL - rounding * np.trace(p, axis1=-2, axis2=-1)
                shifted = p.copy()
                np.einsum("...ii->...i", shifted)[...] += shift[..., None]
                try:
                    # Succeeds only if every member's lambda_min(P) > -PSD_TOL.
                    np.linalg.cholesky(shifted)
                    bound = -PSD_TOL
                except np.linalg.LinAlgError:
                    bound = -math.inf
                    # Fold only the members that failed, so each keeps its unbatched value.
                    step_min = np.linalg.eigvalsh(p).min(axis=-1)
                    min_eig = np.where(step_min < -PSD_TOL, np.minimum(min_eig, step_min), min_eig)
                floors = [bound] * len(floors)
            del systems                    # not alive while the next chunk's is built
    min_eig = np.minimum(min_eig, np.linalg.eigvalsh(p).min(axis=-1))
    return EstimateRun(x_hat=x_hat, innovation=innovation,
                       min_p_eigenvalue=min_eig if batch else float(min_eig),
                       g_clamp_count=clamps, z_fallback_count=fallbacks, frames=frames)


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
    one batch through ``run_filter``, so every point scores against
    identical data and equals ``run_filter`` with its own Q bit for bit.  No
    totals are reconstructed: the score reads the share estimates.  Raises
    ValueError, before simulating, unless ``sigmas`` is a nonempty list of
    values that pass the rule of ``KalmanConfig.q_sigma``.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("need at least one sigma")
    batch = KalmanConfig.stack([dataclasses.replace(sc.filter, q_sigma=s) for s in sigmas])
    truth = simulate_truth(sc)
    run = run_filter(dataclasses.replace(sc, filter=batch), truth.frames)
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
    given; raises ValueError when ``stride`` < 1 or M < N-1, one window's steps,
    before it simulates or builds anything."""
    check_windows(sc.n_steps if frames is None else len(frames) - 1,
                  sc.geometry.n_segments, stride)
    if frames is None:
        frames = simulate_truth(sc).frames
    # The windows span chunks and read only the sub-diagonal, so each chunk keeps that alone.
    head = frames[:-1]                     # one frame per transition
    sub = np.empty((len(head), sc.geometry.n_segments - 1))
    for start in range(0, len(head), STEP_CHUNK):
        sub[start:start + STEP_CHUNK] = build_systems(sc, head[start:start + STEP_CHUNK]).sub
    mags = np.abs(window_anti_diagonals(sub, stride))
    lows, highs = mags.min(axis=1), mags.max(axis=1)
    return [ObservabilityWindow(start_step=w * stride, observable=bool(lo > OBSERVABILITY_TOL),
                                min_anti_diag=float(lo), max_anti_diag=float(hi))
            for w, (lo, hi) in enumerate(zip(lows, highs))]


# --- CSV output -----------------------------------------------------------
# Floats are written with repr(), which round-trips float64 exactly.


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trajectory(path, result: RunResult) -> None:
    """One row per (step, segment); estimate columns empty for truth-only runs.

    The scalar innovation of step k is repeated on each of the step's rows
    and left empty on the final step, which has no measurement update.
    ``_rows.write_steps`` defines a row.  Two processes meet in the middle
    of one grid of blocks (see ``_rows``); a block belongs to whichever
    creates its file in a temporary folder first.  This one claims blocks
    from step 0 forwards and writes them into ``path``; a helper
    interpreter, ``sys.executable -I -S _rows.py``, claims them from step M
    backwards, each into the file that claims it, reading every step's raw
    float64 values from an unnamed temporary file.  Each stops at the first
    block the other has claimed; this one then waits for the helper and
    appends its blocks in step order.  The bytes are those one process
    writing every step would write, however fast either process runs.
    Raises OSError naming ``path`` when the helper exits with a failure
    status; on any error no file is left at ``path`` and the helper has been
    reaped.
    """
    import subprocess                     # here: loading the package never needs it

    truth = result.truth
    est = result.estimate
    m, n = truth.n_steps, truth.states.n_segments
    fields = [getattr(truth.states, name) for name in _rows.TRUTH_FIELDS]
    innovation = None
    if est is not None:
        fields += [*reconstruct_totals(est.x_hat, est.frames.rho_a_seg, est.frames.q_a_seg),
                   est.x_hat]
        innovation = np.ascontiguousarray(est.innovation, dtype=np.float64)
    columns = [np.ascontiguousarray(f, dtype=np.float64).reshape(-1) for f in fields]
    steps = _rows.block_steps(n)
    firsts = range(0, m + 1, steps)
    handle = open(path, "w", newline="", encoding="utf-8")
    try:
        with handle, tempfile.TemporaryFile() as data, tempfile.TemporaryDirectory() as folder:
            for column in columns:
                data.write(column)
            if innovation is not None:
                data.write(innovation)
            data.seek(0)                  # flushes, so the helper reads every byte
            with subprocess.Popen([sys.executable, "-I", "-S", _rows.__file__, folder,
                                   str(m), str(n), str(int(est is not None))],
                                  stdin=data) as helper:
                try:
                    handle.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
                    meet = len(firsts)
                    for block, first in enumerate(firsts):
                        try:
                            open(os.path.join(folder, str(first)), "x").close()
                        except FileExistsError:
                            meet = block
                            break
                        _rows.write_steps(handle, first, min(first + steps, m + 1), m, n,
                                          columns, innovation)
                except BaseException:
                    helper.kill()
                    raise
            if helper.returncode:
                raise OSError(f"{path}: the row helper exited with status {helper.returncode}")
            handle.flush()
            for first in firsts[meet:]:
                with open(os.path.join(folder, str(first)), "rb") as rows:
                    handle.buffer.write(rows.read())
    except BaseException:
        os.remove(path)
        raise


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


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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
    _write_csv(path, ("metric", "value"), rows)


def write_sweep(path, points: Sequence[SweepPoint]) -> None:
    _write_csv(path, ("sigma", "p_r"), ((_fmt(p.sigma), _fmt(p.p_r)) for p in points))


def write_observability(path, windows: Sequence[ObservabilityWindow]) -> None:
    _write_csv(path, ("start_step", "observable", "min_anti_diag", "max_anti_diag"),
               ((str(w.start_step), str(int(w.observable)), _fmt(w.min_anti_diag),
                 _fmt(w.max_anti_diag)) for w in windows))
