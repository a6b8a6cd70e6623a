"""Linear time-varying realization of the connected-share dynamics.

The state is the per-segment ratio of total to connected density.  Its
one-step dynamics are linear in the state once the connected-vehicle
aggregates are treated as known time-varying coefficients:

    x(k+1) = A(k) x(k) + B(k) u(k),      y(k) = x_N(k),

with A lower bidiagonal and the output reading the exit segment.  A run's
realization is one ``BandedLtv``: the diagonal and sub-diagonal of every
A(k) and the inputs of every B(k) u(k), stacked over the steps and built in
one vectorised pass over a run's stacked frames.  Two builders are provided:
one consuming measured total ramp outflows, one substituting exit-rate
fractions for unmeasured off-ramp flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HighwayGeometry, StepRecord, _as_step_array
from .metanet import MeasurementFrame

# Floor for the denominator sequence; measurement noise can push it
# nonpositive on a near-empty segment, where the ratio dynamics degenerate.
EPS_G = 1e-6

# A window is observable when every anti-diagonal magnitude exceeds this.
OBSERVABILITY_TOL = 1e-12


@dataclass(frozen=True)
class BandedLtv(StepRecord):
    """Coefficients of M consecutive steps; row k belongs to step k.

    A(k) has ``diag[k]`` on its diagonal and ``sub[k]`` below it, so
    ``sub[k, i]`` is A(k)[i+1, i].  B(k) u(k) is ``gain[k] * u[k, 1:]`` with
    ``gain[k, 0] * u[k, 0]`` (the entry flow) added to the first segment.
    ``g`` holds the clamped denominators, ``gain`` is T/(Delta_i g_i).
    """

    diag: np.ndarray    # (M, N)
    sub: np.ndarray     # (M, N-1)
    gain: np.ndarray    # (M, N)
    u: np.ndarray       # (M, N+1)
    g: np.ndarray       # (M, N)

    _segment_fields = ("diag",)

    def __post_init__(self):
        m, n = np.shape(self.diag)
        for name, width in (("sub", n - 1), ("gain", n), ("u", n + 1), ("g", n)):
            if np.shape(getattr(self, name)) != (m, width):
                raise ValueError(f"{name} must have shape {(m, width)}")

    @property
    def n_clamped(self) -> int:
        """Denominators that hit the floor, for run diagnostics."""
        return int(np.count_nonzero(self.g <= EPS_G))

    def apply_a(self, k: int, v: np.ndarray) -> np.ndarray:
        """A(k) v along the last axis of v; leading axes are a batch."""
        out = self.diag[k] * v
        out[..., 1:] += self.sub[k] * v[..., :-1]
        return out

    def propagate(self, k: int, x: np.ndarray) -> np.ndarray:
        """A(k) x + B(k) u(k) along the last axis of x; leading axes are a batch."""
        drive = self.gain[k] * self.u[k, 1:]
        drive[0] += self.gain[k, 0] * self.u[k, 0]
        return self.apply_a(k, x) + drive


def selector_output(n: int, segment: int) -> np.ndarray:
    """Output row selecting an arbitrary segment (1-based)."""
    if not 1 <= segment <= n:
        raise ValueError(f"segment {segment} outside 1..{n}")
    c = np.zeros(n)
    c[segment - 1] = 1.0
    return c


def _connected_flows(frames: MeasurementFrame, geom: HighwayGeometry):
    """(q_a upstream, q_a, rho_a) of the stacked frames, each (M, N)."""
    if len(frames) == 0:
        raise ValueError("need at least one frame")
    if frames.n_segments != geom.n_segments:
        raise ValueError("frame size does not match geometry")
    q_a = frames.q_a_seg
    return np.column_stack((frames.q0_a, q_a[:, :-1])), q_a, frames.rho_a_seg


def _banded(geom: HighwayGeometry, rho_a: np.ndarray, q_a: np.ndarray,
            sub_flow: np.ndarray, g_raw: np.ndarray, u: np.ndarray) -> BandedLtv:
    """Common assembly given denominators and the sub-diagonal flow terms."""
    td = geom.t_over_delta
    g = np.where(g_raw <= EPS_G, EPS_G, g_raw)
    return BandedLtv(diag=(rho_a - td * q_a) / g, sub=td[1:] * sub_flow[:, 1:] / g[:, 1:],
                     gain=td / g, u=u, g=g)


def build_system_measured(frames: MeasurementFrame, geom: HighwayGeometry) -> BandedLtv:
    """Realization over the stacked ``frames`` consuming measured ramp totals.

    The denominators are g_i = rho_a_i + (T/Delta_i)(q_a_{i-1} - q_a_i + r_a_i
    - s_a_i), the next-step connected density predicted from the frame,
    clamped below at EPS_G.  Step k's input vector is [entry total flow,
    r_1 - s_1, ..., r_N - s_N] from the frame's detector readings.
    """
    q_a_up, q_a, rho_a = _connected_flows(frames, geom)
    td = geom.t_over_delta
    g_raw = rho_a + td * (q_a_up - q_a + frames.r_a - frames.s_a)
    u = np.column_stack((frames.q0_meas, frames.r_meas - frames.s_meas))
    return _banded(geom, rho_a, q_a, q_a_up, g_raw, u)


def build_system_unmeasured_offramps(frames: MeasurementFrame, geom: HighwayGeometry,
                                     exit_rates_a) -> BandedLtv:
    """Realization over the stacked ``frames``, off-ramp totals replaced by exit-rate fractions.

    ``exit_rates_a`` is the per-segment connected exit-rate vector (zero off
    the ramps).  Assumes total and connected exit rates coincide, which
    turns the unknown off-ramp outflow into a rescaling of the upstream-flow
    coupling; the input vector drops to [entry total flow, r_1, ..., r_N]
    and no off-ramp detector readings are consumed.
    """
    beta = _as_step_array(exit_rates_a, (geom.n_segments,), "exit_rates_a")
    if np.any(beta < 0) or np.any(beta >= 1):
        raise ValueError("exit rates must lie in [0, 1)")
    q_a_up, q_a, rho_a = _connected_flows(frames, geom)
    td = geom.t_over_delta
    scaled_up = (1.0 - beta) * q_a_up
    g_raw = rho_a + td * (scaled_up - q_a) + td * frames.r_a
    u = np.column_stack((frames.q0_meas, frames.r_meas))
    return _banded(geom, rho_a, q_a, scaled_up, g_raw, u)


def observability_matrix(sys: BandedLtv, output_row: np.ndarray | None = None) -> np.ndarray:
    """Stack output rows over the first N-1 steps: C, C A(0), ..., C A(N-2)...A(0).

    The dense reference: each A(k) is formed from the band and the chain is
    multiplied out.  With the exit output and lower-bidiagonal A the result
    is anti-lower triangular: zero above the anti-diagonal.
    """
    n = sys.n_segments
    if len(sys) < n - 1:
        raise ValueError(f"need {n - 1} consecutive steps for dimension {n}")
    c = selector_output(n, n) if output_row is None else np.asarray(output_row, dtype=float)
    rows = [c]
    prod = np.eye(n)
    for k in range(n - 1):
        a = np.diag(sys.diag[k])
        a[np.arange(1, n), np.arange(n - 1)] = sys.sub[k]
        prod = a @ prod
        rows.append(c @ prod)
    return np.stack(rows)


def anti_diagonal(mat: np.ndarray) -> np.ndarray:
    """Entries O[m, N-1-m], read top row first."""
    n = mat.shape[0]
    return mat[np.arange(n), n - 1 - np.arange(n)]


def window_anti_diagonals(sys: BandedLtv, stride: int = 1) -> np.ndarray:
    """Anti-diagonal of O for every window of N-1 steps, one row per window.

    Windows start at steps 0, stride, 2*stride, ... as long as they fit.
    Entry m of the window starting at k0 has exactly one nonzero path, the
    product of sub[k0 + j, N-1-m+j] over j = 0..m-1.  The factors are taken
    earliest step first, the order of the dense chain, so every row equals
    ``anti_diagonal(observability_matrix(sys[k0:k0 + N - 1]))`` bit for bit.
    """
    n = sys.n_segments
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if len(sys) < n - 1:
        raise ValueError(f"an observability window needs {n - 1} steps for "
                         f"{n} segments; the run has {len(sys)}")
    starts = np.arange(0, len(sys) - n + 2, stride)
    out = np.ones((len(starts), n))
    for j in range(n - 1):
        m = np.arange(j + 1, n)
        out[:, m] *= sys.sub[(starts + j)[:, None], n - 1 - m + j]
    return out


def interior_sensor_dead_columns(sys: BandedLtv, segment: int) -> list[int]:
    """Segments (1-based) whose columns of O are identically zero when the
    single output sits at ``segment``.

    The flow of information is strictly downstream, so a detector at segment
    J leaves segments J+1..N unreconstructable for every window length;
    empty only when the detector is at the exit.
    """
    o = observability_matrix(sys, output_row=selector_output(sys.n_segments, segment))
    return [c + 1 for c in range(sys.n_segments) if not o[:, c].any()]
