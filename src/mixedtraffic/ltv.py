"""Linear time-varying realization of the connected-share dynamics.

The state is the per-segment ratio of total to connected density.  Its
one-step dynamics are linear in the state once the connected-vehicle
aggregates are treated as known time-varying coefficients:

    x(k+1) = A(k) x(k) + B(k) u(k),      y(k) = x_N(k),

with A lower bidiagonal and the output reading the exit segment.  The
realization of M consecutive steps is one ``BandedLtv``: the diagonal and
sub-diagonal of every A(k) and the drive B(k) u(k) of every step, stacked
over the steps and built in one vectorised pass over their stacked frames.
Each step's row depends on its own frame alone, so the filter builds one
chunk of steps at a time and gets the rows of the whole run's realization.
Two builders are provided: one consuming measured total ramp outflows, one
substituting exit-rate fractions for unmeasured off-ramp flows.  Both take
the run's ``Scenario``, whose rules placed its ramps on its road, and
scatter the ramp terms, one frame column per ramp, into the segments'
columns.  Each builds its four (M, N) arrays in place, with one more as scratch.

The estimator has two exact symmetries: connected columns times c scale g
and every flow it divides by c, and every flow times c with T over c leaves
g unchanged.  ``EPS_G`` floors g, a connected density in veh/km, so where it
binds in either run it breaks the first, never the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import HighwayGeometry, StepRecord, upstream
from .metanet import MeasurementFrame

if TYPE_CHECKING:                     # scenario imports kalman, which imports this module
    from .scenario import Scenario

# Floor for the denominator sequence; measurement noise can push it
# nonpositive on a near-empty segment, where the ratio dynamics degenerate.
EPS_G = 1e-6

# A window is observable when every anti-diagonal magnitude exceeds this.
OBSERVABILITY_TOL = 1e-12


@dataclass(frozen=True)
class BandedLtv(StepRecord):
    """Coefficients of M consecutive steps; row k belongs to step k.

    A(k) has ``diag[k]`` on its diagonal and ``sub[k]`` below it, so
    ``sub[k, i]`` is A(k)[i+1, i].  ``drive[k]`` is B(k) u(k): each
    segment's gain T/(Delta_i g_i) times its ramp input, plus the first
    segment's gain times the entry flow.  ``g`` holds the clamped denominators.
    """

    diag: np.ndarray    # (M, N)
    sub: np.ndarray     # (M, N-1)
    drive: np.ndarray   # (M, N)
    g: np.ndarray       # (M, N)

    _segment_fields = ("diag",)

    def __post_init__(self):
        m, n = np.shape(self.diag)
        for name, width in (("sub", n - 1), ("drive", n), ("g", n)):
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
        return self.apply_a(k, x) + self.drive[k]


def selector_output(n: int, segment: int) -> np.ndarray:
    """Output row selecting an arbitrary segment (1-based)."""
    if not 1 <= segment <= n:
        raise ValueError(f"segment {segment} outside 1..{n}")
    c = np.zeros(n)
    c[segment - 1] = 1.0
    return c


def _inflows(sc: Scenario, frames: MeasurementFrame):
    """The (M, N) connected flow entering each segment over the stacked
    ``frames``, and the 0-based columns of the layout's on- and off-ramps.
    Raises ValueError where the frames do not match the scenario's road or layout."""
    if len(frames) == 0:
        raise ValueError("need at least one frame")
    if frames.n_segments != sc.geometry.n_segments:
        raise ValueError("frame size does not match geometry")
    frames.check_ramp_columns(sc.layout)
    return (upstream(frames.q0_a, frames.q_a_seg), *sc.layout.columns())


def _banded(geom: HighwayGeometry, frames: MeasurementFrame, flow_up: np.ndarray,
            g: np.ndarray, u: np.ndarray) -> BandedLtv:
    """Common assembly given the flows entering each segment that the
    sub-diagonal carries, the unclamped denominators and each step's ramp
    inputs, one per segment.  It takes over these three (M, N) arrays: ``g``
    is clamped in place, ``u`` becomes the drive and ``flow_up`` holds the
    gains T/(Delta_i g_i)."""
    td = geom.t_over_delta
    np.maximum(g, EPS_G, out=g)            # g <= EPS_G becomes EPS_G; a NaN stays NaN
    sub = np.multiply(td[1:], flow_up[:, 1:])
    sub /= g[:, 1:]
    diag = np.multiply(td, frames.q_a_seg)
    np.subtract(frames.rho_a_seg, diag, out=diag)
    diag /= g
    gain = np.divide(td, g, out=flow_up)
    u *= gain
    u[:, 0] += gain[:, 0] * frames.q0_meas
    return BandedLtv(diag=diag, sub=sub, drive=u, g=g)


def build_system_measured(sc: Scenario, frames: MeasurementFrame) -> BandedLtv:
    """Realization over the stacked ``frames`` of ``sc`` consuming measured ramp totals.

    The denominators are g_i = rho_a_i + (T/Delta_i)(q_a_{i-1} - q_a_i + r_a_i
    - s_a_i), the next-step connected density predicted from the frame,
    clamped below at EPS_G; r_a_i and s_a_i are zero where the layout has no
    such ramp.  Step k's input vector is [entry total flow, r_1 - s_1, ...,
    r_N - s_N] from the frame's detector readings.
    """
    q_a_up, on, off = _inflows(sc, frames)
    g = q_a_up - frames.q_a_seg
    g[:, on] += frames.r_a
    g[:, off] -= frames.s_a
    g *= sc.geometry.t_over_delta
    g += frames.rho_a_seg
    u = np.zeros(g.shape)
    u[:, on] = frames.r_meas
    u[:, off] -= frames.s_meas
    return _banded(sc.geometry, frames, q_a_up, g, u)


def build_system_unmeasured_offramps(sc: Scenario, frames: MeasurementFrame) -> BandedLtv:
    """Realization over the stacked ``frames`` of ``sc``, off-ramp totals as exit-rate fractions.

    The layout's connected exit rates ``exit_rate_a`` stand for the total
    ones, which turns the unknown off-ramp outflow into a rescaling of the
    upstream-flow coupling by (1 - beta_a); the input vector drops to
    [entry total flow, r_1, ..., r_N] and no off-ramp detector readings are
    consumed.
    """
    scaled_up, on, off = _inflows(sc, frames)
    scaled_up[:, off] *= 1.0 - np.array(sc.layout.exit_rate_a)
    td = sc.geometry.t_over_delta
    g = scaled_up - frames.q_a_seg
    g *= td
    g += frames.rho_a_seg
    g[:, on] += td[on] * frames.r_a
    u = np.zeros(g.shape)
    u[:, on] = frames.r_meas
    return _banded(sc.geometry, frames, scaled_up, g, u)


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


def check_windows(steps: int, n: int, stride: int) -> None:
    """Raise ValueError unless ``stride`` >= 1 and M = ``steps`` holds one
    window of N-1 steps for N = ``n`` segments."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if steps < n - 1:
        raise ValueError(f"an observability window needs {n - 1} steps for "
                         f"{n} segments; the run has {steps}")


def window_anti_diagonals(sub: np.ndarray, stride: int = 1) -> np.ndarray:
    """Anti-diagonal of O for every window of N-1 steps, one row per window,
    from the (M, N-1) sub-diagonals ``BandedLtv.sub`` of M steps alone.

    Windows start at steps 0, stride, 2*stride, ... as long as they fit.
    Entry m of the window starting at k0 has exactly one nonzero path, the
    product of sub[k0 + j, N-1-m+j] over j = 0..m-1.  The factors are taken
    earliest step first, the order of the dense chain, so every row equals
    ``anti_diagonal(observability_matrix(sys[k0:k0 + N - 1]))`` bit for bit.
    """
    steps, n = sub.shape[0], sub.shape[1] + 1
    check_windows(steps, n, stride)
    starts = np.arange(0, steps - n + 2, stride)
    out = np.ones((len(starts), n))
    for j in range(n - 1):
        m = np.arange(j + 1, n)
        out[:, m] *= sub[(starts + j)[:, None], n - 1 - m + j]
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
