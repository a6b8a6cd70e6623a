"""Time-varying Kalman filter for the inverse connected-share state.

One-step predictor form, with the gain applied through the state matrix:

    K(k)   = P(k) C' (C P(k) C' + R)^-1
    x^(k+1) = A(k) x^(k) + B(k) u(k) + A(k) K(k) (z(k) - C x^(k))
    P(k+1) = A(k) (I - K(k) C) P(k) A(k)' + Q

A(k) and B(k) u(k) come from the banded realization of ``ltv``, so A P A'
costs a few passes over contiguous memory: A P as whole rows plus the rows
above them, then (A P) A' as A P plus A P shifted one column, read from one
flat buffer one element earlier.  Each entry gets the operations, in the
order, of applying A to P's columns and then to its rows, so the bits are
those of that form.  C selects the exit: C x = x[-1], P C' = P[:, -1].
Q = q_sigma*I, so + Q touches only the diagonal.  A run builds one
``StepScratch`` and passes it to every step: it holds the covariance work
buffers, the flat buffer with its 0.0 pad set once, their reshaped views,
the next-P buffer and its diagonal view, the sub-diagonal row with its
leading 0.0, and R and Q as columns.  ``filter_step`` returns fresh arrays,
never a view of the scratch, so a later step never changes an earlier one's
results.

The tuning, ``KalmanConfig``, is the scenario's ``filter`` part, like its
geometry and noise: its ``rules`` check a file's ``filter`` section and a
config built in code alike, and the estimator reads it from the scenario
alone.  A leading batch axis runs S filters with their own (Q, R, x^(0),
P0) side by side on one realization and one measurement sequence: x is
(S, N) and P is (S, N, N).  Every operation is elementwise or a shift
within one member's matrix, so each member's arithmetic, and hence its
result, is that of its own unbatched run.

P is re-symmetrized each step; the update above is not in Joseph form and
drifts over long runs otherwise.  Estimates are deliberately not clamped to
the physical range (ratio >= 1): clamping would hide filter misbehavior.

Where it binds in either run, ``output_measurement`` breaks both of the
estimator's symmetries (see ``ltv``): it compares the exit's connected flow
in veh/h, which both multiply by c, with ``EPS_DENSITY``, a density in veh/km.
``PSD_TOL``, on P's eigenvalues in units of x squared (the connected scaling
divides them by c**2), decides only the verdict, never x^ or the innovations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EPS_DENSITY, Rule, _positive, enforce
from .ltv import BandedLtv
from .metanet import MeasurementFrame


# Most negative covariance eigenvalue a sound run may reach: the update is not
# computed in Joseph form, so rounding alone may take P this far below zero.
# harness.estimate_shares checks it at every step: an O(N) lower bound on
# lambda_min(P) clears most steps, and a Cholesky factorisation the rest.
PSD_TOL = 1e-9


class NoExitMeasurementError(ValueError):
    """The exit carries no connected flow at a step with no earlier output to reuse."""


@dataclass(frozen=True)
class KalmanConfig:
    """Tuning Q = q_sigma*I and R = r_cov, and initialization x^(0) = x0_value
    in every segment and P0 = p0_sigma*I, of one filter or of a batch.

    Each field is a float for one filter, or an (S,) array for a batch of S
    filters, which ``stack`` builds from single configs.
    """

    q_sigma: float | np.ndarray = 1.0
    r_cov: float | np.ndarray = 100.0
    x0_value: float | np.ndarray = 10.0
    p0_sigma: float | np.ndarray = 1.0

    rules = (
        *(Rule(name, _positive, "must be finite and > 0")
          for name in ("q_sigma", "r_cov", "p0_sigma")),
        Rule("x0_value", lambda x: np.all(np.isfinite(x)), "must be finite"),
    )

    def __post_init__(self):
        # A file holds one filter, so the batch shape is checked here, not by a rule.
        shape = np.shape(self.q_sigma)
        for name, value in vars(self).items():
            if len(shape) > 1 or np.shape(value) != shape:
                raise ValueError(f"{name} must hold one value per filter")
        enforce(self.rules, vars(self))

    @classmethod
    def stack(cls, configs: Sequence["KalmanConfig"]) -> "KalmanConfig":
        """The batch whose member s is the single filter ``configs[s]``."""
        return cls(**{f.name: np.array([getattr(c, f.name) for c in configs], dtype=float)
                      for f in dataclasses.fields(cls)})


def kalman_gain(pc: np.ndarray, r_cov: float | np.ndarray) -> np.ndarray:
    """K = P C' / (C P C' + R) from the exit column ``pc`` = P C' = P[..., -1]."""
    return pc / (pc[..., -1:] + np.asarray(r_cov)[..., None])


class StepScratch:
    """The buffers and constants ``filter_step`` reuses at every step of one
    run of ``config`` on ``n`` segments; build one per run.

    It holds the two N x N covariance work buffers: ``work``, and ``flat``,
    one element per member longer, whose first element is the 0.0 pad and
    is never written again.  ``a_p`` views ``flat`` from its second element
    as A P, and ``shifted`` from its first as A P shifted one column right.
    It also holds the next-P buffer ``p_next`` and its diagonal view, the
    sub-diagonal row with a leading 0.0, and R and Q's q_sigma as columns
    that broadcast against the batch.  Nothing ``filter_step`` returns is
    one of these buffers, so a later step never changes an earlier result.
    """

    def __init__(self, config: KalmanConfig, n: int):
        shape = np.shape(config.q_sigma) + (n, n)
        self.work = np.empty(shape)
        self.flat = np.empty(shape[:-2] + (n * n + 1,))
        self.flat[..., 0] = 0.0
        self.a_p = self.flat[..., 1:].reshape(shape)
        self.shifted = self.flat[..., :-1].reshape(shape)
        self.p_next = np.empty(shape)
        self.p_next_diag = np.einsum("...ii->...i", self.p_next)
        self.sub = np.zeros(n)
        self.r_cov = np.asarray(config.r_cov)[..., None]
        self.q_sigma = np.asarray(config.q_sigma)[..., None]


def filter_step(x_hat: np.ndarray, p_cov: np.ndarray, sys: BandedLtv, k: int, z: float,
                scratch: StepScratch) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """One filter step through step k of ``sys`` against the exit measurement z,
    with the tuning and buffers of the run's ``scratch``: (x^(k+1), P(k+1),
    innovation), each with the config's batch axis and each a fresh array.
    The inputs are never written to.

    Raises FloatingPointError when any member's state becomes non-finite.
    """
    diag, sub = sys.diag[k], sys.sub[k]
    pc = p_cov[..., -1].copy()                                         # P C', contiguous
    gain = pc / (pc[..., -1:] + scratch.r_cov)
    innovation = z - x_hat[..., -1]
    # A x^ + B u and A K, each as BandedLtv.apply_a computes it.
    x_next = diag * x_hat
    x_next[..., 1:] += sub * x_hat[..., :-1]
    x_next += sys.drive[k]
    a_k = diag * gain
    a_k[..., 1:] += sub * gain[..., :-1]
    a_k *= innovation[..., None]
    x_next += a_k
    work = scratch.work
    np.multiply(gain[..., :, None], pc[..., None, :], out=work)
    np.subtract(p_cov, work, out=work)                                 # (I - K C) P
    # A P by whole rows, into the flat buffer one element past its 0.0 pad,
    # where the shifted read below starts; work is scratch from here on.
    a_p = scratch.a_p
    np.multiply(diag[:, None], work, out=a_p)
    work[..., :-1, :] *= sub[:, None]
    a_p[..., 1:, :] += work[..., :-1, :]
    # (A P) A': the same buffer read one element earlier holds A P shifted one
    # column right, so both passes are contiguous.  Column 0 of the shifted
    # product, 0 times A P[i-1, N-1] or the pad, is no term of A P A'; it is
    # set to -0.0, since x + -0.0 is x for every x, -0.0, inf and NaN included.
    p_next = np.multiply(diag, a_p, out=scratch.p_next)
    scratch.sub[1:] = sub
    np.multiply(scratch.sub, scratch.shifted, out=work)
    work[..., :, 0] = -0.0
    p_next += work
    scratch.p_next_diag += scratch.q_sigma                             # + Q
    p_sym = p_next + p_next.swapaxes(-1, -2)
    p_sym *= 0.5
    if not (np.isfinite(x_next).all() and np.isfinite(p_sym).all()):
        raise FloatingPointError("non-finite filter state")
    return x_next, p_sym, innovation


def output_measurement(frames: MeasurementFrame, k: int,
                       last_z: float | None = None) -> tuple[float, bool]:
    """Scalar output of step k: noisy total exit flow over exact connected exit flow.

    When the connected exit flow is at or below EPS_DENSITY the ratio is
    meaningless; falls back to ``last_z`` and flags it, or raises
    NoExitMeasurementError when no fallback is available.
    """
    q_a_exit = frames.q_a_seg[k, -1]
    if q_a_exit <= EPS_DENSITY:
        if last_z is None:
            raise NoExitMeasurementError(f"connected exit flow is empty at step {k}, no fallback")
        return last_z, True
    return frames.qN_meas[k] / q_a_exit, False


def reconstruct_totals(x_hat: np.ndarray, rho_a: np.ndarray,
                       q_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Totals rho_hat = rho_a * x_hat, q_hat = q_a * x_hat of the frames' ``rho_a_seg``
    and ``q_a_seg``, per step or per run; a batch in ``x_hat`` broadcasts against one run."""
    x_hat = np.asarray(x_hat, dtype=float)
    return rho_a * x_hat, q_a * x_hat
