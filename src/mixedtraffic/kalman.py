"""Time-varying Kalman filter for the inverse connected-share state.

One-step predictor form, with the gain applied through the state matrix:

    K(k)   = P(k) C' (C P(k) C' + R)^-1
    x^(k+1) = A(k) x^(k) + B(k) u(k) + A(k) K(k) (z(k) - C x^(k))
    P(k+1) = A(k) (I - K(k) C) P(k) A(k)' + Q

A(k) and B(k) u(k) come from the banded realization of ``ltv``, so A P A'
costs two shifted row operations; C selects the exit: C x = x[-1], P C' = P[:, -1].

A leading batch axis runs S filters with their own (Q, R, x0, P0) side by
side on one realization and one measurement sequence: x is (S, N) and P is
(S, N, N).  Every operation is elementwise or a row shift, so each member's
arithmetic, and hence its result, is that of its own unbatched run.

P is re-symmetrized each step; the update above is not in Joseph form and
drifts over long runs otherwise.  Estimates are deliberately not clamped to
the physical range (ratio >= 1): clamping would hide filter misbehavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EPS_DENSITY
from .ltv import BandedLtv
from .metanet import MeasurementFrame


# Most negative covariance eigenvalue a sound run may reach: the update is not
# computed in Joseph form, so rounding alone may take P this far below zero.
# harness.estimate_shares checks it at every step: an O(N) lower bound on
# lambda_min(P) clears most steps, and a Cholesky factorisation the rest.
PSD_TOL = 1e-9


def _check_spd(mat: np.ndarray, name: str) -> np.ndarray:
    """A symmetric positive definite matrix, or a stack of them."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{name} must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    if not np.allclose(mat, mat.swapaxes(-1, -2), rtol=0, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(mat)) <= 0:
        raise ValueError(f"{name} must be positive definite")
    return mat


@dataclass(frozen=True)
class KalmanConfig:
    """Tuning (Q, R) and initialization (x0, P0) of one filter, or of a batch.

    A batch of S filters has x0 (S, N), q_cov and p0 (S, N, N) and r_cov (S,);
    ``stack`` builds one from single configs.
    """

    q_cov: np.ndarray
    r_cov: float | np.ndarray
    x0: np.ndarray
    p0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_cov", _check_spd(self.q_cov, "q_cov"))
        object.__setattr__(self, "p0", _check_spd(self.p0, "p0"))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be finite")
        n = self.x0.shape[-1]
        if self.q_cov.shape != self.x0.shape + (n,) or self.p0.shape != self.x0.shape + (n,):
            raise ValueError("q_cov/p0 dimensions must match x0")
        if np.shape(self.r_cov) != self.x0.shape[:-1]:
            raise ValueError("r_cov must hold one value per filter")
        if not np.all(np.isfinite(self.r_cov) & (np.asarray(self.r_cov) > 0)):
            raise ValueError("r_cov must be finite and > 0")

    @classmethod
    def scaled_identity(cls, n: int, *, q_sigma: float, r_cov: float, x0_value: float,
                        p0_sigma: float) -> "KalmanConfig":
        """Q = q_sigma*I, P0 = p0_sigma*I, x0 constant; see Scenario.filter_config."""
        return cls(q_cov=q_sigma * np.eye(n), r_cov=float(r_cov),
                   x0=np.full(n, float(x0_value)), p0=p0_sigma * np.eye(n))

    @classmethod
    def stack(cls, configs: Sequence["KalmanConfig"]) -> "KalmanConfig":
        """The batch whose member s is the single filter ``configs[s]``."""
        return cls(q_cov=np.stack([c.q_cov for c in configs]),
                   r_cov=np.array([c.r_cov for c in configs], dtype=float),
                   x0=np.stack([c.x0 for c in configs]),
                   p0=np.stack([c.p0 for c in configs]))


def kalman_gain(p_cov: np.ndarray, r_cov: float | np.ndarray) -> np.ndarray:
    """K = P C' / (C P C' + R), with C selecting the exit segment."""
    pc = p_cov[..., -1]
    return pc / (pc[..., -1:] + np.asarray(r_cov)[..., None])


def filter_step(x_hat: np.ndarray, p_cov: np.ndarray, sys: BandedLtv, k: int, z: float,
                config: KalmanConfig) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """One filter step through step k of ``sys`` against the exit measurement z:
    (x^(k+1), P(k+1), innovation), each with the config's batch axis.  The
    inputs are never written to.

    Raises FloatingPointError when any member's state becomes non-finite.
    """
    gain = kalman_gain(p_cov, config.r_cov)
    innovation = z - x_hat[..., -1]
    x_next = sys.propagate(k, x_hat) + sys.apply_a(k, gain) * innovation[..., None]
    p_post = p_cov - gain[..., :, None] * p_cov[..., None, :, -1]     # (I - K C) P
    # apply_a maps each row v to A v: on P' it gives (A P)', then on A P, A P A'.
    a_p = sys.apply_a(k, p_post.swapaxes(-1, -2)).swapaxes(-1, -2)
    p_next = sys.apply_a(k, a_p) + config.q_cov
    p_next = 0.5 * (p_next + p_next.swapaxes(-1, -2))
    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(p_next))):
        raise FloatingPointError("non-finite filter state")
    return x_next, p_next, innovation


def output_measurement(frames: MeasurementFrame, k: int,
                       last_z: float | None = None) -> tuple[float, bool]:
    """Scalar output of step k: noisy total exit flow over exact connected exit flow.

    When the connected exit flow is at or below EPS_DENSITY the ratio is
    meaningless; falls back to ``last_z`` and flags it, or raises when no
    fallback is available.
    """
    q_a_exit = frames.q_a_seg[k, -1]
    if q_a_exit <= EPS_DENSITY:
        if last_z is None:
            raise ValueError("connected exit flow is empty and no fallback given")
        return last_z, True
    return frames.qN_meas[k] / q_a_exit, False


def reconstruct_totals(x_hat: np.ndarray, rho_a: np.ndarray,
                       q_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Totals rho_hat = rho_a * x_hat, q_hat = q_a * x_hat of the frames' ``rho_a_seg``
    and ``q_a_seg``, per step or per run; a batch in ``x_hat`` broadcasts against one run."""
    x_hat = np.asarray(x_hat, dtype=float)
    return rho_a * x_hat, q_a * x_hat
