"""Reference kernels: fixed work, independent of mixedtraffic, timed next to every op.

The host the benchmark was built on slows its CPU by up to 2x in phases that
last from seconds to minutes, and the slowdown differs by kind of work:
interpreted Python and small NumPy calls slow down far more than dense BLAS.
No statistic of the op times alone is steady under that.  So each workload
names the kernel whose mix of work resembles its op, the worker times that
kernel before the first op and after every op, and ``op_rel_p50`` divides
each op's time by the mean of the two kernel times around it.

The kernels are benchmark code that never calls the library, so a change to
mixedtraffic moves the ratio only through the op's own time.
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(0)
_VECTOR = _rng.standard_normal(20)
_M120 = _rng.standard_normal((120, 120))
_S120 = _M120 @ _M120.T
_M200 = _rng.standard_normal((200, 200))
_S200 = _M200 @ _M200.T


def _python_loop(n: int) -> float:
    acc = 0.0
    for i in range(n):
        acc += (i * 0.5) % 7.0
    return acc


def _small_numpy(n: int) -> np.ndarray:
    x = _VECTOR.copy()
    for _ in range(n):
        x = np.minimum(np.maximum(x * 0.99 + 0.01, 0.0), 2.0)
    return x


def _dense(s: np.ndarray, reps: int) -> None:
    for _ in range(reps):
        np.linalg.eigvalsh(s)
        s @ s


def mixed() -> None:
    """An interpreted loop, small-array NumPy calls and dense 120x120 algebra:
    the mix of the N=20 workloads' simulator step loop, CSV code and filter."""
    _python_loop(100_000)
    _small_numpy(10_000)
    _dense(_S120, 30)


def dense() -> None:
    """Dense 200x200 ``eigvalsh`` and matrix products: the per-step work of
    the N=200 filter, which is most of the corridor op."""
    _dense(_S200, 16)
