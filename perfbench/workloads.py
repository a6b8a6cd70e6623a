"""The benchmark's workloads: how each builds its scenario, runs one op and
checks the op's outputs.

Every library call goes through a module attribute looked up at call time
(``harness.run_experiment``, ``scenario.load_scenario``), so that a traced
process can wrap those attributes (see ``tracer.py``).  Untraced processes
call the unmodified functions.

An op's outputs are checked in two ways:

- at every seed, the op's fingerprint (digests of its arrays and files) must
  equal the first op's bit for bit, and every estimate must be finite;
- at the reference seed, the values pinned in ``references.json`` must hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from mixedtraffic import core, harness, scenario

SIGMAS = (0.01, 0.1, 1.0, 10.0, 100.0)
CORRIDOR_SEGMENTS = 200
RHO2_SEGMENT_INDEX = 1        # segment 2, the merge upstream of the congestion


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


class Workload:
    """One named workload; subclasses fill in the scenario, the op and the checks.

    ``build`` is the set-up that ``setup_s`` times; ``prepare`` is further
    set-up that it excludes.  ``reference_kernel`` names the kernel of
    ``reference.py`` that resembles the op's mix of work.  ``check``
    returns the op's fingerprint and a list of failed checks.
    """

    name = ""
    reference_kernel = "mixed"     # the function of reference.py that op_rel_p50 divides by

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.sc = None

    def build(self) -> None:
        path = self.root / "scenarios" / "default.yaml"
        self.sc = self.adapt(scenario.load_scenario(path).with_seed(self.seed))

    def adapt(self, sc):
        return sc

    def prepare(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def check(self, out, refs: dict | None, tol: float) -> tuple[dict, list[str]]:
        raise NotImplementedError


def _estimate_fingerprint(result) -> dict:
    est = result.estimate
    return {"p_r": repr(result.p_r), "x_hat": _digest(est.x_hat),
            "rho_hat": _digest(est.rho_hat), "q_hat": _digest(est.q_hat),
            "innovation": _digest(est.innovation)}


def _estimate_failures(result) -> list[str]:
    est = result.estimate
    if math.isfinite(result.p_r) and _all_finite(est.x_hat, est.rho_hat, est.q_hat):
        return []
    return ["non-finite estimate"]


class PaperN20(Workload):
    """The paper's experiment as the ``estimate`` verb runs it."""

    name = "paper-n20"

    def op(self):
        result = harness.run_experiment(self.sc)
        harness.write_trajectory(self.workdir / "trajectory.csv", result)
        harness.write_metrics(self.workdir / "metrics.csv", result)
        return result

    def check(self, out, refs, tol):
        fingerprint = _estimate_fingerprint(out)
        fingerprint["trajectory.csv"] = _file_digest(self.workdir / "trajectory.csv")
        failures = _estimate_failures(out)
        if refs is not None:
            if not _close(out.p_r, refs["p_r"], tol):
                failures.append(f"p_r {out.p_r!r} != golden {refs['p_r']!r}")
            rho2 = out.estimate.rho_hat[:, RHO2_SEGMENT_INDEX]
            for step, ref in refs["rho2_hat"].items():
                if not _close(rho2[int(step)], ref, tol):
                    failures.append(f"rho2_hat[{step}] {rho2[int(step)]!r} != golden {ref!r}")
        return fingerprint, failures


class CorridorN200(Workload):
    """The default ramps and demand on a 200-segment corridor, library use only."""

    name = "corridor-n200"
    reference_kernel = "dense"

    def adapt(self, sc):
        geometry = core.HighwayGeometry(n_segments=CORRIDOR_SEGMENTS,
                                        step_h=sc.geometry.step_h,
                                        seg_len_km=float(sc.geometry.seg_len_km[0]))
        return dataclasses.replace(sc, geometry=geometry, name=self.name)

    def op(self):
        return harness.run_experiment(self.sc)

    def check(self, out, refs, tol):
        failures = _estimate_failures(out)
        if refs is not None and not _close(out.p_r, refs["p_r"], tol):
            failures.append(f"p_r {out.p_r!r} != pinned {refs['p_r']!r}")
        return _estimate_fingerprint(out), failures


def _expected_trajectory(result) -> dict[str, np.ndarray]:
    """The arrays ``read_trajectory`` must return for a CSV written from ``result``."""
    truth, est = result.truth, result.estimate
    innovation = np.full(est.rho_hat.shape, np.nan)
    innovation[:-1] = est.innovation[:, None]
    return {"rho": truth.rho_matrix(), "rho_a": truth.rho_a_matrix(),
            "v": np.stack([s.v for s in truth.states]),
            "q": np.stack([s.q for s in truth.states]),
            "q_a": np.stack([s.q_a for s in truth.states]),
            "rho_hat": est.rho_hat, "q_hat": est.q_hat, "p_bar_hat": est.x_hat,
            "innovation": innovation}


class TuneN20Unmeasured(Workload):
    """The ``sweep`` and ``observability`` verbs on the unmeasured-off-ramp
    estimator, plus re-reading a stored run."""

    name = "tune-n20-unmeasured"

    def adapt(self, sc):
        return dataclasses.replace(sc, offramp_mode="unmeasured")

    def prepare(self):
        self.fixture = self.workdir / "trajectory.csv"
        result = harness.run_experiment(self.sc)
        harness.write_trajectory(self.fixture, result)
        self.fixture_p_r = result.p_r
        self.expected = _expected_trajectory(result)

    def op(self):
        points = harness.q_sweep(self.sc, SIGMAS)
        windows = harness.observability_trace(self.sc, stride=1)
        table = harness.read_trajectory(self.fixture)
        return points, windows, table

    def check(self, out, refs, tol):
        points, windows, table = out
        p_r = [p.p_r for p in points]
        mins = np.array([w.min_anti_diag for w in windows])
        maxs = np.array([w.max_anti_diag for w in windows])
        n_bad = sum(not w.observable for w in windows)
        fingerprint = {"p_r": repr(p_r), "windows": len(windows), "unobservable": n_bad,
                       "min_anti_diag": _digest(mins), "max_anti_diag": _digest(maxs),
                       "table": {k: _digest(v) for k, v in sorted(table.items())}}
        failures = []
        if not (_all_finite(p_r, mins, maxs) and windows):
            failures.append("non-finite or empty sweep/observability output")
        sigma_1 = p_r[SIGMAS.index(1.0)]
        if sigma_1 != self.fixture_p_r:
            failures.append(f"sigma=1 sweep point {sigma_1!r} != estimate {self.fixture_p_r!r}")
        for col, expected in self.expected.items():
            if col not in table or not np.array_equal(table[col], expected, equal_nan=True):
                failures.append(f"read_trajectory column {col} differs from the stored run")
        if refs is not None:
            if not _close(sigma_1, refs["p_r_sigma_1"], tol):
                failures.append(f"sigma=1 p_r {sigma_1!r} != golden {refs['p_r_sigma_1']!r}")
            if len(windows) != refs["windows"] or n_bad != refs["unobservable_windows"]:
                failures.append(f"{len(windows)} windows, {n_bad} unobservable != pinned "
                                f"{refs['windows']}, {refs['unobservable_windows']}")
            worst = float(np.min(mins)) if windows else math.nan
            if not abs(worst - refs["min_anti_diag"]) <= tol * abs(refs["min_anti_diag"]):
                failures.append(f"min anti-diagonal {worst!r} != pinned {refs['min_anti_diag']!r}")
        return fingerprint, failures


WORKLOADS = {w.name: w for w in (PaperN20, CorridorN200, TuneN20Unmeasured)}
