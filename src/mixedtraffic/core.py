"""Shared domain types and algebraic relations for mixed highway traffic.

Unit conventions, used consistently across the package: time in hours,
length in km, density in veh/km, speed in km/h, flow in veh/h.  All
quantities are totals over the carriageway (no per-lane bookkeeping).

Segments are numbered 1..N in user-facing fields (ramp locations, reports);
arrays are 0-based, so segment i lives at index i-1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

# Density floor applied before any ratio of densities or flows.  Percentage
# dynamics are undefined on an empty segment, so ratios are taken against a
# tiny positive density instead of raising inside inner loops.
EPS_DENSITY = 1e-6

# Steps per chunk of a run's step loops (``metanet.TruthSimulator.run`` and
# ``harness.estimate_shares``) and of the checks of a run's ``TrafficState``.
# A chunk's scratch grows as STEP_CHUNK * N.  At N = 200 it is 1.0 MB in the
# simulator (process noise and on-ramp inflows) and 1.0 MB in the filter (a
# realization and its build's scratch); one chunk of a whole 1080-step run
# holds 8.6 MB in each.  Traced peaks over such a run, C = 16, 64, 128, 256 and 1080: 9.1,
# 9.3, 9.8, 10.9 and 17.4 MB for the simulation, 4.9, 5.2, 5.6, 6.4 and 11.7 MB
# for the filter loop.  Each chunk also costs about 0.2 ms of fixed work (a
# generator, a realization build, slicing the frames), so 128 steps keep that
# near 1% of a 0.22 s run_experiment at N = 20 (2-core x86 host, numpy 2.4.6).
STEP_CHUNK = 128


def _as_step_array(x, shape: tuple, name: str):
    """Coerce to float64 of ``shape``, broadcasting scalars; shape () gives a float."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(arr) if shape == () else np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


class Rule(NamedTuple):
    """``test(value, *values of needs)`` must hold for ``field``.  A mapping is
    tested entry by entry, as ``test(key, value, ...)``, failing as ``field[key]``."""

    field: str
    test: Callable[..., bool]
    message: str
    needs: tuple[str, ...] = ()


def broken_rules(rules, values: Mapping) -> list[tuple[str, str]]:
    """The (field, message) of each rule ``values`` breaks.  A rule runs once its
    field and needs are in ``values`` and passed the rules before it."""
    failures, failed = [], set()
    for field, test, message, needs in rules:
        if failed.intersection((field, *needs)) or not values.keys() >= {field, *needs}:
            continue
        value, needed = values[field], [values[name] for name in needs]
        if isinstance(value, Mapping):
            broken = [f"{field}[{key}]" for key, item in value.items()
                      if f"{field}[{key}]" not in failed and not test(key, item, *needed)]
        else:
            broken = [] if test(value, *needed) else [field]
        failed.update(broken)
        failures += [(name, message) for name in broken]
    return failures


def enforce(rules, values: Mapping) -> None:
    """Raise one ValueError naming every field of ``values`` that breaks a rule."""
    failures = broken_rules(rules, values)
    if failures:
        raise ValueError("; ".join(f"{field} {message}" for field, message in failures))


def _is_integer(x) -> bool:
    """A Python or NumPy integer; a bool, though an int, is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _positive(x) -> bool:
    """Finite and > 0, in every entry of an array."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(x) & (x > 0)))


class StepRecord:
    """A frozen record of one step, or of a run of steps stacked along a leading
    axis: of a run, ``rec[k]`` is step k and ``rec[a:b]`` those steps, views of
    its arrays not checked again, and ``len(rec)`` their count.
    ``_segment_fields`` hold (N,) per step, ``_step_fields`` one value, and
    ``_on_ramp_fields`` and ``_off_ramp_fields`` one value per on-ramp and per
    off-ramp, in the order of ``RampLayout.on_ramp_segments`` and
    ``off_ramp_segments``.  The fields of each ramp kind share one column
    count, which ``check_ramp_columns`` compares with a layout's.
    """

    _segment_fields: tuple[str, ...] = ()
    _on_ramp_fields: tuple[str, ...] = ()
    _off_ramp_fields: tuple[str, ...] = ()
    _step_fields: tuple[str, ...] = ()

    @property
    def _lead(self) -> str:
        return (self._segment_fields or self._on_ramp_fields)[0]

    def __post_init__(self):
        shape = np.shape(getattr(self, self._lead))
        if len(shape) not in (1, 2):
            raise ValueError(f"{self._lead}: expected shape (N,) or (M, N), got {shape}")
        rows = shape[:-1]
        for names in (self._segment_fields, self._on_ramp_fields, self._off_ramp_fields):
            if not names:
                continue
            first = np.shape(getattr(self, names[0]))
            if len(first) != len(rows) + 1:
                raise ValueError(f"{names[0]}: expected shape {rows + ('n',)}, got {first}")
            for name in names:
                object.__setattr__(self, name,
                                   _as_step_array(getattr(self, name), rows + first[-1:], name))
        for name in self._step_fields:
            object.__setattr__(self, name, _as_step_array(getattr(self, name), rows, name))

    @property
    def n_segments(self) -> int:
        return np.shape(getattr(self, self._segment_fields[0]))[-1]

    def check_ramp_columns(self, layout: "RampLayout") -> None:
        """Raise ValueError naming a ramp field whose column count is not the
        number of ``layout``'s ramps of its kind."""
        for names, segments in ((self._on_ramp_fields, layout.on_ramp_segments),
                                (self._off_ramp_fields, layout.off_ramp_segments)):
            columns = np.shape(getattr(self, names[0]))[-1] if names else len(segments)
            if columns != len(segments):
                raise ValueError(f"{names[0]}: expected {len(segments)} columns, one per ramp "
                                 f"of the layout, got {columns}")

    def __len__(self) -> int:
        shape = np.shape(getattr(self, self._lead))
        if len(shape) < 2:
            raise TypeError(f"a single-step {type(self).__name__} has no length")
        return shape[0]

    def __getitem__(self, steps):
        len(self)                              # a single step has no steps to index
        part = object.__new__(type(self))
        vars(part).update((f.name, getattr(self, f.name)[steps]) for f in dataclasses.fields(self))
        return part

    @classmethod
    def stack(cls, steps):
        """The run whose step k is ``steps[k]``."""
        return cls(**{f.name: np.array([getattr(s, f.name) for s in steps], dtype=float)
                      for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class HighwayGeometry:
    """Discretization frame: segment count, time step, per-segment lengths."""

    n_segments: int
    step_h: float
    seg_len_km: np.ndarray

    rules = (
        Rule("n_segments", lambda n: n >= 2, "must be >= 2"),
        Rule("step_h", _positive, "must be finite and > 0"),
        Rule("seg_len_km", _positive, "entries must be finite and > 0"),
        Rule("seg_len_km", lambda x, n: np.ndim(x) == 0 or np.shape(x) == (n,),
             "must be one length or one per segment", needs=("n_segments",)),
    )

    def __post_init__(self):
        if not _is_integer(self.n_segments):       # a float or a bool is no count
            raise ValueError(f"n_segments must be an integer, got {self.n_segments!r}")
        enforce(self.rules, vars(self))
        object.__setattr__(self, "seg_len_km",
                           _as_step_array(self.seg_len_km, (self.n_segments,), "seg_len_km"))

    @property
    def t_over_delta(self) -> np.ndarray:
        """Per-segment T/Delta_i in h/km; multiplies flows into densities."""
        return self.step_h / self.seg_len_km

    def cfl_ok(self, v_free: float) -> bool:
        """Explicit-scheme sanity check: step_h * v_free <= min segment length.

        Advisory only; callers warn rather than refuse when this fails.
        """
        return self.step_h * v_free <= float(np.min(self.seg_len_km))


@dataclass(frozen=True)
class MetanetParams:
    """Parameters of the second-order speed dynamics and stationary speed law."""

    tau_h: float        # relaxation time, h
    nu: float           # anticipation constant, km^2/h
    kappa: float        # density offset, veh/km
    delta_ramp: float   # on-ramp friction coefficient, dimensionless
    v_free: float       # free speed, km/h
    rho_crit: float     # critical density, veh/km
    alpha_exp: float    # stationary speed exponent, dimensionless

    rules = tuple(Rule(name, _positive, "must be finite and > 0") for name in (
        "tau_h", "nu", "kappa", "delta_ramp", "v_free", "rho_crit", "alpha_exp"))

    def __post_init__(self):
        enforce(self.rules, vars(self))

    @classmethod
    def defaults(cls) -> "MetanetParams":
        """Standard motorway parameter set used by the shipped scenarios."""
        return cls(tau_h=20 / 3600, nu=35.0, kappa=13.0, delta_ramp=1.4,
                   v_free=120.0, rho_crit=33.5, alpha_exp=1.4324)

    def stationary_speed(self, rho: np.ndarray) -> np.ndarray:
        """The speed law of ``nominal_speed`` on an array of densities already
        known to be >= 0, without its check."""
        a = self.alpha_exp
        return self.v_free * np.exp(-(1.0 / a) * (rho / self.rho_crit) ** a)


@dataclass(frozen=True)
class TrafficState(StepRecord):
    """Per-segment totals at one time step or over a run: densities, speeds, flows.

    ``rho_a``/``q_a`` are the connected-vehicle shares of ``rho``/``q``.
    Flows normally satisfy q = rho * v; additive process noise in the
    simulator perturbs them, so that identity is not enforced here.
    """

    rho: np.ndarray
    rho_a: np.ndarray
    v: np.ndarray
    q: np.ndarray
    q_a: np.ndarray

    _segment_fields = ("rho", "rho_a", "v", "q", "q_a")

    def __post_init__(self):
        super().__post_init__()
        # A run is checked STEP_CHUNK steps at a time, so that the checks
        # allocate no whole-run array.
        rho, rho_a, v = np.atleast_2d(self.rho, self.rho_a, self.v)
        chunks = [slice(k, k + STEP_CHUNK) for k in range(0, len(rho), STEP_CHUNK)]
        if any(np.any(rho[c] < 0) or np.any(v[c] < 0) for c in chunks):
            raise ValueError("rho and v must be nonnegative")
        if any(np.any(rho_a[c] < 0) or np.any(rho_a[c] > rho[c] + 1e-12) for c in chunks):
            raise ValueError("rho_a must lie in [0, rho]")

    @classmethod
    def from_densities(cls, rho, rho_a, v) -> "TrafficState":
        """Build a state with exact q = rho*v, q_a = rho_a*v flows."""
        rho = np.asarray(rho, dtype=float)
        rho_a = np.asarray(rho_a, dtype=float)
        v = np.asarray(v, dtype=float)
        q, q_a = flows_from_state(rho, rho_a, v)
        return cls(rho=rho, rho_a=rho_a, v=v, q=q, q_a=q_a)


@dataclass(frozen=True)
class RampLayout:
    """On/off-ramp locations (1-based segment numbers) and off-ramp exit rates."""

    on_ramp_segments: tuple[int, ...] = ()
    off_ramp_segments: tuple[int, ...] = ()
    exit_rate: tuple[float, ...] = ()      # beta_i, aligned with off_ramp_segments
    exit_rate_a: tuple[float, ...] = ()    # beta^a_i, defaults to exit_rate

    rules = (
        *(Rule(name, lambda segs: len(set(segs)) == len(segs), "must not repeat a segment")
          for name in ("on_ramp_segments", "off_ramp_segments")),
        *(Rule(name, lambda rates: all(0 <= b < 1 for b in rates), "entries must lie in [0, 1)")
          for name in ("exit_rate", "exit_rate_a")),
        *(Rule(name, lambda rates, segs: len(rates) in (0, len(segs)),
               "must hold one rate per off-ramp", needs=("off_ramp_segments",))
          for name in ("exit_rate", "exit_rate_a")),
    )
    # The layout on a road of ``n_segments`` fed by ``onramp_demand``, a mapping
    # from segment to demand profile; only ``Scenario`` applies them.
    placement_rules = (
        *(Rule(name, lambda segs, n: all(1 <= s <= n for s in segs),
               "must lie within 1..n_segments", needs=("n_segments",))
          for name in ("on_ramp_segments", "off_ramp_segments")),
        Rule("onramp_demand", lambda seg, _, ramps: seg in ramps,
             "is given for a segment without an on-ramp", needs=("on_ramp_segments",)),
    )

    def __post_init__(self):
        for name in ("on_ramp_segments", "off_ramp_segments"):
            if not all(map(_is_integer, getattr(self, name))):    # int() would truncate
                raise ValueError(f"{name} entries must be integers, got {getattr(self, name)!r}")
        for name, kind in (("on_ramp_segments", int), ("off_ramp_segments", int),
                           ("exit_rate", float), ("exit_rate_a", float)):
            object.__setattr__(self, name, tuple(kind(x) for x in getattr(self, name)))
        enforce(self.rules, vars(self))
        # Omitted rates: none exit, and connected vehicles exit as all do.
        rates = self.exit_rate or (0.0,) * len(self.off_ramp_segments)
        object.__setattr__(self, "exit_rate", rates)
        object.__setattr__(self, "exit_rate_a", self.exit_rate_a or rates)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-based segment indices of the on-ramps and of the off-ramps, in
        the layout's order: column j of an on-ramp field, such as
        ``BoundaryInputs.r``, belongs to segment index ``columns()[0][j]``."""
        return (np.array(self.on_ramp_segments, dtype=int) - 1,
                np.array(self.off_ramp_segments, dtype=int) - 1)


@dataclass(frozen=True)
class BoundaryInputs(StepRecord):
    """Entry and ramp flows feeding the conservation updates at one step or over a run.

    The ramp flows hold one column per ramp of the run's ``RampLayout``:
    ``r[:, j]`` is the inflow of the on-ramp at ``on_ramp_segments[j]`` and
    ``s[:, j]`` the outflow of the off-ramp at ``off_ramp_segments[j]``.
    """

    q0: float | np.ndarray         # total entry flow
    q0_a: float | np.ndarray       # connected entry flow
    r: np.ndarray                  # on-ramp total inflow, one column per on-ramp
    r_a: np.ndarray
    s: np.ndarray                  # off-ramp total outflow, one column per off-ramp
    s_a: np.ndarray

    _on_ramp_fields = ("r", "r_a")
    _off_ramp_fields = ("s", "s_a")
    _step_fields = ("q0", "q0_a")

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.q0 < 0) or np.any(self.q0_a < 0) or np.any(self.q0_a > self.q0 + 1e-9):
            raise ValueError("entry flows must satisfy 0 <= q0_a <= q0")
        for total, part, label in ((self.r, self.r_a, "r"), (self.s, self.s_a, "s")):
            if np.any(total < 0) or np.any(part < 0):
                raise ValueError(f"{label} flows must be nonnegative")
            if np.any(part > total + 1e-9):
                raise ValueError(f"{label}_a must not exceed {label}")


def nominal_speed(rho, params: MetanetParams):
    """Stationary speed law V(rho) = v_free * exp(-(1/alpha) (rho/rho_crit)^alpha).

    Strictly decreasing in rho; V(0) = v_free.  Accepts scalars or arrays.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    out = params.stationary_speed(rho_arr)
    return float(out) if np.ndim(rho) == 0 else out


def flows_from_state(rho, rho_a, v) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise q = rho*v and q_a = rho_a*v."""
    rho = np.asarray(rho, dtype=float)
    rho_a = np.asarray(rho_a, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (rho.shape == rho_a.shape == v.shape):
        raise ValueError("rho, rho_a, v must have identical shapes")
    if np.any(rho < 0) or np.any(rho_a < 0) or np.any(v < 0):
        raise ValueError("inputs must be nonnegative")
    return rho * v, rho_a * v


def upstream(entry, flows: np.ndarray) -> np.ndarray:
    """The flow entering each segment along the last axis of ``flows``: the
    ``entry`` flow at segment 1, then the flow of the segment upstream.  Any
    leading axes are kept; the result is a new array like ``flows``."""
    up = np.empty_like(flows)
    up[..., 0] = entry
    up[..., 1:] = flows[..., :-1]
    return up


def inverse_penetration(rho, rho_a) -> np.ndarray:
    """Ratio rho/rho_a per segment (the estimator's state), floored at EPS_DENSITY."""
    rho = np.maximum(np.asarray(rho, dtype=float), EPS_DENSITY)
    rho_a = np.maximum(np.asarray(rho_a, dtype=float), EPS_DENSITY)
    return rho / rho_a
