"""Front-tracking curve shortening flow in the unit disc.

Each interior node moves by its discrete curvature vector; the left
endpoint is re-pinned to o = (-d, 0) after every step and the right
endpoint is placed by the discrete Neumann constraint {on the unit circle}
and {last segment radial}, whose one-dimensional root has the closed form
phi = atan2(y, x) of the penultimate node.  Nodes are redistributed to
uniform arclength after every step, which supplies the tangential degree
of freedom and keeps the explicit scheme stable at dt <= DT_SAFETY * h^2.

run() makes its node buffers once, as a chain of CHECK_BLOCK + 1 rows of
n + 1 nodes: each row holds a set of complex nodes with their segment
lengths and joint products and the nodes before resampling, all rows
share one scratch set, and each row but the last links to the next.  A
step reads one row and writes its candidate into the next with out=
ufuncs; it computes no area.  run() takes every step, a retry included,
in a block of candidate steps from row 0, decided together by one call
of geometry._reason, the one admissibility rule and the only source of
rejections; the accepted rows are carried forward, the last one into
row 0, and the areas they shed by resampling are summed in one batched
pass.  The rows at record steps are copied into a stack of up to
CHUNK_STATES pending records, a frame stack of the same layout as a
block, which get their diagnostics in one batched call (see run()).  A
rejection makes the next block one step long, at half the dt of the
rejected one, and the blocks after it grow back 2, 4, ... up to
CHECK_BLOCK steps.  States copy the nodes out, so no state aliases a
buffer.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable

import numpy as np

from .barriers import ProblemConfig, characteristic_rhs, nn_arc, theta_minus, theta_plus
from .errors import (
    ComparisonViolation,
    DomainError,
    InsufficientWindow,
    InvalidCurve,
    ParameterError,
)
from .geometry import (
    MIN_SEGMENTS,
    Curve,
    CurveDiagnostics,
    _area,
    _areas,
    _as_complex,
    _as_nodes,
    _diagnostics,
    _frame,
    _reason,
    _resample_nodes,
    curvature_profile,  # noqa: F401  (a name the benchmark's tracer wraps here)
    curvature_profiles,
    curve_diagnostics,
    segment_lengths,
)

def tol_inv(kappa_max: float) -> float:
    """Scale-aware tolerance for sign-invariant checks; discretization
    error grows with curvature near extinction."""
    return 1e-3 * (1.0 + kappa_max)


#: invariant checks apply only after this many steps
TRANSIENT_STEPS = 10

MAX_DT_RETRIES = 20

#: most candidate steps run() takes before deciding their validity together
CHECK_BLOCK = 32

#: most recorded states stacked at once: run()'s pending records, decided
#: by one diagnostics call, and the chunks of the trajectory checks (see
#: _profile_chunks).  About 100 KB per complex temporary at n = 96, so
#: neither's memory grows with the trajectory
CHUNK_STATES = 64

#: explicit step dt = DT_SAFETY * (length / n)^2
DT_SAFETY = 0.25

#: stop rules: converged (d < 1) once kappa_max and height_max / 3 and the
#: Hausdorff distance to the minimizing arc are below CONVERGED_EPS;
#: extinct once length < EXTINCT_LEN while kappa_max > EXTINCT_KAPPA
CONVERGED_EPS = 1e-3
EXTINCT_LEN = 1e-2
EXTINCT_KAPPA = 1e3

#: per-state scalars: the columns of Trajectory.table and of diagnostics.csv
COLUMNS = ("t", "theta_min", "theta_max", "kappa_max", "area", "height_max",
           "length", "step", "area_shed")


@dataclass(frozen=True)
class FlowState:
    curve: Curve
    time: float
    diagnostics: CurveDiagnostics
    step: int = 0
    area_shed: float = 0.0  # cumulative area removed by resampling


#: the outcome kinds run() produces (invalid_state: a recorded state's diagnostics
#: raised InvalidCurve; the trajectory ends at the last good record)
OUTCOME_KINDS = ("converged_to_minimizer", "extinct", "max_time", "max_steps",
                 "invariant_violation", "invalid_state")


@dataclass(frozen=True)
class FlowOutcome:
    kind: str  # one of OUTCOME_KINDS
    time: float | None = None
    detail: str = ""


@dataclass
class FlowRunConfig:
    d: float
    initial: Curve
    n: int = 128
    t_end: float | None = None
    record_every: int = 100
    max_steps: int = 50_000_000

    def __post_init__(self):
        ProblemConfig(self.d)  # the one rule for d
        if self.n < MIN_SEGMENTS:
            raise DomainError(f"need n >= {MIN_SEGMENTS}, got {self.n}")
        if self.record_every < 1:
            raise DomainError("record_every must be >= 1")
        # `not t_end > 0` refuses NaN too, which `t_end <= 0` lets through
        if self.t_end is not None and not self.t_end > 0.0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class Trajectory:
    d: float
    n: int
    states: list[FlowState]
    events: list[tuple[float, str]]  # (time, "step_rejected: <reason>")
    outcome: FlowOutcome
    rho: float | None = None
    lambda_ref: float | None = None
    record_every: int = 1
    dt_safety: float = DT_SAFETY

    def table(self) -> dict[str, np.ndarray]:
        """One array per column of COLUMNS, one entry per recorded state."""
        rows = np.array([[s.time, *s.diagnostics.as_row(), s.step, s.area_shed]
                         for s in self.states]).reshape(-1, len(COLUMNS))
        tab = dict(zip(COLUMNS, rows.T))
        tab["step"] = tab["step"].astype(np.int64)
        return tab


def unstable_arc(d: float, n: int) -> Curve:
    """The long critical arc from o to (1, 0): a stationary state."""
    x = np.linspace(-d, 1.0, n + 1)
    return Curve(nodes=np.column_stack([x, np.zeros(n + 1)]))


def minimizing_arc(d: float, n: int) -> Curve:
    """The short critical arc from o to (-1, 0); requires d < 1."""
    if d >= 1.0:
        raise DomainError("minimizing arc degenerates for d = 1")
    x = np.linspace(-d, -1.0, n + 1)
    return Curve(nodes=np.column_stack([x, np.zeros(n + 1)]))


def _poly_area(nodes: np.ndarray) -> float:
    return _area(_as_complex(nodes))


def _project_end(z: np.ndarray) -> None:
    # exact root of the discrete Neumann constraint: last segment radial
    p = z[-2]
    phi = math.atan2(p.imag, p.real)
    z[-1] = complex(math.cos(phi), math.sin(phi))


class _NodeBuffer:
    """One row of a run's chain (see _run_buffers): the complex nodes z,
    with their frame (z, seg, joint), the nodes u the step had before
    resampling to z, and the views of them the explicit step reads and
    writes, all built once.  `nodes` is the (n + 1, 2) float view of z.
    `block` is the frame stack of rows 1 up to this one (empty for row 0),
    which _reason decides, `sheds` the same rows of u and z; `other` is
    the row a step from this one writes to (None for the last row), and
    `scratch` the chain's one scratch set."""

    __slots__ = ("z", "seg", "joint", "frame", "nodes", "read", "write",
                 "block", "sheds", "other", "scratch")

    def __init__(self, z: np.ndarray, seg: np.ndarray, joint: np.ndarray,
                 u: np.ndarray, block: tuple, sheds: tuple):
        self.z, self.seg, self.joint = z, seg, joint
        self.frame = (z, seg, joint)
        self.nodes = _as_nodes(z)
        # the step reads the chord ends, the interior, the pairs of
        # adjacent segment lengths and the cross products of the joints
        self.read = (z[2:], z[:-2], z[1:-1], seg[:-1], seg[1:], joint.imag)
        self.write = (z, z[1:], z[:-1], seg, joint, u, u[1:-1], u[1:], u[:-1])
        self.block = block
        self.sheds = sheds
        self.other: _NodeBuffer | None = None
        self.scratch: tuple | None = None


def _run_buffers(nodes: np.ndarray, n: int, rows: int = 2) -> list[_NodeBuffer]:
    """The chain of a run on n segments: `rows` buffers of n + 1 nodes,
    row i a view of row i of one complex node array and of its segment,
    joint and pre-resample node arrays, and row i's `other` row i + 1.
    Row 0 is loaded with the (n + 1, 2) nodes of the first step.  Returns
    the rows; all share one scratch set, which _advance_checked unpacks in
    this order."""
    z = np.empty((rows, n + 1), dtype=np.complex128)
    seg = np.empty((rows, n))
    joint = np.empty((rows, n - 1), dtype=np.complex128)
    u = np.empty((rows, n + 1), dtype=np.complex128)  # the nodes before resampling
    # row i's block and sheds: rows 1..i, as _reason and run()'s shed pass read them
    chain = [_NodeBuffer(z[i], seg[i], joint[i], u[i],
                         (z[1:i + 1], seg[1:i + 1], joint[1:i + 1]), (u[1:i + 1], z[1:i + 1]))
             for i in range(rows)]
    for buf, nxt in zip(chain, chain[1:]):
        buf.other = nxt
    head = chain[0]
    head.nodes[...] = nodes
    _, head.seg[...], head.joint[...] = _frame(head.z)
    s = np.zeros(n + 1)  # the arclengths of u; the step writes s[1:]
    e = np.empty(n, dtype=np.complex128)  # the candidate's segments
    scratch = (
        # the chord c, its length, the denominators and half_scale
        np.empty(n - 1, dtype=np.complex128), np.empty(n - 1), np.empty(n - 1),
        np.empty(n - 1),
        np.empty(n, dtype=np.complex128), np.empty(n),  # u's segments, lengths
        s, s[1:],
        # node indices 0..n as floats: the targets are indices * (length / n),
        # bit-identical to np.linspace(0, length, n + 1) on every interior node
        np.arange(n + 1, dtype=np.float64), np.empty(n + 1),
        e, e[:-1], e[1:], np.empty(n - 1, dtype=np.complex128))
    for buf in chain:
        buf.scratch = scratch
    return chain


def _advance_checked(frame: _NodeBuffer, d: float, dt: float, n: int) -> _NodeBuffer:
    """One explicit step from the buffer `frame` into `frame.other`;
    returns frame.other, the candidate, which keeps its nodes before
    resampling in u.  The step computes no area: run() adds up the area
    its accepted candidates shed by resampling (see _sheds) after one
    _reason call has decided them with the rest of their block.  `frame`
    is not written to, so a rejected step can retry from it.  The
    benchmark's tracer wraps this name as flow.step.

    The composition is curvature_vectors, re-pinning o and projecting the
    right end, _resample_nodes, projecting again; it runs on the complex
    view of the nodes with out= ufuncs into the run's buffers, so a step
    allocates only np.interp's result (np.interp takes no out=).  The
    input's seg and joint give the curvature; the candidate's are built
    here, for the validity check and the next step.
    """
    out = frame.other
    z_hi, z_lo, z_mid, seg_lo, seg_hi, cross = frame.read
    w, w_hi, w_lo, seg, joint, u, u_mid, u_hi, u_lo = out.write
    (c, lc, denom, half_scale, du, ds, s, s_tail,
     idx, targets, e, e_lo, e_hi, e_conj) = frame.scratch
    np.subtract(z_hi, z_lo, out=c)
    np.abs(c, out=lc)
    np.multiply(seg_lo, seg_hi, out=denom)
    denom *= lc
    denom *= lc
    if np.minimum.reduce(denom) > 0.0:
        np.divide(cross, denom, out=half_scale)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            half_scale[...] = np.where(denom > 0.0, cross / denom, 0.0)
    # dt * kappa N at interior nodes: the chord c scaled by
    # 2 cross / denom and turned by +90 degrees (the factor 2 is exact)
    c *= half_scale
    c *= complex(0.0, 2.0 * dt)
    np.add(z_mid, c, out=u_mid)
    u[0] = -d
    _project_end(u)

    np.subtract(u_hi, u_lo, out=du)
    np.abs(du, out=ds)
    np.add.accumulate(ds, out=s_tail)
    np.multiply(idx, s[-1] / n, out=targets)
    w[...] = np.interp(targets, s, u)
    w[0] = u[0]
    # resampling moved the penultimate node; re-solve the Neumann
    # constraint so the committed state satisfies it exactly
    _project_end(w)
    np.subtract(w_hi, w_lo, out=e)
    np.abs(e, out=seg)
    np.conjugate(e_lo, out=e_conj)
    np.multiply(e_conj, e_hi, out=joint)
    return out


def _sheds(us: np.ndarray, areas: list[float]) -> list[float]:
    """The area each step of a stack of rows shed by resampling its nodes
    us to nodes of the given areas (_areas of them): the corner cutting of
    the linear interpolant, which the area-balance diagnostics add back."""
    return [pre - post for pre, post in zip(_areas(us), areas)]


def _advance(nodes: np.ndarray, d: float, dt: float,
             n: int) -> tuple[np.ndarray, float]:
    """One explicit step (see _advance_checked) on an (n + 1, 2) node
    array, on buffers of its own; returns the new (n + 1, 2) nodes and the
    area shed by resampling.  Nodes of another count raise ValueError."""
    out = _advance_checked(_run_buffers(nodes, n)[0], d, dt, n)
    return out.nodes, _sheds(out.sheds[0], _areas(out.sheds[1]))[0]


def _step_valid(nodes: np.ndarray) -> str | None:
    """Reason the (M, 2) nodes are not an admissible state, or None."""
    return _reason(_frame(_as_complex(nodes)[None]))[1]


def _make_state(nodes: np.ndarray, d: float, time: float, step_i: int,
                area_shed: float = 0.0) -> FlowState:
    curve = Curve(nodes=nodes.copy())
    return FlowState(curve=curve, time=time,
                     diagnostics=curve_diagnostics(curve, d), step=step_i,
                     area_shed=area_shed)


def prepare_initial(cfg: FlowRunConfig) -> np.ndarray:
    """Resample the initial curve to the node budget and enforce the
    boundary constraints exactly."""
    nodes = _resample_nodes(cfg.initial.nodes, cfg.n)
    if np.hypot(*(nodes[0] - np.array([-cfg.d, 0.0]))) > 1e-6:
        raise InvalidCurve("initial curve does not start at the Dirichlet point")
    r_end = float(np.hypot(*nodes[-1]))
    if abs(r_end - 1.0) > 1e-6:
        raise InvalidCurve("initial right endpoint not on the unit circle")
    nodes[0] = (-cfg.d, 0.0)
    nodes[-1] = nodes[-1] / r_end
    reason = _step_valid(nodes)
    if reason:
        raise InvalidCurve(f"invalid initial curve: {reason}")
    return nodes


def _decide(stack: tuple, pending: list, d: float, record_every: int,
            states: list[FlowState],
            callback: Callable[[FlowState], None] | None) -> FlowOutcome | None:
    """Decide run()'s pending records: one _diagnostics call on the first
    len(pending) rows of their stacked frames `stack`, with `pending`'s
    (area, time, step, area shed) each; then record them in step order,
    each holding a copy of its nodes, show each to `callback` and put it
    to the stop rules.  Returns the outcome of the first record that ends
    the run (the records after it are dropped) or of the first refused
    one; else empties `pending` and returns None."""
    z, seg, joint = (buf[:len(pending)] for buf in stack)
    diags, refused = _diagnostics((z, seg, joint), [area for area, *_ in pending])
    for (_, t_j, step_j, shed_j), z_j, diag in zip(pending, z, diags):
        state = FlowState(curve=Curve(nodes=_as_nodes(z_j).copy()), time=t_j,
                          diagnostics=diag, step=step_j, area_shed=shed_j)
        states.append(state)
        if callback is not None:
            callback(state)
        if step_j % record_every:  # a final state between records
            continue
        if diag.length < EXTINCT_LEN and diag.kappa_max > EXTINCT_KAPPA:
            return FlowOutcome(kind="extinct", time=t_j + 0.5 * diag.length / diag.kappa_max)
        if d < 1.0 and diag.height_max < 3.0 * CONVERGED_EPS \
                and diag.kappa_max < CONVERGED_EPS \
                and hausdorff_to_minimizing_arc(state.curve.nodes, d) < CONVERGED_EPS:
            return FlowOutcome(kind="converged_to_minimizer", time=t_j)
    if refused is not None:
        return FlowOutcome(kind="invalid_state", time=pending[len(diags)][1],
                           detail=str(refused))
    pending.clear()
    return None


def run(cfg: FlowRunConfig,
        callback: Callable[[FlowState], None] | None = None) -> Trajectory:
    """Iterate the flow with adaptive dt until a stop rule fires.

    Records one state every `record_every` steps (plus the final state),
    halves dt up to MAX_DT_RETRIES times on rejected steps, and reports
    the outcome: convergence to the minimizing arc (d < 1), extinction at
    o (d = 1), the time horizon, the step budget, an invariant violation,
    or a state whose diagnostics refuse it (not recorded; the run ends).
    `callback` sees every recorded state after the initial one, the final
    state included, in step order once the chunk that holds it is decided.
    The outcome alone records how the run ended.

    Every step is taken in a block of candidates from row 0 of the run's
    chain into rows 1, 2, ..., none past max_steps, t_end or a record step
    where a stop rule may fire: CHECK_BLOCK candidates, but one after a
    rejection and then twice as many as in the block before, up to
    CHECK_BLOCK.  One _reason call accepts those before the first inadmissible
    one; of these, the ones at record steps and the last if it ends the
    run are copied into the pending stack.  The stack is decided (see
    _decide) once it holds CHUNK_STATES records, and when its block ends
    the run, ends at a record step where a stop rule may fire or rejects
    a step.  A record that ends the run drops the records after it, and
    the steps taken past it are discarded; a rejection is logged only once
    the records before it are decided, so none is logged after such a
    record.  Else the rejected step is retried as a block of one at half
    its dt, up to MAX_DT_RETRIES times.  So the output is that of checking
    and recording each step as it is taken, although a refused record may
    be found after more steps were computed.
    """
    d, n, t_end, max_steps = cfg.d, cfg.n, cfg.t_end, cfg.max_steps
    record_every = cfg.record_every
    nodes = prepare_initial(cfg)
    rows = _run_buffers(nodes, n, CHECK_BLOCK + 1)
    head = rows[0]
    t = 0.0
    step_i = 0
    states: list[FlowState] = [_make_state(nodes, d, t, step_i)]
    events: list[tuple[float, str]] = []
    shed_accum = 0.0
    outcome: FlowOutcome | None = None
    halvings = 0  # the rejections of the step about to be taken

    # the records accepted but not yet decided: their frames, copied out
    # of the chain into one stack, and (area, time, step, area shed) each
    stack = tuple(np.empty((CHUNK_STATES, *row.shape), row.dtype) for row in head.frame)
    pending: list[tuple[float, float, int, float]] = []
    size = CHECK_BLOCK  # the next block's length: 1 after a rejection, then doubled

    while outcome is None:
        # records as (frame, area, time, step, area shed)
        records, end, cut, reason = [], None, False, None
        if halvings > MAX_DT_RETRIES:
            end = FlowOutcome(kind="invariant_violation", time=t,
                              detail=f"step rejected {halvings} times")
        else:
            # candidates from row 0 into rows 1, 2, ..., with the time
            # after each; the block has at least one, and ends at t_end
            frame, t_k, taken = head, t, []
            for _ in range(min(size, max_steps - step_i)):
                # scaling by a power of two is exact: dt halved `halvings` times
                dt = DT_SAFETY * (float(np.add.reduce(frame.seg)) / n) ** 2 * 0.5 ** halvings
                frame = _advance_checked(frame, d, dt, n)
                t_k += dt
                taken.append(t_k)
                if t_end is not None and t_k >= t_end:
                    break
                # so does a record step whose length or height may meet a stop rule
                cut = (step_i + len(taken)) % record_every == 0 and (
                    segment_lengths(frame.nodes).sum() < EXTINCT_LEN
                    or d < 1.0 and frame.z.imag.max() < 3.0 * CONVERGED_EPS)
                if cut:
                    break
            k, reason = _reason(frame.block)
            size = 1 if reason else min(2 * size, CHECK_BLOCK)
            if k:
                us, zs = rows[k].sheds
                areas = _areas(zs)
                # the running sum after each row, added in step order
                sums = list(accumulate(_sheds(us, areas), initial=shed_accum))
                records = [(rows[j].frame, areas[j - 1], taken[j - 1], step_i + j, sums[j])
                           for j in range(record_every - step_i % record_every, k + 1,
                                          record_every)]
                t, step_i, shed_accum, halvings = taken[k - 1], step_i + k, sums[k], 0
                # every block starts from row 0
                for row, last in zip(head.frame, rows[k].frame):
                    row[...] = last
            if t_end is not None and t >= t_end:
                end = FlowOutcome(kind="max_time", time=t)
            elif step_i >= max_steps:
                end = FlowOutcome(kind="max_steps", time=t)
        # the final state, unless it is recorded already
        if end is not None and step_i != (records[-1][3] if records else
                                          pending[-1][2] if pending else states[-1].step):
            records.append((head.frame, _area(head.z), t, step_i, shed_accum))
        for frame_j, *record in records:
            for buf, row in zip(stack, frame_j):
                buf[len(pending)] = row
            pending.append(record)
            if len(pending) == CHUNK_STATES:
                outcome = _decide(stack, pending, d, record_every, states, callback)
                if outcome is not None:  # the records after it are dropped
                    break
        # so that every stop rule and refusal ends the run where a run that
        # decides each record as it is taken would end, and no rejection
        # after it is logged
        if outcome is None and pending and (end is not None or cut or reason is not None):
            outcome = _decide(stack, pending, d, record_every, states, callback)
        if outcome is None and end is None and reason is not None:
            events.append((t, f"step_rejected: {reason}"))
            halvings += 1
        outcome = outcome or end

    return Trajectory(d=d, n=n, states=states, events=events, outcome=outcome,
                      record_every=record_every, dt_safety=DT_SAFETY)


def hausdorff_to_minimizing_arc(nodes: np.ndarray, d: float) -> float:
    """Symmetric Hausdorff distance between the polyline and the segment
    from (-1, 0) to (-d, 0)."""
    x, y = nodes[:, 0], nodes[:, 1]
    xc = np.clip(x, -1.0, -d)
    d1 = float(np.hypot(x - xc, y).max())

    qx = np.linspace(-1.0, -d, 512)
    p = nodes[:-1]
    v = np.diff(nodes, axis=0)
    vv = (v ** 2).sum(axis=1)
    dx = qx[:, None] - p[None, :, 0]
    dy = -p[None, :, 1]
    tt = np.clip((dx * v[None, :, 0] + dy * v[None, :, 1]) / vv[None, :], 0.0, 1.0)
    dist2 = (dx - tt * v[None, :, 0]) ** 2 + (dy - tt * v[None, :, 1]) ** 2
    d2 = float(np.sqrt(dist2.min(axis=1)).max())
    return max(d1, d2)


# ---------------------------------------------------------------------------
# comparison-principle checks


#: tolerances of theta_bar_ode_check and speed_bound_check
TOL_ODE = 5e-3
TOL_SPEED = 1e-3


@dataclass(frozen=True)
class OdeCheckReport:
    min_growth_margin: float
    max_barrier_excess: float

    @property
    def passed(self) -> bool:
        return self.min_growth_margin >= -TOL_ODE and self.max_barrier_excess <= TOL_ODE


def _profile_chunks(states: list[FlowState]):
    """Yield (chunk, nodes, profile) for consecutive runs of at most
    CHUNK_STATES of the given states, which share their node count: the
    states, their (K, n + 1, 2) stacked nodes and curvature_profiles of
    that stack."""
    for i in range(0, len(states), CHUNK_STATES):
        chunk = states[i:i + CHUNK_STATES]
        nodes = np.stack([s.curve.nodes for s in chunk])
        yield chunk, nodes, curvature_profiles(nodes)


def half_pi_crossing(traj: Trajectory) -> float | None:
    """Interpolated time at which theta_bar first crosses pi/2."""
    tab = traj.table()
    th, ts = tab["theta_max"], tab["t"]
    above = np.nonzero(th >= 0.5 * math.pi)[0]
    if above.size == 0 or above[0] == 0:
        return None if above.size == 0 else float(ts[above[0]])
    i = above[0]
    frac = (0.5 * math.pi - th[i - 1]) / (th[i] - th[i - 1])
    return float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))


def theta_bar_ode_check(traj: Trajectory, raise_on_fail: bool = True) -> OdeCheckReport:
    """Check the two comparison facts for theta_bar along a trajectory:

    (i) the discrete growth rate dominates the characteristic law,
        d(theta_bar)/dt >= sin(theta_bar)/(a + cos(theta_bar)) - TOL_ODE, and
    (ii) after shifting time so theta_bar = pi/2 at t = 0, theta_bar stays
        below the subsolution angle theta_minus up to TOL_ODE for t <= 0.

    Flat trajectories (stationary arcs) are vacuous: both margins are 0.
    """
    cfg = ProblemConfig(traj.d)
    tab = traj.table()
    keep = tab["step"] >= TRANSIENT_STEPS
    ts, th = tab["t"][keep], tab["theta_max"][keep]
    if ts.size < 3 or float(np.max(np.abs(th))) < 1e-8:
        return OdeCheckReport(min_growth_margin=0.0, max_barrier_excess=0.0)

    dth = (th[2:] - th[:-2]) / (ts[2:] - ts[:-2])
    rhs = characteristic_rhs(cfg, th[1:-1])
    min_growth = float((dth - rhs).min())

    t_half = half_pi_crossing(traj)
    max_excess = 0.0  # vacuous until theta_bar crosses pi/2
    if t_half is not None and np.any(ts <= t_half):
        before = ts <= t_half
        max_excess = float((th[before] - theta_minus(cfg, ts[before] - t_half)).max())

    report = OdeCheckReport(min_growth_margin=min_growth, max_barrier_excess=max_excess)
    if raise_on_fail and not report.passed:
        raise ComparisonViolation(
            f"theta_bar comparison failed: growth margin {min_growth:.3e}, "
            f"barrier excess {max_excess:.3e}",
            margin=min(min_growth, -max_excess))
    return report


@dataclass(frozen=True)
class SpeedBoundReport:
    min_margin: float

    @property
    def passed(self) -> bool:
        return self.min_margin >= -TOL_SPEED


def speed_bound_check(traj: Trajectory, lambda_ref: float,
                      raise_on_fail: bool = True) -> SpeedBoundReport:
    """Check the sharp speed lower bound kappa/cos(theta) >=
    lam * tan(lam * y) - TOL_SPEED wherever cos(theta) > 0.1."""
    min_margin = math.inf
    kept = [s for s in traj.states if s.step >= TRANSIENT_STEPS or s.step == 0]
    for _, nodes, prof in _profile_chunks(kept):
        y = nodes[:, :, 1]
        cos_t = np.cos(prof.theta)
        mask = cos_t > 0.1
        if mask.any():
            margin = prof.kappa[mask] / cos_t[mask] \
                - lambda_ref * np.tan(lambda_ref * y[mask])
            min_margin = min(min_margin, float(margin.min()))
    report = SpeedBoundReport(min_margin=min_margin)
    if raise_on_fail and not report.passed:
        raise ComparisonViolation(
            f"speed lower bound violated: margin {min_margin:.3e}",
            margin=min_margin)
    return report


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Worst normalized margins of the pointwise maximum-principle
    invariants over the recorded states (>= 0 means the invariant holds
    within its scale-aware tolerance)."""

    kappa_margin: float
    kappa_s_margin: float
    curvature_bound_margin: float
    gradient_bound_margin: float

    @property
    def passed(self) -> bool:
        return min(self.kappa_margin, self.kappa_s_margin,
                   self.curvature_bound_margin, self.gradient_bound_margin) >= 0.0


def gradient_lower_bound(cfg: ProblemConfig, theta_bar):
    """Lower bound for theta_min: arccot((1 + a cos)/(b sin)) of theta_bar,
    zero when d = 1."""
    th = np.asarray(theta_bar, dtype=float)
    if cfg.b == 0.0:
        return np.zeros_like(th)
    st = np.sin(th)
    out = np.where(st > 0.0,
                   0.5 * math.pi - np.arctan((1.0 + cfg.a * np.cos(th))
                                             / (cfg.b * np.where(st > 0.0, st, 1.0))),
                   0.0)
    return out


def maximum_principle_check(traj: Trajectory) -> MaxPrincipleReport:
    """Evaluate min kappa, min kappa_s, the curvature lower bound, and the
    gradient lower bound on every post-transient recorded state."""
    cfg = ProblemConfig(traj.d)
    kept = [s for s in traj.states if s.step >= TRANSIENT_STEPS]
    if not kept:
        raise InsufficientWindow("no post-transient states recorded")
    k_m = ks_m = cb_m = gb_m = math.inf
    for chunk, _, prof in _profile_chunks(kept):
        kmax = prof.kappa.max(axis=1)
        tol = tol_inv(kmax)
        k_m = min(k_m, float((prof.kappa.min(axis=1) + tol).min()))
        ks = np.diff(prof.kappa, axis=1) / np.diff(prof.s, axis=1)
        ks_m = min(ks_m, float((ks.min(axis=1) + tol).min()))
        th_bar = np.array([s.diagnostics.theta_max for s in chunk])
        th_min = np.array([s.diagnostics.theta_min for s in chunk])
        cb_m = min(cb_m, float((kmax - characteristic_rhs(cfg, th_bar) + tol).min()))
        gb_m = min(gb_m, float((th_min - gradient_lower_bound(cfg, th_bar) + tol).min()))
    return MaxPrincipleReport(kappa_margin=k_m, kappa_s_margin=ks_m,
                              curvature_bound_margin=cb_m,
                              gradient_bound_margin=gb_m)


def nn_avoidance_check(traj: Trajectory) -> float:
    """Minimum signed distance of the recorded curves to the translated
    supersolution arcs that start just above the initial slice, of angle
    traj.rho.

    The family angle is aligned so theta_plus matches
    sin(theta_rho) = 2 sin(rho)/(1 + sin^2(rho)) at the run start; the
    curves must stay below (outside) the arcs while the family exists,
    so a negative margin is a crossing, not an exception.  A trajectory
    without rho raises DomainError.
    """
    if traj.rho is None:
        raise DomainError("the avoidance check needs the run's initial angle rho")
    sin_rho = math.sin(traj.rho)
    sin_theta_rho = 2.0 * sin_rho / (1.0 + sin_rho ** 2)
    tau0 = 0.5 * math.log(sin_theta_rho)
    t0 = traj.states[0].time
    min_margin = math.inf
    for s in traj.states:
        tau = tau0 + (s.time - t0)
        if tau >= 0.0:
            break
        arc = nn_arc(float(theta_plus(tau)))
        dist = np.hypot(*(s.curve.nodes - arc.center).T) - arc.radius
        min_margin = min(min_margin, float(dist.min()))
    return min_margin


# ---------------------------------------------------------------------------
# trajectory export


#: the layout write_trajectory writes and the only one load_trajectory reads
FORMAT_VERSION = 3
#: all recorded nodes of a trajectory, one (states, n + 1, 2) float64 array
STATES_FILE = "states.npy"
#: Trajectory.table, one row per recorded state
TABLE_FILE = "diagnostics.csv"


def _typed(kinds: tuple, value):
    """value, if it is of one of the types kinds; a boolean is no number."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{value!r} is not {' or '.join(k.__name__ for k in kinds)}")
    return value


def _number(value) -> float:
    """value as a float, if it is a finite number."""
    if math.isfinite(number := float(_typed((int, float), value))):
        return number
    raise ValueError(f"{value!r} is not finite")


def _number_or_null(value) -> float | None:
    return None if value is None else _number(value)


def _positive(value) -> float:
    if (number := _number(value)) > 0.0:
        return number
    raise ValueError(f"{value!r} is not positive")


def _int_at_least(least: int, name: str, value) -> int:
    if _typed((int,), value) >= least:
        return value
    raise ValueError(f"{value} is below the {name} {least}")


def _outcome_kind(value) -> str:
    if _typed((str,), value) in OUTCOME_KINDS:
        return value
    raise ValueError(f"{value!r} is not one of {', '.join(OUTCOME_KINDS)}")


#: the FlowOutcome fields in manifest.json, with their checks
_OUTCOME = {"kind": _outcome_kind, "time": _number_or_null, "detail": partial(_typed, (str,))}

#: the Trajectory fields in manifest.json beside format_version and outcome,
#: with the check and conversion load_trajectory applies to each: the
#: values run() can write, d by ProblemConfig's rule
_MANIFEST = {
    "d": lambda value: ProblemConfig(_number(value)).d,
    "n": partial(_int_at_least, MIN_SEGMENTS, "node minimum"), "rho": _number_or_null,
    "lambda_ref": _number_or_null, "record_every": partial(_int_at_least, 1, "minimum"),
    "dt_safety": _positive,
    "events": lambda events: [(_number(t), _typed((str,), name)) for t, name in events],
}


def write_trajectory(traj: Trajectory, outdir: str | Path) -> Path:
    """Write the recorded nodes to states.npy, Trajectory.table to
    diagnostics.csv and the run metadata to manifest.json, each datum
    once; file contents are deterministic.

    The files go into a hidden sibling directory that then replaces
    outdir, so outdir holds the old trajectory or the new one, never a
    mix.  An existing outdir must be empty or hold a manifest.json (a
    trajectory); anything else is a ParameterError and is left alone.
    """
    outdir = Path(outdir)
    if outdir.exists() and not (outdir / "manifest.json").is_file() and \
            (not outdir.is_dir() or any(outdir.iterdir())):
        raise ParameterError(f"{outdir} is not empty and holds no trajectory; "
                             "not replacing it")
    tab = traj.table()
    values = np.column_stack([tab[c] for c in COLUMNS]).ravel().tolist()
    row = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
    manifest = {k: getattr(traj, k) for k in _MANIFEST}
    manifest.update(format_version=FORMAT_VERSION, events=traj.events,
                    outcome=asdict(traj.outcome))
    outdir.parent.mkdir(parents=True, exist_ok=True)
    tmp = outdir.with_name(f".{outdir.name}.{os.urandom(8).hex()}.tmp")
    tmp.mkdir()
    try:
        np.save(tmp / STATES_FILE, np.stack([s.curve.nodes for s in traj.states]))
        (tmp / TABLE_FILE).write_text(",".join(COLUMNS) + "\n"
                                      + row * len(traj.states) % tuple(values))
        (tmp / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
        # a non-empty directory cannot be renamed over: move any old one aside
        old = tmp.with_suffix(".old")
        with contextlib.suppress(FileNotFoundError):
            os.replace(outdir, old)
        os.replace(tmp, outdir)
        shutil.rmtree(old, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return outdir


def _read(path: Path, reader):
    """reader(path), with any failure to read or decode a ParameterError."""
    try:
        return reader(path)
    except (OSError, ValueError, EOFError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc


def _require(obj: dict, keys, where) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParameterError(f"{where} lacks {', '.join(missing)}")


def _read_table(path: Path) -> list[tuple[float, CurveDiagnostics, int, float]]:
    """(time, diagnostics, step, area_shed) per row; float reads %.17g exactly."""
    lines = _read(path, Path.read_text).splitlines()
    header = ",".join(COLUMNS)
    if lines[:1] != [header]:
        raise ParameterError(f"{path}: header is not {header}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ParameterError(f"{path} line {i}: {len(cells)} values, not {len(COLUMNS)}")
        try:
            values = list(map(float, cells))
        except ValueError as exc:
            raise ParameterError(f"{path} line {i}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ParameterError(f"{path} line {i}: a value is not finite")
        t, *diag, step_i, shed = values
        if not step_i.is_integer():
            raise ParameterError(f"{path} line {i}: step {step_i} is not an integer")
        rows.append((t, CurveDiagnostics(*diag), int(step_i), shed))
    return rows


def load_trajectory(outdir: str | Path) -> Trajectory:
    """Read a directory written by write_trajectory.

    Raises ParameterError naming an unreadable file, a manifest of another
    format_version, a missing or malformed manifest value (a non-finite
    number, a d outside ProblemConfig's domain, n below MIN_SEGMENTS, a
    record_every below 1 or a dt_safety not above 0 included), a
    diagnostics.csv whose header is not COLUMNS or whose rows are not
    finite numbers of that width, or a states.npy that is not a finite
    float64 array of shape (rows, n + 1, 2): nothing run() cannot write.
    Nothing is defaulted.  Each state's nodes are one C-contiguous row of
    that array.
    """
    outdir = Path(outdir)
    path = outdir / "manifest.json"
    manifest = _read(path, lambda p: json.loads(p.read_text()))
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise ParameterError(f"{outdir} has an old or unknown trajectory layout: "
                             f"format_version {version}, expected {FORMAT_VERSION}")
    _require(manifest, (*_MANIFEST, "outcome"), path)
    outcome = manifest["outcome"]
    _require(outcome if isinstance(outcome, dict) else {}, _OUTCOME, f"{path} outcome")
    for obj, parsers, prefix in ((manifest, _MANIFEST, ""), (outcome, _OUTCOME, "outcome ")):
        for key, parse in parsers.items():
            try:
                obj[key] = parse(obj[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"{path}: malformed {prefix}{key}: {exc}") from exc
    rows = _read_table(outdir / TABLE_FILE)
    states_path = outdir / STATES_FILE
    nodes = _read(states_path, lambda p: np.load(p, allow_pickle=False))
    shape = (len(rows), manifest["n"] + 1, 2)
    if not (isinstance(nodes, np.ndarray) and nodes.dtype == np.float64
            and nodes.shape == shape):
        raise ParameterError(f"{states_path} holds {getattr(nodes, 'dtype', '?')} "
                             f"{getattr(nodes, 'shape', '?')}, {TABLE_FILE} rows and n "
                             f"need float64 {shape}")
    # min and max carry any NaN or inf, and allocate no mask of the nodes
    if not (math.isfinite(nodes.min(initial=0.0)) and math.isfinite(nodes.max(initial=0.0))):
        raise ParameterError(f"{states_path} holds a non-finite node")
    states = [FlowState(curve=Curve(nodes=row), time=t, diagnostics=diag,
                        step=step_i, area_shed=shed)
              for row, (t, diag, step_i, shed) in zip(nodes, rows)]
    return Trajectory(states=states, outcome=FlowOutcome(**{k: outcome[k] for k in _OUTCOME}),
                      **{k: manifest[k] for k in _MANIFEST})
