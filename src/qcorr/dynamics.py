"""Trajectories over the channel parameter, event detection and curve data.

A trajectory holds the evolved correlation vectors and all quantifiers on a
uniform p-grid as columns, one array call per closed form.  Discord sudden
changes are detected from branch-label switches and refined by bisection on
the difference of the two competing branch values; entanglement sudden death
is detected from the sign change of the octahedron margin sum|r_i(p)| - 1,
which both norms share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind, decay_factors, evolved_vector
from .errors import DegenerateOrdering, EmptyWindow, NonPhysical, NotEntangled, OutOfRange, allocation_guard
from .oracles import hs_operator_sq, trace_norm
from .quantifiers import (
    Norm,
    concurrence_columns,
    hs_axis_distances,
    hs_discord_columns,
    hs_entanglement_columns,
    octahedron_margin,
    trace_discord_columns,
)
from .relations import RelationCase, critical_times, sudden_death_time
from .states import EPS_PSD, CorrelationVector, bd_density_columns, bd_xstate_columns, bell_eigenvalues

SUDDEN_CHANGE = "SuddenChangeDiscord"
SUDDEN_DEATH = "SuddenDeathEntanglement"

_REFINE_TOL = 1e-10
_MATCH_TOL = 1e-6
_HS_LABELS = np.array(["D1", "D2", "D3"])
_TRACE_LABELS = np.array(["r1", "r2", "r3"])


@dataclass(frozen=True)
class EventRecord:
    kind: str  # SUDDEN_CHANGE or SUDDEN_DEATH
    norm: Norm
    p_detected: float | None  # None: an analytic change that no detection matched
    p_analytic: float | None


@dataclass
class Trajectory:
    """A sampled trajectory in columns: row k of every array belongs to p[k].

    r holds the evolved correlation vectors (n x 3); branch_hs holds the HS
    discord labels D1..D3 and branch_tr the trace discord labels r1..r3.
    unmatched lists, per norm in order of p, the analytic sudden changes in
    [0, p_max] that no detected event was matched to.
    """

    initial: CorrelationVector
    p: np.ndarray
    r: np.ndarray
    e_hs: np.ndarray
    d_hs: np.ndarray
    concurrence: np.ndarray
    d_tr: np.ndarray
    branch_hs: np.ndarray
    branch_tr: np.ndarray
    event_records: list[EventRecord] = field(default_factory=list)
    unmatched: list[EventRecord] = field(default_factory=list)

    def death_p(self) -> float | None:
        for e in self.event_records:
            if e.kind == SUDDEN_DEATH:
                return e.p_detected
        return None


def _bisect(f, lo: float, hi: float, tol: float = _REFINE_TOL) -> float:
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _switches(values, branch, lo: float, hi: float, i: int, j: int) -> list[float]:
    """Branch switches inside a grid cell whose branch is i at lo and j at hi.

    A switch is bisected on values(x)[j] - values(x)[i] when that difference
    changes sign over the cell.  The same nonzero sign at both ends means the
    branch passed through the third one in between: the cell is then split at
    its midpoint until each part brackets one switch, or is narrower than
    _REFINE_TOL.  A zero at either end is a tie-break, not a value crossing.
    """

    def f(x):
        v = values(x)
        return v[j] - v[i]

    fa, fb = f(lo), f(hi)
    if fa == 0.0 or fb == 0.0:
        return []
    if (fa > 0.0) != (fb > 0.0):
        return [_bisect(f, lo, hi)]
    if hi - lo <= _REFINE_TOL:
        return []
    mid = 0.5 * (lo + hi)
    m = branch(mid)
    found = []
    for a, b, ia, ib in ((lo, mid, i, m), (mid, hi, m, j)):
        if ia != ib:
            found += _switches(values, branch, a, b, ia, ib)
    return found


def _match_analytic(p: float, candidates) -> float | None:
    best = None
    for c in candidates:
        if best is None or abs(c - p) < abs(best - p):
            best = c
    if best is not None and abs(best - p) <= _MATCH_TOL:
        return best
    return None


def _evolve(channel: ChannelKind, rs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evolved vectors of the rows of rs (states x 3) at every p: an array of
    shape states x len(p) x 3.  Raises NonPhysical for the first evolved
    vector outside the tetrahedron, in row order."""
    r = rs[:, None, :] * np.stack(np.broadcast_arrays(*decay_factors(channel, p)), axis=-1)
    lowest = np.min(bell_eigenvalues(*np.moveaxis(r, -1, 0)), axis=0)
    i, k = np.unravel_index(np.argmin(lowest), lowest.shape)  # the first NaN, if there is one
    if not lowest[i, k] >= -EPS_PSD:
        raise NonPhysical("evolved vector at p = %g has eigenvalue %.6g" % (p[k], lowest[i, k]))
    return r


def run_trajectory(
    channel: ChannelKind,
    r0: CorrelationVector,
    p_max: float = 1.0,
    n_samples: int = 1001,
) -> Trajectory:
    """Sample the evolution on a uniform p-grid and detect all events.

    Sudden changes are located by bisecting the difference of the competing
    branch values on each grid interval where the branch label switches;
    sudden death by bisecting the octahedron margin.  Each detected event is
    matched to its analytic prediction when one exists within 1e-6; analytic
    sudden changes left without a match are listed in unmatched.
    """
    if n_samples < 2:
        raise OutOfRange("n_samples = %d must be at least 2" % n_samples)
    if not 0.0 < p_max <= 1.0:
        raise OutOfRange("p_max = %g outside (0, 1]" % p_max)
    with allocation_guard("n_samples = %d" % n_samples):
        p = np.linspace(0.0, p_max, n_samples)

    r = _evolve(channel, r0.as_array()[None], p)[0]
    d_hs, i_hs = hs_discord_columns(*r.T)
    xa, xb, xc, xd, xe, xf = bd_xstate_columns(*r.T)
    concurrence, _ = concurrence_columns(xa, xb, xc, xd, abs(xe), abs(xf))
    d_tr, i_tr = trace_discord_columns(*r.T)
    traj = Trajectory(
        initial=r0,
        p=p,
        r=r,
        e_hs=hs_entanglement_columns(*r.T),
        d_hs=d_hs,
        concurrence=concurrence,
        d_tr=d_tr,
        branch_hs=_HS_LABELS[i_hs],
        branch_tr=_TRACE_LABELS[i_tr],
    )

    try:
        death = sudden_death_time(channel, r0)
    except NotEntangled:
        death = None
    records = traj.event_records
    for norm, labels, values_of, pick in (
        (Norm.HS, traj.branch_hs, hs_axis_distances, hs_discord_columns),
        (Norm.TRACE, traj.branch_tr, lambda *r: tuple(map(abs, r)), trace_discord_columns),
    ):
        try:
            changes = critical_times(RelationCase(channel, norm, r0)).sudden_changes
        except DegenerateOrdering:
            changes = ()

        def values(x):
            v = evolved_vector(channel, r0, x)
            return values_of(v.r1, v.r2, v.r3)

        def branch(x):
            v = evolved_vector(channel, r0, x)
            return pick(v.r1, v.r2, v.r3)[1]

        for k in np.flatnonzero(labels[1:] != labels[:-1]):
            i, j = int(labels[k][1]) - 1, int(labels[k + 1][1]) - 1
            for p_star in _switches(values, branch, float(p[k]), float(p[k + 1]), i, j):
                records.append(
                    EventRecord(
                        kind=SUDDEN_CHANGE,
                        norm=norm,
                        p_detected=p_star,
                        p_analytic=_match_analytic(p_star, changes),
                    )
                )
        matched = {e.p_analytic for e in records if e.norm is norm}
        traj.unmatched += [
            EventRecord(kind=SUDDEN_CHANGE, norm=norm, p_detected=None, p_analytic=c)
            for c in changes
            if c <= p_max and c not in matched
        ]

    def margin(x: float) -> float:
        v = evolved_vector(channel, r0, x)
        return octahedron_margin(v.r1, v.r2, v.r3)

    margins = octahedron_margin(*r.T)
    # only the first downward crossing counts as death
    down = np.flatnonzero((margins[:-1] > 0.0) & (margins[1:] <= 0.0))
    if margins[0] > 0.0 and down.size:
        k = down[0]
        p_star = _bisect(margin, float(p[k]), float(p[k + 1]), tol=1e-12)
        for norm in (Norm.HS, Norm.TRACE):
            records.append(
                EventRecord(
                    kind=SUDDEN_DEATH,
                    norm=norm,
                    p_detected=p_star,
                    p_analytic=death,
                )
            )

    records.sort(key=lambda e: (e.p_detected, e.kind, e.norm.value))
    return traj


def d_vs_e_curve(traj: Trajectory, norm: Norm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, D, branch) columns for p in [0, p_SD], ordered by p.

    Under the trace norm the entanglement coordinate is the concurrence.
    Raises EmptyWindow when the initial state is separable.
    """
    if traj.e_hs[0] <= 0.0:  # p[0] = 0, so this is the initial state's entanglement
        raise EmptyWindow(
            "initial state (%g, %g, %g) is separable"
            % (traj.initial.r1, traj.initial.r2, traj.initial.r3)
        )
    p_end = traj.death_p()
    n = len(traj.p) if p_end is None else np.searchsorted(traj.p, p_end + 1e-12, side="right")
    if norm is Norm.HS:
        return traj.e_hs[:n], traj.d_hs[:n], traj.branch_hs[:n]
    return traj.concurrence[:n], traj.d_tr[:n], traj.branch_tr[:n]


@dataclass(frozen=True)
class ContractivityReport:
    max_increase_hs: float
    max_increase_trace: float
    violations: tuple[tuple[int, str, float, float], ...]  # (pair, norm, p, increment)

    @property
    def clean(self) -> bool:
        return not self.violations


def contractivity_scan(
    channel: ChannelKind,
    pairs: list[tuple[CorrelationVector, CorrelationVector]],
    p_grid,
) -> ContractivityReport:
    """Check that both operator distances between evolved pairs never grow.

    For every pair and every step of the grid the trace distance and the
    squared Hilbert-Schmidt distance are required to be non-increasing;
    increments above 1e-12 are collected rather than raised.  All pairs and
    grid points are evolved, built into density matrices and measured in one
    stack per norm.
    """
    p = np.asarray(p_grid, dtype=float)
    if not pairs or not len(p):
        return ContractivityReport(max_increase_hs=0.0, max_increase_trace=0.0, violations=())
    ra, rb = (_evolve(channel, np.array([r.as_array() for r in side]), p) for side in zip(*pairs))
    delta = bd_density_columns(*np.moveaxis(ra, -1, 0)) - bd_density_columns(*np.moveaxis(rb, -1, 0))
    up_tr = np.diff(trace_norm(delta), axis=1)  # pairs x steps
    up_hs = np.diff(hs_operator_sq(delta), axis=1)
    # in scan order: by pair, then by p, the trace increment before the HS one
    found = sorted(
        (int(i), int(k), rank, norm, float(up[i, k]))
        for rank, (norm, up) in enumerate((("trace", up_tr), ("hs", up_hs)))
        for i, k in zip(*np.nonzero(up > 1e-12))
    )
    return ContractivityReport(
        max_increase_hs=float(up_hs.max(initial=0.0)),
        max_increase_trace=float(up_tr.max(initial=0.0)),
        violations=tuple((i, norm, float(p[k + 1]), up) for i, k, _, norm, up in found),
    )
