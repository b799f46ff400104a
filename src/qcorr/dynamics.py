"""Trajectories over the channel parameter, event detection and curve data.

A trajectory samples the evolved correlation vector and all quantifiers on a
uniform p-grid.  Discord sudden changes are detected from branch-label
switches and refined by bisection on the difference of the two competing
branch values; entanglement sudden death is detected from the sign change of
the octahedron margin sum|r_i(p)| - 1, which both norms share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind, evolved_vector
from .errors import DegenerateOrdering, EmptyWindow, NotEntangled, OutOfRange
from .oracles import hs_operator_sq, trace_norm
from .quantifiers import (
    Norm,
    concurrence_x,
    hs_axis_distances,
    hs_discord,
    hs_entanglement,
    trace_discord,
)
from .relations import RelationCase, critical_times, sudden_death_time
from .states import CorrelationVector, bd_to_density, bd_to_xstate

SUDDEN_CHANGE = "SuddenChangeDiscord"
SUDDEN_DEATH = "SuddenDeathEntanglement"

_REFINE_TOL = 1e-10
_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class TrajectorySample:
    p: float
    r: CorrelationVector
    e_hs: float
    d_hs: float
    concurrence: float
    d_tr: float
    branch_hs: str
    branch_tr: str


@dataclass(frozen=True)
class EventRecord:
    kind: str  # SUDDEN_CHANGE or SUDDEN_DEATH
    norm: Norm
    p_detected: float
    p_analytic: float | None


@dataclass
class Trajectory:
    channel: ChannelKind
    initial: CorrelationVector
    samples: list[TrajectorySample]
    event_records: list[EventRecord] = field(default_factory=list)

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


def _match_analytic(p: float, candidates) -> float | None:
    best = None
    for c in candidates:
        if best is None or abs(c - p) < abs(best - p):
            best = c
    if best is not None and abs(best - p) <= _MATCH_TOL:
        return best
    return None


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
    matched to its analytic prediction when one exists within 1e-6.
    """
    if n_samples < 2:
        raise OutOfRange("n_samples = %d must be at least 2" % n_samples)
    if not 0.0 < p_max <= 1.0:
        raise OutOfRange("p_max = %g outside (0, 1]" % p_max)

    grid = np.linspace(0.0, p_max, n_samples)
    samples: list[TrajectorySample] = []
    for p in grid:
        rv = evolved_vector(channel, r0, float(p))
        qd = hs_discord(rv)
        qe = hs_entanglement(rv)
        qc = concurrence_x(bd_to_xstate(rv))
        qt = trace_discord(rv)
        samples.append(
            TrajectorySample(
                p=float(p),
                r=rv,
                e_hs=qe.value,
                d_hs=qd.value,
                concurrence=qc.value,
                d_tr=qt.value,
                branch_hs=qd.branch,
                branch_tr=qt.branch,
            )
        )

    try:
        death = sudden_death_time(channel, r0)
    except NotEntangled:
        death = None
    records: list[EventRecord] = []
    for norm, label_of, values_of in (
        (Norm.HS, lambda s: s.branch_hs, hs_axis_distances),
        (Norm.TRACE, lambda s: s.branch_tr, CorrelationVector.abs_triple),
    ):
        try:
            changes = critical_times(RelationCase(channel, norm, r0)).sudden_changes
        except DegenerateOrdering:
            changes = ()
        for a, b in zip(samples, samples[1:]):
            la, lb = label_of(a), label_of(b)
            if la == lb:
                continue
            i, j = int(la[1]) - 1, int(lb[1]) - 1

            def f(p, values_of=values_of, i=i, j=j):
                v = values_of(evolved_vector(channel, r0, p))
                return v[j] - v[i]

            fa, fb = f(a.p), f(b.p)
            if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
                # label flipped on a tie-break without a value crossing
                continue
            p_star = _bisect(f, a.p, b.p)
            records.append(
                EventRecord(
                    kind=SUDDEN_CHANGE,
                    norm=norm,
                    p_detected=p_star,
                    p_analytic=_match_analytic(p_star, changes),
                )
            )

    def margin(p: float) -> float:
        return sum(evolved_vector(channel, r0, p).abs_triple()) - 1.0

    margins = [sum(s.r.abs_triple()) - 1.0 for s in samples]
    if margins[0] > 0.0:
        for k in range(len(samples) - 1):
            if margins[k] > 0.0 >= margins[k + 1]:
                p_star = _bisect(margin, samples[k].p, samples[k + 1].p, tol=1e-12)
                for norm in (Norm.HS, Norm.TRACE):
                    records.append(
                        EventRecord(
                            kind=SUDDEN_DEATH,
                            norm=norm,
                            p_detected=p_star,
                            p_analytic=death,
                        )
                    )
                break  # only the first downward crossing counts as death

    records.sort(key=lambda e: (e.p_detected, e.kind, e.norm.value))
    return Trajectory(channel=channel, initial=r0, samples=samples, event_records=records)


def d_vs_e_curve(traj: Trajectory, norm: Norm) -> list[tuple[float, float, str]]:
    """(E, D, branch) pairs for p in [0, p_SD], ordered by p.

    Under the trace norm the entanglement coordinate is the concurrence.
    Raises EmptyWindow when the initial state is separable.
    """
    if hs_entanglement(traj.initial).value <= 0.0:
        raise EmptyWindow(
            "initial state (%g, %g, %g) is separable"
            % (traj.initial.r1, traj.initial.r2, traj.initial.r3)
        )
    p_end = traj.death_p()
    if p_end is None:
        p_end = traj.samples[-1].p
    out = []
    for s in traj.samples:
        if s.p > p_end + 1e-12:
            break
        if norm is Norm.HS:
            out.append((s.e_hs, s.d_hs, s.branch_hs))
        else:
            out.append((s.concurrence, s.d_tr, s.branch_tr))
    return out


@dataclass(frozen=True)
class ContractivityReport:
    channel: ChannelKind
    n_pairs: int
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
    tol: float = 1e-12,
) -> ContractivityReport:
    """Check that both operator distances between evolved pairs never grow.

    For every pair and every step of the grid the trace distance and the
    squared Hilbert-Schmidt distance are required to be non-increasing;
    increments above tol are collected rather than raised.
    """
    p_grid = [float(p) for p in p_grid]
    max_up_hs = 0.0
    max_up_tr = 0.0
    violations = []
    for i, (ra, rb) in enumerate(pairs):
        prev_tr = prev_hs = None
        for p in p_grid:
            delta = bd_to_density(evolved_vector(channel, ra, p)) - bd_to_density(
                evolved_vector(channel, rb, p)
            )
            d_tr = trace_norm(delta)
            d_hs = hs_operator_sq(delta)
            if prev_tr is not None:
                up_tr = d_tr - prev_tr
                up_hs = d_hs - prev_hs
                max_up_tr = max(max_up_tr, up_tr)
                max_up_hs = max(max_up_hs, up_hs)
                if up_tr > tol:
                    violations.append((i, "trace", p, up_tr))
                if up_hs > tol:
                    violations.append((i, "hs", p, up_hs))
            prev_tr, prev_hs = d_tr, d_hs
    return ContractivityReport(
        channel=channel,
        n_pairs=len(pairs),
        max_increase_hs=max_up_hs,
        max_increase_trace=max_up_tr,
        violations=tuple(violations),
    )
