"""Trajectories over the channel parameter, event detection and curve data.

A trajectory holds the evolved correlation vectors and all quantifiers on a
uniform p-grid as columns, one array call per closed form.  Discord sudden
changes are crossings |r_i(p)| = |r_j(p)| of two correlation moduli, found
from the sign changes of the three moduli differences and refined by
bisection; entanglement sudden death is the first downward sign change of the
octahedron margin sum|r_i(p)| - 1, which both norms share.  Under phase flip
the decay factor turns at p = 1/2, which is added to the grid as a detection
row so that no difference can cross and cross back inside one cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind, decay_factors, evolved_vector, monotone_p_max
from .errors import EmptyWindow, NonPhysical, OutOfRange, allocation_guard
from .oracles import hs_operator_sq, trace_norm
from .quantifiers import (
    HS_LABELS,
    TRACE_LABELS,
    Norm,
    concurrence_columns,
    hs_discord_columns,
    hs_entanglement_columns,
    octahedron_margin,
    trace_discord_columns,
)
from .relations import RelationCase, critical_times
from .states import CorrelationVector, bd_density_columns, bd_xstate_columns, bell_eigenvalues, in_tetrahedron

SUDDEN_CHANGE = "SuddenChangeDiscord"
SUDDEN_DEATH = "SuddenDeathEntanglement"

_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class EventRecord:
    kind: str  # SUDDEN_CHANGE or SUDDEN_DEATH
    norm: Norm
    p_detected: float | None  # None: an analytic event that no detection matched
    p_analytic: float | None


@dataclass
class Trajectory:
    """A sampled trajectory in columns: row k of every array belongs to p[k].

    r holds the evolved correlation vectors (n x 3), row 0 the initial state
    bit for bit (every decay factor is 1 at p = 0); branch_hs holds the HS
    discord labels D1..D3 and branch_tr the trace discord labels r1..r3.
    unmatched lists, per norm in order of p, the analytic sudden changes and
    the analytic sudden death in [0, p_max] that no detected event was matched
    to; with detection from crossings of the moduli it stays empty unless a
    crossing falls exactly on a detection row, or two crossings lie within
    one float step.
    """

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
        return next((e.p_detected for e in self.event_records if e.kind == SUDDEN_DEATH), None)


def _bisect(f, lo: float, hi: float) -> float:
    """The sign change of f in [lo, hi], halved until the midpoint is an end:
    no float lies between the two, and that end is returned."""
    flo = f(lo) > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (f(mid) > 0.0) == flo:
            lo = mid
        else:
            hi = mid
    return mid


def _match_analytic(p: float, candidates) -> float | None:
    """The candidate nearest to p, the first on ties, when within _MATCH_TOL."""
    best = min(candidates, key=lambda c: abs(c - p), default=None)
    return best if best is not None and abs(best - p) <= _MATCH_TOL else None


def _evolve(channel: ChannelKind, rs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evolved vectors of the rows of rs (states x 3) at every p: an array of
    shape states x len(p) x 3.  Raises NonPhysical for the first evolved
    vector outside the tetrahedron, in row order: by state, then by p."""
    r = rs[:, None, :] * np.stack(np.broadcast_arrays(*decay_factors(channel, p)), axis=-1)
    rows = r.reshape(-1, 3)
    outside = np.flatnonzero(~in_tetrahedron(*rows.T))
    if outside.size:
        k = outside[0]
        lowest = np.min(bell_eigenvalues(*rows[k]))
        raise NonPhysical("evolved vector at p = %g has eigenvalue %.6g" % (p[k % len(p)], lowest))
    return r


def run_trajectory(
    channel: ChannelKind,
    r0: CorrelationVector,
    p_max: float,
    n_samples: int,
) -> Trajectory:
    """Sample the evolution on a uniform p-grid and detect all events.

    Events are read off the detection rows: the grid, plus p = 1/2 under phase
    flip, where its decay factor turns (monotone_p_max).  Between two rows each
    modulus difference |r_i| - |r_j| is monotone, so a strict sign change
    brackets its one crossing there.  A crossing is bisected on |r_j| - |r_i|
    and is a trace sudden change; it is an HS sudden change at the same p* when
    the third modulus lies below the pair, since D_j - D_i = r_i^2 - r_j^2 has
    the sign of |r_i| - |r_j| at every p, so the HS branch values cross there
    too.  A zero at either end of a cell is a tie-break, not a crossing.  When
    the third modulus equals a pair member on every row, the two cross the
    other member together, which is one HS sudden change and no trace change.
    Sudden death is the first downward crossing of the octahedron margin on
    the same rows, bisected.
    Each detected event is matched to the nearest analytic prediction within
    1e-6 that no earlier event of its kind and norm took; analytic changes and
    deaths in [0, p_max] left without a detection are listed in unmatched.
    """
    if n_samples < 2:
        raise OutOfRange("n_samples = %d must be at least 2" % n_samples)
    if not 0.0 < p_max <= 1.0:
        raise OutOfRange("p_max = %g outside (0, 1]" % p_max)
    with allocation_guard("n_samples = %d" % n_samples):
        p = np.linspace(0.0, p_max, n_samples)
    # the turning point of the decay factor is a detection row, never a CSV row
    turn = monotone_p_max(channel)
    k_turn = int(np.searchsorted(p, turn))
    extra = turn < p_max and p[k_turn] != turn
    rows = np.insert(p, k_turn, turn) if extra else p
    r_rows = _evolve(channel, r0.as_array()[None], rows)[0]
    r = np.delete(r_rows, k_turn, axis=0) if extra else r_rows
    d_hs, i_hs = hs_discord_columns(*r.T)
    concurrence, _ = concurrence_columns(*bd_xstate_columns(*r.T))
    d_tr, i_tr = trace_discord_columns(*r.T)
    traj = Trajectory(
        p=p,
        r=r,
        e_hs=hs_entanglement_columns(*r.T),
        d_hs=d_hs,
        concurrence=concurrence,
        d_tr=d_tr,
        branch_hs=np.array(HS_LABELS)[i_hs],
        branch_tr=np.array(TRACE_LABELS)[i_tr],
    )

    analytic = {}  # (kind, norm) -> the analytic times, read for matching only
    for norm in Norm:
        times = critical_times(RelationCase(channel, norm, r0))
        analytic[SUDDEN_CHANGE, norm] = times.sudden_changes
        analytic[SUDDEN_DEATH, norm] = () if times.sudden_death is None else (times.sudden_death,)

    def detected(kind: str, norm: Norm, x: float) -> EventRecord:
        taken = {e.p_analytic for e in records if e.kind == kind and e.norm is norm}
        free = [c for c in analytic[kind, norm] if c not in taken]  # one detection per analytic time
        return EventRecord(kind, norm, x, _match_analytic(x, free))

    def moduli(x: float) -> tuple[float, float, float]:
        """The evolved moduli at x, which every event below is refined on."""
        return evolved_vector(channel, r0, x).abs_triple()

    records = traj.event_records
    s = np.abs(r_rows)
    sign = np.sign(s[:, [0, 0, 1]] - s[:, [1, 2, 2]])  # pairs (0, 1), (0, 2), (1, 2): pair a + b - 1
    tied = (sign == 0.0).all(axis=0)  # bitwise on every row: tied moduli are the same product
    for k, c in zip(*np.nonzero(sign[:-1] * sign[1:] < 0.0)):
        i, j, t = (0, 0, 1)[c], (1, 2, 2)[c], (2, 1, 0)[c]  # t: the third modulus
        p_star = _bisect(lambda x: (w := moduli(x))[j] - w[i], *rows[k:k + 2].tolist())
        if tied[i + t - 1] or tied[j + t - 1]:
            # the third ties a pair member, and both cross the other member
            # together: the largest modulus moves, the median does not.  One HS
            # change, recorded on the crossing of the lower-index member of the tie
            norms = (Norm.HS,) if (i if tied[i + t - 1] else j) < t else ()
        else:  # an HS change too when the pair holds the largest modulus
            m = moduli(p_star)
            norms = Norm if m[t] < min(m[i], m[j]) else (Norm.TRACE,)
        records += [detected(SUDDEN_CHANGE, norm, p_star) for norm in norms]

    margins = octahedron_margin(*r_rows.T)
    # only the first downward crossing counts as death
    down = np.flatnonzero((margins[:-1] > 0.0) & (margins[1:] <= 0.0))
    if margins[0] > 0.0 and down.size:
        k = down[0]
        # abs is exact, so the margin of the moduli is the margin of the vector
        p_star = _bisect(lambda x: octahedron_margin(*moduli(x)), *rows[k:k + 2].tolist())
        records += [detected(SUDDEN_DEATH, norm, p_star) for norm in Norm]

    matched = {(e.kind, e.norm, e.p_analytic) for e in records}
    traj.unmatched = sorted(
        (EventRecord(kind, norm, None, c) for (kind, norm), times in analytic.items() for c in times
         if c <= p_max and (kind, norm, c) not in matched),
        key=lambda e: (e.norm is Norm.TRACE, e.p_analytic),  # HS first, then trace
    )

    records.sort(key=lambda e: (e.p_detected, e.kind, e.norm.value))
    return traj


def d_vs_e_curve(traj: Trajectory, norm: Norm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, D, branch) columns for p in [0, p_SD], ordered by p.

    Under the trace norm the entanglement coordinate is the concurrence.
    Raises EmptyWindow when the initial state is separable.
    """
    if traj.e_hs[0] <= 0.0:  # row 0 is p = 0, the initial state itself
        raise EmptyWindow("initial state (%g, %g, %g) is separable" % tuple(traj.r[0]))
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
