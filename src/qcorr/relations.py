"""Direct discord-entanglement relations and analytic critical times.

Each channel decays the correlation axes it does not preserve by a common
factor g(p); writing the initial state in a channel-canonical order (decaying
axes first, preserved axis last) reduces every case to one analysis, in which
slots [0, n) decay and slots [n, 3) are kept: n = 2 for the dephasing-type
channels (phase damping, bit flip, bit-phase flip, phase flip) and n = 3
under depolarizing noise, which preserves no axis.

The relation functions invert the entanglement (HS norm) or the concurrence
(trace norm) for g(p) and substitute it into the active discord branch, so
applying them to a directly computed E or C must reproduce the directly
computed discord piecewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .channels import PRESERVED_AXIS, ChannelKind, inverse_decay_p, monotone_p_max
from .errors import (
    BranchUnknown,
    DegenerateOrdering,
    NotEntangled,
    OutOfRange,
    WindowViolation,
)
from .quantifiers import HS_LABELS, TRACE_LABELS, Norm, concurrence_columns, hs_axis_distances
from .states import CorrelationVector, bd_xstate_columns, octahedron_margin

_ORDER_TOL = 1e-12
_WINDOW_TOL = 1e-9


@dataclass(frozen=True)
class RelationCase:
    """A channel/norm/initial-state combination for the relation formulas."""

    channel: ChannelKind
    norm: Norm
    initial: CorrelationVector

    @cached_property
    def frame(self) -> Frame:
        """canonical_frame of the initial state, derived once per case."""
        return canonical_frame(self.channel, self.initial)


@dataclass(frozen=True)
class CriticalTimes:
    sudden_changes: tuple[float, ...]
    sudden_death: float | None


def ordering(r: CorrelationVector) -> tuple[int, int, int]:
    """1-based axis indices sorted by increasing |r_i|; ties are rejected."""
    s = r.abs_triple()
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(s[i] - s[j]) <= _ORDER_TOL:
                raise DegenerateOrdering(
                    "|r%d| = |r%d| = %.12g: piecewise case analysis undefined"
                    % (i + 1, j + 1, s[i])
                )
    return tuple(sorted((1, 2, 3), key=lambda k: s[k - 1]))


class Frame(NamedTuple):
    """The initial state in the channel-canonical order: perm maps canonical
    slot to original axis, u holds the components and s their moduli, of
    which slots [0, n) decay and slots [n, 3) are preserved.  g_sd is the
    decay factor at which the evolved state reaches the octahedron (None when
    it is separable); branch is the winning concurrence branch of u:
    1 (C1), 2 (C2) or 0 (C = 0).
    """

    perm: tuple[int, int, int]
    u: tuple[float, float, float]
    s: tuple[float, float, float]
    n: int
    g_sd: float | None
    branch: int


def canonical_frame(channel: ChannelKind, r: CorrelationVector) -> Frame:
    """The Frame of r under the channel; RelationCase.frame caches it per case."""
    # canonical slot -> original axis: the decaying axes in ascending order,
    # then the preserved axis (a stable sort on "is preserved")
    keep = PRESERVED_AXIS[channel]
    perm = tuple(sorted(range(3), key=lambda k: k == keep))
    n = 3 if keep is None else 2
    rv = (r.r1, r.r2, r.r3)
    u = tuple(rv[j] for j in perm)
    s = tuple(abs(v) for v in u)
    g_sd = (1.0 - sum(s[n:])) / sum(s[:n]) if octahedron_margin(*u) > 0.0 else None
    _, branch = concurrence_columns(*bd_xstate_columns(*u))
    return Frame(perm, u, s, n, g_sd, branch)


def sudden_death_time(channel: ChannelKind, r: CorrelationVector) -> float:
    """Analytic entanglement sudden-death time; raises NotEntangled when the
    initial state already lies inside the separable octahedron."""
    g_sd = canonical_frame(channel, r).g_sd
    if g_sd is None:
        raise NotEntangled("initial state (%g, %g, %g) is separable" % (r.r1, r.r2, r.r3))
    return inverse_decay_p(channel, g_sd)


def _mirrored(channel: ChannelKind, p: float) -> list[float]:
    """A crossing of the decay factor and, when it lies in (p, 1], its mirror
    image about the factor's root, on the rising side of (1 - c p)^2."""
    mirror = 2.0 * monotone_p_max(channel) - p
    return [p, mirror] if 0.0 < p < mirror <= 1.0 else [p]


@lru_cache(maxsize=4096)
def critical_times(case: RelationCase) -> CriticalTimes:
    """Sudden-change times of the discord and the sudden-death time.

    The HS discord switches branch when the dominant decaying component
    crosses a preserved one; the trace discord switches whenever a decaying
    component crosses it.  Depolarizing noise preserves no component, so its
    dynamics never exhibits a sudden change.  Orderings with coinciding |r_i|
    are rejected.
    """
    ordering(case.initial)
    channel = case.channel
    _, _, s, n, g_sd, _ = case.frame
    decaying = s[:n] if case.norm is Norm.TRACE else (max(s[:n]),)
    changes: list[float] = []
    for kept in s[n:]:
        for si in decaying:
            if si > kept > 0.0:
                changes += _mirrored(channel, inverse_decay_p(channel, kept / si))
    death = None if g_sd is None else inverse_decay_p(channel, g_sd)
    return CriticalTimes(sudden_changes=tuple(sorted(changes)), sudden_death=death)


def extrapolation_start(case: RelationCase) -> float:
    """p beyond which the D(C) curve lies on its extrapolated piece, inf if none.

    That piece is the post-sudden-change segment of the single-change trace
    case, whose D(C) form is obtained by the same substitution but has no
    stated counterpart; flagged so downstream output can mark it.
    """
    if case.norm is not Norm.TRACE:
        return math.inf
    try:
        changes = critical_times(case).sudden_changes
    except DegenerateOrdering:
        return math.inf
    # a change means a decaying |u_i| above the preserved |u_3|; single when the other is below
    s = case.frame.s
    return changes[0] if changes and min(s[0], s[1]) < s[2] else math.inf


def _branch_index(label: str | None, labels: tuple[str, ...]) -> int:
    """Index of label in labels, a label table of qcorr.quantifiers."""
    if label is None:
        raise BranchUnknown("active branch label is required")
    if label in labels:
        return labels.index(label)
    raise BranchUnknown("unrecognized branch label %r" % label)


def _p_in_window(channel: ChannelKind, g: float, g_sd: float, what: str) -> float:
    """p in [0, p_SD] at which the decay factor equals g; WindowViolation outside.

    what names the input g was inverted from; a NaN g comes from a NaN input.
    """
    if math.isnan(g):
        raise OutOfRange("%s = nan is not a number" % what)
    if g < g_sd - _WINDOW_TOL:
        raise WindowViolation(
            "%s lies beyond sudden death (factor %.12g < %.12g)" % (what, g, g_sd)
        )
    if g > 1.0 + _WINDOW_TOL:
        raise WindowViolation("%s exceeds its initial value (factor %.12g > 1)" % (what, g))
    return inverse_decay_p(channel, min(g, 1.0))


def _moduli(case: RelationCase, g: float) -> tuple[float, float, float]:
    """Evolved moduli at decay factor g in canonical slots; slots from n on keep s.
    Not validated: the channel maps the validated initial state to a physical one."""
    _, _, s, n, _, _ = case.frame
    return (s[0] * g, s[1] * g, s[2] * g if n == 3 else s[2])


def hs_discord_from_entanglement(E: float, case: RelationCase, branch: str | None) -> float:
    """HS discord reconstructed from the HS entanglement on the active branch.

    Inverts E = (g sum(s[:n]) + sum(s[n:]) - 1)^2 / 3, over the frame's
    decaying and preserved moduli, for the decay factor g and evaluates the
    branch's distance to the corresponding axis.  Valid for p in [0, p_SD] on
    the branch's own window; outside it WindowViolation is raised.
    """
    idx = _branch_index(branch, HS_LABELS)
    if E < 0.0:
        raise OutOfRange("entanglement E = %g is negative" % E)
    perm, _, s, n, g_sd, _ = case.frame
    if g_sd is None:  # read before dividing: (0, 0, 0) has no decaying components
        raise NotEntangled("initial state is separable")
    g = ((3.0 * E) ** 0.5 - sum(s[n:]) + 1.0) / sum(s[:n])
    p = _p_in_window(case.channel, g, g_sd, "E")
    slot = perm.index(idx)
    d = hs_axis_distances(*_moduli(case, g))
    if d[slot] > min(d) + _WINDOW_TOL:
        raise WindowViolation("branch %s is not active at p = %.9g" % (branch, p))
    gsq = g * g
    if slot == 2 or n == 3:  # every other slot decays
        a, b = (s[k] for k in range(3) if k != slot)
        return (a ** 2 + b ** 2) * gsq
    return s[1 - slot] ** 2 * gsq + s[2] ** 2


def trace_discord_from_concurrence(C: float, case: RelationCase, piece: str | None) -> float:
    """Trace discord reconstructed from the concurrence on the active piece.

    The winning concurrence branch of the (canonically ordered) initial state
    fixes the sign pairing: C1 pairs (|u2 - u1|, |1 - u3|), C2 pairs
    (|u2 + u1|, |1 + u3|).  Decaying pieces evaluate |r_i| g(C); the preserved
    piece is the constant plateau.  WindowViolation outside the piece window.
    """
    idx = _branch_index(piece, TRACE_LABELS)
    if C < 0.0:
        raise OutOfRange("concurrence C = %g is negative" % C)
    perm, u, _, n, g_sd, branch = case.frame
    if not branch or g_sd is None:
        raise NotEntangled("initial state has zero concurrence")
    sign = -1.0 if branch == 1 else 1.0  # the pairing's sign: C1 -, C2 +
    # kept: the preserved u2, or 0 when every slot decays; 1 + sign * kept >= 0
    # for a physical state, so the pairing's |1 -/+ u3| needs no abs
    kept = sum(u[n:])
    g = (2.0 * C + (1.0 + sign * kept)) / (abs(u[0] + sign * u[1]) - sign * (u[2] - kept))
    p = _p_in_window(case.channel, g, g_sd, "C")
    slot = perm.index(idx)
    w = _moduli(case, g)
    if abs(w[slot] - sorted(w)[1]) > _WINDOW_TOL:
        raise WindowViolation("piece %s is not active at p = %.9g" % (piece, p))
    return w[slot]
