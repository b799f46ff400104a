"""Direct discord-entanglement relations and analytic critical times.

Each channel decays the correlation axes it does not preserve by a common
factor g(p) and keeps the preserved axis, which depolarizing noise lacks.
For a Bell-diagonal state both the HS entanglement m^2 / 3 and the
concurrence m / 2 depend only on the octahedron margin m of the moduli, so
every case reduces to one analysis of the moduli in axis order: the kept
modulus and the sum of the decaying ones, through which m is linear in g.

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
from .errors import BranchUnknown, NotEntangled, OutOfRange, WindowViolation
from .quantifiers import HS_LABELS, TRACE_LABELS, Norm, hs_axis_distances
from .states import CorrelationVector, octahedron_margin

_WINDOW_TOL = 1e-9


@dataclass(frozen=True)
class RelationCase:
    """A channel/norm/initial-state combination for the relation formulas."""

    channel: ChannelKind
    norm: Norm
    initial: CorrelationVector

    @cached_property
    def frame(self) -> Frame:
        """The Frame of the initial state under the channel, derived once per case."""
        s = self.initial.abs_triple()
        keep = PRESERVED_AXIS[self.channel]
        kept = 0.0 if keep is None else s[keep]
        dec = sum(si for k, si in enumerate(s) if k != keep)  # in ascending axis order
        g_sd = (1.0 - kept) / dec if octahedron_margin(*s) > 0.0 else None
        return Frame(s, keep, kept, dec, g_sd)


@dataclass(frozen=True)
class CriticalTimes:
    sudden_changes: tuple[float, ...]
    sudden_death: float | None  # None: the initial state is separable
    # p beyond which D(C) lies on its extrapolated piece, inf if none: the
    # post-change segment of the single-change trace case, whose D(C) form is
    # obtained by the same substitution but has no stated counterpart
    extrapolated_from: float


class Frame(NamedTuple):
    """The moduli s of the initial state in axis order; keep, the axis the
    channel preserves (None under depolarizing noise), and kept its modulus
    (0 when every axis decays); dec, the sum of the decaying moduli.  The
    margin of the state evolved to decay factor g is g dec + kept - 1, so g_sd
    = (1 - kept) / dec is where it reaches the octahedron (None when the
    initial state is separable).
    """

    s: tuple[float, float, float]
    keep: int | None
    kept: float
    dec: float
    g_sd: float | None


def _mirrored(channel: ChannelKind, p: float) -> list[float]:
    """A crossing of the decay factor and, when it lies in (p, 1], its mirror
    image about the factor's root, on the rising side of (1 - c p)^2."""
    mirror = 2.0 * monotone_p_max(channel) - p
    return [p, mirror] if 0.0 < p < mirror <= 1.0 else [p]


@lru_cache(maxsize=4096)
def critical_times(case: RelationCase) -> CriticalTimes:
    """Sudden changes, sudden death and the start of the extrapolated trace piece.

    The HS discord switches branch when the dominant decaying component
    crosses a preserved one; the trace discord switches whenever a decaying
    component crosses it, except one that another decaying component ties
    exactly: the tied pair crosses together, which moves the largest modulus
    but not the median.  When exactly one decaying component crosses, the
    other lying below the preserved one or tied with it, D(C) is extrapolated
    from its first trace change on.  Depolarizing noise preserves no
    component, so its dynamics never exhibits a sudden change.
    """
    channel = case.channel
    s, keep, kept, _, g_sd = case.frame
    decaying = tuple(si for k, si in enumerate(s) if k != keep)
    if case.norm is Norm.TRACE:
        decaying = tuple(si for si in decaying if decaying.count(si) == 1)
    else:
        decaying = (max(decaying),)
    # kept = 0 under depolarizing noise: nothing crosses it
    crossing = [kept / si for si in decaying if si > kept > 0.0]
    changes = sorted(p for g in crossing for p in _mirrored(channel, inverse_decay_p(channel, g)))
    single = case.norm is Norm.TRACE and len(crossing) == 1
    death = None if g_sd is None else inverse_decay_p(channel, g_sd)
    return CriticalTimes(tuple(changes), death, changes[0] if single else math.inf)


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
    """Evolved moduli at decay factor g in axis order; the kept axis keeps its own.
    Not validated: the channel maps the validated initial state to a physical one."""
    (s1, s2, s3), keep, _, _, _ = case.frame
    return (s1 if keep == 0 else s1 * g, s2 if keep == 1 else s2 * g, s3 if keep == 2 else s3 * g)


def hs_discord_from_entanglement(E: float, case: RelationCase, branch: str | None) -> float:
    """HS discord reconstructed from the HS entanglement on the active branch.

    Inverts E = (g dec + kept - 1)^2 / 3, over the frame's decaying and kept
    moduli, for the decay factor g and evaluates the branch's distance to the
    corresponding axis.  Valid for p in [0, p_SD] on the branch's own window;
    outside it WindowViolation is raised.
    """
    idx = _branch_index(branch, HS_LABELS)
    if E < 0.0:
        raise OutOfRange("entanglement E = %g is negative" % E)
    s, keep, kept, dec, g_sd = case.frame
    if g_sd is None:  # read before dividing: (0, 0, 0) has no decaying components
        raise NotEntangled("initial state is separable")
    g = ((3.0 * E) ** 0.5 - kept + 1.0) / dec
    p = _p_in_window(case.channel, g, g_sd, "E")
    d = hs_axis_distances(*_moduli(case, g))
    if d[idx] > min(d) + _WINDOW_TOL:
        raise WindowViolation("branch %s is not active at p = %.9g" % (branch, p))
    gsq = g * g
    if idx == keep or keep is None:  # both other axes decay
        a, b = (s[k] for k in range(3) if k != idx)
        return (a ** 2 + b ** 2) * gsq
    return s[3 - idx - keep] ** 2 * gsq + kept ** 2


def trace_discord_from_concurrence(C: float, case: RelationCase, piece: str | None) -> float:
    """Trace discord reconstructed from the concurrence on the active piece.

    Inverts C = (g dec + kept - 1) / 2 for the decay factor g: whichever of
    its two X-form terms wins, the concurrence of an entangled Bell-diagonal
    state is half its octahedron margin.  Decaying pieces evaluate |r_i| g(C);
    the preserved piece is the constant plateau.  WindowViolation outside the
    piece window.
    """
    idx = _branch_index(piece, TRACE_LABELS)
    if C < 0.0:
        raise OutOfRange("concurrence C = %g is negative" % C)
    _, _, kept, dec, g_sd = case.frame
    if g_sd is None:
        raise NotEntangled("initial state has zero concurrence")
    g = (2.0 * C + (1.0 - kept)) / dec
    p = _p_in_window(case.channel, g, g_sd, "C")
    w = _moduli(case, g)
    if abs(w[idx] - sorted(w)[1]) > _WINDOW_TOL:
        raise WindowViolation("piece %s is not active at p = %.9g" % (piece, p))
    return w[idx]
