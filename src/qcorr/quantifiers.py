"""Closed-form geometric discord and entanglement under both Schatten norms.

Values are reported in correlation-vector units: the Hilbert-Schmidt measures
are squared Euclidean distances between correlation vectors (the operator
distance of two Bell-diagonal states is exactly half the vector distance), and
the trace-norm measures coincide with the operator trace norm without a 1/2
prefactor, which makes the trace entanglement equal the concurrence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .states import SIGMA_2, CorrelationVector, XState, validate_density


class Norm(enum.Enum):
    HS = "hs"
    TRACE = "trace"


class Measure(enum.Enum):
    HS_DISCORD = "hs_discord"
    HS_ENTANGLEMENT = "hs_entanglement"
    TRACE_DISCORD = "trace_discord"
    CONCURRENCE = "concurrence"


@dataclass(frozen=True)
class QuantifierValue:
    measure: Measure
    value: float
    branch: str | None = None


def hs_axis_distances(r: CorrelationVector) -> tuple[float, float, float]:
    """Branch values D_i = r_j^2 + r_k^2 (j, k != i): squared distances to the axes."""
    return (
        r.r2 * r.r2 + r.r3 * r.r3,
        r.r1 * r.r1 + r.r3 * r.r3,
        r.r1 * r.r1 + r.r2 * r.r2,
    )


def hs_discord(r: CorrelationVector) -> QuantifierValue:
    """Squared Euclidean distance from (r1, r2, r3) to the closest Cartesian axis.

    D = min_i D_i over hs_axis_distances; the branch records the attained
    axis, lowest index on ties.
    """
    d = hs_axis_distances(r)
    i = min(range(3), key=lambda k: (d[k], k))
    return QuantifierValue(Measure.HS_DISCORD, d[i], "D%d" % (i + 1))


def hs_entanglement(r: CorrelationVector) -> QuantifierValue:
    """Squared distance from (|r1|, |r2|, |r3|) to the separable octahedron.

    E = (|r1| + |r2| + |r3| - 1)^2 / 3 outside the octahedron, 0 inside;
    the clamp at the boundary is exact.
    """
    s = sum(r.abs_triple())
    value = (s - 1.0) ** 2 / 3.0 if s > 1.0 else 0.0
    return QuantifierValue(Measure.HS_ENTANGLEMENT, value)


def trace_discord(r: CorrelationVector) -> QuantifierValue:
    """Trace-norm discord of a Bell-diagonal state: the intermediate |r_i|."""
    s = r.abs_triple()
    order = sorted(range(3), key=lambda k: (s[k], k))
    mid = order[1]
    return QuantifierValue(Measure.TRACE_DISCORD, s[mid], "r%d" % (mid + 1))


def concurrence_x(x: XState) -> QuantifierValue:
    """Concurrence of an X state: 2 max{0, |e| - sqrt(bc), |f| - sqrt(ad)}.

    Branch C1 when the |e| term attains the maximum, C2 for the |f| term,
    None when the state is separable.
    """
    t1 = float(abs(x.e) - np.sqrt(max(x.b * x.c, 0.0)))
    t2 = float(abs(x.f) - np.sqrt(max(x.a * x.d, 0.0)))
    best = max(t1, t2)
    if best <= 0.0:
        return QuantifierValue(Measure.CONCURRENCE, 0.0, None)
    branch = "C1" if t1 >= t2 else "C2"
    return QuantifierValue(Measure.CONCURRENCE, 2.0 * best, branch)


_SPIN_FLIP = np.kron(SIGMA_2, SIGMA_2)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit state via the spin-flip spectrum.

    C = max{0, l1 - l2 - l3 - l4} where the l_i are the decreasing square
    roots of the eigenvalues of rho (s2 x s2) rho* (s2 x s2).  They are
    computed as the singular values of sqrt(rho) (s2 x s2) conj(sqrt(rho)),
    which carries the same spectrum without the square-root amplification of
    eigensolver noise near zero.
    """
    rho = validate_density(rho)
    try:
        w, v = np.linalg.eigh(rho)
        sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        lams = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ np.conj(sqrt_rho), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolve failed: %s" % exc) from exc
    lams = np.sort(lams)[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))
