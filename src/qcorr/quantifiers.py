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
from .states import SIGMA_2, CorrelationVector, XState, _checked_spectrum, _modulus, _sqrt_clamped, _where
from .states import octahedron_margin


class Norm(enum.Enum):
    HS = "hs"
    TRACE = "trace"


@dataclass(frozen=True)
class QuantifierValue:
    value: float
    branch: str | None = None


# Branch labels by the index the closed forms below return: the HS discord's
# closest axis, the trace discord's middle modulus, the concurrence's term.
HS_LABELS = ("D1", "D2", "D3")
TRACE_LABELS = ("r1", "r2", "r3")
CONCURRENCE_LABELS = (None, "C1", "C2")


# Each closed form below is written once, over the components of the state.
# They may be numbers (one state) or equal-shape arrays (one state per row);
# plain arithmetic serves both, and the helpers below and states' _where and
# _sqrt_clamped do the rest.


def square(x):
    """x^2 rounded as libm pow, which Python's x ** 2 calls on a float.

    numpy's x ** 2 is x * x, which differs from pow in the last bit for some x
    and would move the pinned outputs; float_power is pow.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _pick(first, second, values) -> tuple:
    """values[0] where first holds, else values[1] where second holds, else
    values[2]; and the index picked."""
    a, b, c = values
    return _where(first, a, _where(second, b, c)), _where(first, 0, _where(second, 1, 2))


def hs_axis_distances(r1, r2, r3) -> tuple:
    """Branch values D_i = r_j^2 + r_k^2 (j, k != i): squared distances to the axes."""
    return (r2 * r2 + r3 * r3, r1 * r1 + r3 * r3, r1 * r1 + r2 * r2)


def hs_discord_columns(r1, r2, r3) -> tuple:
    """HS discord min_i D_i, the squared distance to the closest Cartesian axis,
    and the attained axis index i, lowest index on ties."""
    d1, d2, d3 = hs_axis_distances(r1, r2, r3)
    return _pick((d1 <= d2) & (d1 <= d3), (d2 < d1) & (d2 <= d3), (d1, d2, d3))


def hs_entanglement_columns(r1, r2, r3):
    """HS entanglement margin^2 / 3 outside the octahedron, 0 inside; the
    clamp at the octahedron is exact."""
    m = octahedron_margin(r1, r2, r3)
    return square(_where(m > 0.0, m, 0.0)) / 3.0


def trace_discord_columns(r1, r2, r3) -> tuple:
    """Trace-norm discord of Bell-diagonal states, the intermediate |r_i|, and
    its index i, in the stable sort order of (|r1|, |r2|, |r3|).

    |r_i| is the middle one when exactly one other value precedes it; an equal
    value precedes it when its index is lower.
    """
    s1, s2, s3 = abs(r1), abs(r2), abs(r3)
    return _pick((s2 < s1) != (s3 < s1), (s1 <= s2) != (s3 < s2), (s1, s2, s3))


def concurrence_columns(a, b, c, d, e, f) -> tuple:
    """X-state concurrence 2 max{0, |e| - sqrt(bc), |f| - sqrt(ad)} and its branch.

    Takes the populations and the coherences, real or complex.  The branch is
    1 when the |e| term attains the maximum, 2 for the |f| term and 0 when the
    state is separable.
    """
    t1 = _modulus(e) - _sqrt_clamped(b * c)
    t2 = _modulus(f) - _sqrt_clamped(a * d)
    best = _where(t2 > t1, t2, t1)
    entangled = best > 0.0
    return _where(entangled, 2.0 * best, 0.0), entangled * (2 - (t1 >= t2))


def hs_discord(r: CorrelationVector) -> QuantifierValue:
    """hs_discord_columns of one state, with its HS_LABELS branch label."""
    value, i = hs_discord_columns(r.r1, r.r2, r.r3)
    return QuantifierValue(value, HS_LABELS[i])


def hs_entanglement(r: CorrelationVector) -> QuantifierValue:
    """hs_entanglement_columns of one state."""
    return QuantifierValue(hs_entanglement_columns(r.r1, r.r2, r.r3))


def trace_discord(r: CorrelationVector) -> QuantifierValue:
    """trace_discord_columns of one state, with its TRACE_LABELS branch label."""
    value, mid = trace_discord_columns(r.r1, r.r2, r.r3)
    return QuantifierValue(value, TRACE_LABELS[mid])


def concurrence_x(x: XState) -> QuantifierValue:
    """concurrence_columns of one X state, with its CONCURRENCE_LABELS branch label."""
    value, k = concurrence_columns(x.a, x.b, x.c, x.d, x.e, x.f)
    return QuantifierValue(value, CONCURRENCE_LABELS[k])


_SPIN_FLIP = np.kron(SIGMA_2, SIGMA_2)

# matrices per batched eigensolve of wootters_concurrence, and searches per
# zoom of the oracles' _grid_min: bounds the temporaries of one stack
_STACK_BLOCK = 1024


def wootters_concurrence(rho: np.ndarray):
    """Concurrence of an arbitrary two-qubit state via the spin-flip spectrum.

    C = max{0, l1 - l2 - l3 - l4} where the l_i are the decreasing square
    roots of the eigenvalues of rho (s2 x s2) rho* (s2 x s2).  They are
    computed as the singular values of sqrt(rho) (s2 x s2) conj(sqrt(rho)),
    which carries the same spectrum without the square-root amplification of
    eigensolver noise near zero.  Takes one 4x4 matrix, giving a float, or an
    (N, 4, 4) stack, giving an array from one batched eigensolve and SVD per
    block of _STACK_BLOCK matrices; the blocks bound the temporaries.
    """
    rho = np.asarray(rho)
    if rho.ndim == 3 and len(rho) > _STACK_BLOCK:
        blocks = range(0, len(rho), _STACK_BLOCK)
        return np.concatenate([wootters_concurrence(rho[i : i + _STACK_BLOCK]) for i in blocks])
    try:
        rho, (w, v) = _checked_spectrum(rho, np.linalg.eigh)  # validate_density's checks, on a stack
        sqrt_rho = (v * np.sqrt(np.where(w > 0.0, w, 0.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
        lams = np.linalg.svd(sqrt_rho @ _SPIN_FLIP @ np.conj(sqrt_rho), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolve failed: %s" % exc) from exc
    l1, l2, l3, l4 = lams.T  # svd returns them in decreasing order
    c = l1 - l2 - l3 - l4
    c = np.where(c > 0.0, c, 0.0)
    return c if rho.ndim == 3 else float(c[0])
