"""Brute-force minimizers over the classical and separable sets.

These oracles validate every closed-form quantifier by direct search: a
grid over the whole search box refined by zooming sub-grids, with trace
distances obtained from eigenvalues of the operator difference rather than
from any r-space shortcut.  Both searched functions, ||rho - sigma(t)|| over
an axis and ||rho_X - sigma_X(a, b)||_1 over the coherence moduli, are norms
of affine maps and hence convex, so a coarse start grid followed by a zoom
finds the minimum of a dense grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .quantifiers import Norm
from .states import SIGMA_PAIR, CorrelationVector, XState, bd_to_density

# points per axis of every search grid
_GRID_POINTS = 21


@dataclass(frozen=True)
class SeparableXCandidate:
    """Coherences of a candidate separable X state with a fixed diagonal."""

    e_prime: complex
    f_prime: complex


@dataclass(frozen=True)
class OracleResult:
    minimizer: object  # CorrelationVector or SeparableXCandidate
    distance: float
    evaluations: int


def trace_norm(delta: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    delta = np.asarray(delta)
    try:
        w = np.linalg.eigvalsh(delta)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolve failed: %s" % exc) from exc
    return float(np.sum(np.abs(w)))


def hs_operator_sq(delta: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm of an operator difference."""
    delta = np.asarray(delta)
    return float(np.sum(np.abs(delta) ** 2))


def _trace_norms(deltas: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, one batched eigensolve."""
    try:
        w = np.linalg.eigvalsh(deltas)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolve failed: %s" % exc) from exc
    return np.abs(w).sum(axis=-1)


def _grid_min(f, lo: float, hi: float, dims: int, refine_to: float):
    """Minimize the convex function f on the box [lo, hi]^dims by grid zoom.

    The first grid of _GRID_POINTS points per axis spans the whole box.  Each
    later grid is centred on the best point so far with a tenth of the
    previous half-width, until the half-width is at most refine_to.  f takes
    one coordinate array per axis and returns the values.  Returns
    (best point, its value, evaluations).
    """
    best = ((lo + hi) / 2.0,) * dims
    h = (hi - lo) / 2.0
    evals = 0
    while True:
        axes = [np.clip(np.linspace(c - h, c + h, _GRID_POINTS), lo, hi) for c in best]
        pts = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        vals = f(*pts)
        evals += len(vals)
        k = int(np.argmin(vals))
        best, value = tuple(float(p[k]) for p in pts), float(vals[k])
        h /= 10.0
        if h <= refine_to:
            return best, value, evals


def _axis_vector(axis: int, t: float) -> CorrelationVector:
    r = [0.0, 0.0, 0.0]
    r[axis] = t
    return CorrelationVector(*r)


def _axis_density_stack(base: np.ndarray, axis: int, ts: np.ndarray) -> np.ndarray:
    """Real symmetric stack rho(r) - rho(axis state t) for all t at once.

    base is rho(r) - I/4 (the identity parts cancel).  Bell-diagonal density
    matrices are real in the computational basis, so the differences can be
    diagonalized as real symmetric matrices.
    """
    return base - (ts / 4.0)[:, None, None] * SIGMA_PAIR[axis].real


def closest_classical(r: CorrelationVector, norm: Norm) -> OracleResult:
    """Closest point on the Cartesian axes (t, 0, 0), (0, t, 0), (0, 0, t).

    Searches each axis t in [-1, 1] by grid zoom to 1e-8.  HS distances are
    squared Euclidean in r-space; trace distances are eigenvalue sums of the
    operator difference.
    """
    rv = r.as_array()
    base = bd_to_density(r).real - np.eye(4) / 4.0
    best = None
    evals = 0

    for axis in range(3):
        if norm is Norm.HS:
            rest = sum(rv[k] ** 2 for k in range(3) if k != axis)

            def f(t, axis=axis, rest=rest):
                return (rv[axis] - t) ** 2 + rest
        else:
            def f(t, axis=axis):
                return _trace_norms(_axis_density_stack(base, axis, t))

        (t_star,), f_star, n = _grid_min(f, -1.0, 1.0, 1, 1e-8)
        evals += n
        if best is None or f_star < best[0]:
            best = (f_star, axis, t_star)

    f_star, axis, t_star = best
    return OracleResult(
        minimizer=_axis_vector(axis, t_star), distance=float(f_star), evaluations=evals
    )


def _project_l1_ball(s: np.ndarray) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {z >= 0, sum z <= 1}."""
    if s.sum() <= 1.0:
        return s.copy()
    u = np.sort(s)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(s) + 1)
    valid = u - css / ks > 0
    k = ks[valid][-1]
    tau = css[k - 1] / k
    return np.maximum(s - tau, 0.0)


def closest_separable_hs(r: CorrelationVector) -> OracleResult:
    """Closest point of the separable octahedron |z1| + |z2| + |z3| <= 1.

    Uses the exact Euclidean projection (soft-thresholded simplex projection
    of the absolute triple, signs restored); interior points project to
    themselves with distance 0.
    """
    s = np.abs(r.as_array())
    z = _project_l1_ball(s)
    signs = np.sign(r.as_array())
    signs[signs == 0.0] = 1.0
    minimizer = CorrelationVector(*(signs * z))
    dist = float(np.sum((s - z) ** 2))
    return OracleResult(minimizer=minimizer, distance=dist, evaluations=1)


def _phase(z: complex) -> complex:
    return z / abs(z) if abs(z) > 0.0 else 1.0 + 0.0j


def _xdiff_trace_norms(abs_e: float, abs_f: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched trace norms of rho_X - sigma_X over candidate moduli (a, b).

    With the candidate phases aligned to e and f, conjugation by a diagonal
    phase unitary turns every difference into a real symmetric matrix with
    anti-diagonal entries |e| - a and |f| - b, leaving eigenvalues unchanged.
    """
    deltas = np.zeros((len(a), 4, 4))
    de = abs_e - a
    df = abs_f - b
    deltas[:, 0, 3] = de
    deltas[:, 3, 0] = de
    deltas[:, 1, 2] = df
    deltas[:, 2, 1] = df
    return _trace_norms(deltas)


def closest_separable_trace_xfamily(x: XState) -> OracleResult:
    """Trace-norm closest separable X state with the same populations.

    Grid zoom to 1e-7 over the candidate moduli (|e'|, |f'|) in
    [0, min(sqrt(ad), sqrt(bc))]^2; candidate phases are aligned with e and
    f, where the minimum is attained.
    """
    m = min(math.sqrt(max(x.a * x.d, 0.0)), math.sqrt(max(x.b * x.c, 0.0)))
    abs_e, abs_f = abs(x.e), abs(x.f)
    evals = 0

    def f(a, b):
        return _xdiff_trace_norms(abs_e, abs_f, a, b)

    if m == 0.0:
        best_a = best_f = 0.0
    else:
        (best_a, best_f), _, evals = _grid_min(f, 0.0, m, 2, 1e-7)

    cand = SeparableXCandidate(
        e_prime=_phase(x.e) * best_a, f_prime=_phase(x.f) * best_f
    )
    sigma = XState(x.a, x.b, x.c, x.d, cand.e_prime, cand.f_prime)
    dist = trace_norm(x.to_density() - sigma.to_density())
    return OracleResult(minimizer=cand, distance=dist, evaluations=evals + 1)


def clamped_minimizer(x: XState) -> SeparableXCandidate:
    """Analytic minimizer: each coherence kept if feasible, else clamped to the
    separability bound min(sqrt(ad), sqrt(bc)); phases follow e and f."""
    m = min(math.sqrt(max(x.a * x.d, 0.0)), math.sqrt(max(x.b * x.c, 0.0)))
    return SeparableXCandidate(
        e_prime=_phase(x.e) * min(abs(x.e), m),
        f_prime=_phase(x.f) * min(abs(x.f), m),
    )
