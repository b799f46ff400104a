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
from .quantifiers import Norm, square
from .states import SIGMA_PAIR, CorrelationVector, XState, bd_to_density, x_density_columns

# points per axis of every search grid, and their indices; each zoom shrinks
# the half-width to one grid spacing, h / ((_GRID_POINTS - 1) / 2)
_GRID_POINTS = 5
_STEPS = np.arange(_GRID_POINTS, dtype=float)

# searches advanced together by _grid_min: bounds each level's stack of points
_BLOCK = 64


@dataclass(frozen=True)
class OracleResult:
    minimizer: CorrelationVector | XState
    distance: float
    evaluations: int


def trace_norm(delta: np.ndarray):
    """Trace norm of a Hermitian matrix, the sum of its absolute eigenvalues; a
    float for one matrix, an array for a stack of them (one batched eigensolve)."""
    try:
        w = np.linalg.eigvalsh(delta)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolve failed: %s" % exc) from exc
    norms = np.abs(w).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def hs_operator_sq(delta: np.ndarray):
    """Squared Hilbert-Schmidt norm of an operator difference; a float for one
    matrix, an array for a stack of them (each summed over its own entries)."""
    delta = np.asarray(delta)
    norms = (np.abs(delta) ** 2).reshape(delta.shape[:-2] + (-1,)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _grid_min(f, lo: np.ndarray, hi: np.ndarray, dims: int, refine_to: float):
    """Minimize convex functions, search s on the box [lo[s], hi[s]]^dims, by
    grid zoom, all searches in lockstep.

    A search's first grid of _GRID_POINTS points per axis spans its whole box.
    Each later grid is centred on its best point so far with a half-width of
    one grid spacing, until that half-width is at most refine_to; searches
    with smaller boxes stop earlier.  On each grid line through the best
    point, a convex function's minimum lies within one spacing of that point,
    so the zoom keeps it inside the next grid.  f(active, *coords) evaluates
    the searches whose indices are in active, with one (len(active), points)
    coordinate array per axis, and returns the values in the same shape.
    Searches run in blocks of _BLOCK, which bounds the size of each level's
    stack.  Returns the best points (S, dims), their values and the
    evaluations per search.
    """
    n = len(lo)
    best = np.empty((n, dims))
    value = np.empty(n)
    evals = np.empty(n, dtype=int)
    # grid point k of a search sits at index mesh[d, k] of axis d: meshgrid "ij" order
    mesh = np.indices((_GRID_POINTS,) * dims).reshape(dims, -1)
    for start in range(0, n, _BLOCK):
        active = np.arange(start, min(start + _BLOCK, n))
        c = np.repeat(((lo[active] + hi[active]) / 2.0)[:, None], dims, axis=1)
        h = ((hi[active] - lo[active]) / 2.0)[:, None]
        lo_a, hi_a = lo[active, None, None], hi[active, None, None]
        levels = 0
        while len(active):
            # the arithmetic of np.linspace(c - h, c + h, _GRID_POINTS) per axis
            first, last = c - h, c + h
            axes = _STEPS * ((last - first) / (_GRID_POINTS - 1))[..., None] + first[..., None]
            axes[..., -1] = last
            np.clip(axes, lo_a, hi_a, out=axes)
            vals = f(active, *(axes[:, d, mesh[d]] for d in range(dims)))
            k = vals.argmin(axis=1)
            rows = np.arange(len(active))
            c = axes[rows[:, None], np.arange(dims), mesh[:, k].T]
            levels += 1
            h = h / ((_GRID_POINTS - 1) / 2)
            done = (h <= refine_to)[:, 0]
            if done.any():
                finished = active[done]
                best[finished], value[finished] = c[done], vals[rows[done], k[done]]
                evals[finished] = levels * vals.shape[1]
                keep = ~done
                active, c, h, lo_a, hi_a = active[keep], c[keep], h[keep], lo_a[keep], hi_a[keep]
    return best, value, evals


# sigma_j x sigma_j as real matrices, stacked by axis
_PAIR_REAL = np.stack([op.real for op in SIGMA_PAIR])


def _axis_vector(axis: int, t: float) -> CorrelationVector:
    r = [0.0, 0.0, 0.0]
    r[axis] = t
    return CorrelationVector(*r)


def closest_classical_many(rs, norm: Norm) -> list[OracleResult]:
    """Closest point on the Cartesian axes (t, 0, 0), (0, t, 0), (0, 0, t), for
    each state of rs.

    Searches each axis t in [-1, 1] by grid zoom to 1e-8, all states and axes
    in lockstep; ties go to the lowest axis.  HS distances are squared
    Euclidean in r-space; trace distances are eigenvalue sums of the operator
    difference rho(r) - rho(axis state t), diagonalized as real symmetric
    matrices because Bell-diagonal density matrices are real.
    """
    n = len(rs)
    if norm is Norm.HS:
        rv = np.array([r.as_array() for r in rs]).reshape(n, 3)
        sq = square(rv)
        # squared distance of r to axis k, over the other two components
        rest = np.stack([sq[:, 1] + sq[:, 2], sq[:, 0] + sq[:, 2], sq[:, 0] + sq[:, 1]], axis=1)
        r_axis, rest = rv.ravel()[:, None], rest.ravel()[:, None]

        def f(active, t):
            return (r_axis[active] - t) ** 2 + rest[active]
    else:
        # rho(r) - I/4: the identity parts of the difference cancel
        base = np.array([bd_to_density(r).real for r in rs]).reshape(n, 4, 4) - np.eye(4) / 4.0
        state, axis = np.divmod(np.arange(3 * n), 3)  # search 3 i + k: state i, axis k

        def f(active, t):
            ops = _PAIR_REAL[axis[active], None]
            return trace_norm(base[state[active], None] - (t / 4.0)[:, :, None, None] * ops)

    t, vals, evals = _grid_min(f, np.full(3 * n, -1.0), np.full(3 * n, 1.0), 1, 1e-8)
    vals, t, evals = vals.reshape(n, 3), t.reshape(n, 3), evals.reshape(n, 3).sum(axis=1)
    best = vals.argmin(axis=1).tolist()
    return [
        OracleResult(_axis_vector(k, float(t[i, k])), float(vals[i, k]), int(evals[i]))
        for i, k in enumerate(best)
    ]


def closest_classical(r: CorrelationVector, norm: Norm) -> OracleResult:
    """closest_classical_many of one state."""
    return closest_classical_many([r], norm)[0]


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


def _with_moduli(x: XState, abs_e: float, abs_f: float) -> XState:
    """The X state with the populations of x and coherences of moduli abs_e and
    abs_f, their phases aligned with e and f."""
    return XState(x.a, x.b, x.c, x.d, _phase(x.e) * abs_e, _phase(x.f) * abs_f)


# the X shape of an operator difference, as indices into (0, |e| - a, |f| - b)
_X_TEMPLATE = np.array([[0, 0, 0, 1], [0, 0, 2, 0], [0, 2, 0, 0], [1, 0, 0, 0]])


def _separability_bound(x: XState) -> float:
    """min(sqrt(ad), sqrt(bc)), the largest coherence modulus of a separable X
    state with the populations of x."""
    return min(math.sqrt(max(x.a * x.d, 0.0)), math.sqrt(max(x.b * x.c, 0.0)))


def _x_densities(xs) -> np.ndarray:
    """Stacked density matrices of X states."""
    return x_density_columns(*np.array([(x.a, x.b, x.c, x.d, x.e, x.f) for x in xs]).T)


def candidate_distances(xs, sigmas) -> np.ndarray:
    """Trace distances ||rho_X - sigma_X||_1 of paired X states; one batched
    eigensolve of the complex operator differences."""
    return trace_norm(_x_densities(xs) - _x_densities(sigmas))


def closest_separable_trace_xfamily_many(xs) -> list[OracleResult]:
    """Trace-norm closest separable X state with the same populations, for each
    X state of xs.

    Grid zoom to 1e-7 over the candidate moduli (|e'|, |f'|) in
    [0, min(sqrt(ad), sqrt(bc))]^2, all states in lockstep; candidate phases
    are aligned with e and f, where the minimum is attained.  With the phases
    aligned, conjugation by a diagonal phase unitary turns every difference
    into a real symmetric matrix with anti-diagonal entries |e| - a and
    |f| - b, leaving eigenvalues unchanged.  States with a zero bound need no
    search.  The reported distance is the trace norm of the full complex
    difference rho_X - sigma_X.
    """
    bound = np.array([_separability_bound(x) for x in xs])
    searched = np.flatnonzero(bound != 0.0)
    abs_e = np.array([abs(xs[i].e) for i in searched])[:, None]
    abs_f = np.array([abs(xs[i].f) for i in searched])[:, None]

    def f(active, a, b):
        entries = np.zeros(a.shape + (3,))
        np.subtract(abs_e[active], a, out=entries[..., 1])
        np.subtract(abs_f[active], b, out=entries[..., 2])
        return trace_norm(entries[..., _X_TEMPLATE])

    moduli, _, search_evals = _grid_min(f, np.zeros(len(searched)), bound[searched], 2, 1e-7)
    best = np.zeros((len(xs), 2))
    best[searched] = moduli
    evals = np.zeros(len(xs), dtype=int)
    evals[searched] = search_evals

    cands = [_with_moduli(x, a, b) for x, (a, b) in zip(xs, best.tolist())]
    dists = candidate_distances(xs, cands).tolist()
    return [
        OracleResult(minimizer=c, distance=d, evaluations=n + 1)
        for c, d, n in zip(cands, dists, evals.tolist())
    ]


def closest_separable_trace_xfamily(x: XState) -> OracleResult:
    """closest_separable_trace_xfamily_many of one X state."""
    return closest_separable_trace_xfamily_many([x])[0]


def clamped_minimizer(x: XState) -> XState:
    """Analytic minimizer: each coherence kept if feasible, else clamped to the
    separability bound min(sqrt(ad), sqrt(bc)); phases follow e and f."""
    m = _separability_bound(x)
    return _with_moduli(x, min(abs(x.e), m), min(abs(x.f), m))
