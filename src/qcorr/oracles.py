"""Brute-force minimizers over the classical and separable sets.

These oracles validate every closed-form quantifier by direct search: a
grid over the whole search box refined by zooming sub-grids that reuse the
points they keep.  Every searched distance is measured on the operator
difference, HS distances from its entries and trace distances from its
eigenvalues, never by an r-space shortcut.  Both searched functions,
||rho - sigma(t)|| over an axis and ||rho_X - sigma_X(a, b)||_1 over the
coherence moduli, are norms of affine maps and hence convex, so a coarse
start grid followed by a zoom finds the minimum of a dense grid.  Oracles
take state components as columns and return the minimizers' columns, the
distances and the evaluations; single-state forms return an OracleResult.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure
from .quantifiers import _STACK_BLOCK, Norm
from .states import (
    SIGMA_PAIR,
    CorrelationVector,
    XState,
    _modulus,
    _sqrt_clamped,
    bd_density_columns,
    x_density_columns,
)

# points per axis of every search grid
_GRID_POINTS = 5


class OracleResult(NamedTuple):
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
    norms = (np.abs(delta) ** 2).sum(axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def _grid_min(f, lo: np.ndarray, hi: np.ndarray, dims: int, refine_to: float):
    """Minimize convex functions, search s on the box [lo[s], hi[s]]^dims, by
    grid zoom, all searches in lockstep.

    A search's first grid has _GRID_POINTS = 5 points per axis over its box.
    Each later grid keeps the previous grid's points j0, j0 + 1, j0 + 2 on
    each axis, j0 = clip(b - 1, 0, 2) for the best point's index b, and adds
    the midpoints between them.  The bracket halves and never leaves the
    previous grid, so no point is clipped or repeated; the 3^dims kept points
    carry their values, and f is evaluated only at the 5^dims - 3^dims new
    ones.  Invariant: on each grid line through the best point, the minimum of
    a convex function over the current bracket lies within one spacing of
    that point, and the new bracket covers that spacing.  The zoom stops once
    the half-width is at most refine_to, earlier for smaller boxes.
    f(active, *coords) evaluates the searches whose indices are in active,
    with one (len(active), points) coordinate array per axis, and returns the
    values in that shape; blocks of _STACK_BLOCK searches bound each level's
    stack.
    Returns the best points (S, dims), their values and the evaluations per
    search, 5^dims + (levels - 1) (5^dims - 3^dims).
    """
    n = len(lo)
    best, value, evals = np.empty((n, dims)), np.empty(n), np.empty(n, dtype=int)
    # grid point k of a search sits at index mesh[d, k] of axis d: meshgrid "ij" order
    mesh = np.indices((_GRID_POINTS,) * dims).reshape(dims, -1)
    size = mesh.shape[1]
    kept = (mesh % 2 == 0).all(axis=0)  # even on every axis: a point of the previous grid
    new = mesh[:, ~kept]
    # tables by the best point k.  ends[k]: on each axis, the two current
    # points whose midpoint is each next point (a kept point is its own
    # midpoint), from the bracket's first index j0.  carry[k]: where each next
    # value comes from in the current values followed by f's new ones.
    j0 = np.clip(mesh - 1, 0, 2)
    ends = j0.T[:, :, None, None] + np.array([[0, 0, 1, 1, 2], [0, 1, 1, 2, 2]])
    carry = np.empty((size, size), dtype=int)
    previous = tuple(j0[:, :, None] + mesh[:, None, kept] // 2)  # kept points' indices per axis
    carry[:, kept] = np.ravel_multi_index(previous, (_GRID_POINTS,) * dims)
    carry[:, ~kept] = size + np.arange(new.shape[1])
    dim = np.arange(dims)
    for start in range(0, n, _STACK_BLOCK):
        active = np.arange(start, min(start + _STACK_BLOCK, n))
        rows = np.arange(len(active))[:, None]
        axis = np.linspace(lo[active], hi[active], _GRID_POINTS, axis=1)
        axes = np.repeat(axis[:, None], dims, axis=1)  # (searches, dims, points)
        half = (hi[active] - lo[active]) / 2.0  # the first grids' half-widths
        narrowest = half.min()
        vals = f(active, *(axes[:, d, mesh[d]] for d in dim))
        levels = 1
        while True:
            k = vals.argmin(axis=1)
            # each level halves the half-width, exactly
            if narrowest * 0.5**levels <= refine_to:
                done = half * 0.5**levels <= refine_to
                finished, at = active[done], rows[done]
                best[finished] = axes[at, dim, mesh[:, k[done]].T]
                value[finished] = vals[at[:, 0], k[done]]
                evals[finished] = size + (levels - 1) * new.shape[1]
                active, axes, vals, k, half = (v[~done] for v in (active, axes, vals, k, half))
                if not len(active):
                    break
                rows, narrowest = rows[: len(active)], half.min()
            pair = axes[rows[:, :, None, None], dim[:, None, None], ends[k]]
            axes = 0.5 * (pair[:, :, 0] + pair[:, :, 1])
            fresh = f(active, *(axes[:, d, new[d]] for d in dim))
            vals = np.concatenate([vals, fresh], axis=1)[rows, carry[k]]
            levels += 1
    return best, value, evals


# sigma_j x sigma_j as real matrices, stacked by axis
_PAIR_REAL = np.stack([op.real for op in SIGMA_PAIR])


def _one(oracle, make, components) -> OracleResult:
    """A columns oracle's (minimizer, distance, evaluations) for one state with
    the given components, as an OracleResult; make builds the minimizer."""
    minimizer, distance, evaluations = oracle(*(np.array([v]) for v in components))
    return OracleResult(make(*(col[0] for col in minimizer)), float(distance[0]), int(evaluations[0]))


def closest_classical_columns(r1, r2, r3) -> dict:
    """Closest point on the Cartesian axes (t, 0, 0), (0, t, 0), (0, 0, t), in
    each norm, for each state of the columns r1, r2, r3.

    Searches each axis t in [-1, 1] by grid zoom to 1e-8, all norms, states
    and axes in lockstep; ties go to the lowest axis.  Both norms measure the
    operator difference rho(r) - rho(axis state t), a real symmetric matrix
    because Bell-diagonal density matrices are real: HS distances are 4 times
    its squared Hilbert-Schmidt norm, in the units of r-space, and trace
    distances the sum of its absolute eigenvalues.  Returns, for each norm,
    the minimizer columns, the distances and the evaluations per state.
    """
    # rho(r) - I/4: the identity parts of the difference cancel
    base = bd_density_columns(r1, r2, r3).real - np.eye(4) / 4.0
    n = len(base)
    # search 3 n g + 3 i + k: norm g (HS first), state i, axis k
    _, state, axis = np.unravel_index(np.arange(6 * n), (2, n, 3))

    def f(active, t):
        delta = base[state[active], None] - (t / 4.0)[:, :, None, None] * _PAIR_REAL[axis[active], None]
        hs = np.searchsorted(active, 3 * n)  # active is ascending: its HS searches come first
        return np.concatenate([4.0 * hs_operator_sq(delta[:hs]), trace_norm(delta[hs:])])

    box = np.full(6 * n, 1.0)
    t, vals, evals = (v.reshape(2, n, 3) for v in _grid_min(f, -box, box, 1, 1e-8))
    on_best = np.arange(3) == vals.argmin(axis=2)[..., None]
    return {norm: (tuple(np.where(on_best[g], t[g], 0.0).T), vals[g][on_best[g]], evals[g].sum(axis=1))
            for g, norm in enumerate(Norm)}


def closest_classical(r: CorrelationVector, norm: Norm) -> OracleResult:
    """closest_classical_columns of one state, in the given norm."""
    return _one(lambda *rv: closest_classical_columns(*rv)[norm], CorrelationVector, (r.r1, r.r2, r.r3))


def closest_separable_hs_columns(r1, r2, r3) -> tuple:
    """Closest point of the separable octahedron |z1| + |z2| + |z3| <= 1, for
    each state of the columns r1, r2, r3.

    Uses the exact Euclidean projection: the absolute triple is soft-thresholded
    onto {z >= 0, sum z <= 1} and the signs are restored; interior points
    project to themselves with distance 0.  One evaluation per state.
    """
    rv = np.stack([r1, r2, r3], axis=1)
    s = np.abs(rv)
    u = np.sort(s, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    # the largest k with u_k > (u_1 + ... + u_k - 1) / k; k = 1 always qualifies
    k = 3 - (u - css / np.arange(1, 4) > 0)[:, ::-1].argmax(axis=1)
    tau = css[np.arange(len(rv)), k - 1] / k
    z = np.where(s.sum(axis=1, keepdims=True) <= 1.0, s, np.maximum(s - tau[:, None], 0.0))
    return tuple((np.sign(rv) * z).T), np.sum((s - z) ** 2, axis=1), np.ones(len(rv), dtype=int)


def closest_separable_hs(r: CorrelationVector) -> OracleResult:
    """closest_separable_hs_columns of one state."""
    return _one(closest_separable_hs_columns, CorrelationVector, (r.r1, r.r2, r.r3))


def _aligned(z, modulus):
    """Complex numbers of the given moduli with the phases of z (1 where z = 0),
    z.real / |z| + i z.imag / |z| as Python divides a complex number by |z|."""
    r = _modulus(z)
    nonzero = r > 0.0
    r = np.where(nonzero, r, 1.0)
    return np.where(nonzero, z.real / r, 1.0) * modulus + 1j * ((z.imag / r) * modulus)


# the X shape of an operator difference, as indices into (0, |e| - a, |f| - b)
_X_TEMPLATE = np.array([[0, 0, 0, 1], [0, 0, 2, 0], [0, 2, 0, 0], [1, 0, 0, 0]])


def _separability_bound(a, b, c, d):
    """min(sqrt(ad), sqrt(bc)), the largest coherence modulus of a separable X
    state with populations a, b, c, d."""
    return np.minimum(_sqrt_clamped(a * d), _sqrt_clamped(b * c))


def _with_moduli(x: tuple, abs_e, abs_f) -> tuple:
    """The X states with the populations of the columns x and coherences of
    moduli abs_e and abs_f, phases aligned with e and f, and the trace distance
    of each to its state of x (one batched eigensolve of the differences)."""
    a, b, c, d, e, f = x
    sigma = (a, b, c, d, _aligned(e, abs_e), _aligned(f, abs_f))
    return sigma, trace_norm(x_density_columns(*x) - x_density_columns(*sigma))


def closest_separable_trace_xfamily_columns(a, b, c, d, e, f) -> tuple:
    """Trace-norm closest separable X state with the same populations, for
    each X state of the columns a, b, c, d, e, f.

    Grid zoom to 1e-7 over the candidate moduli (|e'|, |f'|) in
    [0, min(sqrt(ad), sqrt(bc))]^2, all states in lockstep; candidate phases
    are aligned with e and f, where the minimum is attained.  With the phases
    aligned, conjugation by a diagonal phase unitary turns every difference
    into a real symmetric matrix with anti-diagonal entries |e| - a and
    |f| - b, leaving eigenvalues unchanged.  States with a zero bound need no
    search.  The reported distance is the trace norm of the full complex
    difference rho_X - sigma_X, one more evaluation per state.
    """
    bound = _separability_bound(a, b, c, d)
    searched = np.flatnonzero(bound != 0.0)
    abs_e, abs_f = _modulus(e)[searched, None], _modulus(f)[searched, None]

    def search(active, ae, af):
        entries = np.zeros(ae.shape + (3,))
        np.subtract(abs_e[active], ae, out=entries[..., 1])
        np.subtract(abs_f[active], af, out=entries[..., 2])
        return trace_norm(entries[..., _X_TEMPLATE])

    moduli, _, search_evals = _grid_min(search, np.zeros(len(searched)), bound[searched], 2, 1e-7)
    best = np.zeros((len(a), 2))
    best[searched] = moduli
    evals = np.ones(len(a), dtype=int)
    evals[searched] += search_evals
    return (*_with_moduli((a, b, c, d, e, f), *best.T), evals)


def closest_separable_trace_xfamily(x: XState) -> OracleResult:
    """closest_separable_trace_xfamily_columns of one X state."""
    return _one(closest_separable_trace_xfamily_columns, XState, (x.a, x.b, x.c, x.d, x.e, x.f))


def clamped_minimizer_columns(a, b, c, d, e, f) -> tuple:
    """Analytic minimizer: each coherence kept if feasible, else clamped to the
    separability bound min(sqrt(ad), sqrt(bc)); phases follow e and f.  Returns
    its columns, trace distances and one evaluation per state."""
    bound = _separability_bound(a, b, c, d)
    return (*_with_moduli((a, b, c, d, e, f), np.minimum(_modulus(e), bound), np.minimum(_modulus(f), bound)),
            np.ones(len(a), dtype=int))


def clamped_minimizer(x: XState) -> XState:
    """The minimizer of clamped_minimizer_columns for one X state."""
    return _one(clamped_minimizer_columns, XState, (x.a, x.b, x.c, x.d, x.e, x.f)).minimizer
