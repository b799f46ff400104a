"""Seeded random state generators used by the verification suite and tests.

Bell-diagonal vectors are drawn uniformly over the physical tetrahedron by
sampling the four Bell weights from a flat Dirichlet distribution; X states
combine a flat simplex diagonal with coherences uniform in their feasible
disks.
"""

from __future__ import annotations

import numpy as np

from .quantifiers import concurrence_columns
from .states import CorrelationVector, XState, check_xstate_columns, octahedron_margin


def random_bd_vector(rng: np.random.Generator) -> CorrelationVector:
    """Uniform sample of the Bell-diagonal tetrahedron."""
    w_phi_p, w_phi_m, w_psi_p, w_psi_m = rng.dirichlet(np.ones(4))
    return CorrelationVector(
        w_phi_p - w_phi_m + w_psi_p - w_psi_m,
        -w_phi_p + w_phi_m + w_psi_p - w_psi_m,
        w_phi_p + w_phi_m - w_psi_p - w_psi_m,
    )


def random_entangled_bd(rng: np.random.Generator, min_gap: float) -> CorrelationVector:
    """Entangled Bell-diagonal vector: octahedron margin above 1e-3, with the
    moduli pairwise separated by at least min_gap (no condition when it is 0)."""
    for _ in range(100000):
        r = random_bd_vector(rng)
        s = sorted(r.abs_triple())
        # added smallest first: the pinned draws of tests/test_sampling.py depend on the order
        if octahedron_margin(*s) <= 1e-3:
            continue
        if min_gap > 0.0 and (s[1] - s[0] < min_gap or s[2] - s[1] < min_gap):
            continue
        return r
    raise RuntimeError("rejection sampling failed")  # pragma: no cover


def _xstate_from_draws(exps, u) -> tuple:
    """X-state parameters (a, b, c, d, e, f) from four Exp(1) draws and four
    uniforms per state; rows of (n, 4) arrays, or one state from 4-vectors.

    The populations are the draws over their sum, which is the flat Dirichlet
    distribution (the arithmetic of rng.dirichlet(np.ones(4))).  The first two
    uniforms are the squared moduli of e and f relative to sqrt(ad) and
    sqrt(bc), the last two their phases over 2 pi.
    """
    a, b, c, d = exps.T
    inv = 1.0 / (a + b + c + d)
    a, b, c, d = a * inv, b * inv, c * inv, d * inv
    r_e, r_f, th_e, th_f = u.T
    e = np.sqrt(a * d) * np.sqrt(r_e) * np.exp(1j * ((2.0 * np.pi) * th_e))
    f = np.sqrt(b * c) * np.sqrt(r_f) * np.exp(1j * ((2.0 * np.pi) * th_f))
    return a, b, c, d, e, f


def random_xstate_columns(rng: np.random.Generator, n: int) -> tuple:
    """Columns (a, b, c, d, e, f) of n X states with flat-simplex populations
    and disk-uniform coherences, checked by check_xstate_columns.

    The draws go state by state, so the columns equal n random_xstate calls.
    """
    draws = np.array([(rng.standard_exponential(4), rng.random(4)) for _ in range(n)]).reshape(n, 2, 4)
    columns = _xstate_from_draws(draws[:, 0], draws[:, 1])
    check_xstate_columns(*columns)
    return columns


def random_xstate(rng: np.random.Generator) -> XState:
    """One state of random_xstate_columns."""
    return XState(*_xstate_from_draws(rng.standard_exponential(4), rng.random(4)))


def random_entangled_xstate_columns(rng: np.random.Generator, n: int) -> tuple:
    """Columns of n states of random_xstate_columns whose concurrence exceeds
    1e-6, in order of drawing.

    Each round draws as many states as acceptances are still missing, so the
    rounds consume exactly the draws of a loop that draws one state at a time
    until n are accepted.
    """
    columns = random_xstate_columns(rng, 0)
    while len(columns[0]) < n:
        drawn = random_xstate_columns(rng, n - len(columns[0]))
        keep = concurrence_columns(*drawn)[0] > 1e-6
        columns = tuple(np.concatenate([col, new[keep]]) for col, new in zip(columns, drawn))
    return columns


def random_bd_pairs(rng: np.random.Generator, n: int) -> list[tuple[CorrelationVector, CorrelationVector]]:
    return [(random_bd_vector(rng), random_bd_vector(rng)) for _ in range(n)]
