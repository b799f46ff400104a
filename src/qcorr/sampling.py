"""Seeded random state generators used by the verification suite and tests.

Bell-diagonal vectors are drawn uniformly over the physical tetrahedron by
sampling the four Bell weights from a flat Dirichlet distribution; X states
combine a flat simplex diagonal with coherences uniform in their feasible
disks.
"""

from __future__ import annotations

import numpy as np

from .quantifiers import concurrence_x
from .states import CorrelationVector, XState

DEFAULT_SEED = 42


def random_bd_vector(rng: np.random.Generator) -> CorrelationVector:
    """Uniform sample of the Bell-diagonal tetrahedron."""
    w_phi_p, w_phi_m, w_psi_p, w_psi_m = rng.dirichlet(np.ones(4))
    return CorrelationVector(
        w_phi_p - w_phi_m + w_psi_p - w_psi_m,
        -w_phi_p + w_phi_m + w_psi_p - w_psi_m,
        w_phi_p + w_phi_m - w_psi_p - w_psi_m,
    )


def random_entangled_bd(rng: np.random.Generator, min_gap: float = 0.0) -> CorrelationVector:
    """Entangled Bell-diagonal vector: sum|r_i| > 1 + 1e-3, with the moduli
    pairwise separated by at least min_gap when requested."""
    for _ in range(100000):
        r = random_bd_vector(rng)
        s = sorted(r.abs_triple())
        if sum(s) <= 1.0 + 1e-3:
            continue
        if min_gap > 0.0 and (s[1] - s[0] < min_gap or s[2] - s[1] < min_gap):
            continue
        return r
    raise RuntimeError("rejection sampling failed")  # pragma: no cover


def random_xstate(rng: np.random.Generator) -> XState:
    """X state with flat-simplex populations and disk-uniform coherences."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    re = np.sqrt(a * d) * np.sqrt(rng.uniform())
    rf = np.sqrt(b * c) * np.sqrt(rng.uniform())
    th_e, th_f = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return XState(a, b, c, d, re * np.exp(1j * th_e), rf * np.exp(1j * th_f))


def random_entangled_xstate(rng: np.random.Generator) -> XState:
    """random_xstate drawn until its concurrence exceeds 1e-6."""
    for _ in range(100000):
        x = random_xstate(rng)
        if concurrence_x(x).value > 1e-6:
            return x
    raise RuntimeError("rejection sampling failed")  # pragma: no cover


def random_bd_pairs(rng: np.random.Generator, n: int) -> list[tuple[CorrelationVector, CorrelationVector]]:
    return [(random_bd_vector(rng), random_bd_vector(rng)) for _ in range(n)]
