"""Oracle-vs-closed-form verification suite.

Every closed-form quantifier is compared against its independent brute-force
oracle on a deterministic grid plus seeded random states; the outcome is a
JSON-serializable report with one entry per measure.  A run with identical
seed and sizes is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .oracles import (
    clamped_minimizer_columns,
    closest_classical_columns,
    closest_separable_hs_columns,
    closest_separable_trace_xfamily_columns,
)
from .quantifiers import (
    Norm,
    concurrence_columns,
    hs_discord_columns,
    hs_entanglement_columns,
    trace_discord_columns,
    wootters_concurrence,
)
from .errors import OutOfRange, allocation_guard
from .sampling import random_entangled_xstate_columns, random_xstate_columns
from .states import CorrelationVector, XState, in_tetrahedron, x_density_columns

TOLERANCES = {
    "hs_discord_vs_closest_classical": 1e-6,
    "hs_entanglement_vs_closest_separable": 1e-8,
    "trace_discord_vs_closest_classical": 1e-4,
    "xfamily_oracle_vs_concurrence": 1e-4,
    "clamped_minimizer_vs_concurrence": 1e-12,
    "wootters_vs_concurrence_x": 1e-10,
}


def physical_grid(n: int) -> np.ndarray:
    """Physical points of the n x n x n lattice on [-1, 1]^3, one (r1, r2, r3)
    per row with r3 varying fastest."""
    axis = np.linspace(-1.0, 1.0, n)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return lattice[in_tetrahedron(*lattice.T)]


def _check(measure, found, closed_form, make, columns) -> dict:
    """Report entry for an oracle's (minimizer, distances, evaluations) against
    the closed form's values, one per state of the columns; make builds the
    worst state from its row."""
    _, distances, evaluations = found
    deviations = np.abs(distances - closed_form)
    tol = TOLERANCES[measure]
    worst = int(np.argmax(deviations))
    max_dev = float(deviations[worst])
    return {
        "measure": measure,
        "max_abs_deviation": max_dev,
        "worst_case_state": make(*(col[worst] for col in columns)).to_json(),
        "evaluations": int(np.sum(evaluations)),
        "tolerance": tol,
        "pass": bool(max_dev <= tol),
    }


def run_verification(
    seed: int,
    grid: int,
    n_xstates: int,
    n_wootters: int,
    mutate: bool = False,
    extra_xstate: XState | None = None,
) -> dict:
    """Run the full oracle suite and return the report dictionary.

    mutate deliberately corrupts one closed form so the harness can prove it
    detects a broken formula; extra_xstate adds one user-supplied state to the
    trace-distance/concurrence identity check.
    """
    if seed < 0:
        raise OutOfRange("seed: %d is below 0" % seed)
    # states per check: at most grid**3 lattice points, n_xstates, n_wootters
    for name, size, states in (("grid", grid, grid**3), ("xstates", n_xstates, n_xstates),
                               ("wootters", n_wootters, n_wootters)):
        if size < 1:
            raise OutOfRange("%s: size %d is below 1" % (name, size))
        # the largest array of a check, one complex 4x4 matrix per state
        with allocation_guard("%s: size %d" % (name, size)):
            np.empty((states, 4, 4), dtype=complex)
    r = physical_grid(grid).T
    classical = closest_classical_columns(*r)
    checks = [
        _check("hs_discord_vs_closest_classical", classical[Norm.HS],
               hs_discord_columns(*r)[0] + (1e-3 if mutate else 0.0), CorrelationVector, r),
        _check("hs_entanglement_vs_closest_separable", closest_separable_hs_columns(*r),
               hs_entanglement_columns(*r), CorrelationVector, r),
        _check("trace_discord_vs_closest_classical", classical[Norm.TRACE],
               trace_discord_columns(*r)[0], CorrelationVector, r),
    ]

    rng = np.random.default_rng(seed)
    x = random_entangled_xstate_columns(rng, n_xstates)
    if extra_xstate is not None:
        x = tuple(np.append(col, getattr(extra_xstate, k)) for col, k in zip(x, "abcdef"))
    conc = concurrence_columns(*x)[0]
    checks += [
        _check("xfamily_oracle_vs_concurrence", closest_separable_trace_xfamily_columns(*x), conc, XState, x),
        _check("clamped_minimizer_vs_concurrence", clamped_minimizer_columns(*x), conc, XState, x),
    ]

    w = random_xstate_columns(rng, n_wootters)
    spin_flip = (None, wootters_concurrence(x_density_columns(*w)), n_wootters)  # no minimizer
    checks.append(_check("wootters_vs_concurrence_x", spin_flip, concurrence_columns(*w)[0], XState, w))

    all_pass = all(c["pass"] for c in checks)
    return {"seed": int(seed), "grid": int(grid), "checks": checks, "all_pass": all_pass}


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
