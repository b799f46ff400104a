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
    candidate_distances,
    clamped_minimizer,
    closest_classical_many,
    closest_separable_hs,
    closest_separable_trace_xfamily_many,
)
from .quantifiers import (
    Norm,
    concurrence_columns,
    concurrence_x,
    hs_discord,
    hs_entanglement,
    trace_discord,
    wootters_concurrence,
)
from .errors import NonPhysical, OutOfRange, allocation_guard
from .sampling import DEFAULT_SEED, random_entangled_xstate, random_xstate_columns
from .states import CorrelationVector, XState, _modulus, x_density_columns

TOLERANCES = {
    "hs_discord_vs_closest_classical": 1e-6,
    "hs_entanglement_vs_closest_separable": 1e-8,
    "trace_discord_vs_closest_classical": 1e-4,
    "xfamily_oracle_vs_concurrence": 1e-4,
    "clamped_minimizer_vs_concurrence": 1e-12,
    "wootters_vs_concurrence_x": 1e-10,
}


def physical_grid(n: int) -> list[CorrelationVector]:
    """Physical points of the n x n x n lattice on [-1, 1]^3."""
    axis = np.linspace(-1.0, 1.0, n)
    out = []
    for r1 in axis:
        for r2 in axis:
            for r3 in axis:
                try:
                    out.append(CorrelationVector(r1, r2, r3))
                except NonPhysical:
                    continue
    return out


def _entry(measure, deviations, state_at, evaluations) -> dict:
    """Report entry for the oracle's deviations from the closed form, one per
    state; state_at(k) is state k."""
    tol = TOLERANCES[measure]
    worst = int(np.argmax(deviations))
    max_dev = float(deviations[worst])
    return {
        "measure": measure,
        "max_abs_deviation": max_dev,
        "worst_case_state": state_at(worst).to_json(),
        "evaluations": int(evaluations),
        "tolerance": tol,
        "pass": bool(max_dev <= tol),
    }


def _check(measure, states, distances, closed_form, evaluations, bump=0.0) -> dict:
    """Report entry for oracle distances against the closed form's values."""
    deviations = [abs(d - (closed_form(s).value + bump)) for s, d in zip(states, distances)]
    return _entry(measure, deviations, states.__getitem__, evaluations)


def _oracle_check(measure, states, results, closed_form, bump=0.0) -> dict:
    distances = [res.distance for res in results]
    return _check(measure, states, distances, closed_form, sum(res.evaluations for res in results), bump)


def run_verification(
    seed: int = DEFAULT_SEED,
    grid: int = 9,
    n_xstates: int = 1000,
    n_wootters: int = 10000,
    mutate: bool = False,
    extra_xstate: XState | None = None,
) -> dict:
    """Run the full oracle suite and return the report dictionary.

    mutate deliberately corrupts one closed form so the harness can prove it
    detects a broken formula; extra_xstate adds one user-supplied state to the
    trace-distance/concurrence identity check.
    """
    # states per check: at most grid**3 lattice points, n_xstates, n_wootters
    for name, size, states in (("grid", grid, grid**3), ("xstates", n_xstates, n_xstates),
                               ("wootters", n_wootters, n_wootters)):
        if size < 1:
            raise OutOfRange("%s: size %d is below 1" % (name, size))
        # the largest array of a check, one complex 4x4 matrix per state
        with allocation_guard("%s: size %d" % (name, size)):
            np.empty((states, 4, 4), dtype=complex)
    bump = 1e-3 if mutate else 0.0
    states = physical_grid(grid)
    checks = [
        _oracle_check("hs_discord_vs_closest_classical", states,
                      closest_classical_many(states, Norm.HS), hs_discord, bump),
        _oracle_check("hs_entanglement_vs_closest_separable", states,
                      [closest_separable_hs(r) for r in states], hs_entanglement),
        _oracle_check("trace_discord_vs_closest_classical", states,
                      closest_classical_many(states, Norm.TRACE), trace_discord),
    ]

    rng = np.random.default_rng(seed)
    xstates = [random_entangled_xstate(rng) for _ in range(n_xstates)]
    if extra_xstate is not None:
        xstates.append(extra_xstate)
    checks.append(_oracle_check("xfamily_oracle_vs_concurrence", xstates,
                                closest_separable_trace_xfamily_many(xstates), concurrence_x))

    dists = candidate_distances(xstates, [clamped_minimizer(x) for x in xstates]).tolist()
    checks.append(_check("clamped_minimizer_vs_concurrence", xstates, dists, concurrence_x, len(xstates)))

    wcols = random_xstate_columns(rng, n_wootters)
    woot = wootters_concurrence(x_density_columns(*wcols))
    a, b, c, d, e, f = wcols
    conc, _ = concurrence_columns(a, b, c, d, _modulus(e), _modulus(f))
    checks.append(_entry("wootters_vs_concurrence_x", np.abs(woot - conc),
                         lambda k: XState(*(col[k] for col in wcols)), n_wootters))

    all_pass = all(c["pass"] for c in checks)
    return {"seed": int(seed), "grid": int(grid), "checks": checks, "all_pass": all_pass}


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
