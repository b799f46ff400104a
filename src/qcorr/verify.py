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
    clamped_minimizer,
    closest_classical,
    closest_separable_hs,
    closest_separable_trace_xfamily,
    trace_norm,
)
from .quantifiers import (
    Norm,
    concurrence_x,
    hs_discord,
    hs_entanglement,
    trace_discord,
    wootters_concurrence,
)
from .sampling import DEFAULT_SEED, random_entangled_xstate, random_xstate
from .states import CorrelationVector, XState
from .errors import NonPhysical, OutOfRange

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


def _check(measure, deviations, states, evaluations) -> dict:
    tol = TOLERANCES[measure]
    worst = int(np.argmax(deviations))
    max_dev = float(deviations[worst])
    state = states[worst]
    return {
        "measure": measure,
        "max_abs_deviation": max_dev,
        "worst_case_state": state.to_json(),
        "evaluations": int(evaluations),
        "tolerance": tol,
        "pass": bool(max_dev <= tol),
    }


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
    for name, size in (("grid", grid), ("xstates", n_xstates), ("wootters", n_wootters)):
        if size < 1:
            raise OutOfRange("%s: size %d is below 1" % (name, size))
    bump = 1e-3 if mutate else 0.0
    states = physical_grid(grid)
    report: dict = {"seed": int(seed), "grid": int(grid), "checks": []}

    def hs_cls(r):
        res = closest_classical(r, Norm.HS)
        return abs(res.distance - (hs_discord(r).value + bump)), res.evaluations

    devs, evs = zip(*map(hs_cls, states))
    report["checks"].append(_check("hs_discord_vs_closest_classical", devs, states, sum(evs)))

    def hs_sep(r):
        res = closest_separable_hs(r)
        return abs(res.distance - hs_entanglement(r).value), res.evaluations

    devs, evs = zip(*map(hs_sep, states))
    report["checks"].append(_check("hs_entanglement_vs_closest_separable", devs, states, sum(evs)))

    def tr_cls(r):
        res = closest_classical(r, Norm.TRACE)
        return abs(res.distance - trace_discord(r).value), res.evaluations

    devs, evs = zip(*map(tr_cls, states))
    report["checks"].append(_check("trace_discord_vs_closest_classical", devs, states, sum(evs)))

    rng = np.random.default_rng(seed)
    xstates = [random_entangled_xstate(rng) for _ in range(n_xstates)]
    if extra_xstate is not None:
        xstates.append(extra_xstate)

    def xfam(x):
        res = closest_separable_trace_xfamily(x)
        return abs(res.distance - concurrence_x(x).value), res.evaluations

    devs, evs = zip(*map(xfam, xstates))
    report["checks"].append(_check("xfamily_oracle_vs_concurrence", devs, xstates, sum(evs)))

    def clamped(x):
        cand = clamped_minimizer(x)
        sigma = XState(x.a, x.b, x.c, x.d, cand.e_prime, cand.f_prime)
        dist = trace_norm(x.to_density() - sigma.to_density())
        return abs(dist - concurrence_x(x).value), 1

    devs, evs = zip(*map(clamped, xstates))
    report["checks"].append(_check("clamped_minimizer_vs_concurrence", devs, xstates, sum(evs)))

    wstates = [random_xstate(rng) for _ in range(n_wootters)]

    def woot(x):
        return abs(wootters_concurrence(x.to_density()) - concurrence_x(x).value), 1

    devs, evs = zip(*map(woot, wstates))
    report["checks"].append(_check("wootters_vs_concurrence_x", devs, wstates, sum(evs)))

    report["all_pass"] = bool(all(c["pass"] for c in report["checks"]))
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
