"""
Brute-force oracle checks
=========================

None of the closed forms is trusted on faith: every quantifier has an
independent minimizer searching its defining set directly.  This script runs
a reduced version of the verification suite and prints the worst deviation
per measure, then spells out one example end to end.
"""

from qcorr import (
    CorrelationVector,
    Norm,
    bd_to_xstate,
    closest_classical,
    closest_separable_hs,
    closest_separable_trace_xfamily,
    concurrence_x,
    hs_discord,
    hs_entanglement,
    trace_discord,
)
from qcorr.verify import run_verification

# One state, all quantifiers, closed form next to oracle.
r = CorrelationVector(0.65, 0.59, -0.38)
x = bd_to_xstate(r)
rows = [
    ("hs discord", hs_discord(r).value, closest_classical(r, Norm.HS).distance),
    ("hs entanglement", hs_entanglement(r).value, closest_separable_hs(r).distance),
    ("trace discord", trace_discord(r).value, closest_classical(r, Norm.TRACE).distance),
    ("trace entanglement", concurrence_x(x).value, closest_separable_trace_xfamily(x).distance),
]
print("state (0.65, 0.59, -0.38):")
print("  %-20s %-22s %-22s" % ("measure", "closed form", "oracle"))
for name, closed, oracle in rows:
    print("  %-20s %-22.12f %-22.12f" % (name, closed, oracle))

# Reduced verification sweep (the full one is `qcorr verify`).
# Trace entanglement is the same-population optimum: the oracle keeps the state's diagonal.
report = run_verification(seed=42, grid=7, n_xstates=100, n_wootters=1000)
print("\nverification sweep (grid 7, 100 X states, 1000 spin-flip samples):")
for check in report["checks"]:
    print(
        "  %-40s max dev %.3e  (tol %g)  %s"
        % (
            check["measure"],
            check["max_abs_deviation"],
            check["tolerance"],
            "ok" if check["pass"] else "FAIL",
        )
    )
print("all_pass:", report["all_pass"])
