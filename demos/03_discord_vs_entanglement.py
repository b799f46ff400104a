"""
Discord as a function of entanglement
=====================================

Along a dephasing or depolarizing trajectory both geometric quantifiers are
functions of p, so discord can be plotted directly against entanglement.
Under phase damping the initial state (0.65, 0.59, -0.38), whose moduli obey
|r3| < |r2| < |r1|, shows two sudden changes in the trace-norm curve and one
in the Hilbert-Schmidt curve before entanglement dies; under depolarizing
noise both curves are smooth.
"""

import numpy as np

from qcorr import ChannelKind, CorrelationVector, Norm
from qcorr.dynamics import d_vs_e_curve, run_trajectory

r0 = CorrelationVector(0.65, 0.59, -0.38)

curves = {}
for kind in (ChannelKind.PHASE_DAMPING, ChannelKind.DEPOLARIZING):
    traj = run_trajectory(kind, r0, p_max=1.0, n_samples=2001)
    print("%s events:" % kind.value)
    for e in traj.event_records:
        print(
            "  %-24s norm=%-5s p=%.8f (analytic %.8f)"
            % (e.kind, e.norm.value, e.p_detected, e.p_analytic)
        )
    for norm in Norm:
        ent, disc, branch = d_vs_e_curve(traj, norm)
        kinks = np.count_nonzero(branch[1:] != branch[:-1])
        print("  %s curve: %d points, %d kinks, starts (E, D) = (%.6f, %.6f)"
              % (norm.value, len(ent), kinks, ent[0], disc[0]))
        curves[(kind, norm)] = (ent, disc)

# The sudden changes are kinks of the curve, visible as slope breaks.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, kind in zip(axes, (ChannelKind.PHASE_DAMPING, ChannelKind.DEPOLARIZING)):
        for norm, style in ((Norm.TRACE, "r-"), (Norm.HS, "b--")):
            ax.plot(*curves[(kind, norm)], style, label=norm.value)
        ax.set_xlabel("entanglement")
        ax.set_title(kind.value)
        ax.legend()
    axes[0].set_ylabel("discord")
    fig.savefig("discord_vs_entanglement.png", dpi=150, bbox_inches="tight")
    print("wrote discord_vs_entanglement.png")
except ImportError:
    print("matplotlib not available; skipping the picture")
