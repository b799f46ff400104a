"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS|FAIL` line (run pytest
with -s to stream them) and then asserts, so a red test always carries its
deviation in the failure message.
"""

import json

import numpy as np

from conftest import REF
from qcorr.channels import (
    ChannelKind,
    apply_local_pair,
    decay_factors,
    evolved_vector,
    kraus_for,
    monotone_p_max,
)
from qcorr.cli import main
from qcorr.dynamics import SUDDEN_CHANGE, SUDDEN_DEATH, contractivity_scan, run_trajectory
from qcorr.oracles import (
    clamped_minimizer_columns,
    closest_classical_columns,
    closest_separable_hs_columns,
    closest_separable_trace_xfamily_columns,
)
from qcorr.quantifiers import (
    Norm,
    concurrence_columns,
    hs_discord_columns,
    hs_entanglement_columns,
    trace_discord_columns,
    wootters_concurrence,
)
from qcorr.relations import (
    RelationCase,
    critical_times,
    hs_discord_from_entanglement,
    trace_discord_from_concurrence,
)
from qcorr.sampling import random_bd_pairs, random_entangled_bd, random_entangled_xstate_columns, random_xstate_columns
from qcorr.states import (
    CorrelationVector,
    bd_to_density,
    bd_xstate_columns,
    density_to_bd,
    x_density_columns,
)
from qcorr.verify import physical_grid

R0 = CorrelationVector(*REF)
SEED = 42

# one line per criterion; echoed in the terminal summary by conftest.py
LINES: list[str] = []


def _report(num, name, ok, detail=""):
    line = "ACCEPTANCE %02d %s: %s %s" % (num, name, "PASS" if ok else "FAIL", detail)
    LINES.append(line)
    print(line)
    assert ok, "criterion %02d %s failed: %s" % (num, name, detail)


def test_criterion_01_hs_oracle_equivalence():
    r = physical_grid(9).T
    dev_d = np.abs(closest_classical_columns(*r)[Norm.HS][1] - hs_discord_columns(*r)[0]).max()
    dev_e = np.abs(closest_separable_hs_columns(*r)[1] - hs_entanglement_columns(*r)).max()
    _report(
        1,
        "hs_oracle_equivalence",
        dev_d <= 1e-6 and dev_e <= 1e-8,
        "discord_dev=%.3e entanglement_dev=%.3e states=%d" % (dev_d, dev_e, r.shape[1]),
    )


def test_criterion_02_trace_oracle_equivalence():
    r = physical_grid(9).T
    dev = np.abs(closest_classical_columns(*r)[Norm.TRACE][1] - trace_discord_columns(*r)[0]).max()
    _report(2, "trace_oracle_equivalence", dev <= 1e-4, "dev=%.3e" % dev)


def test_criterion_03_trace_distance_identity():
    # the stacked searches and trace norms equal the one-state calls bit for bit
    # (tests/test_oracles.py pins both)
    x = random_entangled_xstate_columns(np.random.default_rng(SEED), 1000)
    conc, _ = concurrence_columns(*x)
    dev_grid = float(np.abs(closest_separable_trace_xfamily_columns(*x)[1] - conc).max())
    dev_clamped = float(np.abs(clamped_minimizer_columns(*x)[1] - conc).max())
    _report(
        3,
        "trace_distance_identity",
        dev_grid <= 1e-4 and dev_clamped <= 1e-12,
        "grid_dev=%.3e clamped_dev=%.3e" % (dev_grid, dev_clamped),
    )


def test_criterion_04_concurrence_oracle():
    x = random_xstate_columns(np.random.default_rng(SEED), 10000)
    woot = wootters_concurrence(x_density_columns(*x))
    closed, _ = concurrence_columns(*x)
    dev = float(np.abs(woot - closed).max())
    _report(4, "wootters_concurrence", dev <= 1e-10, "dev=%.3e" % dev)


def test_criterion_05_channel_agreement():
    grid = [CorrelationVector(*r) for r in physical_grid(5)]
    dev = 0.0
    for kind in ChannelKind:
        for p in np.linspace(0.0, 1.0, 11):
            ch = kraus_for(kind, p)
            for r in grid:
                numeric = density_to_bd(apply_local_pair(bd_to_density(r), ch))
                analytic = evolved_vector(kind, r, p)
                dev = max(dev, np.max(np.abs(numeric.as_array() - analytic.as_array())))
    _report(5, "channel_agreement", dev <= 1e-12, "dev=%.3e states=%d" % (dev, len(grid)))


def test_criterion_06_relation_identity():
    rng = np.random.default_rng(SEED)
    states = [random_entangled_bd(rng, min_gap=1e-3) for _ in range(200)]
    dev = 0.0
    for kind in (
        ChannelKind.PHASE_DAMPING,
        ChannelKind.BIT_FLIP,
        ChannelKind.BIT_PHASE_FLIP,
        ChannelKind.PHASE_FLIP,
        ChannelKind.DEPOLARIZING,
    ):
        for r in states:
            case_hs = RelationCase(kind, Norm.HS, r)
            case_tr = RelationCase(kind, Norm.TRACE, r)
            p_sd = critical_times(case_hs).sudden_death
            ps = np.arange(0.0, p_sd, 1e-3)
            # the direct E, D, C and labels at every p, one column call each; the
            # column forms equal the single-state quantifiers bit for bit
            rv = r.as_array() * np.stack(np.broadcast_arrays(*decay_factors(kind, ps)), axis=-1)
            d_hs, i_hs = hs_discord_columns(*rv.T)
            d_tr, i_tr = trace_discord_columns(*rv.T)
            conc, _ = concurrence_columns(*bd_xstate_columns(*rv.T))
            points = zip(
                hs_entanglement_columns(*rv.T).tolist(), d_hs.tolist(), i_hs.tolist(),
                conc.tolist(), d_tr.tolist(), i_tr.tolist(),
            )
            for e, d, i, c, t, j in points:
                rec = hs_discord_from_entanglement(e, case_hs, branch="D%d" % (i + 1))
                dev = max(dev, abs(rec - d))
                rec = trace_discord_from_concurrence(c, case_tr, piece="r%d" % (j + 1))
                dev = max(dev, abs(rec - t))
    _report(6, "relation_identity", dev <= 1e-9, "dev=%.3e" % dev)


def test_criterion_07_pd_event_structure():
    traj = run_trajectory(ChannelKind.PHASE_DAMPING, R0, 1.0, 1001)
    tr = sorted(
        e.p_detected
        for e in traj.event_records
        if e.kind == SUDDEN_CHANGE and e.norm is Norm.TRACE
    )
    hs = [
        e.p_detected
        for e in traj.event_records
        if e.kind == SUDDEN_CHANGE and e.norm is Norm.HS
    ]
    ct_tr = critical_times(RelationCase(ChannelKind.PHASE_DAMPING, Norm.TRACE, R0))
    ct_hs = critical_times(RelationCase(ChannelKind.PHASE_DAMPING, Norm.HS, R0))
    ok = (
        len(tr) == 2
        and len(hs) == 1
        and all(abs(d - a) <= 1e-6 for d, a in zip(tr, ct_tr.sudden_changes))
        and abs(hs[0] - ct_hs.sudden_changes[0]) <= 1e-6
        and np.allclose(tr, [0.19746, 0.23540], atol=5e-6)
        and np.allclose(hs, [0.23540], atol=5e-6)
    )
    deaths = {
        e.norm: e.p_detected for e in traj.event_records if e.kind == SUDDEN_DEATH
    }
    ok = ok and abs(ct_hs.sudden_death - ct_tr.sudden_death) <= 1e-12
    ok = ok and abs(deaths[Norm.HS] - deaths[Norm.TRACE]) <= 1e-12
    ok = ok and abs(deaths[Norm.HS] - 0.29289) <= 5e-6
    _report(
        7,
        "pd_event_structure",
        ok,
        "trace=%s hs=%s death=%.8f" % ([round(p, 6) for p in tr], [round(p, 6) for p in hs], deaths[Norm.HS]),
    )


def test_criterion_08_depol_event_structure():
    traj = run_trajectory(ChannelKind.DEPOLARIZING, R0, 1.0, 1001)
    changes = [e for e in traj.event_records if e.kind == SUDDEN_CHANGE]
    death = traj.death_p()
    ok = not changes and death is not None and abs(death - (1 - np.sqrt(1 / 1.62))) <= 1e-8
    _report(8, "depol_event_structure", ok, "changes=%d death=%.10f" % (len(changes), death))


def test_criterion_09_contractivity():
    rng = np.random.default_rng(SEED)
    pairs = random_bd_pairs(rng, 100)
    worst_hs = worst_tr = 0.0
    clean = True
    for kind in ChannelKind:
        grid = np.linspace(0.0, monotone_p_max(kind), 51)
        rep = contractivity_scan(kind, pairs, grid)
        clean = clean and rep.clean
        worst_hs = max(worst_hs, rep.max_increase_hs)
        worst_tr = max(worst_tr, rep.max_increase_trace)
    _report(
        9,
        "contractivity_scan",
        clean,
        "max_increase_hs=%.3e max_increase_trace=%.3e" % (worst_hs, worst_tr),
    )


def test_criterion_10_verify_determinism(tmp_path, capsys):
    argv = ["verify", "--seed", "42", "--grid", "5", "--xstates", "50", "--wootters", "500"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    ok = identical and code1 == 0 and code2 == 0 and report["all_pass"]
    _report(10, "verify_determinism", ok, "identical=%s exit=%d" % (identical, code1))
