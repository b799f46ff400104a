import numpy as np
import pytest

from conftest import REF
from qcorr.channels import ChannelKind, monotone_p_max
from qcorr.dynamics import (
    SUDDEN_CHANGE,
    SUDDEN_DEATH,
    contractivity_scan,
    d_vs_e_curve,
    run_trajectory,
)
from qcorr.errors import EmptyWindow, NonPhysical, OutOfRange
from qcorr.quantifiers import Norm
from qcorr.sampling import random_bd_pairs
from qcorr.states import CorrelationVector

PD, DEP = ChannelKind.PHASE_DAMPING, ChannelKind.DEPOLARIZING
R0 = CorrelationVector(*REF)


def _changes(traj, norm):
    return [e for e in traj.event_records if e.kind == SUDDEN_CHANGE and e.norm is norm]


def _deaths(traj, norm):
    return [e for e in traj.event_records if e.kind == SUDDEN_DEATH and e.norm is norm]


def test_trajectory_shape_and_endpoint():
    traj = run_trajectory(PD, CorrelationVector(-0.7, -0.7, -0.7), 1.0, 101)
    columns = (traj.p, traj.e_hs, traj.d_hs, traj.concurrence, traj.d_tr,
               traj.branch_hs, traj.branch_tr)
    assert traj.r.shape == (101, 3) and all(c.shape == (101,) for c in columns)
    np.testing.assert_allclose(traj.r[-1], [0, 0, -0.7], atol=1e-15)
    # trajectory heads straight for the r3 axis: r1(p) = r2(p) throughout
    assert (traj.r[:, 0] == traj.r[:, 1]).all()


def test_nonphysical_evolution_raises(monkeypatch):
    # a factor above 1 on r1 stands in for a broken channel: every row leaves
    # the tetrahedron, and the one array check reports it
    import qcorr.dynamics as dyn

    monkeypatch.setattr(dyn, "decay_factors", lambda kind, p: (1.5 + 0.0 * p, 1.0, 1.0))
    with pytest.raises(NonPhysical, match="at p = 0 has eigenvalue -0.04625"):
        run_trajectory(PD, R0, 1.0, 11)


def test_reference_events_detected():
    traj = run_trajectory(PD, R0, 1.0, 1001)
    tr = _changes(traj, Norm.TRACE)
    hs = _changes(traj, Norm.HS)
    assert len(tr) == 2 and len(hs) == 1
    for e in tr + hs:
        assert e.p_analytic is not None
        assert abs(e.p_detected - e.p_analytic) <= 1e-6
    d_hs, d_tr = _deaths(traj, Norm.HS), _deaths(traj, Norm.TRACE)
    assert len(d_hs) == 1 and len(d_tr) == 1
    assert d_hs[0].p_detected == d_tr[0].p_detected
    np.testing.assert_allclose(d_hs[0].p_detected, 0.2928932188134524, atol=1e-8)


def test_depolarizing_no_sudden_changes():
    traj = run_trajectory(DEP, R0, 1.0, 1001)
    assert not _changes(traj, Norm.HS) and not _changes(traj, Norm.TRACE)
    np.testing.assert_allclose(
        traj.death_p(), 1 - np.sqrt(1 / 1.62), atol=1e-8
    )


def test_input_validation():
    with pytest.raises(OutOfRange):
        run_trajectory(PD, R0, 1.0, 1)
    with pytest.raises(OutOfRange):
        run_trajectory(PD, R0, 0.0, 10)


def test_curve_structure():
    traj = run_trajectory(PD, R0, 1.0, 1001)
    hs = d_vs_e_curve(traj, Norm.HS)
    tr = d_vs_e_curve(traj, Norm.TRACE)
    np.testing.assert_allclose((hs[0][0], hs[1][0]), (0.62**2 / 3, 0.4925), atol=1e-12)
    np.testing.assert_allclose((tr[0][0], tr[1][0]), (0.31, 0.59), atol=1e-12)

    def kinks(curve):
        branch = curve[2]
        return np.count_nonzero(branch[1:] != branch[:-1])

    assert kinks(tr) == 2 and kinks(hs) == 1
    # restricted to p <= p_SD = 0.2929: the grid points 0, 0.001, ..., 0.292
    assert all(len(c) == 293 for c in hs + tr)

    dep = run_trajectory(DEP, R0, 1.0, 1001)
    assert kinks(d_vs_e_curve(dep, Norm.HS)) == 0
    assert kinks(d_vs_e_curve(dep, Norm.TRACE)) == 0


def test_curve_empty_window():
    traj = run_trajectory(PD, CorrelationVector(0.2, 0.1, 0.05), 1.0, 101)
    with pytest.raises(EmptyWindow):
        d_vs_e_curve(traj, Norm.HS)


@pytest.mark.parametrize("kind", [PD, ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP, DEP])
def test_entanglement_monotone(kind):
    traj = run_trajectory(kind, R0, 1.0, 501)
    assert (np.diff(traj.e_hs) <= 1e-15).all()
    assert (np.diff(traj.concurrence) <= 1e-15).all()


def test_events_match_analytic_random_suite():
    from qcorr.relations import RelationCase, critical_times

    rng = np.random.default_rng(5)
    from qcorr.sampling import random_entangled_bd

    for _ in range(10):
        r = random_entangled_bd(rng, min_gap=5e-3)
        for kind in (PD, ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP, DEP):
            traj = run_trajectory(kind, r, 1.0, 1001)
            for norm in Norm:
                detected = sorted(e.p_detected for e in _changes(traj, norm))
                analytic = critical_times(RelationCase(kind, norm, r)).sudden_changes
                assert len(detected) == len(analytic)
                for d, a in zip(detected, analytic):
                    assert abs(d - a) <= 1e-6


def test_phase_flip_revival_events():
    # (1-2p)^2 retraces itself beyond p = 1/2: the mirrored events reappear
    traj = run_trajectory(ChannelKind.PHASE_FLIP, R0, 1.0, 1001)
    hs = _changes(traj, Norm.HS)
    assert len(hs) == 2
    np.testing.assert_allclose(hs[0].p_detected + hs[1].p_detected, 1.0, atol=1e-6)
    for e in hs:
        assert e.p_analytic is not None and abs(e.p_detected - e.p_analytic) <= 1e-6


@pytest.mark.parametrize(
    "kind, state, n_samples",
    [
        # r2 -> r3 -> r1 within the cell [0, 0.5]
        (PD, REF, 3),
        # crossings 0.35729 and 0.35782 in [0.357, 0.358], and their mirror images
        (ChannelKind.PHASE_FLIP, (0.2919, 0.2897, 0.0236), 1001),
    ],
)
def test_two_switches_in_one_cell_detected(kind, state, n_samples):
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(*state)
    traj = run_trajectory(kind, r0, 1.0, n_samples)
    for norm in Norm:
        detected = sorted(e.p_detected for e in _changes(traj, norm))
        analytic = critical_times(RelationCase(kind, norm, r0)).sudden_changes
        assert len(detected) == len(analytic)
        for d, a in zip(detected, analytic):
            assert abs(d - a) <= 1e-6
    assert len(_changes(traj, Norm.TRACE)) == (2 if kind is PD else 4)


def test_no_analytic_change_dropped_seeded_scan():
    """Every analytic sudden change is detected or listed as unmatched, and at
    the default 1001 samples every one is detected."""
    from qcorr.relations import RelationCase, critical_times
    from qcorr.sampling import random_bd_vector

    rng = np.random.default_rng(1)
    states = [random_bd_vector(rng) for _ in range(40)]
    n_listed = 0
    for r in states:
        for kind in ChannelKind:
            for n_samples in (3, 11, 51, 1001):
                traj = run_trajectory(kind, r, 1.0, n_samples)
                if n_samples == 1001:
                    assert traj.unmatched == []
                n_listed += len(traj.unmatched)
                for norm in Norm:
                    detected = [e.p_detected for e in _changes(traj, norm)]
                    listed = [e.p_analytic for e in traj.unmatched if e.norm is norm]
                    for c in critical_times(RelationCase(kind, norm, r)).sudden_changes:
                        assert c in listed or any(abs(d - c) <= 1e-6 for d in detected)
    assert n_listed  # coarse grids do miss changes, and the scan sees them listed


def test_contractivity_identical_pair():
    rep = contractivity_scan(PD, [(R0, R0)], np.linspace(0, 1, 21))
    assert rep.max_increase_hs == 0.0 and rep.max_increase_trace == 0.0


def test_contractivity_bell_vs_center():
    pairs = [(CorrelationVector(1, 1, -1), CorrelationVector(0, 0, 0))]
    rep = contractivity_scan(DEP, pairs, np.linspace(0, 1, 51))
    assert rep.clean
    # trace distance starts at 1.5 and decreases monotonically
    from qcorr.oracles import trace_norm
    from qcorr.states import bd_to_density

    np.testing.assert_allclose(
        trace_norm(bd_to_density(pairs[0][0]) - bd_to_density(pairs[0][1])), 1.5
    )


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_contractivity_random_pairs(kind):
    rng = np.random.default_rng(17)
    pairs = random_bd_pairs(rng, 20)
    grid = np.linspace(0.0, monotone_p_max(kind), 41)
    rep = contractivity_scan(kind, pairs, grid)
    assert rep.clean, rep.violations[:3]
