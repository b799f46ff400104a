import functools
import math

import numpy as np
import pytest

from conftest import REF
from qcorr.channels import ChannelKind, evolved_vector, monotone_p_max
from qcorr.dynamics import (
    _bisect,
    _evolve,
    SUDDEN_CHANGE,
    SUDDEN_DEATH,
    contractivity_scan,
    d_vs_e_curve,
    run_trajectory,
)
from qcorr.errors import EmptyWindow, NonPhysical, OutOfRange
from qcorr.oracles import hs_operator_sq, trace_norm
from qcorr.quantifiers import Norm
from qcorr.sampling import random_bd_pairs, random_bd_vector
from qcorr.states import CorrelationVector, bd_to_density

PD, DEP = ChannelKind.PHASE_DAMPING, ChannelKind.DEPOLARIZING
BF, BPF = ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP
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


@pytest.mark.parametrize("p, message", [
    ([0.0], "at p = 0 has eigenvalue -0.425"),
    # the first state's vector at p = 0.5 precedes the second state's rows
    ([0.5, 0.0], "at p = 0.5 has eigenvalue -0.0875"),
])
def test_evolve_reports_the_first_row_outside(p, message):
    # the second state's vectors lie further outside (-0.875 at p = 0)
    rows = np.array([[0.9, 0.9, 0.9], [1.5, 1.5, 1.5]])
    with pytest.raises(NonPhysical, match=message):
        _evolve(PD, rows, np.array(p))


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
        # trace changes 0.0987 and 0.1177 and the death 0.1464 in [0, 1/2]: the
        # margin is back at its initial value at p = 1, so the rows p = 0, 1
        # alone bracket no death; the turning point 1/2 does
        (ChannelKind.PHASE_FLIP, REF, 2),
        (ChannelKind.PHASE_FLIP, REF, 4),
    ],
)
def test_two_switches_in_one_cell_detected(kind, state, n_samples):
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(*state)
    traj = run_trajectory(kind, r0, 1.0, n_samples)
    for norm in Norm:
        detected = sorted(e.p_detected for e in _changes(traj, norm))
        analytic = critical_times(RelationCase(kind, norm, r0))
        assert len(detected) == len(analytic.sudden_changes)
        for d, a in zip(detected, analytic.sudden_changes):
            assert abs(d - a) <= 1e-6
        deaths = [e.p_detected for e in _deaths(traj, norm)]
        assert len(deaths) == (analytic.sudden_death is not None)
        assert all(abs(d - analytic.sudden_death) <= 1e-6 for d in deaths)
    assert traj.unmatched == [] and len(traj.p) == n_samples
    assert len(_changes(traj, Norm.TRACE)) == (2 if kind is PD else 4)


# two decaying moduli tied with each other cross the preserved one together
TIED = [
    (PD, (0.5, -0.5, 0.3)),
    (ChannelKind.BIT_FLIP, (0.3, 0.5, -0.5)),
    (ChannelKind.BIT_PHASE_FLIP, (0.5, 0.3, -0.5)),
    (ChannelKind.PHASE_FLIP, (0.5, -0.5, 0.3)),
]


@pytest.mark.parametrize("n_samples", [2, 11, 1001])
@pytest.mark.parametrize("kind, state", TIED)
def test_tied_moduli_cross_as_one_hs_change(kind, state, n_samples):
    """The tied pair crossing the preserved modulus moves the largest modulus
    but not the median: one HS change at (1 - sqrt(0.6)), mirrored under
    phase flip, and no trace change, detected and analytic alike."""
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(*state)
    traj = run_trajectory(kind, r0, 1.0, n_samples)
    p1 = 1.0 - np.sqrt(0.6)
    hs = (p1 / 2.0, 1.0 - p1 / 2.0) if kind is ChannelKind.PHASE_FLIP else (p1,)
    for norm, times in ((Norm.HS, hs), (Norm.TRACE, ())):
        np.testing.assert_allclose(critical_times(RelationCase(kind, norm, r0)).sudden_changes, times, atol=1e-15)
        detected = [e.p_detected for e in _changes(traj, norm)]
        assert len(detected) == len(times)
        np.testing.assert_allclose(detected, times, atol=1e-6)
    assert all(e.p_analytic is not None for e in traj.event_records)
    assert traj.unmatched == []


@pytest.mark.parametrize("kind, state", TIED)
def test_tied_moduli_kink_hs_not_trace(kind, state):
    """A witness free of either rule: at each detected change the one-sided
    slopes of the sampled D_hs jump, and those of D_tr do not."""
    traj = run_trajectory(kind, CorrelationVector(*state), 1.0, 1001)
    changes = _changes(traj, Norm.HS)
    assert len(changes) == (2 if kind is ChannelKind.PHASE_FLIP else 1)
    dp = traj.p[1]
    for e in changes:
        k = np.searchsorted(traj.p, e.p_detected) - 1  # p[k] < p* < p[k + 1]
        for d, kink in ((traj.d_hs, True), (traj.d_tr, False)):
            left, right = (d[k] - d[k - 1]) / dp, (d[k + 2] - d[k + 1]) / dp
            assert (abs(right - left) > 0.3) == kink


@pytest.mark.parametrize("n_samples", [2, 11, 1001])
def test_decaying_modulus_tied_to_the_preserved_one(n_samples):
    # |r2| = |r3| = 0.3 part at p = 0 and never meet again; |r1| = 0.6 crosses
    # |r3| at 1 - sqrt(0.5), the largest modulus and the median both change
    traj = run_trajectory(PD, CorrelationVector(0.6, 0.3, -0.3), 1.0, n_samples)
    for norm in Norm:
        [e] = _changes(traj, norm)
        assert e.p_analytic == 1.0 - np.sqrt(0.5) and abs(e.p_detected - e.p_analytic) <= 1e-6
    assert traj.unmatched == []


@pytest.mark.parametrize("n_samples", [11, 1001])
@pytest.mark.parametrize("kind, hs", [
    (PD, (1.0 - np.sqrt(0.6),)),
    (ChannelKind.PHASE_FLIP, (0.1127016653792583, 0.8872983346207417)),
])
def test_near_tie_matches_each_analytic_change_once(kind, hs, n_samples):
    # the trace changes lie in pairs 8e-12 apart, each pair within 1e-6 of
    # either detection: each detection takes the nearest analytic time not yet
    # taken, and bisection to float resolution tells the pair apart, so that
    # the crossing of the larger decaying modulus is the HS change
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(0.5, -0.49999999999, 0.3)
    traj = run_trajectory(kind, r0, 1.0, n_samples)
    assert traj.unmatched == []
    for norm, count in ((Norm.HS, len(hs)), (Norm.TRACE, 2 * len(hs))):
        analytic = critical_times(RelationCase(kind, norm, r0)).sudden_changes
        assert len(analytic) == count
        assert sorted(e.p_analytic for e in _changes(traj, norm)) == list(analytic)
    np.testing.assert_allclose([e.p_analytic for e in _changes(traj, Norm.HS)], hs, rtol=0.0, atol=1e-15)
    assert all(abs(e.p_detected - e.p_analytic) <= 1e-15 for e in traj.event_records)


@pytest.mark.parametrize("n_samples", [2, 11, 1001])
def test_equal_analytic_times_are_matched_one_each(n_samples):
    # |r1| and |r2| lie one ulp apart, so both cross |r3| at the same analytic
    # time as a float: each of the two trace detections takes one copy of it
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(0.3, -0.30000000000000004, 0.05)
    traj = run_trajectory(PD, r0, 1.0, n_samples)
    assert critical_times(RelationCase(PD, Norm.TRACE, r0)).sudden_changes == (0.591751709536137,) * 2
    assert [e.p_analytic for e in _changes(traj, Norm.TRACE)] == [0.591751709536137] * 2
    assert traj.unmatched == []


def _death_matched_both_ways(traj) -> bool:
    """No analytic event unmatched, and every detected death matched."""
    return traj.unmatched == [] and all(
        e.p_analytic is not None for e in traj.event_records if e.kind == SUDDEN_DEATH
    )


@pytest.mark.parametrize("n_samples", [11, 1001])
@pytest.mark.parametrize("kind, state", [
    # |r1| + |r2| + |r3| rounds to 1 in axis order, above it with the kept modulus last
    (BF, (0.17907797725750468, 0.6710874057951208, -0.14983461694737463)),
    # above 1 in axis order, to 1 with the kept modulus last
    (BPF, (-0.366419976324472, -0.35783155840491154, -0.27574846527061664)),
])
def test_near_face_death_follows_the_detectors_margin(kind, state, n_samples):
    # critical_times sums the margin in axis order, as the detector does, so
    # an analytic death exists exactly when a death is detected
    traj = run_trajectory(kind, CorrelationVector(*state), 1.0, n_samples)
    assert _death_matched_both_ways(traj)


def _ulps(x: float, k: int) -> float:
    """x moved by k float steps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def test_near_face_scan_matches_every_death():
    # Dirichlet draws scaled onto |r1| + |r2| + |r3| = 1, each component then
    # moved by up to 4 float steps: the margin's sign hangs on the order of the sum
    rng = np.random.default_rng(1)
    bad = []
    for _ in range(400):
        v = random_bd_vector(rng).as_array()
        v = v / np.abs(v).sum()
        r = CorrelationVector(*(_ulps(float(x), int(k)) for x, k in zip(v, rng.integers(-4, 5, 3))))
        bad += [(kind, r) for kind in (BF, BPF) if not _death_matched_both_ways(run_trajectory(kind, r, 1.0, 11))]
    assert bad == []


def test_death_factor_rounding_to_one_dies_at_p_zero():
    # the margin is 1 ulp above zero, and (1 - kept) / dec rounds to exactly 1
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(0.34259649518962193, -0.652268497944449, 0.005135006865929167)
    assert critical_times(RelationCase(BF, Norm.HS, r0)).sudden_death == 0.0
    traj = run_trajectory(BF, r0, 1.0, 11)
    assert _death_matched_both_ways(traj)
    assert [e.p_analytic for e in traj.event_records if e.kind == SUDDEN_DEATH] == [0.0, 0.0]


@pytest.mark.parametrize("lo, hi", [
    (0.5, math.nextafter(0.5, 1.0)),
    (math.nextafter(1.0, 0.0), 1.0),
    (0.0, 5e-324),
])
def test_bisect_stops_between_adjacent_floats(lo, hi):
    # no float lies strictly between the ends: the first midpoint is an end
    assert _bisect(lambda x: x - lo, lo, hi) in (lo, hi)


@pytest.mark.parametrize("root", [0.3, 1e-320])
def test_bisect_reaches_the_float_of_the_root(root):
    # from [0, 1] down to one float step, past 1000 halvings for a subnormal root
    assert abs(_bisect(lambda x: root - x, 0.0, 1.0) - root) <= math.ulp(root)


BELL_VERTICES = [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]


@pytest.mark.parametrize("n_samples", [2, 3, 11, 1001])
@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("vertex", BELL_VERTICES)
def test_vertex_death_where_the_margin_touches_zero(vertex, kind, n_samples):
    """From a Bell vertex, under every channel but depolarizing, the margin
    2 g(p) falls to zero on a detection row, at p = 1 or at phase flip's
    turning point 1/2, and does not cross it; that zero is the death."""
    from qcorr.relations import RelationCase, critical_times

    r0 = CorrelationVector(*vertex)
    traj = run_trajectory(kind, r0, 1.0, n_samples)
    death = critical_times(RelationCase(kind, Norm.HS, r0)).sudden_death
    assert [e.kind for e in traj.event_records] == [SUDDEN_DEATH] * 2
    for norm in Norm:
        [e] = _deaths(traj, norm)
        assert e.p_analytic == death and abs(e.p_detected - death) <= 1e-6
    assert traj.unmatched == []


@functools.cache
def _seeded_scan() -> list:
    """(state, channel, analytic death or None, trajectory) over 40 seeded
    states, every channel and 2 to 1001 samples."""
    from qcorr.relations import RelationCase, critical_times
    from qcorr.sampling import random_bd_vector

    rng = np.random.default_rng(1)
    scan = []
    for r in [random_bd_vector(rng) for _ in range(40)]:
        for kind in ChannelKind:
            death = critical_times(RelationCase(kind, Norm.HS, r)).sudden_death
            for n_samples in (2, 3, 4, 11, 51, 1001):
                scan.append((r, kind, death, run_trajectory(kind, r, 1.0, n_samples)))
    return scan


def test_no_analytic_change_dropped_seeded_scan():
    """Every analytic sudden change and every analytic death is detected within
    1e-6 on both norms, at any grid size: the moduli differences are monotone
    between detection rows, so no crossing hides inside one cell."""
    from qcorr.relations import RelationCase, critical_times

    for r, kind, death, traj in _seeded_scan():
        assert traj.unmatched == []
        assert all(e.p_analytic is not None for e in traj.event_records)
        for norm in Norm:
            detected = [e.p_detected for e in _changes(traj, norm)]
            for c in critical_times(RelationCase(kind, norm, r)).sudden_changes:
                assert any(abs(d - c) <= 1e-6 for d in detected)
            if death is not None and death <= 1.0:
                assert [abs(e.p_detected - death) <= 1e-6 for e in _deaths(traj, norm)] == [True]


def test_hs_changes_sit_on_trace_changes_seeded_scan():
    """An HS sudden change is a crossing of the two largest moduli, so its
    p_detected is the trace change's, bit for bit."""
    hs_changes = 0
    for _, _, _, traj in _seeded_scan():
        trace = {e.p_detected for e in _changes(traj, Norm.TRACE)}
        hs = [e.p_detected for e in _changes(traj, Norm.HS)]
        assert set(hs) <= trace
        hs_changes += len(hs)
    assert hs_changes > 100


def test_contractivity_identical_pair():
    rep = contractivity_scan(PD, [(R0, R0)], np.linspace(0, 1, 21))
    assert rep.max_increase_hs == 0.0 and rep.max_increase_trace == 0.0


def test_contractivity_bell_vs_center():
    pairs = [(CorrelationVector(1, 1, -1), CorrelationVector(0, 0, 0))]
    rep = contractivity_scan(DEP, pairs, np.linspace(0, 1, 51))
    assert rep.clean
    # trace distance starts at 1.5 and decreases monotonically
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


def _scan_one_matrix_at_a_time(channel, pairs, p_grid):
    """contractivity_scan's reference: one evolved pair and one 4x4 matrix per step."""
    max_up = {"trace": 0.0, "hs": 0.0}
    violations = []
    for i, (ra, rb) in enumerate(pairs):
        prev = None
        for p in map(float, p_grid):
            delta = bd_to_density(evolved_vector(channel, ra, p)) - bd_to_density(
                evolved_vector(channel, rb, p)
            )
            now = {"trace": trace_norm(delta), "hs": hs_operator_sq(delta)}
            for norm in ("trace", "hs") if prev else ():
                up = now[norm] - prev[norm]
                max_up[norm] = max(max_up[norm], up)
                if up > 1e-12:
                    violations.append((i, norm, p, up))
            prev = now
    return max_up["hs"], max_up["trace"], tuple(violations)


@pytest.mark.parametrize("kind", [ChannelKind.PHASE_FLIP, DEP])
def test_contractivity_matches_one_matrix_at_a_time(kind):
    # phase flip past p = 1/2 is not monotone, so its violations are listed
    pairs = random_bd_pairs(np.random.default_rng(5), 12)
    grid = np.linspace(0.0, 1.0, 31)
    rep = contractivity_scan(kind, pairs, grid)
    expected = _scan_one_matrix_at_a_time(kind, pairs, grid)
    assert (rep.max_increase_hs, rep.max_increase_trace, rep.violations) == expected
    assert bool(rep.violations) == (kind is ChannelKind.PHASE_FLIP)


@pytest.mark.parametrize("pairs, grid", [([], np.linspace(0, 1, 5)), ([(R0, R0)], [0.5]), ([(R0, R0)], [])])
def test_contractivity_without_steps_is_clean(pairs, grid):
    rep = contractivity_scan(PD, pairs, grid)
    assert (rep.max_increase_hs, rep.max_increase_trace, rep.violations) == (0.0, 0.0, ())


@pytest.mark.parametrize("grid", [[0.0, 1.5], [-0.5]])
def test_contractivity_rejects_p_outside_unit_interval(grid):
    with pytest.raises(OutOfRange):
        contractivity_scan(PD, [(R0, R0)], grid)
