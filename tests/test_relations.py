import math

import numpy as np
import pytest

from conftest import REF
from qcorr.channels import ChannelKind, evolved_vector
from qcorr.errors import BranchUnknown, NotEntangled, OutOfRange, WindowViolation
from qcorr.quantifiers import Norm, concurrence_x, hs_discord, hs_entanglement, trace_discord
from qcorr.relations import (
    CriticalTimes,
    RelationCase,
    _p_in_window,
    critical_times,
    hs_discord_from_entanglement,
    trace_discord_from_concurrence,
)
from qcorr.sampling import random_entangled_bd
from qcorr.states import CorrelationVector, bd_to_xstate

PD, BF, BPF, PF, DEP = (
    ChannelKind.PHASE_DAMPING,
    ChannelKind.BIT_FLIP,
    ChannelKind.BIT_PHASE_FLIP,
    ChannelKind.PHASE_FLIP,
    ChannelKind.DEPOLARIZING,
)

R0 = CorrelationVector(*REF)

# frozen from the closed forms: 1 - sqrt(0.38/0.59), 1 - sqrt(0.38/0.65),
# 1 - sqrt(0.62/1.24), 1 - sqrt(1/1.62)
P_I = 0.19746165411852779
P_II = 0.23539854524374293
P_SD = 0.2928932188134524
P_SD_DEPOL = 0.21432579868161383


def test_critical_times_reference():
    ct = critical_times(RelationCase(PD, Norm.TRACE, R0))
    np.testing.assert_allclose(ct.sudden_changes, [P_I, P_II], atol=1e-15)
    np.testing.assert_allclose(ct.sudden_death, P_SD, atol=1e-15)

    ct = critical_times(RelationCase(PD, Norm.HS, R0))
    np.testing.assert_allclose(ct.sudden_changes, [P_II], atol=1e-15)
    np.testing.assert_allclose(ct.sudden_death, P_SD, atol=1e-15)

    for norm in Norm:
        ct = critical_times(RelationCase(DEP, norm, R0))
        assert ct.sudden_changes == ()
        np.testing.assert_allclose(ct.sudden_death, P_SD_DEPOL, atol=1e-15)


@pytest.mark.parametrize("norm", list(Norm))
@pytest.mark.parametrize("state", [REF, (0.9, 0.5, -0.5)])
def test_critical_times_swapped_channels(norm, state):
    # bit flip preserves axis 1 and bit-phase flip axis 2: the same times, bit
    # for bit, for the state with its phase-damping-preserved component moved there
    a, b, c = state
    pd = critical_times(RelationCase(PD, norm, CorrelationVector(a, b, c)))
    assert critical_times(RelationCase(BF, norm, CorrelationVector(c, a, b))) == pd
    assert critical_times(RelationCase(BPF, norm, CorrelationVector(a, c, b))) == pd
    if state == REF:
        np.testing.assert_allclose(pd.sudden_changes, [P_I, P_II] if norm is Norm.TRACE else [P_II], atol=1e-15)
        np.testing.assert_allclose(pd.sudden_death, P_SD, atol=1e-15)


@pytest.mark.parametrize("norm", list(Norm))
def test_phase_flip_mirrors_each_phase_damping_crossing(norm):
    # both channels preserve axis 3; (1 - 2p)^2 meets the ratio phase damping's
    # (1 - p)^2 meets at half its p, and again at 1 - p on the rising side
    rng = np.random.default_rng(7)
    for r in [R0] + [random_entangled_bd(rng, min_gap=1e-3) for _ in range(20)]:
        pd = critical_times(RelationCase(PD, norm, r)).sudden_changes
        pf = critical_times(RelationCase(PF, norm, r)).sudden_changes
        assert len(pf) == 2 * len(pd)
        k = len(pd)
        assert pf[:k] == tuple(p / 2.0 for p in pd)
        assert pf[k:] == tuple(1.0 - p for p in reversed(pf[:k]))
    assert len(critical_times(RelationCase(PF, norm, R0)).sudden_changes) == (4 if norm is Norm.TRACE else 2)

def test_cross_norm_alignment():
    # the trace-norm change times contain the HS one exactly
    tr = critical_times(RelationCase(PD, Norm.TRACE, R0))
    hs = critical_times(RelationCase(PD, Norm.HS, R0))
    assert hs.sudden_changes[0] == tr.sudden_changes[1]
    assert hs.sudden_death == tr.sudden_death


def test_death_coincidence_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = random_entangled_bd(rng, min_gap=1e-3)
        for kind in (PD, BF, BPF, DEP):
            hs = critical_times(RelationCase(kind, Norm.HS, r)).sudden_death
            tr = critical_times(RelationCase(kind, Norm.TRACE, r)).sudden_death
            assert abs(hs - tr) <= 1e-12


def test_degenerate_and_not_entangled():
    # |r1| = |r2| decay together and cross |r3| = 0.1 together at p = 1/2: the
    # largest modulus changes there, the median does not
    r = CorrelationVector(0.4, 0.4, 0.1)
    assert critical_times(RelationCase(PD, Norm.HS, r)) == CriticalTimes((0.5,), None, math.inf)
    assert critical_times(RelationCase(PD, Norm.TRACE, r)) == CriticalTimes((), None, math.inf)
    assert critical_times(RelationCase(PD, Norm.HS, CorrelationVector(0.2, 0.1, 0.05))).sudden_death is None


@pytest.mark.parametrize("kind", [PD, BPF, PF])
def test_tied_preserved_modulus_takes_the_single_change_rule(kind):
    # the decaying 0.5 ties the preserved 0.5 and falls below it for p > 0, so
    # 0.9 alone crosses: D(C) is extrapolated from the first trace change on
    r = CorrelationVector(0.9, 0.5, -0.5)
    trace = critical_times(RelationCase(kind, Norm.TRACE, r))
    assert len(trace.sudden_changes) == (2 if kind is PF else 1)
    assert trace.extrapolated_from == trace.sudden_changes[0]
    assert critical_times(RelationCase(kind, Norm.HS, r)).extrapolated_from == math.inf


def test_branch_helpers():
    # active branches along the phase-damped reference trajectory
    def at(p):
        return evolved_vector(PD, R0, p)

    assert hs_discord(at(0.0)).branch == "D1"
    assert hs_discord(at(0.28)).branch == "D3"
    assert trace_discord(at(0.0)).branch == "r2"
    assert trace_discord(at(0.21)).branch == "r3"
    assert trace_discord(at(0.25)).branch == "r1"


def test_hs_relation_examples():
    case = RelationCase(PD, Norm.HS, R0)
    np.testing.assert_allclose(
        hs_discord_from_entanglement(hs_entanglement(R0).value, case, branch="D1"),
        0.4925,
        atol=1e-12,
    )
    # E = 0 at sudden death reproduces the discord of the evolved state
    rv = evolved_vector(PD, R0, P_SD)
    np.testing.assert_allclose(
        hs_discord_from_entanglement(0.0, case, branch=hs_discord(rv).branch),
        hs_discord(rv).value,
        atol=1e-12,
    )
    # depolarizing relation at the Bell vertex: sqrt(3E) + 1 = 3
    vertex = RelationCase(DEP, Norm.HS, CorrelationVector(1, 1, -1))
    np.testing.assert_allclose(
        hs_discord_from_entanglement(4 / 3, vertex, branch="D1"), 2.0, atol=1e-14
    )


def test_trace_relation_examples():
    case = RelationCase(PD, Norm.TRACE, R0)
    np.testing.assert_allclose(
        trace_discord_from_concurrence(0.31, case, piece="r2"), 0.59, atol=1e-12
    )
    dep = RelationCase(DEP, Norm.TRACE, R0)
    np.testing.assert_allclose(
        trace_discord_from_concurrence(0.31, dep, piece="r2"),
        0.59 * (2 * 0.31 + 1) / 1.62,
        atol=1e-12,
    )
    # C = 0 at sudden death
    rv = evolved_vector(PD, R0, P_SD)
    np.testing.assert_allclose(
        trace_discord_from_concurrence(0.0, case, piece=trace_discord(rv).branch),
        trace_discord(rv).value,
        atol=1e-9,
    )


def test_relation_errors():
    case = RelationCase(PD, Norm.HS, R0)
    with pytest.raises(BranchUnknown):
        hs_discord_from_entanglement(0.1, case, None)
    with pytest.raises(BranchUnknown):
        trace_discord_from_concurrence(0.1, RelationCase(PD, Norm.TRACE, R0), None)
    # a label from the other norm's table is as unknown as any other string
    for fn, norm, label in (
        (hs_discord_from_entanglement, Norm.HS, "D4"),
        (hs_discord_from_entanglement, Norm.HS, "d1"),
        (hs_discord_from_entanglement, Norm.HS, "r1"),
        (trace_discord_from_concurrence, Norm.TRACE, "r0"),
        (trace_discord_from_concurrence, Norm.TRACE, "D1"),
    ):
        with pytest.raises(BranchUnknown, match=r"^unrecognized branch label '%s'$" % label):
            fn(0.1, RelationCase(PD, norm, R0), label)
    with pytest.raises(WindowViolation, match=r"^E exceeds its initial value \(factor .* > 1\)$"):
        # E larger than its initial value has no p in [0, p_SD]
        hs_discord_from_entanglement(1.0, case, branch="D1")
    with pytest.raises(WindowViolation, match=r"^branch D3 is not active at p = 0$"):
        # branch D3 is only active beyond the sudden change
        hs_discord_from_entanglement(hs_entanglement(R0).value, case, branch="D3")
    with pytest.raises(WindowViolation, match=r"^piece r1 is not active at p = 0$"):
        # C(p = 0) = 0.31, where r2 holds the middle modulus
        trace_discord_from_concurrence(0.31, RelationCase(PD, Norm.TRACE, R0), piece="r1")
    # a factor below g_SD needs E or C below zero, which OutOfRange rejects first,
    # so this message is reached only through the window check itself
    beyond = r"^C lies beyond sudden death \(factor 0\.1 < 0\.5\)$"
    with pytest.raises(WindowViolation, match=beyond):
        _p_in_window(PD, 0.1, 0.5, "C")
    with pytest.raises(NotEntangled):
        hs_discord_from_entanglement(
            0.0, RelationCase(PD, Norm.HS, CorrelationVector(0.2, 0.1, 0.05)), branch="D1"
        )


@pytest.mark.parametrize("fn, case_norm, own", [
    (hs_discord_from_entanglement, Norm.TRACE, "hs"),
    (trace_discord_from_concurrence, Norm.HS, "trace"),
])
@pytest.mark.parametrize("label", ["D1", "D2", "D3", "r1", "r2", "r3", None])
def test_inverse_rejects_a_case_of_the_other_norm(fn, case_norm, own, label):
    # checked before the label, the input value and the frame: any label, even
    # one valid for the inverse, and a value the inverse would accept
    message = r"^relation case is for the %s norm, not %s$" % (case_norm.value, own)
    with pytest.raises(BranchUnknown, match=message):
        fn(0.1, RelationCase(PD, case_norm, R0), label)


@pytest.mark.parametrize("kind", [PD, BF, BPF, PF, DEP])
@pytest.mark.parametrize("state", [
    REF,
    (0.2, 0.1, 0.05),
    (0.0, 0.0, 0.0),
    # margin 6.7e-16 in axis order, where the X-form concurrence rounds to 0
    (-0.5128919036910866, 0.27765372410082695, -0.20945437220808696),
    # the near-face states of tests/test_dynamics.py, whose margin's sign hangs on the order of the sum
    (0.17907797725750468, 0.6710874057951208, -0.14983461694737463),
    (-0.366419976324472, -0.35783155840491154, -0.27574846527061664),
])
def test_inverses_agree_on_not_entangled(kind, state):
    # both inverses refuse exactly the states without an analytic death
    r = CorrelationVector(*state)
    separable = critical_times(RelationCase(kind, Norm.HS, r)).sudden_death is None
    for fn, case, label in (
        (hs_discord_from_entanglement, RelationCase(kind, Norm.HS, r), "D1"),
        (trace_discord_from_concurrence, RelationCase(kind, Norm.TRACE, r), "r1"),
    ):
        try:
            fn(0.0, case, label)
        except NotEntangled:
            assert separable
        except WindowViolation:  # E = C = 0 is p_SD, where D1 or r1 may not be active
            assert not separable
        else:
            assert not separable


@pytest.mark.parametrize("kind", [PD, BF, BPF, PF, DEP])
def test_inverses_build_no_correlation_vector(kind, monkeypatch):
    # E, C and the active labels along [0, p_SD], then both inverses on them,
    # in and out of their windows, with every label
    case_hs, case_tr = RelationCase(kind, Norm.HS, R0), RelationCase(kind, Norm.TRACE, R0)
    ps = np.linspace(0.0, critical_times(case_hs).sudden_death, 9)
    evolved = [evolved_vector(kind, R0, p) for p in ps]
    es = [hs_entanglement(v).value for v in evolved] + [2.0]
    cs = [concurrence_x(bd_to_xstate(v)).value for v in evolved] + [2.0]
    case_hs.frame, case_tr.frame  # derived before counting
    built = []
    post_init = CorrelationVector.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CorrelationVector, "__post_init__", counted)
    outcomes = []
    for e, c in zip(es, cs):
        for k in "123":
            for fn, x, case, label in (
                (hs_discord_from_entanglement, e, case_hs, "D" + k),
                (trace_discord_from_concurrence, c, case_tr, "r" + k),
            ):
                try:
                    outcomes.append(fn(x, case, label))
                except WindowViolation:
                    outcomes.append(None)
    assert built == []
    # both outcomes occur: the batch reached the window checks and the returns
    assert 0 < outcomes.count(None) < len(outcomes) == 60


def test_piecewise_examples():
    # the decaying pieces |r_i| (1 - p)^2 and the |r3| plateau of the PD trace discord
    for p, value in ((0.1, 0.4779), (0.21, 0.38), (0.3, 0.3185)):
        np.testing.assert_allclose(
            trace_discord(evolved_vector(PD, R0, p)).value, value, atol=1e-15
        )


def _identity_sweep(kind, r0, n=200):
    """Max deviation of both relation identities along [0, p_SD]."""
    case_hs = RelationCase(kind, Norm.HS, r0)
    case_tr = RelationCase(kind, Norm.TRACE, r0)
    p_sd = critical_times(case_hs).sudden_death
    worst = 0.0
    for p in np.linspace(0.0, p_sd, n):
        rv = evolved_vector(kind, r0, p)
        d = hs_discord(rv)
        rec = hs_discord_from_entanglement(hs_entanglement(rv).value, case_hs, branch=d.branch)
        worst = max(worst, abs(rec - d.value))
        t = trace_discord(rv)
        c = concurrence_x(bd_to_xstate(rv)).value
        rec = trace_discord_from_concurrence(c, case_tr, piece=t.branch)
        worst = max(worst, abs(rec - t.value))
    return worst


@pytest.mark.parametrize("kind", [PD, BF, BPF, DEP, PF])
def test_relation_identity_reference(kind):
    perm = {
        PD: REF,
        PF: REF,
        BF: (-0.38, 0.65, 0.59),
        BPF: (0.65, -0.38, 0.59),
        DEP: REF,
    }[kind]
    assert _identity_sweep(kind, CorrelationVector(*perm)) < 1e-9


def test_relation_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = random_entangled_bd(rng, min_gap=1e-3)
        for kind in (PD, BF, BPF, DEP, PF):
            assert _identity_sweep(r0=r, kind=kind, n=60) < 1e-9


@pytest.mark.parametrize("channel", [PD, DEP])
def test_nan_input_names_the_input(channel):
    r0 = CorrelationVector(*REF)
    with pytest.raises(OutOfRange, match=r"^E = nan is not a number$"):
        hs_discord_from_entanglement(float("nan"), RelationCase(channel, Norm.HS, r0), "D1")
    with pytest.raises(OutOfRange, match=r"^C = nan is not a number$"):
        trace_discord_from_concurrence(float("nan"), RelationCase(channel, Norm.TRACE, r0), "r1")
