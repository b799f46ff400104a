import numpy as np
import pytest
from hypothesis import given, settings

from conftest import REF, physical_vectors, xstates
from qcorr.oracles import (
    _BLOCK,
    clamped_minimizer,
    closest_classical,
    closest_classical_many,
    closest_separable_hs,
    closest_separable_trace_xfamily,
    closest_separable_trace_xfamily_many,
    hs_operator_sq,
    trace_norm,
)
from qcorr.quantifiers import Norm, concurrence_x, hs_discord, hs_entanglement, trace_discord
from qcorr.sampling import random_entangled_xstate
from qcorr.states import CorrelationVector, XState, bd_to_density, bd_to_xstate
from qcorr.verify import TOLERANCES, physical_grid


def test_trace_norm_examples():
    assert trace_norm(np.zeros((4, 4))) == 0.0
    assert trace_norm(np.diag([0.5, -0.5, 0.0, 0.0])) == 1.0
    bell = bd_to_density(CorrelationVector(1, 1, -1))
    np.testing.assert_allclose(trace_norm(bell - np.eye(4) / 4), 1.5, atol=1e-14)


def test_hs_operator_norm_is_quarter_of_vector_norm():
    # ||rho - zeta||_2^2 = ||dr||^2 / 4 fixes the r-space reporting convention
    ra, rb = CorrelationVector(*REF), CorrelationVector(0.1, -0.2, 0.3)
    op = hs_operator_sq(bd_to_density(ra) - bd_to_density(rb))
    vec = np.sum((ra.as_array() - rb.as_array()) ** 2)
    np.testing.assert_allclose(4 * op, vec, atol=1e-14)


def test_closest_classical_examples():
    res = closest_classical(CorrelationVector(0.3, 0, 0), Norm.HS)
    assert res.distance < 1e-15
    np.testing.assert_allclose(res.minimizer.as_array(), [0.3, 0, 0], atol=1e-7)

    res = closest_classical(CorrelationVector(*REF), Norm.HS)
    np.testing.assert_allclose(res.distance, 0.4925, atol=1e-6)
    # per axis: one 21-point grid over [-1, 1] and eight zooms down to 1e-8
    assert res.evaluations == 3 * 9 * 21

    res = closest_classical(CorrelationVector(*REF), Norm.TRACE)
    np.testing.assert_allclose(res.distance, 0.59, atol=1e-4)
    assert res.evaluations == 3 * 9 * 21


def test_closest_separable_hs_examples():
    assert closest_separable_hs(CorrelationVector(0.2, 0.2, 0.2)).distance == 0.0
    res = closest_separable_hs(CorrelationVector(*REF))
    np.testing.assert_allclose(res.distance, 0.62**2 / 3, atol=1e-8)
    res = closest_separable_hs(CorrelationVector(1, 1, -1))
    np.testing.assert_allclose(res.distance, 4 / 3, atol=1e-8)
    np.testing.assert_allclose(np.abs(res.minimizer.as_array()), [1 / 3] * 3, atol=1e-12)


def test_closest_separable_hs_minimizer_feasible():
    for r in physical_grid(7):
        res = closest_separable_hs(r)
        assert sum(res.minimizer.abs_triple()) <= 1 + 1e-12


def test_xfamily_examples():
    sep = XState(0.4, 0.1, 0.1, 0.4, 0.1, 0.05)
    assert closest_separable_trace_xfamily(sep).distance < 1e-12

    bell = XState(0, 0.5, 0.5, 0, 0, 0.5)
    np.testing.assert_allclose(closest_separable_trace_xfamily(bell).distance, 1.0, atol=1e-12)

    x = bd_to_xstate(CorrelationVector(*REF))
    res = closest_separable_trace_xfamily(x)
    np.testing.assert_allclose(res.distance, 0.31, atol=1e-4)
    # minimum keeps e and clamps f at sqrt(a d)
    np.testing.assert_allclose(abs(res.minimizer.e), 0.015, atol=1e-6)
    np.testing.assert_allclose(abs(res.minimizer.f), 0.155, atol=1e-6)


def test_xfamily_minimizer_feasible():
    x = bd_to_xstate(CorrelationVector(*REF))
    res = closest_separable_trace_xfamily(x)
    bound = min(np.sqrt(x.a * x.d), np.sqrt(x.b * x.c)) + 1e-12
    assert abs(res.minimizer.e) <= bound
    assert abs(res.minimizer.f) <= bound


def test_clamped_minimizer_achieves_concurrence():
    x = bd_to_xstate(CorrelationVector(*REF))
    sigma = clamped_minimizer(x)
    dist = trace_norm(x.to_density() - sigma.to_density())
    np.testing.assert_allclose(dist, concurrence_x(x).value, atol=1e-12)


@settings(max_examples=25)
@given(xstates())
def test_clamped_minimizer_property(x):
    sigma = clamped_minimizer(x)
    dist = trace_norm(x.to_density() - sigma.to_density())
    np.testing.assert_allclose(dist, concurrence_x(x).value, atol=1e-12)


def test_oracle_equivalence_small_grid():
    # the full 9x9x9 sweep lives in the acceptance suite
    for r in physical_grid(5):
        np.testing.assert_allclose(
            closest_classical(r, Norm.HS).distance, hs_discord(r).value, atol=1e-6
        )
        np.testing.assert_allclose(
            closest_separable_hs(r).distance, hs_entanglement(r).value, atol=1e-8
        )
        np.testing.assert_allclose(
            closest_classical(r, Norm.TRACE).distance, trace_discord(r).value, atol=1e-4
        )


@settings(max_examples=10)
@given(physical_vectors())
def test_classical_oracle_property(r):
    np.testing.assert_allclose(
        closest_classical(r, Norm.HS).distance, hs_discord(r).value, atol=1e-6
    )


@settings(max_examples=25)
@given(physical_vectors())
def test_trace_classical_oracle_property(r):
    np.testing.assert_allclose(
        closest_classical(r, Norm.TRACE).distance,
        trace_discord(r).value,
        atol=TOLERANCES["trace_discord_vs_closest_classical"],
    )


@settings(max_examples=25)
@given(xstates().filter(lambda x: concurrence_x(x).value > 0.0))
def test_xfamily_oracle_property(x):
    np.testing.assert_allclose(
        closest_separable_trace_xfamily(x).distance,
        concurrence_x(x).value,
        atol=TOLERANCES["xfamily_oracle_vs_concurrence"],
    )


# The lockstep searches must not depend on their neighbours: every batched
# result equals the one-state search bit for bit (repr covers the minimizer,
# the distance and the evaluations, and tells -0.0 from 0.0).


@pytest.mark.parametrize("norm", list(Norm))
def test_classical_lockstep_matches_single_searches(norm):
    states = physical_grid(5)
    assert 3 * len(states) > 2 * _BLOCK  # the state x axis searches fill several blocks
    batched = closest_classical_many(states, norm)
    assert list(map(repr, batched)) == [repr(closest_classical(r, norm)) for r in states]


def test_xfamily_lockstep_matches_single_searches():
    rng = np.random.default_rng(11)
    xs = [random_entangled_xstate(rng) for _ in range(200)]
    # a = d = t bounds both coherences by t: boxes over five decades, whose
    # searches stop at different zoom levels
    decades = [
        XState(t, 0.5 - t, 0.5 - t, t, 0.9 * t, 0.1 * (0.5 - t)) for t in (0.2, 1e-2, 1e-3, 1e-4, 1e-5)
    ]
    separable = XState(0.5, 0.25, 0.25, 0.0, 0.0, 0.0)  # a d = 0: no search
    xs = xs[:90] + decades[:3] + [separable] + decades[3:] + xs[90:]
    assert len(xs) > 3 * _BLOCK
    batched = closest_separable_trace_xfamily_many(xs)
    assert list(map(repr, batched)) == [repr(closest_separable_trace_xfamily(x)) for x in xs]
    assert batched[93].evaluations == 1 and batched[93].distance == 0.0
    levels = {res.evaluations for res in batched[90:96] if res.evaluations > 1}
    assert len(levels) == 5


def test_trace_norm_of_a_stack():
    deltas = np.array([np.zeros((4, 4)), np.diag([0.5, -0.5, 0.0, 0.0])])
    norms = trace_norm(deltas)
    assert isinstance(norms, np.ndarray) and norms.tolist() == [0.0, 1.0]
    assert isinstance(trace_norm(deltas[1]), float)
