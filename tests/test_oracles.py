import numpy as np
import pytest
from hypothesis import given, settings

from conftest import REF, physical_vectors, xstates
import qcorr.oracles
from qcorr.oracles import (
    _grid_min,
    OracleResult,
    clamped_minimizer,
    closest_classical,
    closest_classical_columns,
    closest_separable_hs,
    closest_separable_trace_xfamily,
    closest_separable_trace_xfamily_columns,
    hs_operator_sq,
    trace_norm,
)
from qcorr.quantifiers import (
    Norm,
    concurrence_x,
    hs_discord,
    hs_discord_columns,
    hs_entanglement,
    trace_discord,
    trace_discord_columns,
)
from qcorr.sampling import random_bd_vector, random_entangled_xstate_columns
from qcorr.states import CorrelationVector, XState, bd_to_density, bd_to_xstate
from qcorr.verify import TOLERANCES, physical_grid


# searches per block in the tests that cross block boundaries; the library's
# blocks hold 1024 searches, so a default verify's 1494 classical searches
# (both norms, 249 states, 3 axes) take two
_BLOCK = 64


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(qcorr.oracles, "_STACK_BLOCK", _BLOCK)


def _grid_states(n: int) -> list[CorrelationVector]:
    return [CorrelationVector(*r) for r in physical_grid(n)]


def _results(make, found) -> list[OracleResult]:
    """The OracleResult of every row of a columns oracle's (minimizer, distance, evaluations)."""
    minimizer, distance, evaluations = found
    return [OracleResult(make(*(col[k] for col in minimizer)), float(distance[k]), int(evaluations[k]))
            for k in range(len(distance))]


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
    # per axis: 27 levels, the half-width halving from 1 to 2**-27 <= 1e-8; the
    # first evaluates 5 points, each later one the 2 midpoints it adds
    assert res.evaluations == 3 * (5 + 26 * 2)

    res = closest_classical(CorrelationVector(*REF), Norm.TRACE)
    np.testing.assert_allclose(res.distance, 0.59, atol=1e-4)
    assert res.evaluations == 3 * (5 + 26 * 2)


def test_closest_separable_hs_examples():
    assert closest_separable_hs(CorrelationVector(0.2, 0.2, 0.2)).distance == 0.0
    res = closest_separable_hs(CorrelationVector(*REF))
    np.testing.assert_allclose(res.distance, 0.62**2 / 3, atol=1e-8)
    res = closest_separable_hs(CorrelationVector(1, 1, -1))
    np.testing.assert_allclose(res.distance, 4 / 3, atol=1e-8)
    np.testing.assert_allclose(np.abs(res.minimizer.as_array()), [1 / 3] * 3, atol=1e-12)


def test_closest_separable_hs_minimizer_feasible():
    for r in _grid_states(7):
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
    for r in _grid_states(5):
        np.testing.assert_allclose(
            closest_classical(r, Norm.HS).distance, hs_discord(r).value, atol=1e-6
        )
        np.testing.assert_allclose(
            closest_separable_hs(r).distance, hs_entanglement(r).value, atol=1e-8
        )
        np.testing.assert_allclose(
            closest_classical(r, Norm.TRACE).distance, trace_discord(r).value, atol=1e-4
        )


def test_classical_distances_match_the_closed_forms():
    # both norms measure the operator difference; on these states each search
    # lands on the closed form's value up to rounding
    rng = np.random.default_rng(6)
    dirichlet = np.array([random_bd_vector(rng).as_array() for _ in range(2000)])
    for states in (physical_grid(9), dirichlet):
        r = states.T
        found = closest_classical_columns(*r)
        assert np.abs(found[Norm.HS][1] - hs_discord_columns(*r)[0]).max() <= 1e-14
        assert np.abs(found[Norm.TRACE][1] - trace_discord_columns(*r)[0]).max() <= 1e-14


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
def test_classical_lockstep_matches_single_searches(norm, small_blocks):
    grid = physical_grid(5)
    # the norm x state x axis searches fill several blocks: some hold one
    # norm's searches only (an empty stack for the other), one holds both
    assert 3 * len(grid) % _BLOCK and 3 * len(grid) > 2 * _BLOCK
    batched = _results(CorrelationVector, closest_classical_columns(*grid.T)[norm])
    assert list(map(repr, batched)) == [repr(closest_classical(r, norm)) for r in _grid_states(5)]


# a = d = t bounds both coherences by t: boxes over five decades, whose
# searches stop at different zoom levels; the clamped |f| sits on the box
# edge, except at t = 0.2
DECADES = [XState(t, 0.5 - t, 0.5 - t, t, 0.9 * t, 0.1 * (0.5 - t)) for t in (0.2, 1e-2, 1e-3, 1e-4, 1e-5)]


def test_xfamily_lockstep_matches_single_searches(small_blocks):
    rng = np.random.default_rng(11)
    drawn = random_entangled_xstate_columns(rng, 200)
    xs = [XState(*row) for row in zip(*drawn)]
    separable = XState(0.5, 0.25, 0.25, 0.0, 0.0, 0.0)  # a d = 0: no search
    xs = xs[:90] + DECADES[:3] + [separable] + DECADES[3:] + xs[90:]
    assert len(xs) > 3 * _BLOCK
    columns = [np.array([getattr(x, k) for x in xs]) for k in "abcdef"]
    batched = _results(XState, closest_separable_trace_xfamily_columns(*columns))
    assert list(map(repr, batched)) == [repr(closest_separable_trace_xfamily(x)) for x in xs]
    assert batched[93].evaluations == 1 and batched[93].distance == 0.0
    levels = {res.evaluations for res in batched[90:96] if res.evaluations > 1}
    assert len(levels) == 5


def _levels(half_width: float, refine_to: float) -> int:
    """Zoom levels of a 5-point search: each halves the half-width, down to refine_to."""
    levels = 0
    while True:
        half_width /= 2.0
        levels += 1
        if half_width <= refine_to:
            return levels


def _evaluations(levels: int, dims: int) -> int:
    """The first grid's 5^dims points, then the 5^dims - 3^dims new points of each later level."""
    return 5**dims + (levels - 1) * (5**dims - 3**dims)


def test_search_evaluations_are_levels_times_grid_points():
    for r in (CorrelationVector(*REF), CorrelationVector(0.3, 0.0, 0.0), CorrelationVector(1, -1, 1)):
        for norm in Norm:
            # one search per axis over [-1, 1], to 1e-8
            assert closest_classical(r, norm).evaluations == 3 * _evaluations(_levels(1.0, 1e-8), 1)
    rng = np.random.default_rng(3)
    for x in DECADES + [XState(*row) for row in zip(*random_entangled_xstate_columns(rng, 20))]:
        bound = min(np.sqrt(x.a * x.d), np.sqrt(x.b * x.c))
        # one search over [0, bound]^2 to 1e-7, and the distance of its minimizer
        expected = _evaluations(_levels(bound / 2.0, 1e-7), 2) + 1
        assert closest_separable_trace_xfamily(x).evaluations == expected


@pytest.mark.parametrize("dims", [1, 2])
def test_zoom_never_evaluates_a_point_twice(dims, small_blocks):
    # boxes over several decades, minima inside, on edges and on corners
    lo = np.array([-1.0, 0.0, 0.0, 0.0, -3.0, 0.0] * 15)
    hi = np.array([1.0, 1e-3, 0.5, 2.0, -1.0, 1e-5] * 15)
    target = np.random.default_rng(1).uniform(-4.0, 3.0, size=(len(lo), dims))
    for k in range(len(lo)):
        target[k, : k % (dims + 1)] = (lo[k], hi[k])[k % 2]
    seen = [set() for _ in lo]  # the points f received, per search

    def f(active, *coords):
        for row, s in enumerate(active):
            for point in zip(*(c[row] for c in coords)):
                assert point not in seen[s]
                seen[s].add(point)
        return sum(np.abs(c - target[active, d, None]) for d, c in enumerate(coords))

    _, _, evals = _grid_min(f, lo, hi, dims, 1e-9)
    assert [len(points) for points in seen] == evals.tolist()
    assert len(lo) > _BLOCK


def _dense_min(f, lo: float, hi: float, dims: int, points: int) -> float:
    axis = np.linspace(lo, hi, points)
    coords = np.meshgrid(*([axis] * dims), indexing="ij")
    return float(f(np.array([0]), *(c.ravel()[None] for c in coords)).min())


# convex functions of one point per search, with a Lipschitz constant L in the
# max-norm on [-1, 1]^dims: |f(x) - f(y)| <= L max_d |x_d - y_d|
CONVEX = [
    (1, lambda t: np.abs(t - 0.3141), 1.0),
    (1, lambda t: np.abs(t - 1.7), 1.0),  # minimum on the box edge t = 1
    (1, lambda t: np.maximum(np.abs(t) - 0.3, 0.0), 1.0),  # flat on [-0.3, 0.3]
    (1, lambda t: (t + 0.61) ** 2, 2 * 1.61),
    (2, lambda a, b: np.abs(a - 0.2) + 3.0 * np.abs(b + 0.77), 4.0),
    (2, lambda a, b: np.abs(a + 2.0) + np.abs(b - 0.123), 2.0),  # minimum on the edge a = -1
    (2, lambda a, b: np.abs(a - 5.0) + np.abs(b + 5.0), 2.0),  # minimum on the corner (1, -1)
    (2, lambda a, b: (a - 0.37) ** 2 + (b - 0.5) ** 2, 2 * 1.37 + 2 * 1.5),
    (2, lambda a, b: np.maximum(np.abs(a) + np.abs(b) - 0.5, 0.0), 2.0),  # flat on a diamond
]


@pytest.mark.parametrize("dims, g, lipschitz", CONVEX)
@pytest.mark.parametrize("refine_to", [1e-2, 1e-4])
def test_zoom_finds_the_minimum_of_convex_functions(dims, g, lipschitz, refine_to):
    def f(active, *coords):
        return g(*coords)

    _, value, _ = _grid_min(f, np.array([-1.0]), np.array([1.0]), dims, refine_to)
    points = 2001 if dims == 1 else 401
    dense = _dense_min(f, -1.0, 1.0, dims, points)
    # the dense grid's minimum lies within L spacing / 2 above the true minimum
    assert dense - lipschitz * (1.0 / (points - 1)) <= value[0] <= dense + lipschitz * refine_to


def test_zoom_reaches_minima_on_box_edges():
    for x in DECADES:
        clamped = trace_norm(x.to_density() - clamped_minimizer(x).to_density())
        assert abs(closest_separable_trace_xfamily(x).distance - clamped) <= 1e-7
    # at a vertex every axis search has its minimum at t = +-1, an end of its box
    for r in (CorrelationVector(1, -1, 1), CorrelationVector(-1, -1, -1)):
        for norm, closed_form in ((Norm.HS, hs_discord), (Norm.TRACE, trace_discord)):
            res = closest_classical(r, norm)
            assert abs(res.distance - closed_form(r).value) <= 1e-7
            assert abs(np.abs(res.minimizer.as_array()).max() - 1.0) <= 1e-7


def test_trace_norm_of_a_stack():
    deltas = np.array([np.zeros((4, 4)), np.diag([0.5, -0.5, 0.0, 0.0])])
    norms = trace_norm(deltas)
    assert isinstance(norms, np.ndarray) and norms.tolist() == [0.0, 1.0]
    assert isinstance(trace_norm(deltas[1]), float)


def test_hs_operator_sq_of_a_stack():
    deltas = np.random.default_rng(2).normal(size=(3, 5, 4, 4)) * (1 + 1j)
    norms = hs_operator_sq(deltas)
    assert isinstance(norms, np.ndarray) and norms.shape == (3, 5)
    assert norms.tolist() == [[hs_operator_sq(d) for d in row] for row in deltas]
    assert isinstance(hs_operator_sq(deltas[0, 0]), float)


@pytest.mark.parametrize("shape", [(0, 4, 4), (0, 5, 4, 4)])
def test_operator_norms_of_an_empty_stack(shape):
    for norm in (hs_operator_sq, trace_norm):
        norms = norm(np.zeros(shape))
        assert isinstance(norms, np.ndarray) and norms.shape == shape[:-2]
