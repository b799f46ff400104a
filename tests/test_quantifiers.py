import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from conftest import REF, physical_vectors, xstates
from qcorr.errors import NonPhysical
from qcorr.quantifiers import (
    concurrence_columns,
    concurrence_x,
    hs_axis_distances,
    hs_discord,
    hs_discord_columns,
    hs_entanglement,
    hs_entanglement_columns,
    trace_discord,
    trace_discord_columns,
    wootters_concurrence,
)
from qcorr.states import (
    CorrelationVector,
    RegionLabel,
    XState,
    bd_to_density,
    bd_to_xstate,
    bd_xstate_columns,
    classify_region,
    octahedron_margin,
)


def test_hs_discord_examples():
    q = hs_discord(CorrelationVector(0.3, 0, 0))
    assert q.value == 0 and q.branch == "D1"
    q = hs_discord(CorrelationVector(*REF))
    assert q.branch == "D1"
    np.testing.assert_allclose(q.value, 0.59**2 + 0.38**2)  # 0.4925
    np.testing.assert_allclose(hs_discord(CorrelationVector(1, 1, -1)).value, 2.0)


def test_hs_entanglement_examples():
    assert hs_entanglement(CorrelationVector(0.2, 0.2, 0.2)).value == 0
    np.testing.assert_allclose(
        hs_entanglement(CorrelationVector(*REF)).value, 0.62**2 / 3
    )
    np.testing.assert_allclose(
        hs_entanglement(CorrelationVector(1, 1, -1)).value, 4 / 3
    )


def test_trace_discord_examples():
    assert trace_discord(CorrelationVector(0.3, 0, 0)).value == 0
    q = trace_discord(CorrelationVector(*REF))
    assert q.value == 0.59 and q.branch == "r2"
    assert trace_discord(CorrelationVector(1, 1, -1)).value == 1.0


def test_concurrence_examples():
    assert concurrence_x(XState(0.25, 0.25, 0.25, 0.25, 0, 0)).value == 0
    bell = XState(0, 0.5, 0.5, 0, 0, 0.5)
    assert concurrence_x(bell).value == 1.0
    q = concurrence_x(bd_to_xstate(CorrelationVector(*REF)))
    np.testing.assert_allclose(q.value, 0.31, atol=1e-15)
    assert q.branch == "C2"
    sep = concurrence_x(XState(0.4, 0.1, 0.1, 0.4, 0.1, 0.05))
    assert sep.value == 0.0 and sep.branch is None


def test_wootters_examples():
    assert wootters_concurrence(np.eye(4) / 4) == 0.0
    bell = bd_to_density(CorrelationVector(1, 1, -1))
    np.testing.assert_allclose(wootters_concurrence(bell), 1.0, atol=1e-12)
    rho = bd_to_density(CorrelationVector(*REF))
    np.testing.assert_allclose(
        wootters_concurrence(rho),
        concurrence_x(bd_to_xstate(CorrelationVector(*REF))).value,
        atol=1e-10,
    )


@given(physical_vectors())
def test_wootters_matches_x_formula(r):
    np.testing.assert_allclose(
        wootters_concurrence(bd_to_density(r)),
        concurrence_x(bd_to_xstate(r)).value,
        atol=1e-10,
    )


@given(xstates())
def test_wootters_matches_x_formula_general(x):
    np.testing.assert_allclose(
        wootters_concurrence(x.to_density()), concurrence_x(x).value, atol=1e-10
    )


def test_wootters_stack_matches_single_matrices():
    from qcorr.sampling import random_xstate

    rng = np.random.default_rng(5)
    # 2000 matrices: the stack is worked through in two blocks
    rhos = np.array([random_xstate(rng).to_density() for _ in range(2000)])
    stacked = wootters_concurrence(rhos)
    single = [wootters_concurrence(rho) for rho in rhos]
    assert isinstance(stacked, np.ndarray) and isinstance(single[0], float)
    assert stacked.tolist() == single


def test_wootters_ill_conditioned_corner():
    # populations at rounding scale with |e| on the physicality bound: the
    # concurrence has unbounded condition number (a 1e-16 shift of d moves it
    # by its full ~6e-9 value), so the spectral oracle is only asked to agree
    # at the intrinsic noise scale here
    x = XState(
        a=0.6666666666666665,
        b=0.33333333333333326,
        c=1.480297366166875e-16,
        d=1.480297366166875e-16,
        e=9.934107462565102e-09,
        f=0,
    )
    dev = abs(wootters_concurrence(x.to_density()) - concurrence_x(x).value)
    assert dev <= 1e-8


@given(physical_vectors())
def test_concurrence_is_half_the_positive_margin(r):
    # the identity the trace relation inverts: C = max(0, |r1| + |r2| + |r3| - 1) / 2
    conc, _ = concurrence_columns(*bd_xstate_columns(r.r1, r.r2, r.r3))
    assert abs(conc - max(0.0, octahedron_margin(r.r1, r.r2, r.r3)) / 2.0) <= 2.3e-16


@given(physical_vectors())
def test_permutation_and_sign_symmetry(r):
    base = (
        hs_discord(r).value,
        hs_entanglement(r).value,
        trace_discord(r).value,
    )
    triple = (r.r1, r.r2, r.r3)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            try:
                other = CorrelationVector(*(signs[k] * triple[perm[k]] for k in range(3)))
            except NonPhysical:
                continue  # the image left the tetrahedron; formula symmetry moot
            np.testing.assert_allclose(hs_discord(other).value, base[0], atol=1e-12)
            np.testing.assert_allclose(hs_entanglement(other).value, base[1], atol=1e-12)
            np.testing.assert_allclose(trace_discord(other).value, base[2], atol=1e-12)


@given(physical_vectors())
def test_zero_set_agreement(r):
    region = classify_region(r)
    e_hs = hs_entanglement(r).value
    e_tr = concurrence_x(bd_to_xstate(r)).value
    margin = sum(r.abs_triple()) - 1.0
    if abs(margin) > 1e-9:
        assert (e_hs > 0) == (region is RegionLabel.ENTANGLED)
        assert (e_tr > 0) == (region is RegionLabel.ENTANGLED)
    d_hs, d_tr = hs_discord(r).value, trace_discord(r).value
    s = sorted(r.abs_triple())
    if s[1] > 1e-9 or s[1] == 0.0:  # away from the classical boundary
        assert (d_hs == 0) == (region is RegionLabel.CLASSICAL)
        assert (d_tr == 0) == (region is RegionLabel.CLASSICAL)


@pytest.mark.parametrize("r3,branch", [(0.38, "C1"), (-0.38, "C2")])
def test_concurrence_branch_follows_r3_sign(r3, branch):
    # dephasing keeps r3 fixed, so the winning branch never switches
    from qcorr.channels import ChannelKind, evolved_vector

    r0 = CorrelationVector(0.65, -0.59 * np.sign(r3), r3)
    for p in np.linspace(0.0, 1.0, 21):
        q = concurrence_x(bd_to_xstate(evolved_vector(ChannelKind.PHASE_DAMPING, r0, p)))
        if q.value > 0:
            assert q.branch == branch


def test_columns_match_single_states():
    # A lattice full of ties and signed zeros: the array path (np.where) must
    # pick the same value and index as the number path, and the index must
    # follow argmin (HS) and the stable middle of three (trace).
    vals = (0.0, -0.0, 0.1, -0.1, 0.2, -0.2, 0.5, -0.5, 1.0, -1.0)
    states = []
    for t in itertools.product(vals, repeat=3):
        try:
            states.append(CorrelationVector(*t))
        except NonPhysical:
            continue
    r1, r2, r3 = np.array([(r.r1, r.r2, r.r3) for r in states]).T
    d_hs, i_hs = hs_discord_columns(r1, r2, r3)
    d_tr, i_tr = trace_discord_columns(r1, r2, r3)
    e_hs = hs_entanglement_columns(r1, r2, r3)
    conc, k = concurrence_columns(*bd_xstate_columns(r1, r2, r3))
    for n, r in enumerate(states):
        assert (d_hs[n], "D%d" % (i_hs[n] + 1)) == (hs_discord(r).value, hs_discord(r).branch)
        assert (d_tr[n], "r%d" % (i_tr[n] + 1)) == (trace_discord(r).value, trace_discord(r).branch)
        assert e_hs[n] == hs_entanglement(r).value
        cx = concurrence_x(bd_to_xstate(r))
        assert (conc[n], "C%d" % k[n] if k[n] else None) == (cx.value, cx.branch)
    np.testing.assert_array_equal(i_hs, np.argmin(hs_axis_distances(r1, r2, r3), axis=0))
    s_abs = np.abs(np.stack([r1, r2, r3], axis=1))
    np.testing.assert_array_equal(i_tr, np.argsort(s_abs, axis=1, kind="stable")[:, 1])


_SPECIAL = (0.25, math.nan, math.inf, 0.0, -0.0)


@pytest.mark.parametrize("func, arity, values", [
    (hs_discord_columns, 3, _SPECIAL + (-0.25, 1.0, -math.inf)),
    (hs_entanglement_columns, 3, _SPECIAL + (-0.25, 1.0, -math.inf)),
    (trace_discord_columns, 3, _SPECIAL + (-0.25, 1.0, -math.inf)),
    (concurrence_columns, 6, _SPECIAL),  # 5 ** 6 = 15,625 rows
], ids=lambda v: getattr(v, "__name__", None))
def test_number_and_array_paths_agree_on_special_values(func, arity, values):
    # One number call per input against one array call with an input per row,
    # each row computed on its own: equal values and indices, NaN in the same
    # places and the same sign bit: concurrence_columns(0.25, 0.25, 0.25, nan,
    # 0.25, 0.25) is (0.0, 0) both ways, not (0.5, 2), "entangled", for numbers.
    rows = list(itertools.product(values, repeat=arity))
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are NaN in both paths
        columns = func(*(np.array(c) for c in zip(*rows)))
    numbers = [func(*row) for row in rows]
    if not isinstance(columns, tuple):
        columns, numbers = (columns,), [(n,) for n in numbers]
    for k, column in enumerate(columns):
        number = np.array([n[k] for n in numbers], dtype=column.dtype)
        assert column.shape == number.shape
        np.testing.assert_array_equal(np.isnan(column), np.isnan(number))
        np.testing.assert_array_equal(np.signbit(column), np.signbit(number))
        np.testing.assert_array_equal(column, number)  # NaN equal to NaN
