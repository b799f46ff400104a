import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import REF, physical_vectors
from qcorr.errors import NonPhysical
from qcorr.quantifiers import wootters_concurrence
from qcorr.states import (
    CorrelationVector,
    RegionLabel,
    XState,
    bd_to_density,
    bd_to_xstate,
    bd_density_columns,
    bell_eigenvalues,
    check_bd_columns,
    check_xstate_columns,
    classify_region,
    density_to_bd,
    is_entangled_ppt,
    partial_transpose,
    validate_density,
)


def test_maximally_mixed():
    rho = bd_to_density(CorrelationVector(0, 0, 0))
    np.testing.assert_allclose(rho, np.eye(4) / 4)


def test_vertex_is_bell_projector():
    # (1, 1, -1) is the projector onto (|01> + |10>)/sqrt(2)
    rho = bd_to_density(CorrelationVector(1, 1, -1))
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(psi, psi), atol=1e-15)
    w = np.linalg.eigvalsh(rho)
    np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-15)


def test_reference_state_physical():
    r = CorrelationVector(*REF)
    rho = bd_to_density(r)
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    validate_density(rho)


def test_validate_density_rejects_nan():
    rho = bd_to_density(CorrelationVector(*REF))
    with pytest.raises(NonPhysical):
        validate_density(np.where(np.eye(4) == 1, np.nan, rho))


_NAN = np.full((4, 4), np.nan)
_TRACE = np.eye(4) / 4 * 1.1
_NON_HERMITIAN = np.eye(4) / 4 + np.triu(np.full((4, 4), 0.01), 1)
_NEGATIVE = np.diag([0.6, 0.6, -0.2, 0.0])


def _stack_with(bad: dict) -> np.ndarray:
    """Six valid Bell-diagonal matrices with bad[i] at position i."""
    stack = [bd_to_density(CorrelationVector(0.1 * k, -0.05 * k, 0.02)) for k in range(6)]
    for i, m in bad.items():
        stack[i] = m
    return np.array(stack)


def _message(rho, check=validate_density) -> str:
    with pytest.raises(NonPhysical) as info:
        check(rho)
    return str(info.value)


@pytest.mark.parametrize("bad", [_NAN, _TRACE, _NON_HERMITIAN, _NEGATIVE])
def test_validate_density_stack_reports_its_failing_matrix(bad):
    assert _message(_stack_with({3: bad})) == _message(bad)


@pytest.mark.parametrize(
    "first, later",
    [(_NEGATIVE, _NAN), (_NAN, _NEGATIVE), (_TRACE, _NON_HERMITIAN), (_NON_HERMITIAN, _TRACE)],
)
def test_validate_density_stack_reports_first_failing_matrix(first, later):
    assert _message(_stack_with({1: first, 4: later})) == _message(first)


@pytest.mark.parametrize(
    "first, later, text",
    [
        (_NEGATIVE, _NAN, "eigenvalue -0.2 is negative"),
        (_NAN, _NEGATIVE, "matrix is not Hermitian within 1e-12"),
        (_NON_HERMITIAN, _TRACE, "matrix is not Hermitian within 1e-12"),
        (_TRACE, _NEGATIVE, "trace is 1.1, expected 1"),
    ],
)
def test_wootters_stack_raises_the_validate_density_message(first, later, text):
    # wootters_concurrence reads positivity from its own eigh spectrum
    stack = _stack_with({1: first, 4: later})
    assert _message(stack, wootters_concurrence) == _message(stack) == _message(first) == text
    assert _message(first, wootters_concurrence) == text


def test_validate_density_accepts_a_valid_stack():
    stack = _stack_with({})
    assert validate_density(stack).shape == (6, 4, 4)
    with pytest.raises(NonPhysical, match="expected a 4x4 matrix"):
        validate_density(np.zeros((2, 2, 4, 4)))


def test_nonphysical_raises_with_eigenvalue():
    with pytest.raises(NonPhysical, match="eigenvalue -0.25"):
        CorrelationVector(2, 0, 0)


@pytest.mark.parametrize(
    "r", [(np.nan, 0, 0), (np.inf, 0, 0), (np.inf, -np.inf, np.inf), (0, np.nan, np.inf)]
)
def test_non_finite_vector_raises(r):
    with pytest.raises(NonPhysical, match="not finite"):
        CorrelationVector(*r)


def _alone(row) -> str | None:
    """The message one state raises on its own, None when it is physical."""
    try:
        CorrelationVector(*row)
    except NonPhysical as exc:
        return str(exc)
    return None


_COMPONENT = st.one_of(st.floats(-1.2, 1.2), st.sampled_from([np.nan, np.inf, -np.inf]))


@given(st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT), min_size=1, max_size=8))
@example([(0.1, 0.1, 0.1), (np.inf, np.inf, 0.0)])  # inf - inf in the eigenvalues, with no RuntimeWarning
def test_bd_column_check_raises_what_its_first_failing_row_raises(rows):
    expected = next((m for m in map(_alone, rows) if m is not None), None)
    columns = np.array(rows, dtype=float).T
    if expected is None:
        check_bd_columns(*columns)
        return
    with pytest.raises(NonPhysical) as info:
        check_bd_columns(*columns)
    assert str(info.value) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_bd_check_rejects_non_finite_components(axis, value):
    row = [0.1, -0.2, 0.3]
    row[axis] = value
    with pytest.raises(NonPhysical, match="not finite"):
        check_bd_columns(*row)
    columns = np.array([[0.1, 0.2, 0.3], row, [2.0, 0.0, 0.0]]).T  # the last row fails too
    with pytest.raises(NonPhysical, match="not finite"):
        check_bd_columns(*columns)


def test_density_stack_matches_single_states():
    rs = np.random.default_rng(9).uniform(-0.33, 0.33, (40, 3))  # inside the octahedron
    stack = bd_density_columns(*rs.T)
    assert stack.shape == (40, 4, 4)
    for r, rho in zip(rs, stack):
        assert rho.tobytes() == bd_to_density(CorrelationVector(*r)).tobytes()


def test_marginals_maximally_mixed():
    rho = bd_to_density(CorrelationVector(*REF))
    t = rho.reshape(2, 2, 2, 2)
    red_a = np.einsum("ijkj->ik", t)
    red_b = np.einsum("jijk->ik", t)
    np.testing.assert_allclose(red_a, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(red_b, np.eye(2) / 2, atol=1e-15)


def test_round_trip_reference_states():
    for r in [(-0.7, -0.7, -0.7), REF, (0, 0, 0)]:
        rv = CorrelationVector(*r)
        back = density_to_bd(bd_to_density(rv))
        np.testing.assert_allclose(back.as_array(), rv.as_array(), atol=1e-12)


@given(physical_vectors())
def test_round_trip_property(r):
    back = density_to_bd(bd_to_density(r))
    np.testing.assert_allclose(back.as_array(), r.as_array(), atol=1e-12)


@given(physical_vectors())
def test_bell_eigenvalues_match_numeric(r):
    rho = bd_to_density(r)
    np.testing.assert_allclose(
        sorted(bell_eigenvalues(r.r1, r.r2, r.r3)),
        np.linalg.eigvalsh(rho),
        atol=1e-12,
    )


def test_bd_to_xstate_examples():
    assert bd_to_xstate(CorrelationVector(0, 0, 0)) == XState(0.25, 0.25, 0.25, 0.25, 0, 0)
    x = bd_to_xstate(CorrelationVector(1, 1, -1))
    assert (x.a, x.b, x.c, x.d) == (0, 0.5, 0.5, 0)
    assert x.e == 0 and x.f == 0.5
    x = bd_to_xstate(CorrelationVector(*REF))
    np.testing.assert_allclose(
        [x.a, x.b, x.c, x.d, x.e.real, x.f.real],
        [0.155, 0.345, 0.345, 0.155, 0.015, 0.31],
        atol=1e-15,
    )


@given(physical_vectors())
def test_xstate_embedding_matches_density(r):
    np.testing.assert_allclose(
        bd_to_xstate(r).to_density(), bd_to_density(r), atol=1e-14
    )


def test_classify_examples():
    assert classify_region(CorrelationVector(1, 1, -1)) is RegionLabel.ENTANGLED
    assert classify_region(CorrelationVector(0.3, 0, 0)) is RegionLabel.CLASSICAL
    assert classify_region(CorrelationVector(*REF)) is RegionLabel.ENTANGLED
    assert (
        classify_region(CorrelationVector(0.3, 0.3, 0.3))
        is RegionLabel.SEPARABLE_NONCLASSICAL
    )


@given(physical_vectors())
def test_classify_matches_ppt(r):
    # skip near the octahedron boundary where both tests are tolerance-limited
    margin = sum(r.abs_triple()) - 1.0
    if abs(margin) < 1e-9:
        return
    entangled = classify_region(r) is RegionLabel.ENTANGLED
    assert entangled == is_entangled_ppt(bd_to_density(r))


def test_partial_transpose_involution():
    rho = bd_to_density(CorrelationVector(*REF))
    np.testing.assert_allclose(partial_transpose(partial_transpose(rho)), rho)


def test_xstate_invariants():
    with pytest.raises(NonPhysical, match="exceeds"):
        XState(0.25, 0.25, 0.25, 0.25, 0.3, 0)
    with pytest.raises(NonPhysical, match="sum"):
        XState(0.5, 0.5, 0.5, 0.5, 0, 0)
    for bad in ((np.nan, 0.5, 0.25, 0.25, 0, 0), (0.25, 0.25, 0.25, 0.25, np.nan, 0),
                (0.25, 0.25, 0.25, 0.25, 0, complex(np.inf, 0))):
        with pytest.raises(NonPhysical):
            XState(*bad)


_X_OK = (0.4, 0.1, 0.2, 0.3, 0.1 + 0.05j, 0.05j)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", range(6), ids=list("abcdef"))
def test_xstate_rejects_non_finite_entries(slot, value):
    row = list(_X_OK)
    row[slot] = value
    shown = [abs(v) if k >= 4 else v for k, v in enumerate(row)]
    message = "X state (a, b, c, d, |e|, |f|) = (%g, %g, %g, %g, %g, %g) is not finite" % tuple(shown)
    with pytest.raises(NonPhysical) as info:
        XState(*row)
    assert str(info.value) == message
    # the failing row sits between a physical one and one whose sum is off
    columns = [np.array([ok, bad, ok], dtype=complex if k >= 4 else float)
               for k, (ok, bad) in enumerate(zip(_X_OK, row))]
    columns[3][2] = 0.9
    with pytest.raises(NonPhysical) as info:
        check_xstate_columns(*columns)
    assert str(info.value) == message



@pytest.mark.parametrize(
    "infinite",
    [{"a": np.inf, "d": 0.0},  # inf * 0 in sqrt(a*d)
     {"a": np.inf, "b": -np.inf}],  # inf - inf in the population sum
    ids=["product", "sum"],
)
def test_xstate_column_check_reports_non_finite_without_numpy_warnings(infinite):
    columns = {k: np.array([0.25, 0.25]) for k in "abcd"}
    columns.update(e=np.zeros(2, dtype=complex), f=np.zeros(2, dtype=complex))
    for name, value in infinite.items():
        columns[name][1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPhysical, match="is not finite"):
            check_xstate_columns(*columns.values())

def test_json_round_trips():
    r = CorrelationVector(*REF)
    assert CorrelationVector.from_json(r.to_json()) == r
    x = bd_to_xstate(r)
    assert XState.from_json(x.to_json()) == x
    x2 = XState(0.4, 0.2, 0.2, 0.2, 0.1 + 0.05j, 0.1j)
    assert XState.from_json(x2.to_json()) == x2


def test_density_matrices_are_read_only():
    rho = bd_to_density(CorrelationVector(*REF))
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0
