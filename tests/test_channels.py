import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import REF, physical_vectors
from qcorr.channels import (
    ChannelKind,
    apply_local_pair,
    decay_factors,
    evolved_vector,
    inverse_decay_p,
    kraus_for,
    monotone_p_max,
    parse_channel_spec,
)
from qcorr.errors import OutOfRange
from qcorr.states import CorrelationVector, bd_to_density, density_to_bd

ALL_KINDS = list(ChannelKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.8, 1.0])
def test_completeness(kind, p):
    assert kraus_for(kind, p).completeness_defect() < 1e-12


def test_kraus_examples():
    ch = kraus_for(ChannelKind.PHASE_DAMPING, 0.0)
    np.testing.assert_allclose(ch.operators[0], np.eye(2))
    np.testing.assert_allclose(ch.operators[1], 0 * np.eye(2))

    ch = kraus_for(ChannelKind.PHASE_DAMPING, 0.5)
    np.testing.assert_allclose(ch.operators[0], np.sqrt(0.5) * np.eye(2))

    ch = kraus_for(ChannelKind.DEPOLARIZING, 1.0)
    weights = [np.trace(k.conj().T @ k).real / 2 for k in ch.operators]
    np.testing.assert_allclose(weights, [0.25, 0.25, 0.25, 0.25])


def test_out_of_range():
    with pytest.raises(OutOfRange):
        kraus_for(ChannelKind.PHASE_DAMPING, 1.5)
    with pytest.raises(OutOfRange):
        evolved_vector(ChannelKind.BIT_FLIP, CorrelationVector(*REF), -0.1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_identity_at_p_zero(kind):
    rho = bd_to_density(CorrelationVector(*REF))
    out = apply_local_pair(rho, kraus_for(kind, 0.0))
    np.testing.assert_allclose(out, rho, atol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unital_fixed_point(kind):
    rho = np.eye(4) / 4
    out = apply_local_pair(rho, kraus_for(kind, 0.37))
    np.testing.assert_allclose(out, rho, atol=1e-14)


def test_evolved_vector_examples():
    r = CorrelationVector(*REF)
    np.testing.assert_allclose(
        evolved_vector(ChannelKind.PHASE_DAMPING, r, 0.0).as_array(), r.as_array()
    )
    # full dephasing lands on the r3 axis
    end = evolved_vector(ChannelKind.PHASE_DAMPING, CorrelationVector(-0.7, -0.7, -0.7), 1.0)
    np.testing.assert_allclose(end.as_array(), [0, 0, -0.7], atol=1e-15)
    half = evolved_vector(ChannelKind.DEPOLARIZING, r, 0.5)
    np.testing.assert_allclose(half.as_array(), [0.1625, 0.1475, -0.095], atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_analytic_matches_kraus_pipeline(kind):
    # closed-form evolved vector against the numeric Kraus sum
    for r in [CorrelationVector(*REF), CorrelationVector(-0.7, -0.7, -0.7)]:
        for p in np.linspace(0.0, 1.0, 11):
            rho = apply_local_pair(bd_to_density(r), kraus_for(kind, p))
            np.testing.assert_allclose(
                density_to_bd(rho).as_array(),
                evolved_vector(kind, r, p).as_array(),
                atol=1e-12,
            )


@given(physical_vectors(), st.floats(0.0, 1.0))
def test_evolved_stays_physical(r, p):
    for kind in ALL_KINDS:
        evolved_vector(kind, r, p)  # constructor validates the tetrahedron


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decay_factors_monotone(kind):
    ps = np.linspace(0.0, monotone_p_max(kind), 101)
    factors = np.array([decay_factors(kind, p) for p in ps])
    assert (np.diff(factors, axis=0) <= 1e-15).all()



@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inverse_decay_p_inverts_the_decaying_factor(kind):
    p_max = monotone_p_max(kind)
    for p in np.linspace(0.0, p_max, 101).tolist():
        g = min(decay_factors(kind, p))  # a decaying axis; the preserved one reads 1.0
        assert abs(inverse_decay_p(kind, g) - p) <= 1e-15
    # the factor reaches 0 at the end of the monotone domain
    assert min(decay_factors(kind, p_max)) == 0.0
    assert inverse_decay_p(kind, 0.0) == p_max

def test_parse_channel_spec():
    assert parse_channel_spec("pd") == ChannelKind.PHASE_DAMPING
    assert parse_channel_spec("BPF") == ChannelKind.BIT_PHASE_FLIP
    assert parse_channel_spec(" depol ") == ChannelKind.DEPOLARIZING
    # no probability suffix: "pd:0.3" is an unknown channel name
    for spec in ("amp", "pd:0.3", "depol:0.3", ""):
        with pytest.raises(OutOfRange, match="unknown channel"):
            parse_channel_spec(spec)
