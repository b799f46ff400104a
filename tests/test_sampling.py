import hashlib

import numpy as np
import pytest

from qcorr.errors import NonPhysical
from qcorr.quantifiers import concurrence_x
from qcorr.sampling import random_entangled_bd, random_entangled_xstate_columns, random_xstate, random_xstate_columns
from qcorr.states import XState, check_xstate_columns, x_density_columns


def _dirichlet_xstate(rng):
    """The draws of random_xstate as rng.dirichlet and rng.uniform calls, the
    reference that the columns must match bit for bit."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    re = np.sqrt(a * d) * np.sqrt(rng.uniform())
    rf = np.sqrt(b * c) * np.sqrt(rng.uniform())
    th_e, th_f = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return XState(a, b, c, d, re * np.exp(1j * th_e), rf * np.exp(1j * th_f))


def _rows(columns):
    a, b, c, d, e, f = columns
    return np.stack([a, b, c, d, e, f], axis=1).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_xstate_columns_equal_single_draws(seed):
    n = 7000  # 21,000 states over the three seeds
    columns = random_xstate_columns(np.random.default_rng(seed), n)
    for draw in (random_xstate, _dirichlet_xstate):
        rng = np.random.default_rng(seed)
        states = [draw(rng) for _ in range(n)]
        assert _rows(columns) == _rows([np.array([getattr(x, k) for x in states]) for k in "abcdef"])
    stack = x_density_columns(*columns)
    assert stack.shape == (n, 4, 4)
    for k in (0, 1, n - 1):
        assert stack[k].tobytes() == states[k].to_density().tobytes()


@pytest.mark.parametrize("seed", [0, 5])
def test_entangled_columns_consume_the_draws_of_one_state_at_a_time(seed):
    rng = np.random.default_rng(seed)
    columns = random_entangled_xstate_columns(rng, 500)
    after = rng.random()
    # the reference: draw one state at a time until its concurrence exceeds 1e-6
    ref = np.random.default_rng(seed)
    states = []
    while len(states) < 500:
        x = random_xstate(ref)
        if concurrence_x(x).value > 1e-6:
            states.append(x)
    assert _rows(columns) == _rows([np.array([getattr(x, k) for x in states]) for k in "abcdef"])
    assert ref.random() == after


def _scalar_message(row) -> str:
    with pytest.raises(NonPhysical) as info:
        XState(*row)
    return str(info.value)


@pytest.mark.parametrize(
    "corrupt",
    [
        {1: ("a", -0.1)},  # negative population, and a sum off 1
        {2: ("b", np.nan)},  # NaN after the first population: the finite check names it
        {3: ("d", 0.9)},  # sum off 1
        {2: ("e", 1.0)},  # |e| beyond sqrt(a d)
        {4: ("f", 0.5j), 1: ("e", 1.0)},  # the first failing row raises
    ],
)
def test_xstate_column_check_raises_the_scalar_message(corrupt):
    columns = dict(zip("abcdef", (col.copy() for col in random_xstate_columns(np.random.default_rng(4), 6))))
    for row, (name, value) in corrupt.items():
        columns[name][row] = value
    first = min(corrupt)
    expected = _scalar_message([columns[k][first] for k in "abcdef"])
    with pytest.raises(NonPhysical) as info:
        check_xstate_columns(*columns.values())
    assert str(info.value) == expected


def test_entangled_bd_draws_are_pinned():
    # the reprs of four draws per seed, with and without a moduli gap, for
    # seeds 0-99; the acceptance near the octahedron rounds with the order in
    # which the moduli are added
    h = hashlib.sha256()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for gap in (0.0, 0.0, 1e-3, 5e-3):
            h.update(repr(random_entangled_bd(rng, gap)).encode() + b"\0")
    assert h.hexdigest() == "b1d003f231eb64c12f388b1a958017382d4b4f8368af1db3f258d5e9f73b9701"


def test_xstate_draws_are_pinned():
    # the reprs of seven states' columns per seed, for seeds 0-99
    h = hashlib.sha256()
    for seed in range(100):
        h.update(repr(random_xstate_columns(np.random.default_rng(seed), 7)).encode())
    assert h.hexdigest() == "1881249c971d094af440a54e03e9e160f6cb3972bac6128cfb9c2a5bddb60061"
