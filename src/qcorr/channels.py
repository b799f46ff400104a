"""Local single-qubit decoherence channels applied symmetrically to both qubits.

Each channel is a Kraus set {K_m} with sum_m K_m^dag K_m = I, acting on a
two-qubit state as rho -> sum_{m,n} (K_m x K_n) rho (K_m x K_n)^dag with the
same probability parameter p on both sides.  All five channels map
Bell-diagonal states to Bell-diagonal states; `evolved_vector` gives the
closed-form image of the correlation vector and `apply_local_pair` the full
numeric Kraus sum, which must agree.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import OutOfRange
from .quantifiers import square
from .states import SIGMA_1, SIGMA_2, SIGMA_3, CorrelationVector

_I2 = np.eye(2, dtype=complex)


class ChannelKind(enum.Enum):
    PHASE_DAMPING = "pd"
    BIT_FLIP = "bf"
    BIT_PHASE_FLIP = "bpf"
    PHASE_FLIP = "pf"
    DEPOLARIZING = "depol"


# Correlation axis left untouched by the channel (None: all axes decay).
PRESERVED_AXIS = {
    ChannelKind.PHASE_DAMPING: 2,
    ChannelKind.BIT_FLIP: 0,
    ChannelKind.BIT_PHASE_FLIP: 1,
    ChannelKind.PHASE_FLIP: 2,
    ChannelKind.DEPOLARIZING: None,
}

# Rate c of the factor g = (1 - c p)^2 by which every other axis decays.
DECAY_RATE = {
    ChannelKind.PHASE_DAMPING: 1.0,
    ChannelKind.BIT_FLIP: 1.0,
    ChannelKind.BIT_PHASE_FLIP: 1.0,
    ChannelKind.PHASE_FLIP: 2.0,
    ChannelKind.DEPOLARIZING: 1.0,
}


def _check_p(p):
    """p as a float, or as a float array, with every value inside [0, 1]."""
    if isinstance(p, np.ndarray):
        p = p.astype(float, copy=False)
        lo, hi = np.min(p), np.max(p)
    else:
        p = lo = hi = float(p)
    if not 0.0 <= lo <= hi <= 1.0:  # False for NaN too
        bad = hi if lo >= 0.0 else lo
        raise OutOfRange("channel probability p = %g outside [0, 1]" % bad)
    return p


def _projectors(sigma: np.ndarray) -> tuple:
    """(I + sigma)/2 and (I - sigma)/2, the projectors onto the eigenvectors of sigma."""
    return (_I2 + sigma) / 2.0, (_I2 - sigma) / 2.0


def kraus_for(kind: ChannelKind, p: float) -> np.ndarray:
    """Kraus operators of a single-qubit channel with probability p, as one
    read-only (m, 2, 2) array.

    Bit flip and bit-phase flip are the phase-damping set conjugated by the
    rotations that map sigma_3 to sigma_1 and sigma_3 to sigma_2, i.e. the
    dephasing projectors are taken along the x and y axes instead of z.
    """
    p = _check_p(p)
    sq, sp = math.sqrt(1.0 - p), math.sqrt(p)
    if kind is ChannelKind.PHASE_DAMPING:
        ops = (sq * _I2, *(sp * q for q in _projectors(SIGMA_3)))
    elif kind is ChannelKind.BIT_FLIP:
        ops = (sq * _I2, *(sp * q for q in _projectors(SIGMA_1)))
    elif kind is ChannelKind.BIT_PHASE_FLIP:
        ops = (sq * _I2, *(sp * q for q in _projectors(SIGMA_2)))
    elif kind is ChannelKind.PHASE_FLIP:
        ops = (sq * _I2, sp * SIGMA_3)
    elif kind is ChannelKind.DEPOLARIZING:
        sp = math.sqrt(p / 4.0)
        ops = (math.sqrt(1.0 - 0.75 * p) * _I2, sp * SIGMA_1, sp * SIGMA_2, sp * SIGMA_3)
    else:
        raise OutOfRange("unknown channel kind %r" % kind)
    ops = np.array(ops)
    ops.flags.writeable = False
    return ops


def apply_local_pair(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Kraus sum sum_{m,n} (K_m x K_n) rho (K_m x K_n)^dag of the channel acting
    independently on both qubits, with ops kraus_for's (m, 2, 2) array.

    rho is one 4x4 matrix or an (N, 4, 4) stack, and the result has its shape.
    Every K_m x K_n is built at once, and the terms are summed in (m, n) order.
    """
    rho = np.asarray(rho, dtype=complex)
    # (K_m x K_n)[2i + k, 2j + l] = K_m[i, j] K_n[k, l], row m * len(ops) + n
    k = (ops[:, None, :, None, :, None] * ops[:, None, :, None, :]).reshape(-1, 4, 4)
    out = (k @ rho[..., None, :, :] @ k.conj().swapaxes(-1, -2)).sum(axis=-3)
    out.flags.writeable = False
    return out


def decay_factors(kind: ChannelKind, p) -> tuple:
    """Per-axis scale factors of the two-qubit correlation vector.

    Every axis decays by (1 - c p)^2, c = DECAY_RATE[kind], except the
    preserved one, whose factor is 1.0.  p may be an array; the decaying
    factors then are arrays of its shape.
    """
    p = _check_p(p)
    g = square(1.0 - DECAY_RATE[kind] * p)
    keep = PRESERVED_AXIS[kind]
    return (1.0 if keep == 0 else g, 1.0 if keep == 1 else g, 1.0 if keep == 2 else g)


def evolved_vector(kind: ChannelKind, r: CorrelationVector, p: float) -> CorrelationVector:
    """Closed-form image of a correlation vector under the symmetric local channel."""
    g1, g2, g3 = decay_factors(kind, p)
    return CorrelationVector(r.r1 * g1, r.r2 * g2, r.r3 * g3)


def monotone_p_max(kind: ChannelKind) -> float:
    """Upper end of the p-interval on which the decay factors are non-increasing.

    The factor (1 - c p)^2 shrinks up to its root p = 1/c and grows back
    afterwards, which inside [0, 1] happens only under phase flip (c = 2).
    dynamics.run_trajectory detects events on a grid that holds this point, so
    that every modulus difference |r_i| - |r_j| is monotone between two rows.
    """
    return 1.0 / DECAY_RATE[kind]


def inverse_decay_p(kind: ChannelKind, g: float) -> float:
    """First p in the monotone domain at which the decaying factor equals g."""
    if not 0.0 <= g <= 1.0:
        raise OutOfRange("decay factor g = %g outside [0, 1]" % g)
    return (1.0 - math.sqrt(g)) / DECAY_RATE[kind]


def parse_channel_spec(spec: str) -> ChannelKind:
    """Parse a channel name like "pd" (any case) into its kind."""
    try:
        return ChannelKind(spec.strip().lower())
    except ValueError:
        raise OutOfRange(
            "unknown channel %r (expected pd, bf, bpf, pf or depol)" % spec
        ) from None
