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
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .quantifiers import square
from .states import SIGMA_1, SIGMA_2, SIGMA_3, CorrelationVector

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)          # |0><0|
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)          # |1><1|
_PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)       # |+><+|
_PMINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)    # |-><-|
_PIPLUS = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)   # |+i><+i|
_PIMINUS = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)  # |-i><-i|


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


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple[np.ndarray, ...]

    def completeness_defect(self) -> float:
        """Max deviation of sum_m K_m^dag K_m from the identity."""
        acc = np.zeros((2, 2), dtype=complex)
        for k in self.operators:
            acc += k.conj().T @ k
        return float(np.max(np.abs(acc - _I2)))


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


def kraus_for(kind: ChannelKind, p: float) -> KrausChannel:
    """Kraus operator set of a single-qubit channel with probability p.

    Bit flip and bit-phase flip are the phase-damping set conjugated by the
    rotations that map sigma_3 to sigma_1 and sigma_3 to sigma_2, i.e. the
    dephasing projectors are taken along the x and y axes instead of z.
    """
    p = _check_p(p)
    sq, sp = math.sqrt(1.0 - p), math.sqrt(p)
    if kind is ChannelKind.PHASE_DAMPING:
        ops = (sq * _I2, sp * _P0, sp * _P1)
    elif kind is ChannelKind.BIT_FLIP:
        ops = (sq * _I2, sp * _PPLUS, sp * _PMINUS)
    elif kind is ChannelKind.BIT_PHASE_FLIP:
        ops = (sq * _I2, sp * _PIPLUS, sp * _PIMINUS)
    elif kind is ChannelKind.PHASE_FLIP:
        ops = (sq * _I2, sp * SIGMA_3)
    elif kind is ChannelKind.DEPOLARIZING:
        sp = math.sqrt(p / 4.0)
        ops = (math.sqrt(1.0 - 0.75 * p) * _I2, sp * SIGMA_1, sp * SIGMA_2, sp * SIGMA_3)
    else:  # pragma: no cover
        raise OutOfRange("unknown channel kind %r" % kind)
    for op in ops:
        op.flags.writeable = False
    return KrausChannel(operators=ops)


def apply_local_pair(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """Kraus sum for the channel acting independently on both qubits."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for km in ch.operators:
        for kn in ch.operators:
            k = np.kron(km, kn)
            out += k @ rho @ k.conj().T
    out.flags.writeable = False
    return out


def decay_factors(kind: ChannelKind, p) -> tuple:
    """Per-axis scale factors of the two-qubit correlation vector.

    Every axis decays by (1 - p)^2, or (1 - 2p)^2 under phase flip, except the
    preserved one, whose factor is 1.0.  p may be an array; the decaying
    factors then are arrays of its shape.
    """
    p = _check_p(p)
    g = square(1.0 - 2.0 * p if kind is ChannelKind.PHASE_FLIP else 1.0 - p)
    keep = PRESERVED_AXIS[kind]
    return (1.0 if keep == 0 else g, 1.0 if keep == 1 else g, 1.0 if keep == 2 else g)


def evolved_vector(kind: ChannelKind, r: CorrelationVector, p: float) -> CorrelationVector:
    """Closed-form image of a correlation vector under the symmetric local channel."""
    g1, g2, g3 = decay_factors(kind, p)
    return CorrelationVector(r.r1 * g1, r.r2 * g2, r.r3 * g3)


def monotone_p_max(kind: ChannelKind) -> float:
    """Upper end of the p-interval on which the decay factors are non-increasing.

    The phase-flip factor (1 - 2p)^2 shrinks only up to p = 1/2 and grows back
    afterwards; the other four channels are monotone on all of [0, 1].
    dynamics.run_trajectory detects events on a grid that holds this point, so
    that every modulus difference |r_i| - |r_j| is monotone between two rows.
    """
    return 0.5 if kind is ChannelKind.PHASE_FLIP else 1.0


def inverse_decay_p(kind: ChannelKind, g: float) -> float:
    """First p in the monotone domain at which the decaying factor equals g."""
    if not 0.0 <= g <= 1.0:
        raise OutOfRange("decay factor g = %g outside [0, 1]" % g)
    root = math.sqrt(g)
    if kind is ChannelKind.PHASE_FLIP:
        return (1.0 - root) / 2.0
    return 1.0 - root


def parse_channel_spec(spec: str) -> ChannelKind:
    """Parse a channel name like "pd" (any case) into its kind."""
    try:
        return ChannelKind(spec.strip().lower())
    except ValueError:
        raise OutOfRange(
            "unknown channel %r (expected pd, bf, bpf, pf or depol)" % spec
        ) from None
