"""Two-qubit Bell-diagonal and X states.

A Bell-diagonal state is fixed by the correlation vector (r1, r2, r3) with
r_j = Tr(rho sigma_j x sigma_j); physically allowed vectors fill a tetrahedron
whose vertices are the four Bell projectors.  In the computational basis
|00>, |01>, |10>, |11> every Bell-diagonal state is an X-form matrix with
populations a = d = (1 + r3)/4, b = c = (1 - r3)/4 and coherences
e = (r1 - r2)/4, f = (r1 + r2)/4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical

# Tolerance below which a negative eigenvalue is treated as a rounding artefact.
EPS_PSD = 1e-12

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_1, SIGMA_2, SIGMA_3)

# sigma_j x sigma_j, the three correlation operators
SIGMA_PAIR = tuple(np.kron(s, s) for s in PAULI)


def bell_eigenvalues(r1: float, r2: float, r3: float) -> tuple[float, float, float, float]:
    """Eigenvalues of the Bell-diagonal matrix, ordered (Phi+, Phi-, Psi+, Psi-)."""
    return (
        (1.0 + r1 - r2 + r3) / 4.0,
        (1.0 - r1 + r2 + r3) / 4.0,
        (1.0 + r1 + r2 - r3) / 4.0,
        (1.0 - r1 - r2 - r3) / 4.0,
    )


@dataclass(frozen=True)
class CorrelationVector:
    """Correlation triple (r1, r2, r3) of a two-qubit Bell-diagonal state.

    Construction validates tetrahedron membership: all four eigenvalues of the
    associated density matrix must be >= -EPS_PSD.
    """

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))
        object.__setattr__(self, "r3", float(self.r3))
        l0, l1, l2, l3 = bell_eigenvalues(self.r1, self.r2, self.r3)
        # Negated comparisons, so that NaN (from NaN or infinite r) fails them.
        if not (l0 >= -EPS_PSD and l1 >= -EPS_PSD and l2 >= -EPS_PSD and l3 >= -EPS_PSD):
            if not all(np.isfinite((self.r1, self.r2, self.r3))):
                raise NonPhysical(
                    "correlation vector (%g, %g, %g) is not finite" % (self.r1, self.r2, self.r3)
                )
            raise NonPhysical(
                "eigenvalue %.6g of correlation vector (%g, %g, %g) is negative"
                % (min(l0, l1, l2, l3), self.r1, self.r2, self.r3)
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3])

    def abs_triple(self) -> tuple[float, float, float]:
        return (abs(self.r1), abs(self.r2), abs(self.r3))

    def to_json(self) -> dict:
        return {"r": [self.r1, self.r2, self.r3]}

    @classmethod
    def from_json(cls, obj: dict) -> "CorrelationVector":
        r = obj["r"]
        return cls(r[0], r[1], r[2])


@dataclass(frozen=True)
class XState:
    """Two-qubit X-form state: populations a, b, c, d and coherences e, f.

    The only nonzero entries sit on the diagonal and the anti-diagonal:

        [[a, 0, 0, e],
         [0, b, f, 0],
         [0, f*, c, 0],
         [e*, 0, 0, d]]

    Physicality requires |e| <= sqrt(a d) and |f| <= sqrt(b c); the coherences
    are stored complex and only their moduli enter the correlation measures.
    """

    a: float
    b: float
    c: float
    d: float
    e: complex
    f: complex

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "e", complex(self.e))
        object.__setattr__(self, "f", complex(self.f))
        pops = (self.a, self.b, self.c, self.d)
        # Negated comparisons, so that NaN fails them; an infinite population
        # fails the sum check.
        if not min(pops) >= -EPS_PSD:
            raise NonPhysical("population %.6g is negative" % min(pops))
        if not abs(sum(pops) - 1.0) <= 1e-9:
            raise NonPhysical("populations sum to %.12g, expected 1" % sum(pops))
        if not abs(self.e) <= np.sqrt(max(self.a * self.d, 0.0)) + EPS_PSD:
            raise NonPhysical(
                "|e| = %.6g exceeds sqrt(a*d) = %.6g" % (abs(self.e), np.sqrt(max(self.a * self.d, 0.0)))
            )
        if not abs(self.f) <= np.sqrt(max(self.b * self.c, 0.0)) + EPS_PSD:
            raise NonPhysical(
                "|f| = %.6g exceeds sqrt(b*c) = %.6g" % (abs(self.f), np.sqrt(max(self.b * self.c, 0.0)))
            )

    def to_density(self) -> np.ndarray:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = self.a, self.b, self.c, self.d
        rho[0, 3], rho[3, 0] = self.e, np.conj(self.e)
        rho[1, 2], rho[2, 1] = self.f, np.conj(self.f)
        rho.flags.writeable = False
        return rho

    def to_json(self) -> dict:
        return {
            "diag": [self.a, self.b, self.c, self.d],
            "e": [self.e.real, self.e.imag],
            "f": [self.f.real, self.f.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "XState":
        a, b, c, d = obj["diag"]
        e = complex(obj["e"][0], obj["e"][1])
        f = complex(obj["f"][0], obj["f"][1])
        return cls(a, b, c, d, e, f)


class RegionLabel(enum.Enum):
    ENTANGLED = "entangled"
    SEPARABLE_NONCLASSICAL = "separable_nonclassical"
    CLASSICAL = "classical"


def _leading(flags: np.ndarray) -> int:
    """Number of leading True entries of a boolean vector."""
    k = int(flags.argmin()) if len(flags) else 0
    return k if len(flags) and not flags[k] else len(flags)


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix or
    of each matrix of an (N, 4, 4) stack.

    A stack raises for its first failing matrix, with the message that matrix
    raises on its own; the eigenvalues are computed in one batched eigensolve.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise NonPhysical("expected a 4x4 matrix or a stack of them, got shape %s" % (rho.shape,))
    stack = rho.reshape(-1, 4, 4)
    asym = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    tr = stack.trace(axis1=1, axis2=2).real
    # NaN propagates through the maximum and fails the comparison
    n = _leading(np.maximum(asym, np.abs(tr - 1.0)) <= 1e-12)
    # the matrices before the first that fails those checks must be positive
    lmin = np.linalg.eigvalsh(stack[:n])[:, 0]
    k = _leading(lmin >= -EPS_PSD)
    if k < n:
        raise NonPhysical("eigenvalue %.6g is negative" % lmin[k])
    if n < len(stack):
        if not asym[n] <= 1e-12:
            raise NonPhysical("matrix is not Hermitian within 1e-12")
        raise NonPhysical("trace is %.15g, expected 1" % tr[n])
    return rho


def bd_to_density(r: CorrelationVector) -> np.ndarray:
    """Density matrix (I + sum_j r_j sigma_j x sigma_j) / 4 of a Bell-diagonal state."""
    rho = np.eye(4, dtype=complex)
    for rj, op in zip((r.r1, r.r2, r.r3), SIGMA_PAIR):
        rho = rho + rj * op
    rho = rho / 4.0
    rho.flags.writeable = False
    return rho


def density_to_bd(rho: np.ndarray) -> CorrelationVector:
    """Extract r_j = Tr(rho sigma_j x sigma_j) from a valid density matrix."""
    rho = validate_density(rho)
    r = [float(np.trace(rho @ op).real) for op in SIGMA_PAIR]
    return CorrelationVector(*r)


def bd_xstate_columns(r1, r2, r3) -> tuple:
    """X-form parameters (a, b, c, d, e, f) of Bell-diagonal states; numbers or arrays."""
    a = (1.0 + r3) / 4.0
    b = (1.0 - r3) / 4.0
    return a, b, b, a, (r1 - r2) / 4.0, (r1 + r2) / 4.0


def bd_to_xstate(r: CorrelationVector) -> XState:
    """X-form parameters of a Bell-diagonal state in the computational basis."""
    return XState(*bd_xstate_columns(r.r1, r.r2, r.r3))


def classify_region(r: CorrelationVector) -> RegionLabel:
    """Classify a Bell-diagonal state as entangled, separable or classical.

    Entangled states lie outside the octahedron |r1| + |r2| + |r3| <= 1;
    classical (zero-discord) states lie on the Cartesian axes.
    """
    s = r.abs_triple()
    if sum(s) > 1.0:
        return RegionLabel.ENTANGLED
    if sum(1 for x in s if x <= 1e-12) >= 2:
        return RegionLabel.CLASSICAL
    return RegionLabel.SEPARABLE_NONCLASSICAL


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def is_entangled_ppt(rho: np.ndarray) -> bool:
    """Peres criterion: a two-qubit state is entangled iff its partial transpose
    has an eigenvalue below -EPS_PSD (exact in dimension 2x2)."""
    lmin = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    return lmin < -EPS_PSD
