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
import math
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


def _where(cond, a, b):
    """a where cond holds, else b: np.where on arrays, a conditional on numbers."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt_clamped(x):
    """sqrt(max(x, 0)), NaN kept as NaN in both branches."""
    if isinstance(x, np.ndarray):
        return np.sqrt(np.maximum(x, 0.0))
    return 0.0 if x <= 0.0 else math.sqrt(x)


def _modulus(z):
    """|z| rounded as Python's abs rounds a complex number, by libm hypot;
    numpy's abs of a complex array differs from it in the last bit for some z."""
    if isinstance(z, np.ndarray):
        return np.hypot(z.real, z.imag)
    return abs(z)


def bell_eigenvalues(r1: float, r2: float, r3: float) -> tuple[float, float, float, float]:
    """Eigenvalues of the Bell-diagonal matrix, ordered (Phi+, Phi-, Psi+, Psi-)."""
    return (
        (1.0 + r1 - r2 + r3) / 4.0,
        (1.0 - r1 + r2 + r3) / 4.0,
        (1.0 + r1 + r2 - r3) / 4.0,
        (1.0 - r1 - r2 - r3) / 4.0,
    )


def in_tetrahedron(r1, r2, r3):
    """Whether the Bell-diagonal state lies in the tetrahedron of physical
    states: every Bell eigenvalue >= -EPS_PSD.  A bool for numbers, a mask for
    arrays; NaN, from a NaN or infinite component, fails the comparisons."""
    l0, l1, l2, l3 = bell_eigenvalues(r1, r2, r3)
    return (l0 >= -EPS_PSD) & (l1 >= -EPS_PSD) & (l2 >= -EPS_PSD) & (l3 >= -EPS_PSD)


def octahedron_margin(r1, r2, r3):
    """|r1| + |r2| + |r3| - 1, positive outside the separable octahedron."""
    return abs(r1) + abs(r2) + abs(r3) - 1.0


def check_bd_columns(r1, r2, r3) -> None:
    """Raise NonPhysical unless (r1, r2, r3) lies in_tetrahedron.

    Numbers check one state; equal-length arrays check one state per row, and
    the first failing row raises the message it raises on its own.
    """
    if isinstance(r1, np.ndarray):
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
            k = _leading(in_tetrahedron(r1, r2, r3))
        if k < len(r1):
            check_bd_columns(float(r1[k]), float(r2[k]), float(r3[k]))
    elif not in_tetrahedron(r1, r2, r3):
        if not all(np.isfinite((r1, r2, r3))):
            raise NonPhysical("correlation vector (%g, %g, %g) is not finite" % (r1, r2, r3))
        raise NonPhysical("eigenvalue %.6g of correlation vector (%g, %g, %g) is negative"
                          % (min(bell_eigenvalues(r1, r2, r3)), r1, r2, r3))


@dataclass(frozen=True)
class CorrelationVector:
    """Correlation triple (r1, r2, r3) of a two-qubit Bell-diagonal state.

    Construction validates tetrahedron membership with check_bd_columns.
    """

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        r1, r2, r3 = float(self.r1), float(self.r2), float(self.r3)
        fields = self.__dict__  # written past the frozen __setattr__
        fields["r1"], fields["r2"], fields["r3"] = r1, r2, r3
        check_bd_columns(r1, r2, r3)

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
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        e, f = complex(self.e), complex(self.f)
        self.__dict__.update(a=a, b=b, c=c, d=d, e=e, f=f)  # past the frozen __setattr__
        check_xstate_columns(a, b, c, d, e, f)

    def to_density(self) -> np.ndarray:
        rho = x_density_columns(self.a, self.b, self.c, self.d, self.e, self.f)
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


def check_xstate_columns(a, b, c, d, e, f) -> None:
    """Raise NonPhysical unless populations a, b, c, d and coherences e, f form
    a physical X state: all six finite, populations >= -EPS_PSD summing to 1
    within 1e-9, |e| <= sqrt(ad) and |f| <= sqrt(bc) within EPS_PSD.

    Numbers check one state; equal-length arrays check one state per row, and
    the first failing row raises the message it raises on its own.
    """
    low = a  # min(a, b, c, d) in the order of Python's min, NaN included
    for pop in (b, c, d):
        low = _where(pop < low, pop, low)
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 give NaN, reported as not finite
        total = a + b + c + d
        bound_e, bound_f = _sqrt_clamped(a * d), _sqrt_clamped(b * c)
    abs_e, abs_f = _modulus(e), _modulus(f)
    values = (a, b, c, d, abs_e, abs_f)
    # Conditions that NaN fails, the first of them also inf.
    checks = (
        (np.logical_and.reduce([abs(v) < math.inf for v in values]),
         "X state (a, b, c, d, |e|, |f|) = (%g, %g, %g, %g, %g, %g) is not finite", values),
        (low >= -EPS_PSD, "population %.6g is negative", (low,)),
        (abs(total - 1.0) <= 1e-9, "populations sum to %.12g, expected 1", (total,)),
        (abs_e <= bound_e + EPS_PSD, "|e| = %.6g exceeds sqrt(a*d) = %.6g", (abs_e, bound_e)),
        (abs_f <= bound_f + EPS_PSD, "|f| = %.6g exceeds sqrt(b*c) = %.6g", (abs_f, bound_f)),
    )
    if isinstance(low, np.ndarray):
        k = _leading(np.logical_and.reduce([ok for ok, _, _ in checks]))
        if k == len(low):
            return
        checks = [(ok[k], msg, tuple(v[k] for v in values)) for ok, msg, values in checks]
    for ok, msg, values in checks:
        if not ok:
            raise NonPhysical(msg % values)


def x_density_columns(a, b, c, d, e, f) -> np.ndarray:
    """Density matrices of X states; numbers give one 4x4 matrix, arrays a
    stack of shape a.shape + (4, 4)."""
    rho = np.zeros(np.shape(a) + (4, 4), dtype=complex)
    t = rho.T  # t[j, i] is rho[..., i, j], and cheaper to index than the ellipsis
    t[0, 0], t[1, 1], t[2, 2], t[3, 3] = a, b, c, d
    t[3, 0], t[0, 3] = e, np.conj(e)
    t[2, 1], t[1, 2] = f, np.conj(f)
    return rho


class RegionLabel(enum.Enum):
    ENTANGLED = "entangled"
    SEPARABLE_NONCLASSICAL = "separable_nonclassical"
    CLASSICAL = "classical"


def _leading(flags: np.ndarray) -> int:
    """Number of leading True entries of a boolean vector."""
    k = int(flags.argmin()) if len(flags) else 0
    return k if len(flags) and not flags[k] else len(flags)


def _checked_spectrum(rho: np.ndarray, solve) -> tuple:
    """validate_density's checks, reading positivity from the eigenvalues that
    solve(stack) returns first (ascending, one row per matrix); returns the
    matrix or stack and solve's result for the (N, 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise NonPhysical("expected a 4x4 matrix or a stack of them, got shape %s" % (rho.shape,))
    stack = rho.reshape(-1, 4, 4)
    asym = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    tr = stack.trace(axis1=1, axis2=2).real
    # NaN propagates through the maximum and fails the comparison
    n = _leading(np.maximum(asym, np.abs(tr - 1.0)) <= 1e-12)
    # the matrices before the first that fails those checks must be positive
    spectrum = solve(stack[:n])
    lmin = spectrum[0][:, 0]
    k = _leading(lmin >= -EPS_PSD)
    if k < n:
        raise NonPhysical("eigenvalue %.6g is negative" % lmin[k])
    if n < len(stack):
        if not asym[n] <= 1e-12:
            raise NonPhysical("matrix is not Hermitian within 1e-12")
        raise NonPhysical("trace is %.15g, expected 1" % tr[n])
    return rho, spectrum


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix or
    of each matrix of an (N, 4, 4) stack.

    A stack raises for its first failing matrix, with the message that matrix
    raises on its own; the eigenvalues are computed in one batched eigensolve.
    """
    return _checked_spectrum(rho, lambda stack: (np.linalg.eigvalsh(stack),))[0]


def bd_density_columns(r1, r2, r3) -> np.ndarray:
    """Density matrices (I + sum_j r_j sigma_j x sigma_j) / 4 of Bell-diagonal
    states; numbers give one 4x4 matrix, arrays a stack of shape r1.shape + (4, 4)."""
    rho = np.eye(4, dtype=complex)
    for rj, op in zip((r1, r2, r3), SIGMA_PAIR):
        rho = rho + np.multiply.outer(rj, op)
    return rho / 4.0


def bd_to_density(r: CorrelationVector) -> np.ndarray:
    """Density matrix (I + sum_j r_j sigma_j x sigma_j) / 4 of a Bell-diagonal state."""
    rho = bd_density_columns(r.r1, r.r2, r.r3)
    rho.flags.writeable = False
    return rho


def density_to_bd(rho: np.ndarray) -> CorrelationVector:
    """Extract r_j = Tr(rho sigma_j x sigma_j) from a valid density matrix.

    The three traces read only rho's Bell-diagonal part, its components along
    I and the sigma_j x sigma_j: any other entry, such as a coherence between
    two Bell states, leaves r unchanged.
    """
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
    if octahedron_margin(r.r1, r.r2, r.r3) > 0.0:
        return RegionLabel.ENTANGLED
    if sum(1 for x in r.abs_triple() if x <= 1e-12) >= 2:
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
