"""Mutually unbiased bases and the unitaries they generate.

A full set of d+1 bases is built for prime d from the eigenbases of the
discrete displacement operators, and for d = 4 from five commuting triples
of two-qubit Pauli products.  Each basis alpha carries d-1 traceless
unitaries U_alpha^k = sum_l omega^{kl} |v_l><v_l| that, together with the
identity, form an orthogonal operator basis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimensionError
from .numerics import VALIDATION_TOL

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Five commuting triples of two-qubit Pauli products (index pairs into
# _SIGMA); their common eigenbases are pairwise unbiased.
_DIM4_TRIPLES = (
    ((0, 1), (1, 0), (1, 1)),
    ((0, 2), (2, 0), (2, 2)),
    ((0, 3), (3, 0), (3, 3)),
    ((1, 2), (2, 3), (3, 1)),
    ((2, 1), (1, 3), (3, 2)),
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _weyl_matrix(d: int, k: int, l: int) -> np.ndarray:
    # W_{kl} = sum_m omega^{mk} |m><m+l|, indices mod d
    m = np.arange(d)
    w = np.zeros((d, d), dtype=complex)
    w[m, (m + l) % d] = np.exp(2j * np.pi * m * k / d)
    return w


@dataclass(frozen=True)
class WeylOperator:
    """Displacement operator W_{kl} on a d-dimensional system."""

    dimension: int
    k: int
    l: int

    @property
    def matrix(self) -> np.ndarray:
        return _weyl_matrix(self.dimension, self.k, self.l)


def weyl_operator(d: int, k: int, l: int) -> WeylOperator:
    """The displacement operator with phase index k and shift index l (mod d)."""
    if d < 2:
        raise UnsupportedDimensionError(f"dimension must be >= 2, got {d}")
    return WeylOperator(d, k % d, l % d)


@dataclass(frozen=True)
class MubSet:
    """A collection of orthonormal bases of C^d.

    `bases[a, k]` is the k-th vector of basis a (0-based storage; the public
    basis label alpha is 1-based).
    """

    dimension: int
    bases: np.ndarray

    def __post_init__(self):
        bases = np.asarray(self.bases, dtype=complex)
        if bases.ndim != 3 or bases.shape[1:] != (self.dimension, self.dimension):
            raise ValueError(f"bases must have shape (n, d, d), got {bases.shape}")
        object.__setattr__(self, "bases", bases)

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]

    def basis(self, alpha: int) -> np.ndarray:
        if not 1 <= alpha <= self.n_bases:
            raise ValueError(f"basis label {alpha} out of range 1..{self.n_bases}")
        return self.bases[alpha - 1]

    def projector(self, alpha: int, k: int) -> np.ndarray:
        """Rank-1 projector onto vector k (0-based) of basis alpha (1-based)."""
        v = self.basis(alpha)[k]
        return np.outer(v, v.conj())

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "bases": [
                [[[z.real, z.imag] for z in vec] for vec in basis]
                for basis in self.bases
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "MubSet":
        bases = np.asarray(
            [[[complex(re, im) for re, im in vec] for vec in basis]
             for basis in obj["bases"]]
        )
        return MubSet(int(obj["dimension"]), bases)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v) > 1e-10))
    phase = v[idx] / abs(v[idx])
    return v / phase


def _cyclic_eigenbasis(g: np.ndarray) -> np.ndarray:
    """Eigenbasis of a unitary g with g^d = c*I, c unimodular.

    Vector l gets the eigenvalue e^{i theta0} omega^l where theta0 is the
    principal d-th root phase of c; for the generators used here theta0 = 0
    except for the d = 2 shift-and-phase operator.  Projectors come from the
    cyclic-group Fourier sum, which is exact up to float arithmetic.
    """
    d = g.shape[0]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ g)
    full = powers[-1] @ g
    c = full[0, 0]
    if np.max(np.abs(full - c * np.eye(d))) > VALIDATION_TOL:
        raise ValueError("operator is not cyclic of order d")
    theta0 = np.angle(c) / d
    omega = np.exp(2j * np.pi / d)
    aligned = [powers[k] * np.exp(-1j * theta0 * k) for k in range(d)]
    vecs = np.zeros((d, d), dtype=complex)
    for l in range(d):
        proj = sum(omega ** (-l * k) * aligned[k] for k in range(d)) / d
        col = int(np.argmax(np.linalg.norm(proj, axis=0)))
        v = proj[:, col]
        vecs[l] = _fix_phase(v / np.linalg.norm(v))
    return vecs


def build_mubs_prime(d: int) -> MubSet:
    """The d+1 unbiased bases of a prime-dimensional system.

    Basis alpha in 1..d is the eigenbasis of the displacement operator with
    phase index 1 and shift index alpha-1; basis d+1 is the eigenbasis of the
    plain shift (the Fourier basis).  Vector l of each basis carries the
    eigenvalue omega^l of its generator, up to the fixed d = 2 phase offset.
    """
    if not is_prime(d):
        raise UnsupportedDimensionError(f"no prime construction for d={d}")
    bases = np.zeros((d + 1, d, d), dtype=complex)
    for a in range(d):
        bases[a] = _cyclic_eigenbasis(_weyl_matrix(d, 1, a))
    bases[d] = _cyclic_eigenbasis(_weyl_matrix(d, 0, 1))
    return MubSet(d, bases)


def build_mubs_dim4() -> MubSet:
    """Five unbiased bases of two qubits from commuting Pauli-product triples.

    Each triple is simultaneously diagonalized through the non-degenerate
    combination B1 + 2*B2; vectors are ordered by descending eigenvalue of
    that combination, which makes the (sigma_z, sigma_z)-type triple yield the
    computational basis in natural order.
    """
    bases = np.zeros((5, 4, 4), dtype=complex)
    for a, triple in enumerate(_DIM4_TRIPLES):
        ops = [np.kron(_SIGMA[i], _SIGMA[j]) for i, j in triple]
        h = ops[0] + 2.0 * ops[1]
        w, v = np.linalg.eigh(h)
        order = np.argsort(-w)
        for pos, col in enumerate(order):
            bases[a, pos] = _fix_phase(v[:, col])
    return MubSet(4, bases)


def verify_mub(m: MubSet, tol: float = VALIDATION_TOL) -> bool:
    """Check orthonormality within each basis and |<u|v>|^2 = 1/d across bases."""
    d = m.dimension
    for a in range(m.n_bases):
        gram = m.bases[a] @ m.bases[a].conj().T
        if np.max(np.abs(gram - np.eye(d))) > tol:
            return False
    for a in range(m.n_bases):
        for b in range(a + 1, m.n_bases):
            overlaps = np.abs(m.bases[a] @ m.bases[b].conj().T) ** 2
            if np.max(np.abs(overlaps - 1.0 / d)) > tol:
                return False
    return True


def unitary_u(m: MubSet, alpha: int, k: int) -> np.ndarray:
    """U_alpha^k = sum_l omega^{kl} P_l for basis alpha (1-based), k in 1..d-1."""
    d = m.dimension
    if not 1 <= k <= d - 1:
        raise ValueError(f"power index {k} out of range 1..{d - 1}")
    vecs = m.basis(alpha)
    phases = np.exp(2j * np.pi * k * np.arange(d) / d)
    return (vecs.T * phases) @ vecs.conj()


def check_weyl_correspondence(m: MubSet, tol: float = VALIDATION_TOL) -> bool:
    """Check that the basis unitaries are displacement operators.

    For odd prime d the exact identity is
    U_alpha^k = omega^{k(k-1)(alpha-1)/2} W_{k, k(alpha-1)} for alpha <= d and
    U_{d+1}^k = W_{0k}.  For d = 2 the phase convention breaks down on the
    shift-and-phase family, so a fixed case table is used:
    U_1^1 = W_10, U_2^1 = -i W_11, U_3^1 = W_01.
    """
    d = m.dimension
    if not is_prime(d) or m.n_bases != d + 1:
        return False
    omega = np.exp(2j * np.pi / d)

    if d == 2:
        table = (
            _weyl_matrix(2, 1, 0),
            -1j * _weyl_matrix(2, 1, 1),
            _weyl_matrix(2, 0, 1),
        )
        return all(
            np.max(np.abs(unitary_u(m, a + 1, 1) - table[a])) <= tol
            for a in range(3)
        )

    for alpha in range(1, d + 2):
        for k in range(1, d):
            u = unitary_u(m, alpha, k)
            if alpha <= d:
                target = omega ** (k * (k - 1) * (alpha - 1) / 2) * _weyl_matrix(
                    d, k, (k * (alpha - 1)) % d
                )
            else:
                target = _weyl_matrix(d, 0, k)
            if np.max(np.abs(u - target)) > tol:
                return False
    return True


def pauli_product(i: int, j: int) -> np.ndarray:
    """Two-qubit Pauli product sigma_i (x) sigma_j."""
    return np.kron(_SIGMA[i], _SIGMA[j])


def dim4_triples() -> tuple:
    """The five commuting index triples used by build_mubs_dim4."""
    return _DIM4_TRIPLES

