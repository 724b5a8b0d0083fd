"""Mutually unbiased bases and the unitaries they generate.

For every prime power d = p^n the nonzero displacement labels split into
d+1 commuting sets of d-1 (weyl_labels, Wootters & Fields 1989;
Bandyopadhyay, Boykin, Roychowdhury & Vatan 2002).  Basis alpha is the
common eigenbasis of set alpha, and the d+1 bases are pairwise unbiased.
Each basis alpha carries d-1 traceless unitaries
U_alpha^k = sum_l omega^{kl} |v_l><v_l| that, together with the identity,
form an orthogonal operator basis; _basis_unitaries builds them for every
basis and power at once, and unitary_u reads it for one.

A MubSet is checked once, when it is made: a prime-power d, d+1 bases and
verify_mub, the predicate on any (n, d, d) stack of bases.  Its bases are
read-only, so every later user may take the check as done.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Tuple

import numpy as np

from .errors import UnsupportedDimensionError
from .numerics import (
    VALIDATION_TOL,
    _complex_array,
    _require_dimension,
    _require_in_range,
    _require_integer,
)


def prime_power(d: int) -> Optional[Tuple[int, int]]:
    """(p, n) with d = p^n and p prime, or None if the integer d is not a
    prime power; UnsupportedDimensionError naming d unless it is an integer."""
    _require_integer("dimension", d, UnsupportedDimensionError)
    d = int(d)
    if d < 2:
        return None
    p = next((f for f in range(2, math.isqrt(d) + 1) if d % f == 0), d)
    n = 0
    while d % p == 0:
        d, n = d // p, n + 1
    return (p, n) if d == 1 else None


def require_prime_power(d: int) -> Tuple[int, int]:
    """prime_power(d), or UnsupportedDimensionError naming d: the basis layers
    exist only for prime powers, and d must first pass _require_dimension."""
    pn = prime_power(_require_dimension(d))
    if pn is None:
        raise UnsupportedDimensionError(
            f"no basis construction for d={d} (prime power required)")
    return pn


@lru_cache(maxsize=None)
def _weyl_family(p: int) -> np.ndarray:
    """Read-only W_{kl} = sum_m omega^{mk} |m><m+l|, indices mod p, for every
    label, at index k*p + l: one broadcast assignment, cached per p."""
    k, l, m = np.ogrid[:p, :p, :p]
    mats = np.zeros((p, p, p, p), dtype=complex)
    mats[k, l, m, (m + l) % p] = np.exp(2j * np.pi * m * k / p)
    mats.setflags(write=False)  # so the view returned is read-only too
    return mats.reshape(p * p, p, p)


def displacement_products(p: int, n: int, labels) -> np.ndarray:
    """Stacked W_{a_1 b_1} (x) ... (x) W_{a_n b_n} for flat labels, whose
    base-p digits are (a_1, b_1, ..., a_n, b_n), most significant first.

    One broadcast Kronecker step per tensor factor, the same products as
    np.kron label by label.
    """
    fam = _weyl_family(p)
    digits = np.unravel_index(np.asarray(labels), (p,) * (2 * n))
    ops = fam[digits[0] * p + digits[1]]
    for j in range(2, 2 * n, 2):
        f = fam[digits[j] * p + digits[j + 1]]
        side = ops.shape[1] * p
        ops = (ops[:, :, None, :, None] * f[:, None, :, None, :]).reshape(-1, side, side)
    return ops


def _labels_for_polynomial(p: int, n: int, digits: np.ndarray,
                           coeffs: np.ndarray) -> np.ndarray:
    # companion matrix C of x^n + sum_i coeffs[i] x^i, and t[m] = trace(C^m)
    c = np.zeros((n, n), dtype=np.int64)
    c[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    c[:, -1] = -coeffs % p
    t, power = [], np.eye(n, dtype=np.int64)
    for _ in range(3 * n - 2):
        t.append(np.trace(power) % p)
        power = power @ c % p
    i = np.arange(n)
    # M_s[i, j] = trace(S C^{i+j}) with S = sum_k s_k C^k
    traces = np.asarray(t)[i[:, None, None] + i[:, None] + i]
    forms = np.einsum("sk,kij->sij", digits, traces)
    a = digits[1:]
    b = np.einsum("sij,xj->sxi", forms, a) % p
    place = (p * p) ** np.arange(n - 1, -1, -1)
    return np.concatenate([(a * p + b) @ place, (a @ place)[None, :]])


# typed, so that d=4.0 misses the entry of d=4 and is refused
@lru_cache(maxsize=None, typed=True)
def weyl_labels(d: int) -> np.ndarray:
    """Read-only (d+1, d-1) flat labels of the displacement set behind each basis.

    d = p^n.  Label (a, b), a and b in Z_p^n, is the displacement product
    W_{a_1 b_1} (x) ... (x) W_{a_n b_n}, flattened mixed-radix over
    (a_1, b_1, ..., a_n, b_n), most significant first, as in WeylChannel.
    Basis alpha <= d, for the field element s whose base-p digits (least
    significant first) are those of alpha-1, holds (a, M_s a) for a != 0 in
    digit order, with M_s[i, j] = Tr(s x^i x^j) = trace(S C^{i+j}) mod p.  C
    is the companion matrix of the first monic degree-n polynomial (lower
    coefficients the base-p digits of 0, 1, ...) for which the sets
    partition the d^2-1 nonzero labels, which is the condition that every
    M_s, s != 0, is invertible.  Basis d+1 holds the shifts (0, b).
    M_s is symmetric, so each set commutes.  For prime d this is
    (k, k*(alpha-1)) and (0, k), k = 1..d-1.
    """
    p, n = require_prime_power(d)
    digits = np.arange(d)[:, None] // p ** np.arange(n) % p
    for coeffs in digits:
        labels = _labels_for_polynomial(p, n, digits, coeffs)
        if np.array_equal(np.sort(labels, axis=None), np.arange(1, d * d)):
            labels.setflags(write=False)
            return labels
    raise AssertionError(f"no label partition found for d={d}")


@dataclass(frozen=True)
class MubSet:
    """A complete set of d+1 mutually unbiased bases of C^d, d a prime power,
    checked once, when it is made.

    `bases[a, k]` is the k-th vector of basis a (0-based storage; the public
    basis label alpha is 1-based), a read-only copy of the array given, so the
    check cannot go stale.  The constructor refuses, in this order, a dimension
    that is not an integer >= 2 and one that is not a prime power
    (UnsupportedDimensionError naming it), bases with an entry that is not a
    number (numerics._complex_array), bases not of shape (d+1, d, d) and
    bases that fail verify_mub (ValueError).
    """

    dimension: int
    bases: np.ndarray

    def __post_init__(self):
        require_prime_power(self.dimension)
        d = int(self.dimension)
        bases = np.array(_complex_array("bases", self.bases))
        if bases.shape != (d + 1, d, d):
            raise ValueError(f"bases must have shape {(d + 1, d, d)}, got {bases.shape}")
        if not verify_mub(bases):
            raise ValueError(f"basis set (d={d}) is not mutually unbiased")
        bases.setflags(write=False)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "bases", bases)

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]

    def basis(self, alpha: int) -> np.ndarray:
        return self.bases[_require_in_range("basis label", alpha, 1, self.n_bases) - 1]

    def projector(self, alpha: int, k: int) -> np.ndarray:
        """Rank-1 projector onto vector k (0-based) of basis alpha (1-based)."""
        v = self.basis(alpha)[_require_in_range("vector index", k, 0, self.dimension - 1)]
        return np.outer(v, v.conj())


def _fix_phase(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v) > 1e-10))
    phase = v[idx] / abs(v[idx])
    return v / phase


def _cyclic_projectors(g: np.ndarray, p: int) -> list:
    """Spectral projectors of a unitary g with g^p = c*I, c unimodular.

    Projector l is onto the eigenvalue e^{i theta0} omega^l, omega = e^{2 pi i/p},
    where theta0 is the principal p-th root phase of c (0 for the
    generators used here except the p = 2 ones that square to -I).  They
    come from the cyclic-group Fourier sum, exact up to float arithmetic.
    """
    dim = g.shape[0]
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(p - 1):
        powers.append(powers[-1] @ g)
    full = powers[-1] @ g
    c = full[0, 0]
    if np.max(np.abs(full - c * np.eye(dim))) > VALIDATION_TOL:
        raise ValueError(f"operator is not cyclic of order {p}")
    theta0 = np.angle(c) / p
    omega = np.exp(2j * np.pi / p)
    aligned = [powers[k] * np.exp(-1j * theta0 * k) for k in range(p)]
    return [sum(omega ** (-l * k) * aligned[k] for k in range(p)) / p for l in range(p)]


def build_mubs(d: int) -> MubSet:
    """The d+1 unbiased bases of a prime-power dimension d = p^n.

    Basis alpha is the common eigenbasis of the displacement products in
    weyl_labels(d)[alpha-1], found from its n generators, the labels whose
    a (b for basis d+1) is a unit vector.  Vector l = (l_1, ..., l_n), mixed
    radix with l_1 most significant, is the one on which generator j takes
    its eigenvalue e^{i theta_j} omega_p^{l_j} (_cyclic_projectors).
    """
    labels = weyl_labels(d)
    p, n = prime_power(d)
    units = [p ** j - 1 for j in range(n)]
    bases = np.zeros((d + 1, d, d), dtype=complex)
    for alpha, row in enumerate(labels):
        gens = displacement_products(p, n, row[units])
        for idx, factors in enumerate(itertools.product(
                *(_cyclic_projectors(g, p) for g in gens))):
            proj = reduce(np.matmul, factors)
            col = int(np.argmax(np.linalg.norm(proj, axis=0)))
            v = proj[:, col]
            bases[alpha, idx] = _fix_phase(v / np.linalg.norm(v))
    return MubSet(d, bases)


def verify_mub(bases: np.ndarray) -> bool:
    """Whether an (n, d, d) stack of bases (rows the vectors) is orthonormal
    within each basis and has |<u|v>|^2 = 1/d across bases.  Entries must be
    numbers (numerics._complex_array); any other shape is refused by name.

    One row block of the Gram matrix per basis a, its vectors against those of
    bases a..n-1: the first d x d block must be the identity and the moduli
    squared in the rest 1/d, each within VALIDATION_TOL.  Memory stays
    O(n d^2), not the (n d)^2 of the whole Gram matrix.  MubSet runs it once,
    when a set is made; it also checks a partial set.
    """
    bases = _complex_array("bases", bases)
    if bases.ndim != 3 or bases.shape[1] != bases.shape[2]:
        raise ValueError(f"bases must be an (n, d, d) stack, got shape {bases.shape}")
    n, d = bases.shape[:2]
    vecs = bases.reshape(n * d, d).conj().T
    for a in range(n):
        block = (bases[a] @ vecs[:, a * d:]).reshape(d, n - a, d)
        within = np.abs(block[:, 0] - np.eye(d)).max()
        across = np.abs(np.abs(block[:, 1:]) ** 2 - 1.0 / d).max(initial=0.0)
        if within > VALIDATION_TOL or across > VALIDATION_TOL:
            return False
    return True


def _basis_unitaries(bases: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """(n, K, d, d) stack U^k = sum_l omega^{kl} |v_l><v_l| of (n, d, d) bases
    (rows v_l) and K powers k: one broadcast multiply, one batched matmul."""
    d = bases.shape[-1]
    phases = np.exp(2j * np.pi * powers[:, None] * np.arange(d) / d)
    cols = bases.transpose(0, 2, 1)[:, None] * phases[:, None, :]
    return cols @ bases.conj()[:, None]


def unitary_u(m: MubSet, alpha: int, k: int) -> np.ndarray:
    """U_alpha^k = sum_l omega^{kl} P_l for basis alpha (1-based), k in 1..d-1:
    the one-basis, one-power case of _basis_unitaries."""
    _require_in_range("power index", k, 1, m.dimension - 1)
    return _basis_unitaries(m.basis(alpha)[None], np.array([k]))[0, 0]


def check_weyl_correspondence(m: MubSet) -> bool:
    """Check that basis alpha diagonalizes every displacement product in
    weyl_labels(d)[alpha-1], the property gpc_to_weyl relies on: the d-1
    unitaries of basis alpha and the d-1 products of its label set then give
    the same channel term, d times the dephasing in basis alpha minus rho.
    m was checked when it was made, so it holds d+1 bases of a prime power d;
    relabelled bases pass that check and fail this one.  All (d+1)(d-1)
    products are made at once, from the flat labels, and tested together.
    """
    d = m.dimension
    ops = displacement_products(*prime_power(d), weyl_labels(d).ravel()).reshape(d + 1, -1, d, d)
    t = m.bases.conj()[:, None] @ ops @ m.bases.transpose(0, 2, 1)[:, None]
    return bool(np.max(np.abs(t * (1.0 - np.eye(d)))) <= VALIDATION_TOL)
