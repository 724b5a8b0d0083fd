import numpy as np
import pytest

from gpchannels.errors import UnsupportedDimensionError
from gpchannels.mub import (
    MubSet,
    build_mubs_dim4,
    build_mubs_prime,
    check_weyl_correspondence,
    dim4_triples,
    is_prime,
    pauli_product,
    unitary_u,
    verify_mub,
    weyl_operator,
)

PRIMES = (2, 3, 5, 7, 11)


def test_is_prime_small_values():
    assert [n for n in range(2, 14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]
    assert not is_prime(1)
    assert not is_prime(0)


@pytest.mark.parametrize("d", PRIMES)
def test_prime_set_has_d_plus_1_orthonormal_bases(d):
    m = build_mubs_prime(d)
    assert m.n_bases == d + 1
    for alpha in range(1, d + 2):
        b = m.basis(alpha)
        assert np.allclose(b @ b.conj().T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", PRIMES)
def test_prime_set_unbiased(d):
    m = build_mubs_prime(d)
    assert verify_mub(m)
    # spot check one cross overlap exactly
    v = m.basis(1)[0]
    w = m.basis(2)[1]
    assert abs(abs(np.vdot(v, w)) ** 2 - 1.0 / d) < 1e-10


def test_build_mubs_prime_rejects_composite():
    for d in (4, 6, 9):
        with pytest.raises(UnsupportedDimensionError):
            build_mubs_prime(d)


def test_weyl_operator_composition(rng):
    d = 5
    omega = np.exp(2j * np.pi / d)
    for _ in range(20):
        k1, l1, k2, l2 = rng.integers(0, d, size=4)
        a = weyl_operator(d, int(k1), int(l1)).matrix
        b = weyl_operator(d, int(k2), int(l2)).matrix
        c = weyl_operator(d, int((k1 + k2) % d), int((l1 + l2) % d)).matrix
        assert np.allclose(a @ b, omega ** (l1 * k2) * c, atol=1e-12)


def test_weyl_operator_unitary_and_modular_labels():
    op = weyl_operator(3, 1, 2)
    u = op.matrix
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    # labels live on Z_d x Z_d
    assert weyl_operator(3, 3, 0) == weyl_operator(3, 0, 0)
    assert weyl_operator(3, 0, -1) == weyl_operator(3, 0, 2)
    with pytest.raises(UnsupportedDimensionError):
        weyl_operator(1, 0, 0)


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_basis_unitaries_are_displacements(d):
    assert check_weyl_correspondence(build_mubs_prime(d))


def test_correspondence_rejects_relabelled_bases():
    # still unbiased, but the Weyl form of a channel assumes the canonical labels
    m = build_mubs_prime(5)
    swapped = MubSet(5, m.bases[[0, 2, 1, 3, 4, 5]])
    assert verify_mub(swapped)
    assert not check_weyl_correspondence(swapped)


@pytest.mark.parametrize("d", (3, 5))
def test_unitary_u_powers(d):
    m = build_mubs_prime(d)
    u1 = unitary_u(m, 2, 1)
    acc = u1.copy()
    for k in range(2, d):
        acc = acc @ u1
        assert np.allclose(acc, unitary_u(m, 2, k), atol=1e-10)
    # one more power closes the cycle
    assert np.allclose(acc @ u1, np.eye(d), atol=1e-10)


def test_unitary_u_eigenvectors():
    d = 5
    m = build_mubs_prime(d)
    omega = np.exp(2j * np.pi / d)
    u = unitary_u(m, 3, 1)
    for l in range(d):
        v = m.basis(3)[l]
        assert np.allclose(u @ v, omega**l * v, atol=1e-10)


def test_unitary_u_rejects_bad_power():
    m = build_mubs_prime(3)
    with pytest.raises(ValueError):
        unitary_u(m, 1, 0)
    with pytest.raises(ValueError):
        unitary_u(m, 1, 3)


def test_dim4_triples_commute_and_close():
    for triple in dim4_triples():
        ops = [pauli_product(i, j) for i, j in triple]
        for a in range(3):
            for b in range(3):
                comm = ops[a] @ ops[b] - ops[b] @ ops[a]
                assert np.max(np.abs(comm)) < 1e-12
        # third element is the product of the first two up to phase
        prod = ops[0] @ ops[1]
        ratio = prod @ np.linalg.inv(ops[2])
        assert np.allclose(ratio, ratio[0, 0] * np.eye(4), atol=1e-12)
        assert abs(abs(ratio[0, 0]) - 1.0) < 1e-12


def test_dim4_set_unbiased():
    m = build_mubs_dim4()
    assert m.n_bases == 5
    assert verify_mub(m)


def test_dim4_bases_diagonalize_their_triples():
    m = build_mubs_dim4()
    for alpha, triple in enumerate(dim4_triples(), start=1):
        b = m.basis(alpha)
        for i, j in triple:
            op = pauli_product(i, j)
            transformed = b.conj() @ op @ b.T
            off = transformed - np.diag(np.diag(transformed))
            assert np.max(np.abs(off)) < 1e-10


def test_mubset_json_round_trip():
    m = build_mubs_prime(3)
    again = MubSet.from_json(m.to_json())
    assert again.dimension == 3
    assert np.allclose(again.bases, m.bases, atol=1e-15)


def test_mubset_validates_shape():
    with pytest.raises(ValueError):
        MubSet(2, np.zeros((3, 2, 3)))


def test_basis_label_out_of_range():
    m = build_mubs_prime(2)
    with pytest.raises(ValueError):
        m.basis(0)
    with pytest.raises(ValueError):
        m.basis(4)
