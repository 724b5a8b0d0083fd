import re
import tracemalloc

import numpy as np
import pytest

from gpchannels.channels import canonical_mub
from gpchannels.errors import UnsupportedDimensionError
from gpchannels.numerics import VALIDATION_TOL
from gpchannels.mub import (
    MubSet,
    _weyl_family,
    build_mubs,
    check_weyl_correspondence,
    displacement_products,
    prime_power,
    unitary_u,
    verify_mub,
    weyl_labels,
)

PRIMES = (2, 3, 5, 7, 11)
PRIME_POWERS = (4, 8, 9, 16, 25, 27)


def weyl_operator(d, k, l):
    # reference W_kl = sum_m omega^{mk} |m><m+l|: the identity with its columns
    # rolled by l, row m scaled by omega^{mk}
    phases = np.exp(2j * np.pi * np.arange(d) * k / d)
    return phases[:, None] * np.roll(np.eye(d), l, axis=1)


def test_is_prime_small_values():
    assert [n for n in range(2, 14) if prime_power(n) == (n, 1)] == [2, 3, 5, 7, 11, 13]
    assert prime_power(1) is None
    assert prime_power(0) is None


def test_prime_power_small_values():
    assert [prime_power(n) for n in (4, 8, 9, 16, 25, 27, 125)] == [
        (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (5, 3)]
    for n in (-4, 6, 10, 12, 36, 100):
        assert prime_power(n) is None


@pytest.mark.parametrize("d", PRIMES)
def test_prime_set_has_d_plus_1_orthonormal_bases(d):
    m = build_mubs(d)
    assert m.n_bases == d + 1
    for alpha in range(1, d + 2):
        b = m.basis(alpha)
        assert np.allclose(b @ b.conj().T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", PRIMES)
def test_prime_set_unbiased(d):
    m = build_mubs(d)
    assert verify_mub(m.bases)
    # spot check one cross overlap exactly
    v = m.basis(1)[0]
    w = m.basis(2)[1]
    assert abs(abs(np.vdot(v, w)) ** 2 - 1.0 / d) < 1e-10


def test_build_mubs_rejects_non_prime_powers():
    # d = 1 fails the dimension check before the prime-power rule
    for d in (1, 6, 10, 12):
        message = "^dimension must be >= 2, got 1$" if d == 1 else rf"d={d} "
        with pytest.raises(UnsupportedDimensionError, match=message):
            build_mubs(d)
        with pytest.raises(UnsupportedDimensionError, match=message):
            weyl_labels(d)


@pytest.mark.parametrize("d", PRIMES)
def test_weyl_labels_prime_form(d):
    # basis alpha <= d holds (k, k(alpha-1)), basis d+1 the shifts (0, k)
    k = np.arange(1, d)
    expect = [k * d + k * s % d for s in range(d)] + [k]
    assert np.array_equal(weyl_labels(d), expect)


@pytest.mark.parametrize("d", PRIMES + PRIME_POWERS)
def test_weyl_labels_partition_into_commuting_sets(d):
    p, n = prime_power(d)
    labels = weyl_labels(d)
    assert labels.shape == (d + 1, d - 1)
    assert np.array_equal(np.sort(labels, axis=None), np.arange(1, d * d))
    if d <= 16:
        for row in labels:
            ops = displacement_products(p, n, row)
            for a in ops:
                for b in ops:
                    assert np.max(np.abs(a @ b - b @ a)) < 1e-12


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2),
                                 (2, 3), (2, 4)])
def test_displacement_products_match_kron_loop(p, n):
    labels = np.arange(p ** (2 * n))
    expect = []
    for flat in labels:
        digits = np.unravel_index(flat, (p,) * (2 * n))
        op = weyl_operator(p, digits[0], digits[1])
        for j in range(2, 2 * n, 2):
            op = np.kron(op, weyl_operator(p, digits[j], digits[j + 1]))
        expect.append(op)
    ops = displacement_products(p, n, labels)
    assert ops.dtype == complex
    assert np.array_equal(ops, expect)
    assert np.array_equal(displacement_products(p, n, labels[::-3]), ops[::-3])


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3),
                                 (2, 4), (5, 2)])
def test_row_sums_are_the_diagonal_of_the_shift_zero_product(p, n):
    # each row holds one nonzero, whose value depends on the phase digits only
    labels = np.arange(p ** (2 * n))
    digits = np.stack(np.unravel_index(labels, (p,) * (2 * n)))
    digits[1::2] = 0
    phase_only = np.ravel_multi_index(tuple(digits), (p,) * (2 * n))
    sums = displacement_products(p, n, labels).sum(axis=2)
    diagonals = np.diagonal(displacement_products(p, n, phase_only), axis1=1, axis2=2)
    assert np.array_equal(sums, diagonals)


def test_weyl_labels_cached_and_read_only():
    labels = weyl_labels(8)
    assert weyl_labels(8) is labels
    with pytest.raises(ValueError):
        labels[0, 0] = 0


def test_weyl_family_cached_and_read_only():
    # the table is a reshaped view of a read-only array, so it cannot be made
    # writeable either
    fam = _weyl_family(3)
    assert _weyl_family(3) is fam and fam.shape == (9, 3, 3)
    with pytest.raises(ValueError):
        fam[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        fam.setflags(write=True)


def test_weyl_operator_composition(rng):
    d = 5
    omega = np.exp(2j * np.pi / d)
    for _ in range(20):
        k1, l1, k2, l2 = rng.integers(0, d, size=4)
        a, b, c = displacement_products(d, 1, [k1 * d + l1, k2 * d + l2,
                                                (k1 + k2) % d * d + (l1 + l2) % d])
        assert np.allclose(a @ b, omega ** (l1 * k2) * c, atol=1e-12)
        assert np.allclose(a @ a.conj().T, np.eye(d), atol=1e-12)


def test_weyl_operator_unitary_and_modular_labels():
    u = weyl_operator(3, 1, 2)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    # labels live on Z_d x Z_d; the phase label to rounding, e^{2 pi i m} ~ 1
    assert np.allclose(weyl_operator(3, 3, 0), weyl_operator(3, 0, 0), atol=1e-12)
    assert np.array_equal(weyl_operator(3, 0, -1), weyl_operator(3, 0, 2))


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_basis_unitaries_are_displacements(d):
    assert check_weyl_correspondence(build_mubs(d))


def test_correspondence_rejects_relabelled_bases():
    # still unbiased, but the Weyl form of a channel assumes the canonical labels
    for d, order in ((5, [0, 2, 1, 3, 4, 5]), (8, [1, 0] + list(range(2, 9)))):
        swapped = MubSet(d, build_mubs(d).bases[order])
        assert verify_mub(swapped.bases)
        assert not check_weyl_correspondence(swapped)
    # a set of fewer than d + 1 bases is refused when it is made
    with pytest.raises(ValueError, match=r"^bases must have shape \(4, 3, 3\), got \(3, 3, 3\)$"):
        MubSet(3, build_mubs(3).bases[:3])


@pytest.mark.parametrize("d", (3, 5))
def test_unitary_u_powers(d):
    m = build_mubs(d)
    u1 = unitary_u(m, 2, 1)
    acc = u1.copy()
    for k in range(2, d):
        acc = acc @ u1
        assert np.allclose(acc, unitary_u(m, 2, k), atol=1e-10)
    # one more power closes the cycle
    assert np.allclose(acc @ u1, np.eye(d), atol=1e-10)


def test_unitary_u_eigenvectors():
    d = 5
    m = build_mubs(d)
    omega = np.exp(2j * np.pi / d)
    u = unitary_u(m, 3, 1)
    for l in range(d):
        v = m.basis(3)[l]
        assert np.allclose(u @ v, omega**l * v, atol=1e-10)


def test_unitary_u_rejects_bad_power():
    m = build_mubs(3)
    with pytest.raises(ValueError):
        unitary_u(m, 1, 0)
    with pytest.raises(ValueError):
        unitary_u(m, 1, 3)


@pytest.mark.parametrize("d", PRIME_POWERS)
def test_prime_power_set_is_unbiased_and_diagonalizes_its_labels(d):
    # 16 and 25 are the two-copy dimensions of d = 4 and 5: the search takes
    # the warm starts of tensor(c, c) from these sets (canonical_mub caches them)
    m = build_mubs(d)
    assert m.n_bases == d + 1
    assert verify_mub(m.bases)
    assert check_weyl_correspondence(m)


def test_dim4_set_unbiased():
    m = build_mubs(4)
    assert m.n_bases == 5
    assert verify_mub(m.bases)


def test_dim4_bases_diagonalize_their_triples():
    m = build_mubs(4)
    labels = weyl_labels(4)
    assert labels.shape == (5, 3)
    for alpha, triple in enumerate(labels, start=1):
        b = m.basis(alpha)
        for op in displacement_products(2, 2, triple):
            transformed = b.conj() @ op @ b.T
            off = transformed - np.diag(np.diag(transformed))
            assert np.max(np.abs(off)) < 1e-10


def test_mubset_validates_shape():
    with pytest.raises(ValueError):
        MubSet(2, np.zeros((3, 2, 3)))


def _repeated_basis(d):
    bases = build_mubs(d).bases.copy()
    bases[3] = bases[2]
    return bases


@pytest.mark.parametrize("make, error, message", [
    (lambda: MubSet(True, build_mubs(2).bases), UnsupportedDimensionError,
     "dimension must be an integer, got True"),
    (lambda: MubSet(2.0, build_mubs(2).bases), UnsupportedDimensionError,
     "dimension must be an integer, got 2.0"),
    # the dimension rule comes before the shape
    (lambda: MubSet(1, np.zeros((1, 1, 1))), UnsupportedDimensionError,
     "dimension must be >= 2, got 1"),
    (lambda: MubSet(6, np.stack([np.eye(6)] * 7)), UnsupportedDimensionError,
     "no basis construction for d=6 (prime power required)"),
    # the prime-power rule comes before the shape
    (lambda: MubSet(6, np.zeros((2, 3, 3))), UnsupportedDimensionError,
     "no basis construction for d=6 (prime power required)"),
    (lambda: MubSet(3, build_mubs(3).bases[:3]), ValueError,
     "bases must have shape (4, 3, 3), got (3, 3, 3)"),
    # the shape comes before unbiasedness
    (lambda: MubSet(4, np.zeros((5, 4, 3))), ValueError,
     "bases must have shape (5, 4, 4), got (5, 4, 3)"),
    (lambda: MubSet(5, _repeated_basis(5)), ValueError,
     "basis set (d=5) is not mutually unbiased"),
], ids=["bool", "float", "below-2", "identity-copies", "d6-wrong-shape", "truncated",
        "wrong-shape", "repeated"])
def test_mubset_refuses_a_bad_set_when_it_is_made(make, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        make()


def test_mubset_stores_an_int_and_a_read_only_copy():
    bases = build_mubs(3).bases.copy()
    m = MubSet(np.int64(3), bases)
    assert type(m.dimension) is int and m.dimension == 3
    assert np.array_equal(m.bases, bases) and m.bases is not bases
    with pytest.raises(ValueError, match="read-only"):
        m.bases[0, 0, 0] = 1.0
    # the caller's array stays writable, and writing to it leaves the set alone
    bases[0, 0, 0] = 7.0
    assert bases.flags.writeable and m.bases[0, 0, 0] != 7.0
    assert verify_mub(m.bases)


def test_basis_label_out_of_range():
    m = build_mubs(2)
    with pytest.raises(ValueError):
        m.basis(0)
    with pytest.raises(ValueError):
        m.basis(4)


def _verify_mub_pairwise(bases):
    """verify_mub as one Gram product per basis and per pair of bases."""
    n, d = bases.shape[:2]
    for a in range(n):
        gram = bases[a] @ bases[a].conj().T
        if np.max(np.abs(gram - np.eye(d))) > VALIDATION_TOL:
            return False
        for b in range(a + 1, n):
            overlaps = np.abs(bases[a] @ bases[b].conj().T) ** 2
            if np.max(np.abs(overlaps - 1.0 / d)) > VALIDATION_TOL:
                return False
    return True


def _mub_variants(d):
    """The canonical set, and copies broken in one place or perturbed below tolerance."""
    good = build_mubs(d).bases
    repeated = good.copy()
    repeated[-1] = repeated[0]
    scaled = good.copy()
    scaled[1, 0] *= 1.0 + 1e-6
    rotated = good.copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    rotated[2, :2] = [c * good[2, 0] + s * good[2, 1], -s * good[2, 0] + c * good[2, 1]]
    swapped = good.copy()
    swapped[0, 0], swapped[1, 0] = good[1, 0], good[0, 0]
    within = good * np.exp(1j * 1e-12)
    return {"canonical": good, "repeated": repeated, "scaled": scaled,
            "rotated": rotated, "swapped": swapped, "within": within}


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7, 8, 9))
def test_verify_mub_matches_pairwise_loop(d):
    verdicts = {}
    for name, bases in _mub_variants(d).items():
        verdicts[name] = verify_mub(bases)
        assert verdicts[name] == _verify_mub_pairwise(bases), name
        # MubSet refuses exactly the sets that verify_mub rejects
        if verdicts[name]:
            assert np.array_equal(MubSet(d, bases).bases, bases), name
        else:
            with pytest.raises(ValueError, match=rf"^basis set \(d={d}\) is not mutually "
                                                 r"unbiased$"):
                MubSet(d, bases)
    assert verdicts == {"canonical": True, "repeated": False, "scaled": False,
                        "rotated": False, "swapped": False, "within": True}


def test_verify_mub_memory_stays_a_few_copies_of_the_bases():
    # one Gram row block per basis; the whole (n d)^2 Gram matrix at D = 25
    # would take 26 times the bases' 0.26 MB, about 0.7 GB at D = 81
    bases = np.array(build_mubs(25).bases)
    tracemalloc.start()
    try:
        assert verify_mub(bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * bases.nbytes


def test_verify_mub_reads_its_bases_through_the_number_check():
    bases = canonical_mub(3).bases
    assert verify_mub(bases.tolist()) is verify_mub(bases) is True
    for bad in (bases.astype(str), bases.real > 0.5):
        with pytest.raises(ValueError, match="^bases must be complex numbers, got "):
            verify_mub(bad)
    with pytest.raises(ValueError,
                       match=r"^bases must be an \(n, d, d\) stack, got shape \(3, 3\)$"):
        verify_mub(bases[0])
