import itertools

import numpy as np
import pytest

from qkdnet.errors import InvalidArgumentError
from qkdnet.paulis import PauliOperator, parity, pauli_mul, symplectic_product

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(s):
    m = np.array([[1.0 + 0j]])
    for c in s:
        m = np.kron(m, MATS[c])
    return m


def test_from_string_matches_dense_matrices():
    for s in ("I", "X", "Y", "Z", "XY", "ZZY", "IYXZ"):
        op = PauliOperator.from_string(s)
        assert np.allclose(op.to_matrix(), dense(s))
        assert op.to_string() == s


def test_single_qubit_multiplication_table():
    # i.e. XY = iZ, YX = -iZ, etc., against dense matrix products
    for a, b in itertools.product("IXYZ", repeat=2):
        pa, pb = PauliOperator.from_string(a), PauliOperator.from_string(b)
        assert np.allclose(pauli_mul(pa, pb).to_matrix(), MATS[a] @ MATS[b])


def test_multi_qubit_multiplication_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        sa = "".join(rng.choice(list("IXYZ"), size=n))
        sb = "".join(rng.choice(list("IXYZ"), size=n))
        pa, pb = PauliOperator.from_string(sa), PauliOperator.from_string(sb)
        assert np.allclose(pauli_mul(pa, pb).to_matrix(), dense(sa) @ dense(sb))


def test_commutation_equals_symplectic_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        pa = PauliOperator(rng.integers(0, 2, n), rng.integers(0, 2, n))
        pb = PauliOperator(rng.integers(0, 2, n), rng.integers(0, 2, n))
        ma, mb = pa.to_matrix(), pb.to_matrix()
        commutes = np.allclose(ma @ mb, mb @ ma)
        assert pa.commutes_with(pb) == commutes
        assert (symplectic_product(pa.symplectic(), pb.symplectic()) == 0) \
            == commutes


def test_hermitian_phase_convention():
    # Y = i * XZ in the internal convention; hermitian() restores i**(x.z)
    op = PauliOperator(np.array([1]), np.array([1]), phase=0)  # bare XZ
    assert np.allclose(op.to_matrix(), X @ Z)
    assert np.allclose(op.hermitian().to_matrix(), Y)
    h = PauliOperator.from_bits_hermitian([1, 1, 0], [1, 0, 1])
    m = h.to_matrix()
    assert np.allclose(m, m.conj().T)


def test_phase_value_cycle():
    for k in range(4):
        op = PauliOperator(np.array([0]), np.array([0]), phase=k)
        assert np.allclose(op.to_matrix(), (1j) ** k * I2)


def test_mismatched_lengths_rejected():
    with pytest.raises(InvalidArgumentError):
        PauliOperator(np.array([1, 0]), np.array([1]))
    a = PauliOperator.from_string("XX")
    b = PauliOperator.from_string("X")
    with pytest.raises(InvalidArgumentError):
        pauli_mul(a, b)
    with pytest.raises(InvalidArgumentError):
        PauliOperator.from_string("XQ")


def test_repr_factors_hermitian_phase():
    assert repr(PauliOperator.from_string("Y")) == "Y"
    assert repr(PauliOperator.from_string("XZ", phase=2)) == "-XZ"


def test_parity_folds_all_64_bits():
    rng = np.random.default_rng(3)
    values = np.concatenate([
        rng.integers(2 ** 16, 2 ** 62, size=500),
        [2 ** 16, 2 ** 16 + 1, 2 ** 31 + 1, 2 ** 32, 2 ** 48 + 3, 2 ** 63 - 1],
    ]).astype(np.int64)
    want = [int(v).bit_count() & 1 for v in values]
    assert parity(values).tolist() == want
    assert int(parity(2 ** 40)) == 1
