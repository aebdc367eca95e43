import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet.errors import InvalidArgumentError
from qkdnet.paulis import PauliOperator, parity, pauli_mul

from helpers import hermitian_pauli

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


@st.composite
def paulis(draw, n=None):
    """A Pauli with any phase on n (default: 1 to 6) qubits."""
    if n is None:
        n = draw(st.integers(1, 6))
    mask = st.integers(0, 2 ** n - 1)
    return PauliOperator(n, draw(mask), draw(mask), draw(st.integers(0, 3)))


pauli_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(paulis(n), paulis(n)))


def test_from_string_matches_dense_matrices():
    for s in ("I", "X", "Y", "Z", "XY", "ZZY", "IYXZ"):
        op = PauliOperator.from_string(s)
        assert np.allclose(op.to_matrix(), dense(s))
        assert op.to_string() == s
    # qubit 0 is the top mask bit; each Y carries an i
    assert PauliOperator.from_string("XIZY") == PauliOperator(4, 0b1001,
                                                              0b0011, 1)


@settings(deadline=None)
@given(paulis())
def test_string_round_trip_and_matrix_match_letters(p):
    s = p.to_string()
    extra = p.phase - s.count("Y")  # phase beyond the Hermitian letters
    assert PauliOperator.from_string(s, extra) == p
    assert np.allclose(p.to_matrix(), 1j ** extra * dense(s))


@settings(deadline=None)
@given(pauli_pairs)
def test_pauli_mul_matches_dense(pair):
    a, b = pair
    assert np.allclose(pauli_mul(a, b).to_matrix(),
                       a.to_matrix() @ b.to_matrix())


@settings(deadline=None)
@given(paulis())
def test_hermitian_matches_dense(p):
    h = p.hermitian()
    m = h.to_matrix()
    assert (h.n, h.x, h.z) == (p.n, p.x, p.z)
    assert np.allclose(m, m.conj().T)


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


@settings(deadline=None)
@given(pauli_pairs)
def test_commutation_matches_dense(pair):
    a, b = pair
    ma, mb = a.to_matrix(), b.to_matrix()
    assert a.commutes_with(b) == np.allclose(ma @ mb, mb @ ma)


def test_hermitian_phase_convention():
    # Y = i * XZ in the internal convention; hermitian() restores i**(x.z)
    op = PauliOperator(1, 1, 1, phase=0)  # bare XZ
    assert np.allclose(op.to_matrix(), X @ Z)
    assert np.allclose(op.hermitian().to_matrix(), Y)
    h = hermitian_pauli([1, 1, 0], [1, 0, 1])
    m = h.to_matrix()
    assert np.allclose(m, m.conj().T)


def test_phase_value_cycle():
    for k in range(4):
        op = PauliOperator(1, 0, 0, phase=k)
        assert np.allclose(op.to_matrix(), (1j) ** k * I2)


def test_mismatched_lengths_rejected():
    for n, x, z in ((2, 0b100, 0), (2, 0, 0b111), (1, -1, 0), (-1, 0, 0)):
        with pytest.raises(InvalidArgumentError):
            PauliOperator(n, x, z)  # a mask wider than n
    with pytest.raises(InvalidArgumentError):
        hermitian_pauli([1, 0], [1])
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
