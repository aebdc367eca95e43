import numpy as np
import pytest

from qkdnet import states
from qkdnet.auth import (ACCEPT, REJECT, AuthKeys, apply_pad, auth_receive,
                         auth_send, keygen)
from qkdnet.errors import InvalidArgumentError
from qkdnet.paulis import PauliOperator
from qkdnet.stabilizer import gen_purity_family, syndrome

from helpers import hermitian_pauli


@pytest.fixture(scope="module")
def fam():
    return gen_purity_family(2, 2, seed=5)


def random_logical(rng, labels=(("l", 0), ("l", 1))):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return states.PureStateVector(tuple(labels), amps)


def test_pad_is_self_inverse():
    rng = np.random.default_rng(1)
    for _ in range(10):
        st = random_logical(rng)
        x = rng.integers(0, 2, size=4).astype(np.uint8)
        padded = apply_pad(st, x, st.labels)
        back = apply_pad(padded, x, st.labels, inverse=True)
        assert np.allclose(back.amplitudes, st.amplitudes)


def test_pad_bits_select_x_then_z():
    st = random_logical(np.random.default_rng(2))
    # bits (x1, x2) of qubit j apply X^x1 Z^x2: X on qubit 0, bare XZ on 1
    padded = apply_pad(st, np.array([1, 0, 1, 1], dtype=np.uint8), st.labels)
    want = PauliOperator(2, 0b11, 0b01).to_matrix() @ st.amplitudes
    assert np.allclose(padded.amplitudes, want)


def test_clean_channel_round_trip(fam):
    rng = np.random.default_rng(2)
    for _ in range(10):
        keys = keygen(fam, rng)
        st = random_logical(rng)
        physical = auth_send(keys, fam, st)
        assert physical.num_qubits == fam.u
        outcome = auth_receive(keys, fam, physical, rng,
                               out_labels=st.labels)
        assert outcome.verdict == ACCEPT
        assert states.fidelity(states.to_density(outcome.logical_state),
                               states.to_density(st)) == pytest.approx(1.0)


def test_nonzero_syndrome_error_always_rejected(fam):
    rng = np.random.default_rng(3)
    for _ in range(30):
        keys = keygen(fam, rng)
        code = fam.codes[keys.k]
        while True:
            e = hermitian_pauli(rng.integers(0, 2, 4),
                                rng.integers(0, 2, 4))
            if syndrome(code, e).any():
                break
        st = random_logical(rng)
        physical = auth_send(keys, fam, st)
        attacked = states.apply_pauli(physical, e, physical.labels)
        outcome = auth_receive(keys, fam, attacked, rng)
        assert outcome.verdict == REJECT
        assert outcome.logical_state is None


def test_syndrome_trivial_logical_error_accepted_but_corrupts(fam):
    rng = np.random.default_rng(4)
    keys = keygen(fam, rng)
    code = fam.codes[keys.k]
    # logical X of the chosen code: trivial syndrome, not in the stabilizer
    e = code.logical_x[0]
    st = states.basis_state([0, 0], [("l", 0), ("l", 1)])
    physical = auth_send(keys, fam, st)
    attacked = states.apply_pauli(
        physical, PauliOperator.from_string(e.to_string()), physical.labels)
    outcome = auth_receive(keys, fam, attacked, rng, out_labels=st.labels)
    assert outcome.verdict == ACCEPT
    f = states.fidelity(states.to_density(outcome.logical_state),
                        states.to_density(st))
    assert f < 0.5


def test_pad_hides_plaintext_from_channel(fam):
    """Averaged over the pad, the transmitted block is plaintext-independent."""
    rng = np.random.default_rng(6)
    keys = keygen(fam, rng)
    avgs = []
    for bits in ([0, 0], [1, 1]):
        st = states.basis_state(bits, [("l", 0), ("l", 1)])
        avg = np.zeros((2 ** fam.u, 2 ** fam.u), dtype=complex)
        for pad in range(16):
            x = np.array([(pad >> i) & 1 for i in range(4)], dtype=np.uint8)
            k2 = AuthKeys(k=keys.k, x=x, y=keys.y)
            physical = auth_send(k2, fam, st)
            avg += states.to_density(physical).matrix / 16
        avgs.append(avg)
    assert np.max(np.abs(avgs[0] - avgs[1])) < 1e-12


def test_keygen_validation(fam):
    rng = np.random.default_rng(0)
    keys = keygen(fam, rng)
    with pytest.raises(InvalidArgumentError):
        AuthKeys(k=99, x=keys.x, y=keys.y).validate(fam)
    with pytest.raises(InvalidArgumentError):
        AuthKeys(k=keys.k, x=keys.x[:2], y=keys.y).validate(fam)
