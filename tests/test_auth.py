import numpy as np
import pytest

from qkdnet import protocol, states
from qkdnet.adversary import parse_adversary
from qkdnet.auth import (ACCEPT, REJECT, AuthKeys, apply_pad, auth_receive,
                         auth_receive_in_place, auth_send, auth_send_in_place,
                         keygen, untouched_receive)
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


@pytest.mark.parametrize("bits", [1, 3, 5])
def test_pad_needs_two_bits_per_label(bits):
    # a 1-bit pad once applied the identity, a 5-bit one dropped its last bit
    st = states.basis_state([0, 0], (("l", 0), ("l", 1)))
    for inverse in (False, True):
        with pytest.raises(InvalidArgumentError):
            apply_pad(st, np.ones(bits, dtype=np.uint8), st.labels, inverse)


def test_clean_channel_round_trip(fam):
    rng = np.random.default_rng(2)
    for _ in range(10):
        keys = keygen(fam.r, fam.s, rng)
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
        keys = keygen(fam.r, fam.s, rng)
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
    keys = keygen(fam.r, fam.s, rng)
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
    keys = keygen(fam.r, fam.s, rng)
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
    keys = keygen(fam.r, fam.s, rng)
    with pytest.raises(InvalidArgumentError):
        AuthKeys(k=99, x=keys.x, y=keys.y).validate(fam)
    with pytest.raises(InvalidArgumentError):
        AuthKeys(k=keys.k, x=keys.x[:2], y=keys.y).validate(fam)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rs", [(2, 2), (2, 3), (3, 2)],
                         ids=["r2-s2", "r2-s3", "r3-s2"])
def test_untouched_round_trip_takes_the_dense_chain_draws(rs, seed):
    # m1's block inside a protocol-2 initial state: the dense chain with no
    # channel accepts and returns the state, and the draw-only path (keys,
    # then the syndrome draws) leaves its generator where the dense chain
    # leaves its own
    r, s = rs
    t = (r - 1) * s
    fam = gen_purity_family(r, s, seed=seed)
    state = protocol._initial_state(protocol.NetworkConfig(
        n=2, m=1, t=t, protocol=2, family_params=rs))
    block = [("m1", c) for c in range(t)]
    phys = [("m1", i) for i in range(fam.u)]
    dense_rng, draw_rng = (np.random.default_rng(seed) for _ in range(2))
    for _ in range(3):  # a few blocks per seed: several keys and syndromes
        keys = keygen(r, s, dense_rng)
        sent = auth_send_in_place(keys, fam, state, block, out_labels=phys)
        outcome = auth_receive_in_place(keys, fam, sent, phys, dense_rng,
                                        out_labels=block)
        assert outcome.accepted
        assert np.array_equal(outcome.measured_syndrome, keys.y)
        back = states.permute_labels(outcome.logical_state, state.labels)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12
        drawn = keygen(r, s, draw_rng)
        assert (drawn.k, drawn.x.tolist(), drawn.y.tolist()) == (
            keys.k, keys.x.tolist(), keys.y.tolist())
        untouched_receive(s, draw_rng)
        assert dense_rng.bit_generator.state == draw_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rs", [(2, 2), (2, 3), (3, 2)],
                         ids=["r2-s2", "r2-s3", "r3-s2"])
def test_identity_trajectory_takes_the_dense_chain_draws(rs, seed):
    # m1's block under channels whose every draw is the identity, one of
    # them drawing per qubit: the dense chain accepts, measures y and
    # returns the state, and the draw-only path (keys, the channels' draws,
    # then the syndrome draws) leaves its generator where the chain does
    r, s = rs
    t = (r - 1) * s
    fam = gen_purity_family(r, s, seed=seed)
    state = protocol._initial_state(protocol.NetworkConfig(
        n=2, m=1, t=t, protocol=2, family_params=rs))
    block = [("m1", c) for c in range(t)]
    phys = [("m1", i) for i in range(fam.u)]
    channels = parse_adversary(
        f"identity@m1,depolarize:p=0@m1,fixed-pauli:op={'I' * fam.u}@m1"
    ).channels
    dense_rng, draw_rng = (np.random.default_rng(seed) for _ in range(2))
    for _ in range(3):
        keys = keygen(r, s, dense_rng)
        sent = auth_send_in_place(keys, fam, state, block, out_labels=phys)
        for ch in channels:
            sent = ch.sample_apply(sent, phys, dense_rng)
        outcome = auth_receive_in_place(keys, fam, sent, phys, dense_rng,
                                        out_labels=block)
        assert outcome.accepted
        assert np.array_equal(outcome.measured_syndrome, keys.y)
        back = states.permute_labels(outcome.logical_state, state.labels)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12
        drawn = keygen(r, s, draw_rng)
        assert (drawn.k, drawn.x.tolist(), drawn.y.tolist()) == (
            keys.k, keys.x.tolist(), keys.y.tolist())
        assert [e for ch in channels for e in ch.draw_paulis(phys, draw_rng)
                ] == []
        untouched_receive(s, draw_rng)
        assert dense_rng.bit_generator.state == draw_rng.bit_generator.state
