import numpy as np
import pytest

from qkdnet import states
from qkdnet.analysis import random_density
from qkdnet.adversary import (AdversarySpec, ChannelSpec, DishonestSpec,
                              apply_attack, corrupt_announcement,
                              parse_adversary)
from qkdnet.errors import InvalidArgumentError


def _assert_cptp(kraus, dim):
    acc = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    assert np.allclose(acc, np.eye(dim))


@pytest.mark.parametrize("spec", [
    ChannelSpec(kind="identity"),
    ChannelSpec(kind="depolarizing", p=0.3),
    ChannelSpec(kind="intercept_resend"),
    ChannelSpec(kind="intercept_resend", bases=("X", "Y", "Z")),
    ChannelSpec(kind="pauli", pauli_probs={"II": 0.5, "XY": 0.25, "ZZ": 0.25}),
])
def test_kraus_completeness(spec):
    n = 2
    _assert_cptp(spec.kraus_terms(n), 2 ** n)


def test_depolarizing_output_fidelity():
    # rho -> (1-p) rho + p I/2, so F(|0><0|) = 1 - p/2
    p = 0.1
    spec = ChannelSpec(kind="depolarizing", p=p, targets=("a",))
    dm = states.to_density(states.basis_state([0], [("a", 0)]))
    out = apply_attack(dm, spec)
    assert out.matrix[0, 0].real == pytest.approx(1 - p / 2)
    assert out.matrix[1, 1].real == pytest.approx(p / 2)


def test_intercept_resend_channel_on_bell_pair():
    # measuring one half dephases the pair: the surviving Bell fidelity is
    # 1/2 for each basis guess, and matched-basis test bits err with rate 1/4
    spec = ChannelSpec(kind="intercept_resend", targets=("a",))
    bell = states.make_cat(2, states.PHI_PLUS, [("a", 0), ("b", 0)])
    labels = bell.labels
    out = apply_attack(states.to_density(bell), spec)
    f = states.fidelity(out, states.to_density(bell))
    assert f == pytest.approx(0.5)
    # QBER oracle: X-test error = weight of anti-correlated X outcomes
    plus = states.eigenstate("X", 0, ("a", 0))
    minus = states.eigenstate("X", 1, ("b", 0))
    odd = states.tensor(plus, minus)
    proj = np.outer(odd.amplitudes, odd.amplitudes.conj())
    qber = 2 * np.trace(proj @ out.matrix).real
    assert qber == pytest.approx(0.25)


@pytest.mark.parametrize("spec, width", [
    (ChannelSpec(kind="depolarizing", p=0.5, targets=("a",)), 1),
    (ChannelSpec(kind="pauli", targets=("a",),
                 pauli_probs={"XI": 0.5, "IZ": 0.3, "YY": 0.2}), 2),
    (ChannelSpec(kind="fixed_pauli", operator="XZ", targets=("a",)), 2),
], ids=["depolarizing", "pauli-table", "fixed-pauli-XZ"])
def test_sample_apply_trajectories_average_to_channel(spec, width):
    rng = np.random.default_rng(12)
    targets = [("a", i) for i in range(width)]
    cat = states.make_cat(width + 1, states.PHI_PLUS, targets + [("b", 0)])
    dim = 2 ** (width + 1)
    acc = np.zeros((dim, dim), dtype=complex)
    trials = 4000
    for _ in range(trials):
        traj = spec.sample_apply(cat, targets, rng)
        acc += states.to_density(traj).matrix / trials
    exact = apply_attack(states.to_density(cat), spec).matrix
    assert np.max(np.abs(acc - exact)) < 0.03


_PER_QUBIT = {
    "identity": ChannelSpec(kind="identity", targets=("a",)),
    "depolarizing": ChannelSpec(kind="depolarizing", p=0.3, targets=("a",)),
    "intercept-XY": ChannelSpec(kind="intercept_resend", targets=("a",)),
    "intercept-XYZ": ChannelSpec(kind="intercept_resend",
                                 bases=("X", "Y", "Z"), targets=("a",)),
    "fixed-pauli-X": ChannelSpec(kind="fixed_pauli", operator="X",
                                 targets=("a",)),
}
_JOINT = {
    "pauli-table": ChannelSpec(kind="pauli", targets=("a",),
                               pauli_probs={"XI": 0.5, "IZ": 0.3, "YY": 0.2}),
    "fixed-pauli-XZ": ChannelSpec(kind="fixed_pauli", operator="XZ",
                                  targets=("a",)),
}


@pytest.mark.parametrize("spec", [*_PER_QUBIT.values(), *_JOINT.values()],
                         ids=[*_PER_QUBIT, *_JOINT])
def test_apply_attack_matches_joint_kraus(spec):
    # member a's two qubits sit behind b's, so neither is a leading axis
    labels = (("b", 0), ("a", 0), ("a", 1))
    rho = random_density(8, np.random.default_rng(31))
    dm = states.DensityMatrix(labels, rho)
    kraus = spec.kraus_terms(2)
    embedded = [np.kron(np.eye(2), k) for k in kraus]
    dense = sum(k @ rho @ k.conj().T for k in embedded)
    out = apply_attack(dm, spec)
    joint = states.apply_kraus(dm, kraus, labels[1:])
    assert out.labels == labels and joint.labels == labels
    assert np.max(np.abs(joint.matrix - dense)) < 1e-12
    assert np.max(np.abs(out.matrix - joint.matrix)) < 1e-12


def test_fixed_pauli_deterministic():
    rng = np.random.default_rng(0)
    spec = ChannelSpec(kind="fixed_pauli", operator="X", targets=("a",))
    st = states.basis_state([0], [("a", 0)])
    out = spec.sample_apply(st, [("a", 0)], rng)
    assert np.allclose(np.abs(out.amplitudes) ** 2, [0, 1])


def test_corrupt_announcement_modes():
    rng = np.random.default_rng(1)
    lie_b = DishonestSpec(member="m1", mode="lie_basis")
    assert corrupt_announcement("X", lie_b, rng) == "Y"
    assert corrupt_announcement("Y", lie_b, rng) == "X"
    lie_o = DishonestSpec(member="m1", mode="lie_outcome", p=1.0)
    assert corrupt_announcement(0, lie_o, rng) == 1
    drop = DishonestSpec(member="m1", mode="silent_drop")
    assert corrupt_announcement(1, drop, rng) is None
    assert corrupt_announcement(1, None, rng) == 1


def test_parse_grammar_round_trip():
    spec = parse_adversary(
        "depolarize:p=0.1@m2,intercept@member1,lie-outcome:p=1.0@m3,"
        "fixed-pauli:op=XZ@m4,pauli:II=0.9;XX=0.1@m5")
    assert len(spec.channels) == 4
    assert len(spec.dishonest) == 1
    dep = spec.channels_for("m2")[0]
    assert dep.kind == "depolarizing" and dep.p == pytest.approx(0.1)
    assert spec.channels_for("m1")[0].kind == "intercept_resend"
    assert spec.dishonest_for("m3").mode == "lie_outcome"
    assert spec.channels_for("m4")[0].operator == "XZ"
    assert spec.channels_for("m5")[0].pauli_probs == {"II": 0.9, "XX": 0.1}
    assert parse_adversary("").channels == []
    assert parse_adversary(None).dishonest == []


def test_parse_member_aliases():
    spec = parse_adversary("intercept@member2,depolarize:p=0.2@center")
    assert spec.channels[0].targets == ("m2",)
    assert spec.channels[1].targets == ("C",)
    # upper case used to match no member, so the attack silently vanished
    assert parse_adversary("intercept@M1").channels[0].targets == ("m1",)


@pytest.mark.parametrize("bad", [
    "depolarize:p=0.1",          # missing member
    "warp@m1",                   # unknown kind
    "depolarize:p=2@m1",         # out of range
    "pauli:II=0.5;XX=0.2@m1",    # probabilities don't sum to 1
    "depolarize:p=0.1;q=3@m1",   # unknown parameter
    "lie-outcome:@m1",           # malformed parameters
    "depolarize:p=abc@m1",       # parameter values must be numbers
    "pauli:XX=zz@m1",
    "lie-outcome:p=x@m1",
    "depolarize:p=0.1@m1@m2",    # two members
    "pauli:I=nan@m1",            # NaN passed the sum check
])
def test_parse_rejects_invalid_specs(bad):
    with pytest.raises(InvalidArgumentError):
        parse_adversary(bad)


def test_invalid_channel_specs_rejected():
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="depolarizing", p=1.5)
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="pauli", pauli_probs={"II": 0.5})
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="fixed_pauli")
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="intercept_resend", bases=("Q",))
