import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import states
from qkdnet.adversary import (AdversarySpec, ChannelSpec, DishonestSpec,
                              apply_attack, corrupt_announcement,
                              parse_adversary)
from qkdnet.errors import InvalidArgumentError

from helpers import random_density


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


def test_channel_terms_are_built_once_per_width():
    ch = ChannelSpec(kind="depolarizing", p=0.2, targets=("a",))
    for width in (1, 2):
        kraus, sup = ch.kraus_terms(width), ch.superoperator(width)
        assert ch.kraus_terms(width) is kraus
        assert ch.superoperator(width) is sup
        assert not kraus.flags.writeable and not sup.flags.writeable
        want = sum(np.kron(k, k.conj()) for k in kraus)
        assert np.abs(sup - want).max() <= 1e-15


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


@pytest.mark.parametrize("bases", ["XY", "XYZ", "X"])
def test_intercept_pauli_form_matches_measure_and_resend(bases):
    # oracle: measure in a random basis of B, resend the eigenstate,
    # sum_b sum_e |e><e| rho |e><e| / |B|, on a target behind b's qubit
    labels = (("b", 0), ("a", 0), ("b", 1))
    rho = random_density(8, np.random.default_rng(5))

    def on_target(m):
        return np.kron(np.kron(np.eye(2), m), np.eye(2))

    oracle = sum(on_target(np.outer(e, e.conj())) @ rho
                 @ on_target(np.outer(e, e.conj()))
                 for b in bases for e in states.eigenvectors(b)) / len(bases)
    spec = ChannelSpec(kind="intercept_resend", bases=tuple(bases),
                       targets=("a",))
    kraus = [on_target(k) for k in spec.kraus_terms(1)]
    pauli_form = sum(k @ rho @ k.conj().T for k in kraus)
    assert np.max(np.abs(pauli_form - oracle)) < 1e-12
    out = apply_attack(states.DensityMatrix(labels, rho), spec)
    assert np.max(np.abs(out.matrix - oracle)) < 1e-12


@pytest.mark.parametrize("spec, width", [
    (ChannelSpec(kind="identity", targets=("a",)), 1),
    (ChannelSpec(kind="depolarizing", p=0.5, targets=("a",)), 1),
    (ChannelSpec(kind="fixed_pauli", operator="X", targets=("a",)), 1),
    (ChannelSpec(kind="intercept_resend", targets=("a",)), 1),
    (ChannelSpec(kind="intercept_resend", bases=("X", "Y", "Z"),
                 targets=("a",)), 1),
    (ChannelSpec(kind="pauli", targets=("a",),
                 pauli_probs={"XI": 0.5, "IZ": 0.3, "YY": 0.2}), 2),
    (ChannelSpec(kind="fixed_pauli", operator="XZ", targets=("a",)), 2),
], ids=["identity", "depolarizing", "fixed-pauli-X", "intercept-XY",
        "intercept-XYZ", "pauli-table", "fixed-pauli-XZ"])
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
    assert out.labels == labels
    assert np.max(np.abs(out.matrix - dense)) < 1e-12


def test_one_letter_pauli_table_acts_on_each_qubit():
    # like a one-letter fixed Pauli; a wider table must span the block
    single = ChannelSpec(kind="pauli", pauli_probs={"I": 0.8, "X": 0.2})
    joint = ChannelSpec(kind="pauli", pauli_probs={
        "II": 0.64, "IX": 0.16, "XI": 0.16, "XX": 0.04})
    rho = random_density(4, np.random.default_rng(8))
    out = [sum(k @ rho @ k.conj().T for k in spec.kraus_terms(2))
           for spec in (single, joint)]
    assert np.max(np.abs(out[0] - out[1])) < 1e-12
    single.check_arity(3)
    with pytest.raises(InvalidArgumentError, match="block has 3"):
        joint.check_arity(3)


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
    # the default p = 1 lies without a draw, so the stream is untouched
    assert rng.random() == np.random.default_rng(1).random()
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


def test_lie_basis_honours_p():
    rng = np.random.default_rng(4)
    never = DishonestSpec(member="m1", mode="lie_basis", p=0.0)
    assert [corrupt_announcement("X", never, rng) for _ in range(50)] \
        == ["X"] * 50
    half = DishonestSpec(member="m1", mode="lie_basis", p=0.5)
    lies = sum(corrupt_announcement("Y", half, rng) == "X"
               for _ in range(2000))
    assert 900 < lies < 1100
    # outcome bits pass through a basis liar, and draw nothing
    state = rng.bit_generator.state
    assert corrupt_announcement(1, half, rng) == 1
    assert rng.bit_generator.state == state


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
    # parameters the kind never reads used to be dropped silently
    "intercept:p=0.0@m1",
    "identity:p=0.3@m1",
    "fixed-pauli:op=X;p=0.2@m1",
    "depolarize:p=0.1;bases=XZ@m1",
    "pauli:X=1;op=Z@m1",
    "silent-drop:p=0.5@C",
    "depolarize:p=0.1;p=0.2@m1",  # the first value used to be dropped
    "pauli:x=0.5;X=0.5@m1",
])
def test_parse_rejects_invalid_specs(bad):
    with pytest.raises(InvalidArgumentError):
        parse_adversary(bad)


# --------------------------------------------------------------------------
# property tests over the spec-string grammar of the cli docstring
# --------------------------------------------------------------------------

_probability = st.floats(0.0, 1.0).map(repr)


@st.composite
def _mixed_case(draw, alphabet, min_size, max_size):
    """Letters of ``alphabet`` in random case; returns (text, upper case)."""
    text = draw(st.text(alphabet, min_size=min_size, max_size=max_size))
    cased = "".join(c.lower() if draw(st.booleans()) else c for c in text)
    return cased, text


@st.composite
def _member(draw):
    """A member spelling and the target it names."""
    i = draw(st.integers(1, 9))
    return draw(st.sampled_from([
        (f"m{i}", f"m{i}"), (f"M{i}", f"m{i}"), (f"member{i}", f"m{i}"),
        (f"Member{i}", f"m{i}"), ("C", "C"), ("c", "C"), ("center", "C")]))


_CHANNEL_KINDS = {"identity": "identity", "depolarize": "depolarizing",
                  "depolarizing": "depolarizing", "pauli": "pauli",
                  "intercept": "intercept_resend",
                  "intercept-resend": "intercept_resend",
                  "fixed-pauli": "fixed_pauli"}
_DISHONEST_KINDS = ("lie-basis", "lie-outcome", "silent-drop")


@st.composite
def _attack(draw):
    """One valid attack as [name, [[key, value], ...], "@member"], and the
    ``ChannelSpec`` or ``DishonestSpec`` it parses to."""
    spelled, target = draw(_member())
    name = draw(st.sampled_from([*_CHANNEL_KINDS, *_DISHONEST_KINDS]))
    params = []
    if name in _DISHONEST_KINDS:
        p = None if name == "silent-drop" else draw(st.none() | _probability)
        if p is not None:
            params.append(["p", p])
        want = DishonestSpec(member=target, mode=name.replace("-", "_"),
                             p=1.0 if p is None else float(p))
        return [name, params, "@" + spelled], want
    fields = {"kind": _CHANNEL_KINDS[name]}
    if fields["kind"] == "depolarizing" and draw(st.booleans()):
        params.append(["p", draw(_probability)])
        fields["p"] = float(params[-1][1])
    elif fields["kind"] == "intercept_resend" and draw(st.booleans()):
        bases, upper = draw(_mixed_case("XYZ", 1, 3))
        params.append(["bases", bases])
        fields["bases"] = tuple(upper)
    elif fields["kind"] == "fixed_pauli":
        op, upper = draw(_mixed_case("IXYZ", 1, 3))
        params.append(["op", op])
        fields["operator"] = upper
    elif fields["kind"] == "pauli":
        width = draw(st.integers(1, 3))
        keys = draw(st.lists(_mixed_case("IXYZ", width, width), min_size=1,
                             max_size=4, unique_by=lambda k: k[1]))
        weights = draw(st.lists(st.integers(1, 20), min_size=len(keys),
                                max_size=len(keys)))
        probs = [w / sum(weights) for w in weights]
        params += [[cased, repr(p)] for (cased, _), p in zip(keys, probs)]
        fields["pauli_probs"] = {upper: p
                                 for (_, upper), p in zip(keys, probs)}
    return [name, params, "@" + spelled], ChannelSpec(targets=(target,),
                                                      **fields)


def _render(attacks) -> str:
    return ",".join(
        name + (":" + ";".join("=".join(kv) for kv in params)
                if params else "") + member
        for name, params, member in attacks)


@settings(deadline=None, max_examples=200)
@given(st.lists(_attack(), min_size=1, max_size=4))
def test_parse_property_valid_strings(attacks):
    spec = parse_adversary(_render([a for a, _ in attacks]))
    assert spec.channels == [w for _, w in attacks
                             if isinstance(w, ChannelSpec)]
    assert spec.dishonest == [w for _, w in attacks
                              if isinstance(w, DishonestSpec)]


# the parameters of each kind other than the pauli table, with a value
# that would be valid for the kind that reads it
_READS = {"depolarize": ("p",), "depolarizing": ("p",),
          "intercept": ("bases",), "intercept-resend": ("bases",),
          "fixed-pauli": ("op",), "lie-basis": ("p",), "lie-outcome": ("p",)}
_IGNORED = {"p": "0.5", "bases": "XY", "op": "X"}


def _corruptions(name, params) -> list:
    """The one-token corruptions that apply to an attack."""
    out = ["kind", "no-at", "empty-member", "empty-params", "unknown-key",
           "ignored-key"]
    if params:
        out += ["no-equals", "repeated-key"]
    if any(k not in ("bases", "op") for k, _ in params):
        out.append("not-a-number")
    if name in _DISHONEST_KINDS or _CHANNEL_KINDS[name] == "depolarizing":
        out.append("out-of-range")
    if name in ("pauli", "fixed-pauli") or any(k == "bases"
                                               for k, _ in params):
        out.append("bad-letter")
    return out


def _corrupt(draw, attack) -> list:
    name, params, member = attack
    params = [list(kv) for kv in params]
    how = draw(st.sampled_from(_corruptions(name, params)))
    if how == "kind":
        name = draw(st.sampled_from(["warp", "", "depolarise", "fixed_pauli",
                                     "lie", "pauli-table"]))
    elif how == "no-at":
        member = member[1:]
    elif how == "empty-member":
        member = "@"
    elif how == "empty-params":
        name, params = name + ":", []
    elif how == "unknown-key":
        params.insert(draw(st.integers(0, len(params))), ["q", "0"])
    elif how == "ignored-key":
        # a parameter of another kind, which this kind never reads
        read = _READS.get(name, ())
        key = draw(st.sampled_from([k for k in _IGNORED if k not in read]))
        params.insert(draw(st.integers(0, len(params))),
                      [key, _IGNORED[key]])
    elif how == "repeated-key":
        kv = draw(st.sampled_from(params))
        params.insert(draw(st.integers(0, len(params))), list(kv))
    elif how == "no-equals":
        kv = draw(st.sampled_from(params))
        kv[:] = ["".join(kv)]
    elif how == "not-a-number":
        kv = draw(st.sampled_from([kv for kv in params
                                   if kv[0] not in ("bases", "op")]))
        kv[1] = draw(st.sampled_from(["abc", "", "0.1.2", "1e", "p"]))
    elif how == "out-of-range":
        params = [kv for kv in params if kv[0] != "p"]
        params.append(["p", repr(draw(
            st.floats(1.0, 10.0, exclude_min=True)
            | st.floats(-10.0, 0.0, exclude_max=True)))])
    else:  # bad-letter: one letter outside the Pauli or basis alphabet
        kv = draw(st.sampled_from([kv for kv in params
                                   if kv[0] in ("bases", "op")
                                   or name == "pauli"]))
        i = 0 if name == "pauli" else 1
        pos = draw(st.integers(0, len(kv[i]) - 1))
        kv[i] = kv[i][:pos] + draw(st.sampled_from("Q1A")) + kv[i][pos + 1:]
    return [name, params, member]


@settings(deadline=None, max_examples=300)
@given(st.lists(_attack(), min_size=1, max_size=3), st.data())
def test_parse_property_one_corrupted_token_is_rejected(attacks, data):
    texts = [a for a, _ in attacks]
    i = data.draw(st.integers(0, len(texts) - 1))
    texts[i] = _corrupt(data.draw, texts[i])
    with pytest.raises(InvalidArgumentError):
        parse_adversary(_render(texts))


def test_invalid_channel_specs_rejected():
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="depolarizing", p=1.5)
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="pauli", pauli_probs={"II": 0.5})
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="fixed_pauli")
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="intercept_resend", bases=("Q",))
    for bases in (("XY",), ("",)):  # a basis is one letter
        with pytest.raises(InvalidArgumentError):
            ChannelSpec(kind="intercept_resend", bases=bases)
