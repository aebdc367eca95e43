import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import states
from qkdnet.adversary import (AdversarySpec, ChannelSpec, DishonestSpec,
                              apply_attack, corrupt_announcement,
                              depolarizing, parse_adversary)
from qkdnet.errors import InvalidArgumentError
from qkdnet.paulis import PauliOperator

from helpers import random_density

IDENTITY = (("I", 1.0),)
INTERCEPT_XY = (("I", 0.5), ("X", 0.25), ("Y", 0.25))
INTERCEPT_XYZ = (("I", 0.5), ("X", 1 / 6), ("Y", 1 / 6), ("Z", 1 / 6))


def _assert_cptp(kraus, dim):
    acc = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    assert np.allclose(acc, np.eye(dim))


@pytest.mark.parametrize("spec", [
    ChannelSpec("identity", IDENTITY),
    ChannelSpec("depolarizing", depolarizing(0.3)),
    ChannelSpec("intercept_resend", INTERCEPT_XY),
    ChannelSpec("intercept_resend", INTERCEPT_XYZ),
    ChannelSpec("pauli", (("II", 0.5), ("XY", 0.25), ("ZZ", 0.25))),
])
def test_kraus_completeness(spec):
    n = 2
    _assert_cptp(spec.kraus_terms(n), 2 ** n)


def test_channel_terms_are_built_once_per_width():
    ch = ChannelSpec("depolarizing", depolarizing(0.2), ("a",))
    # the Kraus terms are keyed by mixture and width, so another spec with
    # the same mixture shares them whatever its targets; the superoperator
    # is built from them on each call
    same = ChannelSpec("depolarizing", depolarizing(0.2), ("b", "c"))
    for width in (1, 2):
        kraus, sup = ch.kraus_terms(width), ch.superoperator(width)
        assert ch.kraus_terms(width) is kraus
        assert same.kraus_terms(width) is kraus
        assert not kraus.flags.writeable
        assert np.array_equal(same.superoperator(width), sup)
        want = sum(np.kron(k, k.conj()) for k in kraus)
        assert np.abs(sup - want).max() <= 1e-15


def test_channel_tables_above_the_byte_cap_are_rebuilt():
    ch = ChannelSpec("depolarizing", depolarizing(0.3), ("a",))
    # 3 qubits: 64 terms of 8 x 8, 64 KiB, kept
    assert ch.kraus_terms(3) is ch.kraus_terms(3)
    # 4 qubits: 1 MiB, built anew on every call and still read-only
    first, again = ch.kraus_terms(4), ch.kraus_terms(4)
    assert first is not again and np.array_equal(first, again)
    assert not first.flags.writeable
    assert first.nbytes == ch.superoperator(4).nbytes == 2 ** 20


def test_depolarizing_output_fidelity():
    # rho -> (1-p) rho + p I/2, so F(|0><0|) = 1 - p/2
    p = 0.1
    spec = ChannelSpec("depolarizing", depolarizing(p), ("a",))
    dm = states.to_density(states.basis_state([0], [("a", 0)]))
    out = apply_attack(dm, spec)
    assert out.matrix[0, 0].real == pytest.approx(1 - p / 2)
    assert out.matrix[1, 1].real == pytest.approx(p / 2)


def test_intercept_resend_channel_on_bell_pair():
    # measuring one half dephases the pair: the surviving Bell fidelity is
    # 1/2 for each basis guess, and matched-basis test bits err with rate 1/4
    spec = ChannelSpec("intercept_resend", INTERCEPT_XY, ("a",))
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
    w = 1 / (2 * len(bases))
    spec = ChannelSpec("intercept_resend",
                       [("I", 0.5)] + [(b, w) for b in bases], ("a",))
    kraus = [on_target(k) for k in spec.kraus_terms(1)]
    pauli_form = sum(k @ rho @ k.conj().T for k in kraus)
    assert np.max(np.abs(pauli_form - oracle)) < 1e-12
    out = apply_attack(states.DensityMatrix(labels, rho), spec)
    assert np.max(np.abs(out.matrix - oracle)) < 1e-12


@pytest.mark.parametrize("spec, width", [
    (ChannelSpec("identity", IDENTITY, ("a",)), 1),
    (ChannelSpec("depolarizing", depolarizing(0.5), ("a",)), 1),
    (ChannelSpec("fixed_pauli", (("X", 1.0),), ("a",)), 1),
    (ChannelSpec("intercept_resend", INTERCEPT_XY, ("a",)), 1),
    (ChannelSpec("intercept_resend", INTERCEPT_XYZ, ("a",)), 1),
    (ChannelSpec("pauli", (("IZ", 0.3), ("XI", 0.5), ("YY", 0.2)),
                 ("a",)), 2),
    (ChannelSpec("fixed_pauli", (("XZ", 1.0),), ("a",)), 2),
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


@pytest.mark.parametrize("text", [
    "identity@m1", "depolarize:p=0.3@m1", "pauli:II=0.5;XZ=0.3;YY=0.2@m1",
    "pauli:I=0.1;X=0;Z=0.9@m1", "intercept:bases=XYZ@m1",
    "fixed-pauli:op=XZ@m1"])
def test_mixture_draws_match_rng_choice(text):
    (spec,) = parse_adversary(text).channels
    probs = np.array([prob for _, prob in spec.mixture])
    probs = (probs / probs.sum()).tolist()
    a, b = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(10_000):
        # a single entry is taken without a draw
        want = b.choice(len(probs), p=probs) if len(probs) > 1 else 0
        assert spec._draw(a) == want
    assert a.random() == b.random()  # both streams made the same draws


_PER_QUBIT = {
    "identity": ChannelSpec("identity", IDENTITY, ("a",)),
    "depolarizing": ChannelSpec("depolarizing", depolarizing(0.3), ("a",)),
    "intercept-XY": ChannelSpec("intercept_resend", INTERCEPT_XY, ("a",)),
    "intercept-XYZ": ChannelSpec("intercept_resend", INTERCEPT_XYZ, ("a",)),
    "fixed-pauli-X": ChannelSpec("fixed_pauli", (("X", 1.0),), ("a",)),
}
_JOINT = {
    "pauli-table": ChannelSpec(
        "pauli", (("IZ", 0.3), ("XI", 0.5), ("YY", 0.2)), ("a",)),
    "fixed-pauli-XZ": ChannelSpec("fixed_pauli", (("XZ", 1.0),), ("a",)),
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


def _loop_trajectory(spec, state, labels, rng):
    """Reference trajectory: per qubit or per block, one entry drawn as
    ``rng.choice`` draws it (none for a single entry), its Pauli applied."""
    probs = np.array([prob for _, prob in spec.mixture])
    probs = (probs / probs.sum()).tolist()
    blocks = ([[lab] for lab in labels] if spec.is_per_qubit()
              else [list(labels)])
    for block in blocks:
        pstr = spec.mixture[rng.choice(len(probs), p=probs)
                            if len(probs) > 1 else 0][0]
        if pstr.strip("I"):
            state = states.apply_pauli(state, PauliOperator.from_string(pstr),
                                       block)
    return state


@pytest.mark.parametrize("text, share", [
    ("identity@m1", "all"), ("depolarize:p=0.3@m1", "some"),
    ("depolarize:p=0@m1", "all"), ("pauli:I=0.4;X=0.2;Y=0.3;Z=0.1@m1", "some"),
    ("pauli:IIII=0.5;XZIY=0.3;ZZZZ=0.2@m1", "some"),
    ("pauli:XIII=0.5;IYII=0.5@m1", "none"), ("fixed-pauli:op=Y@m1", "none"),
    ("fixed-pauli:op=XIZY@m1", "none"), ("fixed-pauli:op=IIII@m1", "all")])
def test_draw_paulis_is_sample_apply_drawn_first(text, share):
    # the drawn list applied in turn, sample_apply, and a loop drawing by
    # rng.choice give the same amplitudes and leave the same generator
    # state; m1's four qubits sit behind m2's, so none leads
    (spec,) = parse_adversary(text).channels
    labels = [("m1", i) for i in range(4)]
    state = states.make_cat(5, states.PHI_PLUS, [("m2", 0)] + labels)
    rngs = [np.random.default_rng(17) for _ in range(3)]
    empty = 0   # trajectories whose every drawn error is the identity
    for _ in range(40):
        drawn = spec.draw_paulis(labels, rngs[0])
        empty += not drawn
        assert all(op.x or op.z for op, _ in drawn)
        from_list = state
        for op, block in drawn:
            from_list = states.apply_pauli(from_list, op, block)
        sampled = spec.sample_apply(state, labels, rngs[1])
        looped = _loop_trajectory(spec, state, labels, rngs[2])
        assert from_list.labels == sampled.labels == looped.labels
        assert np.array_equal(from_list.amplitudes, sampled.amplitudes)
        assert np.array_equal(from_list.amplitudes, looped.amplitudes)
        assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
                == rngs[2].bit_generator.state)
    assert empty == 40 if share == "all" else (
        empty == 0 if share == "none" else 0 < empty < 40)


@pytest.mark.parametrize("bases", ["XY", "XYZ", "Z"])
def test_draw_paulis_rejects_intercept(bases):
    (spec,) = parse_adversary(f"intercept:bases={bases}@m1").channels
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidArgumentError, match="measuring"):
        spec.draw_paulis([("m1", 0)], rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_one_letter_pauli_table_acts_on_each_qubit():
    # like a one-letter fixed Pauli; a wider table must span the block
    single = ChannelSpec("pauli", (("I", 0.8), ("X", 0.2)))
    joint = ChannelSpec("pauli", (
        ("II", 0.64), ("IX", 0.16), ("XI", 0.16), ("XX", 0.04)))
    rho = random_density(4, np.random.default_rng(8))
    out = [sum(k @ rho @ k.conj().T for k in spec.kraus_terms(2))
           for spec in (single, joint)]
    assert np.max(np.abs(out[0] - out[1])) < 1e-12
    single.check_arity(3)
    with pytest.raises(InvalidArgumentError, match="block has 3"):
        joint.check_arity(3)


def test_fixed_pauli_deterministic():
    rng = np.random.default_rng(0)
    spec = ChannelSpec("fixed_pauli", (("X", 1.0),), ("a",))
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
    assert dep.kind == "depolarizing" and dep.mixture == depolarizing(0.1)
    assert spec.channels_for("m1")[0].kind == "intercept_resend"
    assert spec.dishonest_for("m3").mode == "lie_outcome"
    assert spec.channels_for("m4")[0].mixture == (("XZ", 1.0),)
    assert spec.channels_for("m5")[0].mixture == (("II", 0.9), ("XX", 0.1))
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
    # a channel without its parameter used to parse to the identity
    "depolarize@m1",
    "depolarizing@m1",
    "fixed-pauli@m1",
    # a repeated intercept basis ran, or weighted that basis twice
    "intercept:bases=XX@m1",
    "intercept:bases=XYX@m1",
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
    kind, mixture = _CHANNEL_KINDS[name], IDENTITY
    if kind == "depolarizing":
        params.append(["p", draw(_probability)])
        mixture = depolarizing(float(params[-1][1]))
    elif kind == "intercept_resend":
        mixture = INTERCEPT_XY
        if draw(st.booleans()):
            bases, upper = draw(_mixed_case("XYZ", 1, 3).filter(
                lambda cased: len(set(cased[1])) == len(cased[1])))
            params.append(["bases", bases])
            w = 1 / (2 * len(upper))
            mixture = (("I", 0.5),) + tuple((b, w) for b in upper)
    elif kind == "fixed_pauli":
        op, upper = draw(_mixed_case("IXYZ", 1, 3))
        params.append(["op", op])
        mixture = ((upper, 1.0),)
    elif kind == "pauli":
        width = draw(st.integers(1, 3))
        keys = draw(st.lists(_mixed_case("IXYZ", width, width), min_size=1,
                             max_size=4, unique_by=lambda k: k[1]))
        weights = draw(st.lists(st.integers(1, 20), min_size=len(keys),
                                max_size=len(keys)))
        probs = [w / sum(weights) for w in weights]
        params += [[cased, repr(p)] for (cased, _), p in zip(keys, probs)]
        mixture = sorted((upper, p) for (_, upper), p in zip(keys, probs))
    return [name, params, "@" + spelled], ChannelSpec(kind, mixture,
                                                      (target,))


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


@pytest.mark.parametrize("kind, mixture", [
    ("pauli", (("I", 1.5), ("X", -0.5))),
    ("pauli", (("I", 0.5), ("X", float("nan")))),
    ("pauli", (("II", 0.5),)),
    ("pauli", ()),
    ("fixed_pauli", (("", 1.0),)),
    ("fixed_pauli", (("XQ", 1.0),)),
    ("warp", IDENTITY),
    ("intercept_resend", (("I", 0.5), ("Q", 0.5))),
    ("intercept_resend", (("I", 0.5), ("XY", 0.5))),  # a basis is one letter
    ("intercept_resend", (("I", 0.5), ("I", 0.5))),
    ("intercept_resend", IDENTITY),
    ("intercept_resend", (("X", 0.5), ("I", 0.5))),
    ("intercept_resend", (("I", 0.6), ("X", 0.2), ("Y", 0.2))),
], ids=["negative", "nan", "sum-not-1", "empty-mixture", "empty-string",
        "non-pauli-letter", "unknown-kind", "intercept-basis-q",
        "intercept-two-letter-basis", "intercept-basis-i",
        "intercept-no-basis", "intercept-identity-not-first",
        "intercept-wrong-weights"])
def test_invalid_channel_specs_rejected(kind, mixture):
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind, mixture)


def test_depolarizing_rejects_p_outside_unit_interval():
    # p = 1.2 still gives nonnegative weights, but is no depolarizing p
    for p in (1.2, -0.1, float("nan")):
        with pytest.raises(InvalidArgumentError):
            depolarizing(p)


@pytest.mark.parametrize("text, kind, mixture", [
    ("identity@m1", "identity", IDENTITY),
    ("depolarize:p=0.5@m1", "depolarizing",
     (("I", 0.625), ("X", 0.125), ("Y", 0.125), ("Z", 0.125))),
    ("intercept@m1", "intercept_resend", INTERCEPT_XY),
    ("intercept:bases=xyz@m1", "intercept_resend", INTERCEPT_XYZ),
    ("intercept-resend:bases=Z@m1", "intercept_resend",
     (("I", 0.5), ("Z", 0.5))),
    ("fixed-pauli:op=y@m1", "fixed_pauli", (("Y", 1.0),)),
    ("fixed-pauli:op=XzI@m1", "fixed_pauli", (("XZI", 1.0),)),
    ("pauli:zz=0.25;II=0.5;xY=0.25@m1", "pauli",
     (("II", 0.5), ("XY", 0.25), ("ZZ", 0.25))),
], ids=["identity", "depolarize", "intercept-XY",
        "intercept-XYZ", "intercept-Z", "fixed-pauli-one-letter",
        "fixed-pauli-block", "pauli-table"])
def test_parse_builds_each_kinds_mixture(text, kind, mixture):
    (channel,) = parse_adversary(text).channels
    assert channel == ChannelSpec(kind, mixture, ("m1",))
    assert channel.mixture == mixture
