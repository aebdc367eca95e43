import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FixedDraw
from qkdnet import auth, protocol, states
from qkdnet.adversary import AdversarySpec, parse_adversary
from qkdnet.analysis import protocol_statistics
from qkdnet.errors import InvalidArgumentError, StateError
from qkdnet.protocol import (NetworkConfig, RoundRecord, Transcript,
                             derive_key_bits, ring_collect, run_protocol1,
                             run_protocol2, sift, transcript_to_jsonl)
from qkdnet.protocol import test_and_finalize as finalize_with_test_bits
from qkdnet.stabilizer import gen_purity_family

NO_ATTACK = AdversarySpec()


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(n=2, m=2, rounds=10)
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(n=2, m=1, rounds=0)
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(n=2, m=1, rounds=10, test_fraction=1.5)
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(n=2, m=1, rounds=10, t=3)  # auth needs t = (r-1)s
    # no family exists below r = 2 or s = 2, even where t = (r-1)s holds
    with pytest.raises(InvalidArgumentError, match="r >= 2 and s >= 2"):
        NetworkConfig(n=2, m=1, rounds=10, t=1, family_params=(2, 1))
    with pytest.raises(InvalidArgumentError, match="r >= 2 and s >= 2"):
        NetworkConfig(n=2, m=1, rounds=10, t=2, family_params=(1, 2))
    NetworkConfig(n=2, m=1, rounds=10, t=1, family_params=(2, 1),
                  auth_enabled=False)  # without auth no family is built
    cfg = NetworkConfig(n=4, m=2, rounds=10)
    assert cfg.party_a == ["m1", "m2"] and cfg.party_b == ["m3", "m4"]


def test_ring_collect_parity():
    rng = np.random.default_rng(0)
    for outcomes in ([0], [1], [0, 1, 1], [1, 1, 1, 0]):
        parity, messages = ring_collect(outcomes, rng)
        assert parity == sum(outcomes) % 2
        if len(outcomes) > 1:
            assert len(messages) == len(outcomes)
    assert ring_collect([0, None], rng) == (None, [])


def test_ring_messages_are_blinded():
    # the first transferred message leaks nothing without the blinding bit:
    # over many rounds it is uniform whatever the first outcome is
    rng = np.random.default_rng(1)
    firsts = [ring_collect([1, 0, 1], rng)[1][0] for _ in range(400)]
    assert 0.4 < np.mean(firsts) < 0.6


def _record(y_a, y_b, m_a, m_b, **kw):
    return RoundRecord(round_index=0, copy_index=0, bases={}, outcomes={},
                       y_a=y_a, y_b=y_b, m_a=m_a, m_b=m_b, **kw)


def test_sift_rule_protocol1():
    recs = [_record(0, 0, 0, 0), _record(1, 0, 0, 0), _record(1, 1, 0, 0),
            _record(2, 1, 0, 0)]
    kept = sift(recs, protocol=1)
    assert [r.sifted for r in recs] == [True, False, True, False]
    assert len(kept) == 2


def test_sift_protocol2_keeps_everything():
    recs = [_record(1, 0, 0, 0, center_basis="Y", center_outcome=0),
            _record(0, 0, 0, 0, center_basis="X", center_outcome=1)]
    assert len(sift(recs, protocol=2)) == 2


def test_sift_protocol2_returns_no_center_withheld_record():
    recs = [_record(1, 0, 0, 0, center_basis="Y", center_outcome=0),
            _record(0, 0, 0, 0)]  # the center withheld its announcement
    assert sift(recs, protocol=2) == recs[:1]
    assert all(r.sifted for r in recs)


def _hand_built_records(protocol):
    """Records of one protocol covering each way a copy can fail to carry
    a key bit, plus usable ones of both announced outcome parities."""
    recs = []
    for y_a, y_b in ((0, 0), (1, 0), (1, 1), (2, 1), (3, 3)):
        for m_a, m_b in ((0, 0), (1, 0), (1, 1), (None, 1), (0, None)):
            # protocol 2's center evens the joint Y parity, or withholds
            for basis in (["YX"[(y_a + y_b) % 2 == 0], None]
                          if protocol == 2 else [None]):
                recs.append(_record(
                    y_a, y_b, m_a, m_b, center_basis=basis,
                    center_outcome=None if basis is None else 1))
    return recs


@pytest.mark.parametrize("protocol", [1, 2])
def test_usable_records_agree_across_the_classical_stage(protocol):
    recs = _hand_built_records(protocol)
    kept = sift(recs, protocol)
    accepted = []
    for rec in recs:
        try:
            derive_key_bits(rec, protocol)
        except StateError:
            continue
        accepted.append(rec)
    assert kept == accepted and 0 < len(kept) < len(recs)
    config = NetworkConfig(n=2, m=1, t=1, rounds=1, protocol=protocol,
                           auth_enabled=False)
    tr = Transcript(config=config, seed=0, records=recs)
    summary = tr.summary()
    assert summary["sifted"] == len(kept)
    assert summary["undetermined"] == sum(
        r.m_a is None or r.m_b is None
        or protocol == 2 and r.center_outcome is None for r in recs)
    # the agreement rate is over the usable records and reveals their count
    agree = sum(r.b_a == r.b_b for r in kept)
    assert 0 < agree < len(kept)
    stats = protocol_statistics(tr)
    assert stats["key_agreement_rate"] == agree / len(kept)


def test_derive_key_bits_correlation_table():
    # protocol 1, determinate rows: b_a must equal b_b by construction
    # whenever the underlying outcome parity satisfies the cat-state law
    # (total outcome parity == floor of half the joint Y count mod 4)
    for y_a in range(4):
        for y_b in range(4):
            if (y_a + y_b) % 2:
                continue
            parity = ((y_a + y_b) % 4) // 2
            for m_a in (0, 1):
                rec = _record(y_a, y_b, m_a, m_a ^ parity)
                b_a, b_b = derive_key_bits(rec, protocol=1)
                assert b_a == b_b, (y_a, y_b, m_a)


def test_derive_key_bits_protocol2_requires_center():
    rec = _record(1, 0, 0, 0)
    with pytest.raises(StateError):
        derive_key_bits(rec, protocol=2)
    rec = _record(1, 0, None, 0)
    with pytest.raises(StateError):
        derive_key_bits(rec, protocol=1)


def _finalized(usable, rng):
    cfg = NetworkConfig(n=2, m=1, t=1, test_fraction=0.2, auth_enabled=False)
    transcript = Transcript(config=cfg, seed=0)
    finalize_with_test_bits(transcript, usable, rng)
    return transcript


def _agreeing_records(count):
    recs = []
    for i in range(count):
        r = _record(0, 0, 0, 0)
        r.sifted = True
        r.b_a = r.b_b = i % 2
        recs.append(r)
    return recs


def test_finalize_splits_and_verdicts():
    rng = np.random.default_rng(5)
    recs = _agreeing_records(50)
    tr = _finalized(recs, rng)
    assert tr.verdict == "Pass" and tr.observed_error_rate == 0.0
    assert tr.aborts == []
    assert len(tr.test_indices) == 10 and len(tr.key_a) == 40
    assert tr.key_a == tr.key_b == [r.b_a for i, r in enumerate(recs)
                                    if i not in tr.test_indices]
    for r in recs:
        r.b_b = r.b_a ^ 1
    tr = _finalized(recs, rng)
    assert tr.verdict == "Fail" and tr.key_a == [] and tr.key_b == []
    assert tr.observed_error_rate == 1.0 and len(tr.test_indices) == 10
    assert tr.aborts == [{"round": None, "cause": "test-bit-mismatch"}]


@pytest.mark.parametrize("count, cause", [(0, "no-usable-bits"),
                                          (4, "too-few-test-bits")])
def test_finalize_fails_before_the_test_draw(count, cause):
    # 4 usable bits give no test bit at fraction 0.2; drawing no test subset
    # leaves the stream as it was
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    tr = _finalized(_agreeing_records(count), rng)
    assert rng.bit_generator.state == before
    assert tr.verdict == "Fail"
    assert tr.aborts == [{"round": None, "cause": cause}]
    assert tr.test_indices == [] and tr.observed_error_rate is None
    assert tr.key_a == [] and tr.key_b == []


def test_protocol1_noiseless_run_agrees():
    cfg = NetworkConfig(n=2, m=1, t=2, rounds=60, protocol=1)
    tr = run_protocol1(cfg, NO_ATTACK, 42)
    assert tr.verdict == "Pass"
    assert tr.key_a == tr.key_b
    assert tr.key_a  # nonempty
    assert tr.observed_error_rate == 0.0
    summary = tr.summary()
    assert summary["records"] == 120
    assert 0.3 < summary["sifted"] / summary["records"] < 0.7


def test_protocol1_multiparty_collectors():
    cfg = NetworkConfig(n=5, m=2, t=1, rounds=400, auth_enabled=False)
    tr = run_protocol1(cfg, NO_ATTACK, 3)
    assert tr.verdict == "Pass"
    assert tr.key_a == tr.key_b and tr.key_a


def test_protocol2_never_discards():
    cfg = NetworkConfig(n=3, m=1, t=2, rounds=60, protocol=2)
    tr = run_protocol2(cfg, NO_ATTACK, 9)
    s = tr.summary()
    assert s["discarded"] == 0
    assert tr.verdict == "Pass" and tr.key_a == tr.key_b


def test_intercept_resend_detected():
    cfg = NetworkConfig(n=2, m=1, t=1, rounds=600, auth_enabled=False)
    tr = run_protocol1(cfg, parse_adversary("intercept@m1"), 17)
    assert tr.verdict == "Fail"
    assert tr.key_a == []
    assert 0.15 < tr.observed_error_rate < 0.40


def test_fixed_pauli_attack_rejected_by_authentication():
    # a deterministic single-qubit flip on the transit block: every round
    # either rejects (nonzero syndrome) or decodes corrupted logical bits
    cfg = NetworkConfig(n=2, m=1, t=2, rounds=40, protocol=1)
    tr = run_protocol1(cfg, parse_adversary("fixed-pauli:op=X@m1"), 23)
    s = tr.summary()
    assert s["aborted_rounds"] > 0 or tr.verdict == "Fail"


def test_silent_drop_center_yields_undetermined_records():
    cfg = NetworkConfig(n=3, m=1, t=2, rounds=40, protocol=2)
    tr = run_protocol2(cfg, parse_adversary("silent-drop@C"), 29)
    assert tr.summary()["undetermined"] == tr.summary()["records"]


def test_silent_drop_center_keeps_parities_and_names_its_cause():
    # the collected parities stay on the records; the withheld center
    # outcome alone leaves them undetermined, one abort per round
    cfg = NetworkConfig(n=3, m=1, t=2, rounds=40, protocol=2)
    tr = run_protocol2(cfg, parse_adversary("silent-drop@C"), 29)
    honest = run_protocol2(cfg, NO_ATTACK, 29)
    assert [(r.m_a, r.m_b) for r in tr.records] \
        == [(r.m_a, r.m_b) for r in honest.records]
    assert all(r.m_a in (0, 1) and r.center_outcome is None
               for r in tr.records)
    summary = tr.summary()
    assert summary["sifted"] == 0
    assert summary["undetermined"] == summary["records"] == 80
    assert "center-withheld" in summary["abort_causes"]
    withheld = [a["round"] for a in tr.aborts
                if a["cause"] == "center-withheld"]
    assert withheld == list(range(40))
    assert tr.verdict == "Fail"


def test_lie_outcome_always_detected():
    cfg = NetworkConfig(n=3, m=1, t=1, rounds=250, auth_enabled=False)
    tr = run_protocol1(cfg, parse_adversary("lie-outcome:p=1.0@m3"), 31)
    assert tr.verdict == "Fail"


def test_seed_reproducibility():
    cfg = NetworkConfig(n=3, m=1, t=2, rounds=30, protocol=2)
    t1 = run_protocol2(cfg, NO_ATTACK, 77)
    t2 = run_protocol2(cfg, NO_ATTACK, 77)
    assert transcript_to_jsonl(t1) == transcript_to_jsonl(t2)
    assert t1.key_a == t2.key_a


def test_seed_keyword_is_recorded():
    cfg = NetworkConfig(n=2, m=1, t=1, rounds=20, auth_enabled=False)
    tr = run_protocol1(cfg, NO_ATTACK, seed=7)
    assert tr.seed == 7
    header = json.loads(transcript_to_jsonl(tr).splitlines()[0])["header"]
    assert header["seed"] == 7
    with pytest.raises(InvalidArgumentError):
        run_protocol1(cfg, NO_ATTACK, np.random.default_rng(7))


_P1_T1 = NetworkConfig(n=2, m=1, t=1, rounds=20, auth_enabled=False)
_P1_T2 = NetworkConfig(n=2, m=1, t=2, rounds=20, auth_enabled=False)
_P2_AUTH = NetworkConfig(n=3, m=1, t=2, rounds=40, protocol=2)  # u = 4


@pytest.mark.parametrize("runner, config, spec, seed, match", [
    (run_protocol1, _P1_T1, "intercept@m9", 1, "m9"),
    (run_protocol1, NetworkConfig(n=2, m=1, protocol=2), "", 1,
     "protocol must be 1"),
    (run_protocol2, _P2_AUTH, "fixed-pauli:op=X@C", 1, "center"),
    (run_protocol1, _P1_T1, "depolarize:p=0.1@C", 1, "center"),
    (run_protocol2, _P2_AUTH, "pauli:XX=0.5;II=0.5@m1", 1, "block has 4"),
    (run_protocol2, _P2_AUTH, "fixed-pauli:op=XZ@m2", 1, "block has 4"),
    (run_protocol1, _P1_T1, "pauli:XX=0.5;II=0.5@m1", 1, "block has 1"),
    (run_protocol1, _P1_T1, "fixed-pauli:op=XZ@m2", 1, "block has 1"),
    (run_protocol1, _P1_T2, "pauli:X=0.5;II=0.5@m1", 1, "block has 2"),
    (run_protocol1, _P1_T1, "", -1, "non-negative"),
    # the center announces nothing on protocol 1, only its outcome on 2
    (run_protocol1, _P1_T1, "silent-drop@C", 1, "protocol 1"),
    (run_protocol1, _P1_T1, "lie-outcome:p=0.5@C", 1, "protocol 1"),
    (run_protocol2, _P2_AUTH, "lie-basis@C", 1, "protocol 2"),
    (run_protocol2, _P2_AUTH, "lie-outcome:p=1.0@C", 1, "protocol 2"),
    # dishonest_for returns the first spec, so the second was dropped
    (run_protocol1, _P1_T1, "lie-outcome@m2,lie-basis@m2", 1, "m2"),
    (run_protocol2, _P2_AUTH, "silent-drop@C,silent-drop@C", 1, "'C'"),
], ids=["unknown-member", "wrong-protocol", "fixed-pauli@C", "depolarize@C",
        "pauli-table-arity-auth", "fixed-pauli-arity-auth",
        "pauli-table-arity", "fixed-pauli-arity", "pauli-table-mixed-widths",
        "negative-seed", "silent-drop@C-p1", "lie-outcome@C-p1",
        "lie-basis@C-p2", "lie-outcome@C-p2", "two-dishonest-member",
        "two-dishonest-center"])
def test_run_rejects_bad_arguments_before_first_round(monkeypatch, runner,
                                                      config, spec, seed,
                                                      match):
    def no_rounds(*args, **kwargs):
        raise AssertionError("a round was prepared")

    monkeypatch.setattr(states, "make_cat", no_rounds)
    with pytest.raises(InvalidArgumentError, match=match):
        runner(config, parse_adversary(spec), seed)


@pytest.mark.parametrize("spec, generated", [
    ("", 0),
    ("depolarize:p=0.05@m2", 1),
    ("depolarize:p=0.05@m2,lie-outcome:p=0.2@m3", 1),  # a classical lie
    ("depolarize:p=0.05@m1,intercept@m3,fixed-pauli:op=X@m3", 2),
], ids=["none", "depolarize@m2", "noisy", "two-members-attacked"])
def test_only_members_a_channel_targets_get_a_family(monkeypatch, spec,
                                                    generated):
    made, sent = [], []

    def counted(*args, **kwargs):
        made.append(args)
        return generate(*args, **kwargs)

    def sending(keys, fam, state, block, **kwargs):
        sent.append(block[0][0])
        return send(keys, fam, state, block, **kwargs)

    generate = protocol.gen_purity_family
    send = protocol.auth.auth_send_in_place
    monkeypatch.setattr(protocol, "gen_purity_family", counted)
    monkeypatch.setattr(protocol.auth, "auth_send_in_place", sending)
    run_protocol2(_P2_AUTH, parse_adversary(spec), 3)
    assert len(made) == generated
    # only attacked blocks take the dense round trip
    attacked = {ch.targets[0] for ch in parse_adversary(spec).channels}
    assert set(sent) == attacked


@pytest.mark.parametrize("spec, sends", [
    ("identity@m2", 0),
    ("fixed-pauli:op=IIII@m2", 0),
    ("fixed-pauli:op=XIII@m2", 40),
    ("depolarize:p=0@m2,pauli:IIII=1.0@m2", 0),
], ids=["identity", "fixed-pauli-IIII", "fixed-pauli-XIII",
        "depolarize-p0-and-IIII"])
def test_blocks_drawing_only_identities_skip_the_dense_chain(monkeypatch,
                                                            spec, sends):
    sent = []

    def sending(keys, fam, state, block, **kwargs):
        sent.append(block[0][0])
        return send(keys, fam, state, block, **kwargs)

    send = protocol.auth.auth_send_in_place
    monkeypatch.setattr(protocol.auth, "auth_send_in_place", sending)
    transcript = run_protocol2(_P2_AUTH, parse_adversary(spec), 3)
    assert sent == ["m2"] * sends
    assert len(transcript.records) == 2 * (_P2_AUTH.rounds - len(
        [a for a in transcript.aborts if a["cause"] == "syndrome-reject"]))


def _dense_transit(config, families, channels, state, rng, aborts,
                   round_index):
    """Reference transit: every block takes the dense chain, its channels'
    trajectories applied by sample_apply after the send, so every member
    needs a family."""
    for mu, member_channels in channels.items():
        fam = families[mu]
        block = [(mu, c) for c in range(config.t)]
        phys = [(mu, i) for i in range(fam.u)]
        keys = auth.keygen(fam.r, fam.s, rng)
        state = auth.auth_send_in_place(keys, fam, state, block,
                                        out_labels=phys)
        for ch in member_channels:
            state = ch.sample_apply(state, phys, rng)
        outcome = auth.auth_receive_in_place(keys, fam, state, phys, rng,
                                             out_labels=block)
        if not outcome.accepted:
            aborts.append({"round": round_index, "cause": "syndrome-reject",
                           "member": mu})
            return None
        state = outcome.logical_state
    return state


@pytest.mark.parametrize("spec", [
    "depolarize:p=0.1@m1,pauli:IIII=0.6;XZIY=0.2;ZIII=0.2@m2,"
    "intercept@m3,depolarize:p=0.05@m3",
    "identity@m1,depolarize:p=0.05@m2,intercept:bases=XYZ@m2,"
    "fixed-pauli:op=IIII@m3,pauli:I=0.9;Z=0.1@m3",
    "depolarize:p=0.1@m1,intercept@m3",
], ids=["intercept-then-depolarize", "depolarize-then-intercept",
        "m2-untargeted"])
def test_transit_matches_the_dense_chain_round_by_round(monkeypatch, spec):
    skips = []

    def skipping(s, rng):
        skips.append(s)
        receive(s, rng)

    receive = protocol.auth.untouched_receive
    monkeypatch.setattr(protocol.auth, "untouched_receive", skipping)
    config = NetworkConfig(n=3, m=1, t=2, rounds=1, protocol=2)
    adversary = parse_adversary(spec)
    channels = {mu: adversary.channels_for(mu) for mu in config.members}
    families = protocol._build_families(config, channels,
                                        np.random.default_rng(5))
    # keys depend only on (r, s), so any (2, 2) family serves an
    # untargeted member's dense chain
    dense_families = {mu: fam or gen_purity_family(2, 2, seed=i)
                      for i, (mu, fam) in enumerate(families.items())}
    initial = protocol._initial_state(config)
    fast_rng, dense_rng = (np.random.default_rng(9) for _ in range(2))
    for rnd in range(60):
        fast_aborts, dense_aborts = [], []
        fast = protocol._transit(config, families, channels, initial,
                                 fast_rng, fast_aborts, rnd)
        dense = _dense_transit(config, dense_families, channels, initial,
                               dense_rng, dense_aborts, rnd)
        assert fast_aborts == dense_aborts
        assert fast_rng.bit_generator.state == dense_rng.bit_generator.state
        if dense is None:
            assert fast is None
            continue
        dense = states.permute_labels(dense, fast.labels)
        assert np.max(np.abs(fast.amplitudes - dense.amplitudes)) <= 1e-12
    # each call is a block that skips the chain: an untargeted one, or one
    # whose channels drew only identities
    assert len(skips) > 30


def test_untouched_blocks_leave_the_initial_state_as_it_is(monkeypatch):
    config = NetworkConfig(n=3, m=1, t=2, rounds=1, protocol=2)
    rng = np.random.default_rng(0)
    channels = {mu: [] for mu in config.members}
    families = protocol._build_families(config, channels, rng)
    assert families == {mu: None for mu in config.members}
    initial = protocol._initial_state(config)
    dense_rng, dense_aborts = copy.deepcopy(rng), []
    assert protocol._transit(config, families, channels, initial, dense_rng,
                             dense_aborts, 0) is initial

    def no_amplitudes(*args, **kwargs):
        raise AssertionError("a frame round built amplitudes")

    for name in ("apply_pauli", "apply_isometry", "measure_pauli",
                 "measure_qubit", "tensor", "permute_labels"):
        monkeypatch.setattr(states, name, no_amplitudes)
    aborts = []
    frame = protocol._transit(config, families, channels,
                              states.PauliFrame(initial), rng, aborts, 0)
    assert isinstance(frame, states.PauliFrame) and frame.x == frame.z == 0
    assert frame.densify() is initial
    assert aborts == dense_aborts == []
    assert rng.bit_generator.state == dense_rng.bit_generator.state


@st.composite
def _frame_rounds(draw):
    """A config, up to three transit channels of any kind, intercept-resend
    included, and a seed."""
    protocol_, auth_ = draw(st.sampled_from([1, 2])), draw(st.booleans())
    n = draw(st.integers(2, 4))
    t = 2 if auth_ else draw(st.integers(1, 2))
    width = 4 if auth_ else t  # an authenticated block is (2, 2)'s u = 4
    config = NetworkConfig(n=n, m=draw(st.integers(1, n - 1)), t=t,
                           rounds=1, protocol=protocol_, auth_enabled=auth_)
    p = draw(st.sampled_from([0.1, 0.5, 1.0]))
    block = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=width,
                                  max_size=width)))
    table = (f"{block}=1" if block == "I" * width
             else f"{'I' * width}={1 - p!r};{block}={p!r}")
    kinds = ["identity", f"depolarize:p={p!r}",
             "pauli:I=0.5;X=0.2;Y=0.1;Z=0.2", f"pauli:{table}",
             f"fixed-pauli:op={block}", "fixed-pauli:op=Y", "intercept",
             "intercept:bases=XYZ", "intercept:bases=Z"]
    chosen = draw(st.lists(st.tuples(st.sampled_from(kinds),
                                     st.integers(1, n)), max_size=3))
    spec = ",".join(f"{kind}@m{member}" for kind, member in chosen)
    return config, spec, draw(st.integers(0, 2 ** 32 - 1))


def _play_round(config, families, channels, start, seed):
    """Transit, then member and center measurements, of one round from
    ``start``: (dense state after transit, bases, outcomes, center
    outcomes), or the aborts of a syndrome reject; and the generator."""
    rng = np.random.default_rng(seed)
    aborts = []
    state = protocol._transit(config, families, channels, start, rng,
                              aborts, 0)
    if state is None:
        return aborts, rng.bit_generator.state
    dense = state.densify()
    bases, outcomes, state = protocol._measure_members(
        config.members, config.t, state, rng)
    center = []
    if config.protocol == 2:
        # the honest basis fixes the center's outcome; a lie about a
        # member's basis reaches the round only as the other basis
        for c in range(config.t):
            ys = sum(bases[mu][c] == "Y" for mu in config.members)
            cb = "XY"[(ys + (seed >> 2 * c & 3 == 0)) % 2]
            bit, state = states.measure_qubit(state, (protocol.CENTER, c),
                                              cb, rng)
            center.append(bit)
    return (dense, bases, outcomes, center), rng.bit_generator.state


@settings(deadline=None, max_examples=150)
@given(_frame_rounds())
def test_frame_rounds_match_dense_rounds(run):
    config, spec, seed = run
    adversary = parse_adversary(spec)
    channels = {mu: adversary.channels_for(mu) for mu in config.members}
    families = (protocol._build_families(config, channels,
                                         np.random.default_rng(seed))
                if config.auth_enabled else None)
    initial = protocol._initial_state(config)
    p0s = []

    def measure(state, label, basis, rng):
        if isinstance(state, states.PauliFrame):
            # p(0) read off two copies measured with the draws 0 and
            # 1 - 2^-53: bits (0, 1) for p(0) = 1/2, (0, 0) for 1, (1, 1)
            # for 0
            bits = tuple(measure_qubit(state.copy(), label, basis,
                                       FixedDraw(u))[0]
                         for u in (0.0, 1 - 2 ** -53))
            p0s.append({(0, 1): 0.5, (0, 0): 1.0, (1, 1): 0.0}[bits])
        else:
            p0s.append(states._project(state.amplitudes, state.axis(label),
                                       basis)[1])
        return measure_qubit(state, label, basis, rng)

    measure_qubit = states.measure_qubit
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "measure_qubit", measure)
        for rnd in range(8):
            _check_round(config, families, channels, initial, seed + rnd, p0s)


def _check_round(config, families, channels, initial, seed, p0s):
    """One round on a frame and on its dense state (densified first) from
    one seed: the same draws, bits and state, and p(0)s within 1e-12."""
    runs = []
    for start in (states.PauliFrame(initial),
                  states.PauliFrame(initial).densify()):
        p0s.clear()
        runs.append((*_play_round(config, families, channels, start, seed),
                     list(p0s)))
    (frame, frame_gen, frame_p0s), (dense, dense_gen, dense_p0s) = runs
    assert frame_gen == dense_gen
    assert np.allclose(frame_p0s, dense_p0s, rtol=0, atol=1e-12)
    if isinstance(frame, list):  # a syndrome reject's aborts
        assert frame == dense
        return
    assert frame[1:] == dense[1:]
    # the frame leaves transit as the dense path's state, up to a global
    # phase
    got, want = frame[0], states.permute_labels(dense[0], frame[0].labels)
    assert abs(abs(np.vdot(got.amplitudes, want.amplitudes)) - 1) <= 1e-12


@pytest.mark.parametrize("auth_enabled", [False, True])
def test_an_intercept_turns_a_frame_dense(auth_enabled):
    config = NetworkConfig(n=3, m=1, t=2, rounds=1, protocol=2,
                           auth_enabled=auth_enabled)
    adversary = parse_adversary("depolarize:p=0.5@m1,intercept@m2,"
                                "fixed-pauli:op=Y@m3")
    channels = {mu: adversary.channels_for(mu) for mu in config.members}
    families = (protocol._build_families(config, channels,
                                         np.random.default_rng(0))
                if auth_enabled else None)
    initial = protocol._initial_state(config)
    for seed in range(20):
        got = []
        for start in (states.PauliFrame(initial), initial):
            rng, aborts = np.random.default_rng(seed), []
            state = protocol._transit(config, families, channels, start, rng,
                                      aborts, 0)
            got.append((state, aborts, rng.bit_generator.state))
        (frame, *frame_rest), (dense, *dense_rest) = got
        assert frame_rest == dense_rest
        if dense is None:
            assert frame is None
            continue
        # the same state up to the global phase of the errors' order
        assert isinstance(frame, states.PureStateVector)
        want = states.permute_labels(dense, frame.labels).amplitudes
        assert abs(abs(np.vdot(frame.amplitudes, want)) - 1) <= 1e-12


def test_initial_state_is_read_only_and_shared(monkeypatch):
    made = []

    def record(config):
        made.append(original(config))
        return made[-1]

    original = protocol._initial_state
    monkeypatch.setattr(protocol, "_initial_state", record)
    run_protocol1(_P1_T2, parse_adversary("intercept@m1"), 3)
    assert len(made) == 1  # one initial state per run, not per round
    amps = made[0].amplitudes
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0] = 0
    fresh = original(_P1_T2)
    assert np.array_equal(amps, fresh.amplitudes)  # no round changed it


def test_transcript_jsonl_schema_and_redaction():
    cfg = NetworkConfig(n=2, m=1, t=2, rounds=30)
    tr = run_protocol1(cfg, NO_ATTACK, 55)
    lines = [json.loads(l) for l in transcript_to_jsonl(tr).splitlines()]
    kinds = [next(iter(l)) for l in lines]
    assert kinds[0] == "header" and kinds[-1] == "summary"
    assert kinds.count("record") == tr.summary()["records"]
    text = transcript_to_jsonl(tr)
    assert '"key_a"' not in text  # redacted by default
    revealed = transcript_to_jsonl(tr, reveal_secrets=True)
    assert '"key_a"' in revealed


@st.composite
def _small_runs(draw):
    """A small config with at most one attack of any kind: (config, spec,
    seed)."""
    protocol, auth = draw(st.sampled_from([1, 2])), draw(st.booleans())
    n = draw(st.integers(2, 3))
    t = 2 if auth else draw(st.integers(1, 2))
    width = 4 if auth else t  # an attack on a block acts on (2, 2)'s u = 4
    config = NetworkConfig(n=n, m=draw(st.integers(1, n - 1)), t=t,
                           rounds=draw(st.integers(1, 20)),
                           protocol=protocol, auth_enabled=auth)
    member = f"m{draw(st.integers(1, n))}"
    p = draw(st.floats(0.0, 1.0))
    block = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=width,
                                  max_size=width)))
    table = (f"{block}=1" if block == "I" * width
             else f"{'I' * width}={1 - p!r};{block}={p!r}")
    kind = draw(st.sampled_from(
        ["none", "identity", "depolarize", "pauli", "intercept",
         "fixed-pauli", "lie-basis", "lie-outcome", "silent-drop"]))
    spec = {
        "none": "",
        "identity": f"identity@{member}",
        "depolarize": f"depolarize:p={p!r}@{member}",
        "pauli": f"pauli:{table}@{member}",
        "intercept": "intercept:bases="
                     f"{draw(st.sampled_from(['X', 'Z', 'XY', 'XYZ']))}"
                     f"@{member}",
        "fixed-pauli": f"fixed-pauli:op="
                       f"{draw(st.sampled_from(['X', 'Y', 'Z', block]))}"
                       f"@{member}",
        "lie-basis": f"lie-basis:p={p!r}@{member}",
        "lie-outcome": f"lie-outcome:p={p!r}@{member}",
        "silent-drop": "silent-drop@"
                       + ("C" if protocol == 2 and draw(st.booleans())
                          else member),
    }[kind]
    return config, spec, draw(st.integers(0, 2 ** 32 - 1))


def _strict_json(line: str):
    """json.loads that rejects NaN and Infinity, which JSON does not hold."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(line, parse_constant=reject)


@settings(deadline=None, max_examples=60)
@given(_small_runs())
def test_transcript_jsonl_property(run):
    config, spec, seed = run
    runner = run_protocol2 if config.protocol == 2 else run_protocol1
    text = transcript_to_jsonl(runner(config, parse_adversary(spec), seed),
                               reveal_secrets=True)
    assert text.endswith("\n")
    lines = [_strict_json(line) for line in text[:-1].split("\n")]
    assert all(len(line) == 1 for line in lines)
    framing = "".join(next(iter(line))[0] for line in lines)
    assert re.fullmatch("hr*a*s", framing), framing
    header, summary = lines[0]["header"], lines[-1]["summary"]
    assert header["seed"] == seed
    assert header["config"]["protocol"] == config.protocol
    records = [line["record"] for line in lines if "record" in line]
    aborts = [line["abort"] for line in lines if "abort" in line]
    # protocol 2 reads no correlation without the center's outcome
    determined = [r for r in records
                  if r["m_a"] is not None and r["m_b"] is not None
                  and (config.protocol == 1
                       or r["center_outcome"] is not None)]
    assert summary["records"] == len(records)
    assert summary["sifted"] == sum(r["sifted"] for r in determined)
    assert summary["discarded"] == sum(not r["sifted"] for r in records)
    assert summary["undetermined"] == len(records) - len(determined)
    assert summary["aborted_rounds"] == sum(
        a["cause"] == "syndrome-reject" for a in aborts)
    assert summary["abort_causes"] == sorted({a["cause"] for a in aborts})
    assert summary["test_bits"] == len(summary["test_indices"])
    assert summary["key_length"] == len(summary["key_a"]) \
        == len(summary["key_b"])
    if summary["verdict"] == "Pass":
        assert summary["key_length"] + summary["test_bits"] \
            == summary["sifted"]
