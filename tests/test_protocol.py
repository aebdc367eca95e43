import json

import numpy as np
import pytest

from qkdnet import protocol, states
from qkdnet.adversary import AdversarySpec, parse_adversary
from qkdnet.errors import InvalidArgumentError, StateError
from qkdnet.protocol import (NetworkConfig, RoundRecord, derive_key_bits,
                             ring_collect, run_protocol1, run_protocol2, sift,
                             transcript_to_jsonl)
from qkdnet.protocol import test_and_finalize as finalize_with_test_bits

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


def test_finalize_splits_and_verdicts():
    rng = np.random.default_rng(5)
    recs = []
    for i in range(50):
        r = _record(0, 0, 0, 0)
        r.sifted = True
        r.b_a = r.b_b = i % 2
        recs.append(r)
    verdict, key_a, key_b, observed, idx = finalize_with_test_bits(recs, 0.2, rng)
    assert verdict == "Pass" and observed == 0.0
    assert len(idx) == 10 and len(key_a) == 40 and key_a == key_b
    recs[0].b_b ^= 1  # one corrupted bit may or may not be drawn; force all
    for r in recs:
        r.b_b = r.b_a ^ 1
    verdict, key_a, key_b, observed, idx = finalize_with_test_bits(recs, 0.2, rng)
    assert verdict == "Fail" and key_a == [] and key_b == []
    assert observed == 1.0
    with pytest.raises(InvalidArgumentError):
        finalize_with_test_bits(recs, 0.001, rng)


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
    cfg = NetworkConfig(n=5, m=2, t=1, rounds=400, auth_enabled=False,
                        collector_a=1, collector_b=2)
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
