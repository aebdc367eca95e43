"""Orchestration of the two center-mediated distribution protocols.

Protocol 1: the center prepares n-qubit cat states, authenticates each
member's block, members measure in random X/Y directions, rounds whose
announced direction counts have odd joint parity are discarded, and a
random test subset of the derived bits is compared publicly.

Protocol 2: the center keeps one qubit per copy in memory, chooses its own
measurement direction after the members announce theirs (so the joint
parity is always even), and reveals its outcome; no round is discarded.

Every round starts as a copy of the run's one identity Pauli frame
(``states.PauliFrame``) over its cat copies.  ``states.apply_pauli`` and
``states.measure_qubit`` take a frame or amplitudes alike, and a step
that needs amplitudes calls ``densify`` first, which leaves a dense state
as it is; so the protocol never asks which form a round is in.  A round
stays on the frame while every step is a Pauli: a channel's drawn errors
are XORed into it, and an authenticated block with no error drawn, such
as one that no channel targets, takes only the receive's random draws.
It goes dense when an intercept-resend channel measures a block, or when
an authenticated block draws an error and takes the dense pad, encode,
channel, syndrome, decode and unpad chain.  Only a member that some
transit channel targets gets a code family.  Every RNG draw keeps its
order and number, so both forms give the same transcript.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import adversary as attacks
from . import auth, states
from .adversary import AdversarySpec
from .errors import InvalidArgumentError, StateError
from .stabilizer import gen_purity_family

CENTER = "C"


@dataclass
class NetworkConfig:
    n: int                      # total members across both parties
    m: int                      # size of party A
    t: int = 2                  # logical block size (copies per round)
    rounds: int = 100
    test_fraction: float = 0.2
    protocol: int = 1
    auth_enabled: bool = True
    family_params: tuple = (2, 2)

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise InvalidArgumentError("need 1 <= m < n")
        if self.rounds < 1:
            raise InvalidArgumentError("need at least one round")
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidArgumentError("test_fraction must be in (0, 1)")
        if self.protocol not in (1, 2):
            raise InvalidArgumentError("protocol must be 1 or 2")
        if self.t < 1:
            raise InvalidArgumentError("t must be >= 1")
        r, s = self.family_params
        # checked here, not at generation: an unattacked member's family is
        # never generated
        if self.auth_enabled and (r < 2 or s < 2):
            raise InvalidArgumentError(
                f"auth needs family r >= 2 and s >= 2, got ({r}, {s})")
        if self.auth_enabled and self.t != (r - 1) * s:
            raise InvalidArgumentError(
                f"auth needs t = (r-1)s = {(r - 1) * s}, got {self.t}")

    @property
    def members(self) -> list:
        return [f"m{i}" for i in range(1, self.n + 1)]

    @property
    def party_a(self) -> list:
        return self.members[: self.m]

    @property
    def party_b(self) -> list:
        return self.members[self.m:]

    def qubit_budget(self) -> int:
        base = self.n * self.t + (self.t if self.protocol == 2 else 0)
        if self.auth_enabled:
            r, s = self.family_params
            base += r * s - self.t  # widest point: one block expanded to u
        return base


@dataclass
class RoundRecord:
    """One distributed cat-state copy and everything announced about it."""

    round_index: int
    copy_index: int
    bases: dict        # member -> announced direction ("X"/"Y")
    outcomes: dict     # member -> true outcome bit
    y_a: int = 0       # announced Y-direction count mod 4, party A
    y_b: int = 0
    m_a: int | None = None   # collected outcome parity (None if undetermined)
    m_b: int | None = None
    center_basis: str | None = None
    center_outcome: int | None = None
    sifted: bool = False
    b_a: int | None = None
    b_b: int | None = None


def _carries_key_bit(record: RoundRecord, protocol: int) -> bool:
    """Whether a record holds what its key bit is read from: both collected
    parities and, on protocol 2, the center's announced basis and outcome.
    A record without them is undetermined."""
    return (record.m_a is not None and record.m_b is not None
            and (protocol == 1 or record.center_basis is not None
                 and record.center_outcome is not None))


@dataclass
class Transcript:
    config: NetworkConfig
    seed: int
    records: list = field(default_factory=list)
    aborts: list = field(default_factory=list)
    test_indices: list = field(default_factory=list)
    verdict: str | None = None
    key_a: list = field(default_factory=list)
    key_b: list = field(default_factory=list)
    observed_error_rate: float | None = None

    def summary(self) -> dict:
        recs = self.records
        usable = [_carries_key_bit(r, self.config.protocol) for r in recs]
        return {
            "records": len(recs),
            "sifted": sum(r.sifted and u for r, u in zip(recs, usable)),
            "discarded": sum(not r.sifted for r in recs),
            "undetermined": len(recs) - sum(usable),
            "aborted_rounds": len([a for a in self.aborts
                                   if a["cause"] == "syndrome-reject"]),
            "abort_causes": sorted({a["cause"] for a in self.aborts}),
            "test_bits": len(self.test_indices),
            "key_length": len(self.key_a),
            "error_rate": self.observed_error_rate,
            "verdict": self.verdict,
        }


def ring_collect(outcomes, rng):
    """Blinded ring XOR collection; returns (parity, transferred messages).

    The collector (position 0) draws a random blinding bit R, sends
    R xor own outcome; each member XORs in its outcome; the collector
    removes R from the returned message.
    """
    outcomes = [o for o in outcomes]
    if not outcomes:
        raise InvalidArgumentError("need at least one outcome")
    if any(o is None for o in outcomes):
        return None, []
    if len(outcomes) == 1:
        return int(outcomes[0]) & 1, []
    r = int(rng.integers(0, 2))
    messages = []
    acc = r
    for o in outcomes:
        acc ^= int(o) & 1
        messages.append(acc)
    parity = messages[-1] ^ r
    return parity, messages


def sift(records, protocol: int):
    """Mark the records kept by the direction-parity rule; return those of
    them that carry a key bit."""
    kept = []
    for rec in records:
        if protocol == 2:
            rec.sifted = True
        else:
            rec.sifted = (rec.y_a + rec.y_b) % 2 == 0
        if rec.sifted and _carries_key_bit(rec, protocol):
            kept.append(rec)
    return kept


def derive_key_bits(record: RoundRecord, protocol: int):
    """Per-record key bits; party B applies the reconciliation correction
    so that b_a == b_b on noiseless runs."""
    if not _carries_key_bit(record, protocol):
        raise StateError("cannot derive bits from an undetermined record")
    if protocol == 2:
        # the center's one qubit adds a Y count of 0 or 1, so its ybar is 0
        y_c = 1 if record.center_basis == "Y" else 0
        b_c = record.center_outcome
    else:
        y_c, b_c = 0, 0
    ybar_a, ybar_b = record.y_a // 2, record.y_b // 2
    b_a = ybar_a ^ record.m_a
    b_b_raw = ybar_b ^ record.m_b
    total = (record.y_a + record.y_b + y_c) % 4
    if (record.y_a + record.y_b + y_c) % 2 == 1:
        raise StateError("determinate correlation needs even joint Y parity")
    h = ybar_a ^ ybar_b ^ (total // 2)
    b_b = b_b_raw ^ b_c ^ h
    record.b_a, record.b_b = b_a, b_b
    return b_a, b_b


def test_and_finalize(transcript: Transcript, usable, rng) -> None:
    """Close a run: compare a random test subset of the usable records,
    those whose key bits are derived, in public, and keep the untested bits
    as the key if every tested pair agrees.

    Fails the run with abort cause ``no-usable-bits`` or
    ``too-few-test-bits`` before any test draw, so every other run keeps its
    RNG stream, and with ``test-bit-mismatch`` if a tested pair disagrees.
    Sets the verdict, test indices, observed error rate and keys.
    """
    k = int(transcript.config.test_fraction * len(usable))
    if not usable:
        cause = "no-usable-bits"
    elif k < 1:
        cause = "too-few-test-bits"
    else:
        order = rng.permutation(len(usable))
        test_idx = sorted(int(i) for i in order[:k])
        mismatches = sum(1 for i in test_idx
                         if usable[i].b_a != usable[i].b_b)
        transcript.test_indices = test_idx
        transcript.observed_error_rate = mismatches / k
        cause = "test-bit-mismatch" if mismatches else None
    if cause is not None:
        transcript.verdict = "Fail"
        transcript.aborts.append({"round": None, "cause": cause})
        return
    tested = set(test_idx)
    keep = [r for i, r in enumerate(usable) if i not in tested]
    transcript.verdict = "Pass"
    transcript.key_a = [r.b_a for r in keep]
    transcript.key_b = [r.b_b for r in keep]


def _build_families(config: NetworkConfig, channels: dict, rng) -> dict:
    """Member -> its keyed code family, or None for a member no channel
    targets, whose block needs no codes; every member's seed is drawn."""
    r, s = config.family_params
    seeds = {mu: int(rng.integers(2 ** 32)) for mu in config.members}
    return {mu: gen_purity_family(r, s, seed=seed) if channels[mu] else None
            for mu, seed in seeds.items()}


def _initial_state(config: NetworkConfig):
    """Owner-major joint state of t cat-state copies, read-only: one run
    starts every round from it."""
    owners = config.members + ([CENTER] if config.protocol == 2 else [])
    state = states.cat_copies(owners, config.t)
    order = [(mu, c) for mu in owners for c in range(config.t)]
    state = states.permute_labels(state, order)
    state.amplitudes.setflags(write=False)
    return state


def _transit(config, families, channels, state, rng, aborts, round_index):
    """Send each member's block through its channels, authenticated unless
    ``families`` is None; returns the state, or None on a syndrome reject.

    ``state`` is a fresh ``states.PauliFrame`` or a dense state, returned
    as a frame while every step is a Pauli.  Without authentication, each
    channel takes one ``sample_apply``; only an intercept densifies.

    With authentication, every block follows one rule.  It draws its keys,
    then each of its channels' Pauli errors in declaration order.  If no
    error was drawn, as for a block that no channel targets, it takes only
    its syndrome draws and passes on unchanged, as the dense chain would
    return it.  Otherwise it takes the dense pad, encode, errors, syndrome,
    decode and unpad chain.  Intercept-resend draws by measuring the
    encoded block, so a block it targets always takes the chain, with its
    channels after the send.
    """
    r, s = config.family_params
    for mu, member_channels in channels.items():
        if families is None:
            block = [(mu, c) for c in range(config.t)]
            for ch in member_channels:
                state = ch.sample_apply(state, block, rng)
            continue
        keys = auth.keygen(r, s, rng)
        intercepted = any(ch.kind == attacks.INTERCEPT_RESEND
                          for ch in member_channels)
        errors = [] if intercepted else [
            error for ch in member_channels
            for error in ch.draw_paulis([(mu, i) for i in range(r * s)], rng)]
        if not (intercepted or errors):
            auth.untouched_receive(s, rng)
            continue
        state = state.densify()
        fam = families[mu]
        block = [(mu, c) for c in range(config.t)]
        phys = [(mu, i) for i in range(fam.u)]
        state = auth.auth_send_in_place(keys, fam, state, block,
                                        out_labels=phys)
        if intercepted:
            for ch in member_channels:
                state = ch.sample_apply(state, phys, rng)
        for op, labels in errors:
            state = states.apply_pauli(state, op, labels)
        outcome = auth.auth_receive_in_place(keys, fam, state, phys, rng,
                                             out_labels=block)
        if not outcome.accepted:
            aborts.append({"round": round_index,
                           "cause": "syndrome-reject", "member": mu})
            return None
        state = outcome.logical_state
    return state


def _measure_members(members, t, state, rng):
    bases = {}
    outcomes = {}
    for mu in members:
        bases[mu] = []
        outcomes[mu] = []
        for c in range(t):
            b = "X" if rng.integers(0, 2) == 0 else "Y"
            bit, state = states.measure_qubit(state, (mu, c), b, rng)
            bases[mu].append(b)
            outcomes[mu].append(bit)
    return bases, outcomes, state


def _announced_bases(dishonest, bases, rng):
    announced = {}
    for mu, spec in dishonest.items():
        if spec is not None and spec.mode == "lie_basis":
            announced[mu] = [attacks.corrupt_announcement(b, spec, rng)
                             for b in bases[mu]]
        else:
            announced[mu] = list(bases[mu])
    return announced


def _collect_party_parity(party, dishonest, outcomes, copy, rng):
    """The party's announced outcome parity, collected around the ring from
    its first member."""
    contributions = [
        attacks.corrupt_announcement(outcomes[mu][copy], dishonest[mu], rng)
        for mu in party]
    parity, _ = ring_collect(contributions, rng)
    return parity


def _check_targets(config: NetworkConfig, adversary: AdversarySpec) -> None:
    """Reject, before the first round, attacks no round could carry out."""
    named = {d.member for d in adversary.dishonest}.union(
        *(ch.targets for ch in adversary.channels))
    unknown = sorted(named - set(config.members) - {CENTER})
    if unknown:
        raise InvalidArgumentError(
            f"adversary names unknown members {unknown}; this network has "
            f"m1 .. m{config.n} and {CENTER}")
    # the center's qubits never transit, so only classical attacks reach it
    if adversary.channels_for(CENTER):
        raise InvalidArgumentError(
            f"quantum channels cannot target the center {CENTER}; its "
            f"qubits never leave it")
    members = [d.member for d in adversary.dishonest]
    twice = sorted({mu for mu in members if members.count(mu) > 1})
    if twice:
        raise InvalidArgumentError(
            f"adversary gives {twice} more than one dishonest behavior; "
            f"a member carries out only one")
    # only protocol 2's center announces, and it can only withhold that
    center = adversary.dishonest_for(CENTER)
    if center is not None and (config.protocol == 1
                               or center.mode != "silent_drop"):
        raise InvalidArgumentError(
            f"{center.mode.replace('_', '-')}@{CENTER} has no effect on "
            f"protocol {config.protocol}; only silent-drop reaches the "
            f"center, on protocol 2")
    r, s = config.family_params
    width = r * s if config.auth_enabled else config.t
    for ch in adversary.channels:
        ch.check_arity(width)


def _run(config: NetworkConfig, adversary: AdversarySpec, seed: int,
         protocol: int) -> Transcript:
    if config.protocol != protocol:
        raise InvalidArgumentError(f"config.protocol must be {protocol}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgumentError("seed must be a non-negative integer")
    # before _check_targets, which lists every member
    states.check_capacity(config.qubit_budget(), "the run's widest state")
    _check_targets(config, adversary)
    rng = np.random.default_rng(seed)
    members, party_a, party_b = config.members, config.party_a, config.party_b
    channels = {mu: adversary.channels_for(mu) for mu in members}
    families = (_build_families(config, channels, rng)
                if config.auth_enabled else None)
    transcript = Transcript(config=config, seed=int(seed))
    center_drop = adversary.dishonest_for(CENTER)
    identity = states.PauliFrame(_initial_state(config))
    dishonest = {mu: adversary.dishonest_for(mu) for mu in members}
    for rnd in range(config.rounds):
        state = _transit(config, families, channels, identity.copy(), rng,
                         transcript.aborts, rnd)
        if state is None:
            continue
        bases, outcomes, state = _measure_members(members, config.t, state,
                                                  rng)
        announced = _announced_bases(dishonest, bases, rng)
        if config.protocol == 2 and center_drop is not None:
            transcript.aborts.append({"round": rnd,
                                      "cause": "center-withheld"})
        for c in range(config.t):
            y_a = sum(1 for mu in party_a if announced[mu][c] == "Y") % 4
            y_b = sum(1 for mu in party_b if announced[mu][c] == "Y") % 4
            rec = RoundRecord(round_index=rnd, copy_index=c,
                              bases={mu: announced[mu][c] for mu in members},
                              outcomes={mu: outcomes[mu][c]
                                        for mu in members},
                              y_a=y_a, y_b=y_b)
            if config.protocol == 2:
                cb = "Y" if (y_a + y_b) % 2 == 1 else "X"
                bit, state = states.measure_qubit(state, (CENTER, c), cb, rng)
                if center_drop is None:  # silent-drop withholds both
                    rec.center_basis, rec.center_outcome = cb, bit
            rec.m_a = _collect_party_parity(party_a, dishonest, outcomes, c,
                                            rng)
            rec.m_b = _collect_party_parity(party_b, dishonest, outcomes, c,
                                            rng)
            transcript.records.append(rec)
    usable = sift(transcript.records, config.protocol)
    for rec in usable:
        derive_key_bits(rec, config.protocol)
    test_and_finalize(transcript, usable, rng)
    return transcript


def run_protocol1(config: NetworkConfig, adversary: AdversarySpec,
                  seed: int) -> Transcript:
    return _run(config, adversary, seed, protocol=1)


def run_protocol2(config: NetworkConfig, adversary: AdversarySpec,
                  seed: int) -> Transcript:
    return _run(config, adversary, seed, protocol=2)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

# A record's true outcomes give its collected parities, and those give its
# key bits: the untested records' bits are the final key, bit for bit.
_SECRET_RECORD_FIELDS = ("outcomes", "m_a", "m_b", "b_a", "b_b")
# one encoder for every line, where json.dumps(..., sort_keys=True) builds
# a new one per call: the same text in less time
_encode = json.JSONEncoder(sort_keys=True).encode


def transcript_to_jsonl(transcript: Transcript,
                        reveal_secrets: bool = False) -> str:
    """JSON lines: one object per record, then a summary block.

    Key material (the final keys and each record's secret fields) is
    redacted unless requested.
    """
    lines = []
    header = {"config": asdict(transcript.config), "seed": transcript.seed}
    lines.append(_encode({"header": header}))
    for rec in transcript.records:
        fields = vars(rec)
        if not reveal_secrets:
            fields = {k: v for k, v in fields.items()
                      if k not in _SECRET_RECORD_FIELDS}
        lines.append(_encode({"record": fields}))
    for ab in transcript.aborts:
        lines.append(_encode({"abort": ab}))
    summary = transcript.summary()
    summary["test_indices"] = transcript.test_indices
    if reveal_secrets:
        summary["key_a"] = transcript.key_a
        summary["key_b"] = transcript.key_b
    lines.append(_encode({"summary": summary}))
    return "\n".join(lines) + "\n"
