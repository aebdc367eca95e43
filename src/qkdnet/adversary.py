"""Attack and fault models: transit channels, an intercept-resend
eavesdropper, and dishonest behavior at the classical announcement steps.

Spec strings follow the mini-grammar ``kind[:param=value;...]@memberN``,
comma separated, e.g. ``depolarize:p=0.1@m2,intercept@m1,lie-outcome:p=1.0@m3``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import states
from .errors import InvalidArgumentError
from .paulis import PauliOperator

IDENTITY = "identity"
DEPOLARIZING = "depolarizing"
PAULI_CHANNEL = "pauli"
INTERCEPT_RESEND = "intercept_resend"
FIXED_PAULI = "fixed_pauli"

# one-letter operators shared by the per-qubit Kraus and trajectory forms
_LETTER_OPS = {c: PauliOperator.from_string(c) for c in "IXYZ"}


@dataclass
class ChannelSpec:
    """A CPTP attack on the qubits of the targeted members.

    Per-qubit kinds (identity, depolarizing, intercept-resend, single-letter
    fixed Pauli) act independently on each target qubit; ``pauli`` tables and
    multi-letter fixed Paulis act jointly on the whole target block.
    """

    kind: str
    p: float = 0.0
    pauli_probs: dict = field(default_factory=dict)
    bases: tuple = ("X", "Y")
    operator: str = ""
    targets: tuple = ()

    def __post_init__(self):
        if self.kind not in (IDENTITY, DEPOLARIZING, PAULI_CHANNEL,
                             INTERCEPT_RESEND, FIXED_PAULI):
            raise InvalidArgumentError(f"unknown channel kind {self.kind!r}")
        if self.kind == DEPOLARIZING and not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError("depolarizing p must be in [0, 1]")
        if self.kind == PAULI_CHANNEL:
            # written so that a NaN probability fails both checks
            total = sum(self.pauli_probs.values())
            if not abs(total - 1.0) <= 1e-12:
                raise InvalidArgumentError("Pauli probabilities must sum to 1")
            if not all(p >= 0 for p in self.pauli_probs.values()):
                raise InvalidArgumentError("Pauli probabilities must be >= 0")
        if self.kind == INTERCEPT_RESEND:
            if not self.bases or any(b not in "XYZ" for b in self.bases):
                raise InvalidArgumentError("intercept bases must be X/Y/Z")
        if self.kind == FIXED_PAULI and not self.operator:
            raise InvalidArgumentError("fixed_pauli needs an operator string")
        if self.kind in (PAULI_CHANNEL, FIXED_PAULI):
            for pstr in list(self.pauli_probs) + [self.operator]:
                if pstr.strip("IXYZ"):
                    raise InvalidArgumentError(
                        f"unknown Pauli letter in {pstr!r}")
        self.targets = tuple(self.targets)

    # ---- exact CPTP form ------------------------------------------------

    def single_qubit_kraus(self) -> list:
        if self.kind == IDENTITY:
            return [np.eye(2, dtype=complex)]
        if self.kind == DEPOLARIZING:
            p = self.p
            return [np.sqrt(w) * _LETTER_OPS[c].to_matrix()
                    for w, c in zip([1 - 3 * p / 4] + [p / 4] * 3, "IXYZ")]
        if self.kind == INTERCEPT_RESEND:
            ops = []
            w = 1 / np.sqrt(len(self.bases))
            for b in self.bases:
                for e in states.eigenvectors(b):
                    ops.append(w * np.outer(e, e.conj()))
            return ops
        if self.kind == FIXED_PAULI and len(self.operator) == 1:
            return [PauliOperator.from_string(self.operator).to_matrix()]
        raise InvalidArgumentError(f"{self.kind} has no per-qubit Kraus form")

    def check_arity(self, num_qubits: int) -> None:
        """Reject a Pauli table or multi-letter fixed Pauli whose operators
        do not act on exactly ``num_qubits`` qubits."""
        if self.kind == PAULI_CHANNEL:
            widths = {len(pstr) for pstr in self.pauli_probs}
        elif self.kind == FIXED_PAULI and len(self.operator) > 1:
            widths = {len(self.operator)}
        else:
            return
        if widths != {num_qubits}:
            raise InvalidArgumentError(
                f"{self.kind} operators act on {sorted(widths)} qubits, "
                f"the target block has {num_qubits}")

    def is_per_qubit(self) -> bool:
        if self.kind == FIXED_PAULI:
            return len(self.operator) == 1
        return self.kind != PAULI_CHANNEL

    def kraus_terms(self, num_qubits: int) -> list:
        """Kraus matrices on 2^num_qubits dimensions."""
        self.check_arity(num_qubits)
        if self.kind == PAULI_CHANNEL:
            return [np.sqrt(prob) * PauliOperator.from_string(pstr).to_matrix()
                    for pstr, prob in sorted(self.pauli_probs.items())]
        if self.kind == FIXED_PAULI and len(self.operator) > 1:
            return [PauliOperator.from_string(self.operator).to_matrix()]
        singles = self.single_qubit_kraus()
        terms = [np.array([[1.0 + 0j]])]
        for _ in range(num_qubits):
            terms = [np.kron(t, s) for t in terms for s in singles]
        return terms

    # ---- pathwise (pure-trajectory) form --------------------------------

    def sample_apply(self, state, labels, rng):
        """Apply one stochastic trajectory of the channel to a pure state."""
        labels = [tuple(l) for l in labels]
        if self.kind == IDENTITY:
            return state
        self.check_arity(len(labels))
        if self.kind == FIXED_PAULI:
            if len(self.operator) == 1:
                op = _LETTER_OPS[self.operator]
                for lab in labels:
                    state = states.apply_pauli(state, op, [lab])
                return state
            return states.apply_pauli(
                state, PauliOperator.from_string(self.operator), labels)
        if self.kind == DEPOLARIZING:
            probs = [1 - 3 * self.p / 4] + [self.p / 4] * 3
            letters = "IXYZ"
            for lab in labels:
                c = letters[rng.choice(4, p=probs)]
                if c != "I":
                    state = states.apply_pauli(state, _LETTER_OPS[c], [lab])
            return state
        if self.kind == PAULI_CHANNEL:
            items = sorted(self.pauli_probs.items())
            probs = np.array([p for _, p in items])
            pick = items[rng.choice(len(items), p=probs / probs.sum())][0]
            return states.apply_pauli(
                state, PauliOperator.from_string(pick), labels)
        # intercept-resend: measure in a random basis, forward the eigenstate
        for lab in labels:
            basis = self.bases[rng.integers(0, len(self.bases))]
            order = state.labels
            bit, rest = states.measure_qubit(state, lab, basis, rng)
            state = states.tensor(rest, states.eigenstate(basis, bit, lab))
            state = states.permute_labels(state, order)
        return state


@dataclass
class DishonestSpec:
    """Classical-step misbehavior of one member (never quantum evolution)."""

    member: str
    mode: str  # lie_basis | lie_outcome | silent_drop
    p: float = 1.0

    def __post_init__(self):
        if self.mode not in ("lie_basis", "lie_outcome", "silent_drop"):
            raise InvalidArgumentError(f"unknown dishonest mode {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError("flip probability must be in [0, 1]")


@dataclass
class AdversarySpec:
    """A full attack configuration: channels plus dishonest members."""

    channels: list = field(default_factory=list)
    dishonest: list = field(default_factory=list)

    def channels_for(self, member: str) -> list:
        # declaration order defines composition order
        return [c for c in self.channels if member in c.targets]

    def dishonest_for(self, member: str):
        for d in self.dishonest:
            if d.member == member:
                return d
        return None


def apply_attack(state: states.DensityMatrix, spec: ChannelSpec):
    """Exact CPTP application of one channel to a density matrix."""
    targets = [lab for lab in state.labels if lab[0] in spec.targets]
    if not targets:
        raise InvalidArgumentError("no target member qubits present in state")
    return states.apply_channel(state, spec, targets)


def corrupt_announcement(truth, spec: DishonestSpec | None, rng):
    """Possibly falsified announcement of a basis or outcome bit."""
    if spec is None:
        return truth
    if spec.mode == "lie_basis":
        # p = 1, the default, draws nothing, so such runs keep their stream
        if truth in ("X", "Y") and (spec.p >= 1.0 or rng.random() < spec.p):
            return "Y" if truth == "X" else "X"
        return truth
    if spec.mode == "lie_outcome":
        if rng.random() < spec.p:
            return truth ^ 1
        return truth
    return None  # silent_drop: nothing is announced


# --------------------------------------------------------------------------
# spec-string grammar
# --------------------------------------------------------------------------

_KIND_ALIASES = {
    "identity": (IDENTITY, False),
    "depolarize": (DEPOLARIZING, False),
    "depolarizing": (DEPOLARIZING, False),
    "pauli": (PAULI_CHANNEL, False),
    "intercept": (INTERCEPT_RESEND, False),
    "intercept-resend": (INTERCEPT_RESEND, False),
    "fixed-pauli": (FIXED_PAULI, False),
    "lie-basis": ("lie_basis", True),
    "lie-outcome": ("lie_outcome", True),
    "silent-drop": ("silent_drop", True),
}

# the parameters each kind reads; a pauli table reads its Pauli strings
_KIND_PARAMS = {
    IDENTITY: (), DEPOLARIZING: ("p",), INTERCEPT_RESEND: ("bases",),
    FIXED_PAULI: ("op",), "lie_basis": ("p",), "lie_outcome": ("p",),
    "silent_drop": (),
}


def _normalize_member(name: str) -> str:
    """Accept ``m3``, ``member3``, or ``center``/``c`` spellings, any case."""
    low = name.lower()
    if low in ("c", "center"):
        return "C"
    if low.startswith("member") and low[6:].isdigit():
        return "m" + low[6:]
    return low


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(
            f"parameter {key!r} is not a number: {text!r}") from None


def parse_adversary(text: str | None) -> AdversarySpec:
    """Parse the comma-separated ``kind[:param=value...]@member`` grammar."""
    spec = AdversarySpec()
    if not text:
        return spec
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise InvalidArgumentError(f"missing @member in {chunk!r}")
        head, member = chunk.rsplit("@", 1)
        if not member:
            raise InvalidArgumentError(f"empty member in {chunk!r}")
        member = _normalize_member(member)
        name, colon, paramstr = head.partition(":")
        if colon and not paramstr:
            raise InvalidArgumentError(f"empty parameter list in {chunk!r}")
        if name not in _KIND_ALIASES:
            raise InvalidArgumentError(f"unknown attack kind {name!r}")
        kind, is_dishonest = _KIND_ALIASES[name]
        params = {}
        if paramstr:
            for pair in paramstr.split(";"):
                if "=" not in pair:
                    raise InvalidArgumentError(f"bad parameter {pair!r}")
                k, v = (x.strip() for x in pair.split("=", 1))
                if k in params:
                    raise InvalidArgumentError(
                        f"parameter {k!r} given twice in {chunk!r}")
                params[k] = v
        if kind == PAULI_CHANNEL:
            read = {k for k in params if k and not k.upper().strip("IXYZ")}
        else:
            read = set(_KIND_PARAMS[kind])
        unread = sorted(set(params) - read)
        if unread:
            raise InvalidArgumentError(
                f"{name} does not take parameters {unread}")
        if is_dishonest:
            p = _number("p", params.get("p", "1.0"))
            spec.dishonest.append(DishonestSpec(member=member, mode=kind, p=p))
            continue
        kwargs = {"kind": kind, "targets": (member,)}
        if kind == PAULI_CHANNEL:
            table = {k.upper(): _number(k, v) for k, v in params.items()}
            if len(table) != len(params):
                raise InvalidArgumentError(
                    f"a Pauli string is given twice in {chunk!r}")
            kwargs["pauli_probs"] = table
        if "p" in params:
            kwargs["p"] = _number("p", params["p"])
        if "bases" in params:
            kwargs["bases"] = tuple(params["bases"].upper())
        if "op" in params:
            kwargs["operator"] = params["op"].upper()
        spec.channels.append(ChannelSpec(**kwargs))
    return spec
