"""Attack and fault models: transit channels, an intercept-resend
eavesdropper, and dishonest behavior at the classical announcement steps.

Spec strings follow the mini-grammar ``kind[:param=value;...]@memberN``,
comma separated, e.g. ``depolarize:p=0.1@m2,intercept@m1,lie-outcome:p=1.0@m3``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import states
from .errors import InvalidArgumentError
from .paulis import PauliOperator

IDENTITY = "identity"
DEPOLARIZING = "depolarizing"
PAULI_CHANNEL = "pauli"
INTERCEPT_RESEND = "intercept_resend"
FIXED_PAULI = "fixed_pauli"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ChannelSpec:
    """A CPTP attack on the qubits of the targeted members.

    Every kind is a mixture of Pauli errors (``pauli_mixture``).  Identity,
    depolarizing, intercept-resend and a one-letter fixed Pauli act on each
    target qubit alone; ``pauli`` tables and multi-letter fixed Paulis act
    jointly on the whole target block.  A spec is frozen, so what is derived
    from its mixture is built once.
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
            if not self.bases or not set(self.bases) <= {"X", "Y", "Z"}:
                raise InvalidArgumentError("intercept bases must be X/Y/Z")
        if self.kind == FIXED_PAULI and not self.operator:
            raise InvalidArgumentError("fixed_pauli needs an operator string")
        if self.kind in (PAULI_CHANNEL, FIXED_PAULI):
            for pstr in list(self.pauli_probs) + [self.operator]:
                if pstr.strip("IXYZ"):
                    raise InvalidArgumentError(
                        f"unknown Pauli letter in {pstr!r}")
        object.__setattr__(self, "targets", tuple(self.targets))

    # ---- the channel as a mixture of Pauli errors -------------------------

    def pauli_mixture(self) -> list:
        """``(Pauli string, probability)`` pairs whose mixture is the channel.

        One-letter strings act on each target qubit alone, longer ones on
        the whole target block.  Intercept-resend over bases B dephases
        the qubit in a random basis of B: rho/2 + sum_b b rho b / (2|B|).
        """
        if self.kind == IDENTITY:
            return [("I", 1.0)]
        if self.kind == DEPOLARIZING:
            return list(zip("IXYZ", [1 - 3 * self.p / 4] + [self.p / 4] * 3))
        if self.kind == INTERCEPT_RESEND:
            w = 1 / (2 * len(self.bases))
            return [("I", 0.5)] + [(b, w) for b in self.bases]
        if self.kind == FIXED_PAULI:
            return [(self.operator, 1.0)]
        return sorted(self.pauli_probs.items())

    @cached_property
    def _widths(self) -> set:
        return {len(pstr) for pstr, _ in self.pauli_mixture()}

    @cached_property
    def _draws(self) -> tuple:
        """The mixture as trajectories draw it: each entry's operator (None
        for an identity) and the normalized probabilities (None for a
        single entry, which needs no draw)."""
        mixture = self.pauli_mixture()
        ops = [PauliOperator.from_string(pstr) if pstr.strip("I") else None
               for pstr, _ in mixture]
        probs = np.array([prob for _, prob in mixture])
        return ops, (probs / probs.sum()).tolist() if len(ops) > 1 else None

    def is_per_qubit(self) -> bool:
        return self._widths == {1}

    def check_arity(self, num_qubits: int) -> None:
        """Reject block-wide Pauli strings that do not act on exactly
        ``num_qubits`` qubits."""
        if self._widths != {1} and self._widths != {num_qubits}:
            raise InvalidArgumentError(
                f"{self.kind} operators act on {sorted(self._widths)} "
                f"qubits, the target block has {num_qubits}")

    @cached_property
    def _kraus_by_width(self) -> dict:
        return {}

    @cached_property
    def _superoperator_by_width(self) -> dict:
        return {}

    def kraus_terms(self, num_qubits: int) -> np.ndarray:
        """Read-only stack of the Kraus matrices sqrt(p) P on 2^num_qubits
        dimensions, built once per width; a per-qubit mixture is tensored
        over the qubits."""
        self.check_arity(num_qubits)
        terms = self._kraus_by_width.get(num_qubits)
        if terms is None:
            terms = np.array([
                np.sqrt(prob) * PauliOperator.from_string(pstr).to_matrix()
                for pstr, prob in self.pauli_mixture()])
            if self.is_per_qubit():
                # every kron(t, s), t major, one qubit at a time
                singles, terms = terms, np.ones((1, 1, 1), dtype=complex)
                for _ in range(num_qubits):
                    dim = 2 * terms.shape[-1]
                    terms = np.einsum("aij,bkl->abikjl", terms,
                                      singles).reshape(-1, dim, dim)
            terms = self._kraus_by_width[num_qubits] = _read_only(terms)
        return terms

    def superoperator(self, num_qubits: int) -> np.ndarray:
        """Read-only sum_k K (x) conj(K) of the Kraus terms on num_qubits
        qubits, built once per width: rows (ket out, bra out), columns
        (ket in, bra in)."""
        sup = self._superoperator_by_width.get(num_qubits)
        if sup is None:
            k = self.kraus_terms(num_qubits)
            dim = 4 ** num_qubits
            sup = self._superoperator_by_width[num_qubits] = _read_only(
                np.einsum("kij,kab->iajb", k, k.conj()).reshape(dim, dim))
        return sup

    # ---- pathwise (pure-trajectory) form --------------------------------

    def sample_apply(self, state, labels, rng):
        """Apply one stochastic trajectory of the channel to a pure state:
        one Pauli drawn from the mixture per qubit or per block."""
        labels = [tuple(l) for l in labels]
        self.check_arity(len(labels))
        if self.kind == INTERCEPT_RESEND:
            # measure in a random basis and resend the eigenstate: the
            # channel of its mixture, drawing a basis and an outcome per qubit
            for lab in labels:
                basis = self.bases[rng.integers(0, len(self.bases))]
                bit, rest = states.measure_qubit(state, lab, basis, rng)
                state = states.permute_labels(states.tensor(
                    rest, states.eigenstate(basis, bit, lab)), state.labels)
            return state
        ops, probs = self._draws
        blocks = [[lab] for lab in labels] if self.is_per_qubit() else [labels]
        for block in blocks:
            op = ops[0] if probs is None else ops[rng.choice(len(ops), p=probs)]
            if op is not None:
                state = states.apply_pauli(state, op, block)
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
